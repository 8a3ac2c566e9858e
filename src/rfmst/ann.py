"""Dense MLP engine with first- and second-order trainers.

Networks are plain weight/bias lists with tanh hidden layers and a linear
output layer.  The second-order trainer is a damped Gauss-Newton
(Levenberg-Marquardt) loop for single-output nets, the only kind multi-stage
training builds.  Each step runs one forward and one backward sweep of the
net, then solves either the primal (P x P) or dual (B x B) normal
equations, whichever is smaller.  The primal form builds the explicit
one-row-per-sample Jacobian J and J'J.  The dual form never forms J: a
layer's block of J is a row-wise Kronecker product of its input activations
A and output sensitivities D, so its share of JJ' is (AA' + 1) * (DD'),
elementwise, and J'v is assembled layer by layer from A'(D * v).  That
costs O(B^2 * sum of fan_in + fan_out) instead of O(B^2 * P).  The damped
system is solved by Cholesky, cho_factor and cho_solve from
rfmst.openblas: scipy's f2py LAPACK dpotrf and dpotrs, bit for bit
scipy.linalg's results without importing scipy.linalg.  _lm_delta calls
cho_factor through this module's global, so a tracer can wrap it.  The
first-order trainer is full-batch steepest descent; its MSE gradient,
-2/B * J'r, comes from the same sweep.

"A-LM", the paper's accelerated Levenberg-Marquardt, is this damped
Gauss-Newton trainer with its dual-form Gram.  Its acceleration is
computational: the dual Gram here, and in rfmst.mst float32 stages packed
for one GEMM each and a stage's MLPs trained in forked workers.  Geodesic
acceleration, a second-order correction to each step, was measured on
both benchmark workloads: it was slower, took more iterations and was
mostly less accurate, so it is not used.

No function writes a net's arrays in place: a step returns a new net or
the one it was given, so a trainer may keep any net by reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from .manifest import as_count, as_real
from .openblas import cho_factor, cho_solve

MU_INIT = 1e-3
MU_INC = 10.0
MU_DEC = 0.1
MU_CEILING = 1e9   # hard clamp so rejected iterations cannot grow mu forever
MU_FLOOR = 1e-20


@dataclass
class Mlp:
    """Fully connected net: tanh hidden layers, identity output layer.

    weights[l] has shape (fan_in, fan_out); biases[l] has shape (fan_out,).
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_params(self) -> int:
        return count_parameters(self.layer_sizes)


def init_mlp(layer_sizes, seed=None) -> Mlp:
    """Create an MLP with weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    seed is anything np.random.default_rng takes, a Generator included, which
    it uses as it is.
    """
    sizes = tuple(as_count("layer size", s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"invalid layer sizes {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        lim = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-lim, lim, size=fan_out))
    return Mlp(sizes, weights, biases)


def count_parameters(layer_sizes) -> int:
    """True parameter count: every weight matrix and bias vector."""
    sizes = tuple(layer_sizes)
    return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


def count_hidden_parameters(layer_sizes) -> int:
    """Counting rule used in the complexity accounting: hidden-layer weights
    plus hidden biases; the output layer contributes nothing."""
    sizes = tuple(layer_sizes)
    hidden = sizes[1:-1]
    fan_ins = sizes[:-2]
    return sum(a * h for a, h in zip(fan_ins, hidden)) + sum(hidden)


# Per-stage totals quoted for the canonical 60/30/30 system.  The first two
# rows differ from count_hidden_parameters by -20 and -10 (arithmetic slips
# in the source accounting, kept verbatim); the complexity report flags the
# gap instead of correcting it.
QUOTED_STAGE_PARAMS = {
    (1024, 10, 10, 1): 10_340,
    (60, 15, 15, 1): 1_145,
    (30, 15, 15, 1): 705,
}


def count_parameters_reference(layer_sizes) -> int:
    """Parameter total under the reference accounting, verbatim.

    Returns the quoted total for the three canonical stage shapes (including
    their arithmetic slips) and falls back to the stated counting rule
    (hidden weights + hidden biases) for any other shape.
    """
    shape = tuple(as_count("layer size", s) for s in layer_sizes)
    return QUOTED_STAGE_PARAMS.get(shape, count_hidden_parameters(shape))


def complexity_ratios(total_params, stages, exponent=2.373) -> dict:
    """Speed/memory ratios of a staged system vs one monolithic net.

    stages: sequence of (mlp_count, params_per_mlp).  Solve cost is modeled
    as params**exponent, Hessian storage as params**2.  Serial speedup uses
    every MLP's cost; parallel speedup charges one MLP per stage (stages are
    sequential, MLPs within a stage run concurrently).  Serial memory holds
    one Hessian at a time; parallel memory holds all of them.
    """
    n = float(total_params)
    if n <= 0 or any(c < 1 or p <= 0 for c, p in stages):
        raise ValueError("parameter counts must be positive")
    serial_cost = sum(c * p**exponent for c, p in stages)
    critical_cost = sum(p**exponent for _, p in stages)
    single_mem = sum(p**2 for _, p in stages)
    all_mem = sum(c * p**2 for c, p in stages)
    return {
        "serial_speedup": n**exponent / serial_cost,
        "parallel_speedup": n**exponent / critical_cost,
        "serial_mem": n**2 / single_mem,
        "parallel_mem": n**2 / all_mem,
    }


# ---------------------------------------------------------------------------
# forward / backward


def _as_batch(x, n_in):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != n_in:
        raise ValueError(f"expected (*, {n_in}) input, got {x.shape}")
    return x


def forward(net: Mlp, x) -> np.ndarray:
    """Batch forward pass; returns (B, n_out) (or (n_out,) for 1-D input)."""
    y = _forward_activations(net, x)[-1]
    return y[0] if np.ndim(x) == 1 else y


def _forward_activations(net: Mlp, x):
    """Forward pass keeping every layer's activations (a[0] is the input)."""
    acts = [_as_batch(x, net.layer_sizes[0])]
    last = net.n_layers - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        acts.append(z if l == last else np.tanh(z))
    return acts


def _as_targets(t, n_rows, n_out):
    """Targets as a (B, n_out) float array; any other shape raises, so a
    1-D target cannot broadcast against the (B, n_out) output."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (n_rows, n_out):
        raise ValueError(f"expected ({n_rows}, {n_out}) targets, got {t.shape}")
    return t


def mse(net: Mlp, x, t) -> float:
    y = forward(net, x).reshape(-1, net.layer_sizes[-1])
    return float(np.mean((_as_targets(t, *y.shape) - y) ** 2))


def pack_parameters(net: Mlp) -> np.ndarray:
    parts = []
    for w, b in zip(net.weights, net.biases):
        parts.append(w.reshape(-1))
        parts.append(b)
    return np.concatenate(parts)


def unpack_parameters(layer_sizes, theta: np.ndarray) -> Mlp:
    """New Mlp of the given layer sizes, its parameters copied from the flat
    vector in pack_parameters order."""
    sizes = tuple(as_count("layer size", s) for s in layer_sizes)
    expected = count_parameters(sizes)
    if theta.size != expected:
        raise ValueError(
            f"parameter vector length {theta.size}, expected {expected}")
    weights, biases = [], []
    k = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(theta[k : k + fan_in * fan_out]
                       .reshape(fan_in, fan_out).copy())
        k += fan_in * fan_out
        biases.append(theta[k : k + fan_out].copy())
        k += fan_out
    return Mlp(sizes, weights, biases)


def _backward_sweep(net: Mlp, x):
    """Output of a single-output net and each layer's (A, D) pair.

    A is the layer's (B, fan_in) input activations and D = d y / d z its
    (B, fan_out) output sensitivities, from one forward and one backward
    sweep.  Row b of the layer's weight block of the Jacobian is the outer
    product of A[b] and D[b], and row b of its bias block is D[b].
    """
    if net.layer_sizes[-1] != 1:
        raise ValueError(f"need a single-output net, got {net.layer_sizes}")
    acts = _forward_activations(net, x)
    layers = [None] * net.n_layers
    delta = np.ones((acts[0].shape[0], 1))
    for l in range(net.n_layers - 1, -1, -1):
        layers[l] = (acts[l], delta)
        if l > 0:
            delta = (delta @ net.weights[l].T) * (1.0 - acts[l] ** 2)
    return acts[-1], layers


def output_jacobian(net: Mlp, x) -> tuple[np.ndarray, np.ndarray]:
    """Output and parameter Jacobian of a single-output net, from one
    forward pass.

    Returns (y, jac): y is the (B, 1) output, and row b of jac is
    d y(x_b) / d theta, with columns in pack_parameters order.  For a
    bias-free single linear layer the weight columns are exactly the inputs.
    """
    y, layers = _backward_sweep(net, x)
    b_sz = y.shape[0]
    jac = np.empty((b_sz, net.n_params))
    col = 0
    for a, d in layers:
        w_size = a.shape[1] * d.shape[1]
        block = np.einsum("bi,bj->bij", a, d)
        jac[:, col : col + w_size] = block.reshape(b_sz, w_size)
        col += w_size
        jac[:, col : col + d.shape[1]] = d
        col += d.shape[1]
    return y, jac


def _dual_gram(layers) -> np.ndarray:
    """J J' summed layer by layer as (A A' + 1) * (D D'), never forming J.

    layers come from _backward_sweep, which seeds the output layer's D
    with ones, so that layer's block is A A' + 1 alone.
    """
    gram = None
    last = len(layers) - 1
    for l, (a, d) in enumerate(layers):
        block = a @ a.T
        block += 1.0
        if l != last:
            block *= d @ d.T
        if gram is None:
            gram = block
        else:
            gram += block
    return gram


def _jt_dot(layers, v) -> np.ndarray:
    """J' v in pack_parameters order, from the (A, D) pairs."""
    parts = []
    for a, d in layers:
        dv = d * v[:, None]
        parts.append((a.T @ dv).reshape(-1))
        parts.append(dv.sum(axis=0))
    return np.concatenate(parts)


def gradient(net: Mlp, x, t) -> np.ndarray:
    """Flat gradient of the batch MSE of a single-output net, -2/B * J'r
    with r = t - y, from one backward sweep; J is never formed."""
    y, layers = _backward_sweep(net, x)
    r = (_as_targets(t, *y.shape) - y).reshape(-1)
    return _jt_dot(layers, r) * (-2.0 / r.size)


# ---------------------------------------------------------------------------
# optimizers
#
# An optimizer's step(net, x, t) returns (net', train_mse, mu, accepted),
# where mu is the damping factor after the step (0.0 for first-order steps).
# lm_step returns that tuple itself, so LmState.step only passes its state.


@dataclass
class LmState:
    """Levenberg-Marquardt optimizer: the damping factor of one training run."""

    mu: float = MU_INIT

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")

    def step(self, net, x, t):
        return lm_step(net, x, t, self)


def _lm_delta(gram, jt_dot, r, mu, dual):
    # one Fortran-ordered copy, the layout dpotrf factors in place
    a = np.array(gram, order="F")
    a.T.flat[:: a.shape[0] + 1] += mu
    factor = cho_factor(a)
    if dual:
        return jt_dot(cho_solve(factor, r))
    return cho_solve(factor, jt_dot(r))


def lm_step(net: Mlp, x, t, state: LmState):
    """One damped Gauss-Newton iteration on the batch (x, t).

    Solves (J'J + mu I) delta = J'r with r = target - output and J the
    output Jacobian.  When the batch is smaller than the parameter vector
    it takes the dual form, delta = J'(JJ' + mu I)^-1 r, with JJ' and J'v
    built from the layers' activations and sensitivities and J never
    formed; otherwise the primal form solves with the explicit Jacobian
    from output_jacobian.  Either way the output and the sweep come from
    one forward pass of net; every other forward pass is of a candidate.
    The net must have a single output and t shape (B, 1).  The step is
    accepted only if the batch MSE strictly decreases; otherwise mu is
    raised and the solve retried with the same Gram matrix, so a step is
    rejected only with mu at MU_CEILING.  Updates state.mu in place and
    returns (net', mse', mu', accepted), the optimizer step's tuple.
    """
    x = _as_batch(x, net.layer_sizes[0])
    t = _as_targets(t, x.shape[0], net.layer_sizes[-1])
    dual = x.shape[0] < net.n_params
    if dual:
        y, layers = _backward_sweep(net, x)
        gram = _dual_gram(layers)
        jt_dot = partial(_jt_dot, layers)
    else:
        y, jac = output_jacobian(net, x)
        gram = jac.T @ jac
        jt_dot = partial(np.matmul, jac.T)
    r = (t - y).reshape(-1)
    mse0 = float(np.mean(r**2))
    theta = pack_parameters(net)
    while True:
        try:
            delta = _lm_delta(gram, jt_dot, r, state.mu, dual)
        except np.linalg.LinAlgError:
            delta = None
        if delta is not None:
            cand = unpack_parameters(net.layer_sizes, theta + delta)
            y1 = forward(cand, x)
            mse1 = float(np.mean((t - y1) ** 2))
            if np.isfinite(mse1) and mse1 < mse0:
                state.mu = max(state.mu * MU_DEC, MU_FLOOR)
                return cand, mse1, state.mu, True
        if state.mu >= MU_CEILING:
            return net, mse0, state.mu, False
        state.mu = min(state.mu * MU_INC, MU_CEILING)


def sd_step(net: Mlp, x, t, lr: float) -> Mlp:
    """Full-batch steepest descent: theta <- theta - lr * grad MSE."""
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")
    if lr == 0.0:
        return net
    theta = pack_parameters(net) - lr * gradient(net, x, t)
    return unpack_parameters(net.layer_sizes, theta)


@dataclass
class SdOptimizer:
    """Steepest-descent optimizer: its learning rate lr, finite and >= 0."""

    lr: float = 0.01

    def __post_init__(self):
        self.lr = as_real("lr", self.lr)
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")

    def step(self, net, x, t):
        net = sd_step(net, x, t, self.lr)
        return net, mse(net, x, t), 0.0, True


@dataclass
class StopCriteria:
    max_iters: int
    mse_goal: float
    val_patience: int = 10

    def __post_init__(self):
        self.max_iters = as_count("max_iters", self.max_iters)
        self.val_patience = as_count("val_patience", self.val_patience)
        self.mse_goal = as_real("mse_goal", self.mse_goal)
        if not self.max_iters >= 1 or not self.mse_goal > 0:
            raise ValueError("max_iters and mse_goal must be positive")
        if not self.val_patience >= 1:
            raise ValueError("val_patience must be positive")


@dataclass
class TrainRun:
    """Per-iteration trace of one training run; seconds is the wall time
    of the train call that made it."""

    stop: StopCriteria
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    mu: list[float] = field(default_factory=list)
    stop_reason: str = ""
    best_iteration: int = 0
    best_val_mse: float = float("inf")
    seconds: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.train_mse)


def train(net: Mlp, train_xy, val_xy, optimizer, stop: StopCriteria):
    """Iterate the optimizer until a stopping criterion fires.

    Criteria: train MSE at or below mse_goal, validation MSE not improving
    for val_patience consecutive iterations, the first rejected step
    ("mu_ceiling"), or max_iters.  An LM step is rejected only with mu at
    MU_CEILING, and the next step would repeat it exactly: the same net,
    batch and mu.  Returns the net with the best validation MSE seen,
    including the untrained starting point.
    """
    t0 = perf_counter()
    x_tr, t_tr = train_xy
    x_va, t_va = val_xy
    run = TrainRun(stop=stop)
    best_net = net
    best_val = mse(net, x_va, t_va)
    run.best_val_mse = best_val
    val_fail = 0
    for it in range(1, stop.max_iters + 1):
        net, train_mse_now, mu, accepted = optimizer.step(net, x_tr, t_tr)
        val_now = mse(net, x_va, t_va)
        run.train_mse.append(train_mse_now)
        run.val_mse.append(val_now)
        run.mu.append(mu)
        if val_now < best_val:
            best_val = val_now
            best_net = net
            run.best_iteration = it
            run.best_val_mse = best_val
            val_fail = 0
        else:
            val_fail += 1
        if train_mse_now <= stop.mse_goal:
            run.stop_reason = "mse_goal"
            break
        if val_fail >= stop.val_patience:
            run.stop_reason = "val_patience"
            break
        if not accepted:
            run.stop_reason = "mu_ceiling"
            break
    else:
        run.stop_reason = "max_iters"
    run.seconds = perf_counter() - t0
    return best_net, run
