import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from rfmst.ann import (
    MU_CEILING,
    MU_DEC,
    MU_FLOOR,
    MU_INC,
    MU_INIT,
    LmState,
    Mlp,
    SdOptimizer,
    StopCriteria,
    complexity_ratios,
    count_hidden_parameters,
    count_parameters,
    count_parameters_reference,
    forward,
    gradient,
    init_mlp,
    lm_step,
    mse,
    output_jacobian,
    pack_parameters,
    sd_step,
    train,
    unpack_parameters,
)


# ---------------------------------------------------------------------------
# oracles


def naive_forward(net, x):
    """Per-neuron loop oracle for the forward pass."""
    a = list(x)
    for l in range(net.n_layers):
        fan_out = net.layer_sizes[l + 1]
        z = []
        for j in range(fan_out):
            s = net.biases[l][j]
            for i, ai in enumerate(a):
                s += ai * net.weights[l][i, j]
            z.append(s)
        if l != net.n_layers - 1:
            a = [np.tanh(v) for v in z]
        else:
            a = z
    return np.array(a)


def fd_output_jacobian(net, x, h=1e-6):
    """Central finite differences of the network outputs."""
    theta = pack_parameters(net)
    x = np.atleast_2d(x)
    rows = x.shape[0] * net.layer_sizes[-1]
    jac = np.empty((rows, theta.size))
    for p in range(theta.size):
        tp = theta.copy()
        tp[p] += h
        tm = theta.copy()
        tm[p] -= h
        yp = forward(unpack_parameters(net.layer_sizes, tp), x).reshape(-1)
        ym = forward(unpack_parameters(net.layer_sizes, tm), x).reshape(-1)
        jac[:, p] = (yp - ym) / (2 * h)
    return jac


def fd_gradient(net, x, t, h=1e-6):
    theta = pack_parameters(net)
    g = np.empty_like(theta)
    for p in range(theta.size):
        tp = theta.copy()
        tp[p] += h
        tm = theta.copy()
        tm[p] -= h
        g[p] = (mse(unpack_parameters(net.layer_sizes, tp), x, t)
                - mse(unpack_parameters(net.layer_sizes, tm), x, t)) / (2 * h)
    return g


def scalar_lm_oracle(theta0, xs, ts, n_iters, mu0=1e-3):
    """Hand-rolled damped Gauss-Newton trace for the model y = theta * x**2."""
    theta, mu = theta0, mu0
    trace = []
    for _ in range(n_iters):
        y = theta * xs**2
        r = ts - y
        mse0 = np.mean(r**2)
        j = xs**2  # d y / d theta
        jtj = float(j @ j)
        jtr = float(j @ r)
        while True:
            delta = jtr / (jtj + mu)
            cand = theta + delta
            mse1 = np.mean((ts - cand * xs**2) ** 2)
            if mse1 < mse0:
                theta = cand
                mu = mu * 0.1
                break
            mu = mu * 10
            if mu > 1e9:
                break
        trace.append(theta)
    return np.array(trace)


def multi_output_jacobian(net, x):
    """Jacobian of every output, one backward pass per output; row
    b*n_out + k is d y_k(x_b) / d theta."""
    acts = [np.atleast_2d(np.asarray(x, dtype=np.float64))]
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        acts.append(z if l == net.n_layers - 1 else np.tanh(z))
    b_sz = acts[0].shape[0]
    n_out = net.layer_sizes[-1]
    jac = np.empty((b_sz * n_out, net.n_params))
    for k in range(n_out):
        delta = np.zeros((b_sz, n_out))
        delta[:, k] = 1.0
        deltas = [None] * net.n_layers
        for l in range(net.n_layers - 1, -1, -1):
            deltas[l] = delta
            if l > 0:
                delta = (delta @ net.weights[l].T) * (1.0 - acts[l] ** 2)
        col = 0
        for l in range(net.n_layers):
            w_size = net.weights[l].size
            block = np.einsum("bi,bj->bij", acts[l], deltas[l])
            jac[k::n_out, col : col + w_size] = block.reshape(b_sz, w_size)
            col += w_size
            jac[k::n_out, col : col + deltas[l].shape[1]] = deltas[l]
            col += deltas[l].shape[1]
    return jac


class TwoPassLm:
    """Reference LM optimizer: a forward pass for the output, then the
    multi-output Jacobian from a second pass.  Logs (dual, accepted) per
    step."""

    def __init__(self):
        self.mu = MU_INIT
        self.log = []

    def step(self, net, x, t):
        y = forward(net, x)
        r = (t - y).reshape(-1)
        mse0 = float(np.mean(r**2))
        jac = multi_output_jacobian(net, x)
        dual = jac.shape[0] < jac.shape[1]
        gram = jac @ jac.T if dual else jac.T @ jac
        theta = pack_parameters(net)
        while True:
            a = gram + self.mu * np.eye(gram.shape[0])
            factor = cho_factor(a, lower=True, check_finite=False)
            if dual:
                delta = jac.T @ cho_solve(factor, r, check_finite=False)
            else:
                delta = cho_solve(factor, jac.T @ r, check_finite=False)
            cand = unpack_parameters(net.layer_sizes, theta + delta)
            mse1 = float(np.mean((t - forward(cand, x)) ** 2))
            if np.isfinite(mse1) and mse1 < mse0:
                self.mu = max(self.mu * MU_DEC, MU_FLOOR)
                self.log.append((dual, True))
                return cand, mse1, self.mu, True
            if self.mu >= MU_CEILING:
                self.log.append((dual, False))
                return net, mse0, self.mu, False
            self.mu = min(self.mu * MU_INC, MU_CEILING)


def random_net(rng, max_hidden=6, n_out=None):
    """Random small tanh net; n_out=None draws one or two outputs."""
    n_in = int(rng.integers(1, 4))
    n_hidden = int(rng.integers(1, 3))
    sizes = [n_in] + [int(rng.integers(2, max_hidden))] * n_hidden
    sizes.append(int(rng.integers(1, 3)) if n_out is None else n_out)
    return init_mlp(sizes, rng)


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_weights_outputs_zero():
    net = init_mlp((3, 4, 2), seed=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    assert np.all(forward(net, np.ones(3)) == 0.0)


def test_forward_single_linear_identity_layer():
    net = init_mlp((3, 3), seed=0)
    net.weights[0] = np.eye(3)
    net.biases[0][:] = 0.0
    x = np.array([0.3, -1.2, 2.0])
    np.testing.assert_array_equal(forward(net, x), x)


def test_forward_matches_naive_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        net = random_net(rng)
        x = rng.normal(size=net.layer_sizes[0])
        np.testing.assert_allclose(forward(net, x), naive_forward(net, x),
                                   rtol=1e-12, atol=1e-12)


def test_forward_shape_mismatch_raises():
    net = init_mlp((3, 2), seed=0)
    with pytest.raises(ValueError):
        forward(net, np.ones(4))


# ---------------------------------------------------------------------------
# jacobian


def test_jacobian_linear_single_layer_columns_are_inputs():
    net = init_mlp((4, 1), seed=1)
    net.biases[0][:] = 0.0
    x = np.random.default_rng(2).normal(size=(6, 4))
    y, jac = output_jacobian(net, x)
    np.testing.assert_array_equal(y, forward(net, x))
    # columns for the weight block equal the inputs; bias column is ones
    np.testing.assert_allclose(jac[:, :4], x, rtol=0, atol=0)
    np.testing.assert_allclose(jac[:, 4], np.ones(6))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(5):
        net = random_net(rng, n_out=1)
        x = rng.normal(size=(4, net.layer_sizes[0]))
        _, jac = output_jacobian(net, x)
        jac_fd = fd_output_jacobian(net, x)
        err = np.abs(jac - jac_fd).max() / max(np.abs(jac_fd).max(), 1e-12)
        assert err < 1e-5


def test_jacobian_duplicated_sample_duplicates_rows():
    net = init_mlp((3, 5, 1), seed=4)
    x = np.random.default_rng(5).normal(size=(1, 3))
    xx = np.vstack([x, x])
    _, jac = output_jacobian(net, xx)
    np.testing.assert_array_equal(jac[0], jac[1])


def test_jacobian_rejects_multi_output_nets():
    net = init_mlp((3, 4, 2), seed=0)
    with pytest.raises(ValueError, match="single-output"):
        output_jacobian(net, np.ones((5, 3)))


def test_gradient_rejects_multi_output_nets():
    net = init_mlp((3, 4, 2), seed=0)
    with pytest.raises(ValueError, match="single-output"):
        gradient(net, np.ones((5, 3)), np.zeros((5, 2)))


def test_acceptance_style_fd_agreement_on_20_random_nets():
    # 20 random nets with <= 50 parameters each, relative error < 1e-5
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 20:
        net = random_net(rng, max_hidden=4, n_out=1)
        if net.n_params > 50:
            continue
        x = rng.uniform(-1, 1, size=(3, net.layer_sizes[0]))
        _, jac = output_jacobian(net, x)
        jac_fd = fd_output_jacobian(net, x)
        err = np.abs(jac - jac_fd).max() / max(np.abs(jac_fd).max(), 1e-12)
        assert err < 1e-5
        checked += 1


# ---------------------------------------------------------------------------
# LM


def test_lm_linear_least_squares_one_accepted_step():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 3))
    w_true = np.array([[1.5], [-2.0], [0.5]])
    t = x @ w_true + 0.7
    net = init_mlp((3, 1), seed=7)
    state = LmState(mu=1e-12)  # mu -> 0 limit: pure Gauss-Newton
    net2, mse1, _, accepted = lm_step(net, x, t, state)
    assert accepted
    assert mse1 < 1e-20
    np.testing.assert_allclose(net2.weights[0], w_true, atol=1e-8)
    np.testing.assert_allclose(net2.biases[0], [0.7], atol=1e-8)


def test_lm_matches_scalar_oracle_trace():
    # scalar model y = theta * x^2 fitted by LM; compare iterate-by-iterate
    xs = np.linspace(0.5, 2.0, 12)
    theta_true = 3.0
    ts = theta_true * xs**2
    oracle = scalar_lm_oracle(0.0, xs, ts, n_iters=6)

    net = init_mlp((1, 1), seed=0)
    net.weights[0][:] = 0.0
    net.biases[0][:] = 0.0
    state = LmState()
    iterates = []
    x_in = (xs**2)[:, None]  # same residual model: y = w * (x^2) with w free
    # freeze the bias by fitting targets with zero-intercept structure:
    # keep bias column but targets are exactly representable with b = 0.
    for _ in range(6):
        net, _, _, _ = lm_step_bias_free(net, x_in, ts[:, None], state)
        iterates.append(net.weights[0][0, 0])
    np.testing.assert_allclose(iterates, oracle, rtol=1e-10)


def lm_step_bias_free(net, x, t, state):
    """lm_step specialization used by the scalar-oracle test: the oracle
    model has a single parameter, so run LM on a 1-parameter view by
    zeroing the bias column's effect (bias fixed at 0 via a wide solve
    would differ; instead solve the 1-parameter problem directly)."""
    y = forward(net, x)
    r = (np.atleast_2d(t) - y).reshape(-1)
    mse0 = float(np.mean(r**2))
    j = x.reshape(-1)  # d y / d w for linear net, bias excluded
    jtj = float(j @ j)
    jtr = float(j @ r)
    while True:
        delta = jtr / (jtj + state.mu)
        cand = unpack_parameters(net.layer_sizes, pack_parameters(net))
        cand.weights[0][0, 0] += delta
        mse1 = mse(cand, x, t)
        if mse1 < mse0:
            state.mu *= 0.1
            return cand, mse1, state.mu, True
        state.mu *= 10
        if state.mu > 1e9:
            return net, mse0, state.mu, False


def test_lm_mu_ceiling_patience_signals_stop():
    # Conflicting targets at x=0 put the net at a nonzero-MSE stationary
    # point: every LM candidate is the zero step, so the first step is
    # rejected with mu at its ceiling, and training stops there, since the
    # next step would be the same computation.
    net = init_mlp((1, 1), seed=0)
    net.weights[0][:] = 2.0
    net.biases[0][:] = 0.0
    x = np.array([[0.0], [0.0]])
    t = np.array([[1.0], [-1.0]])
    stop = StopCriteria(max_iters=100, mse_goal=1e-300, val_patience=10_000)
    _, run = train(net, (x, t), (x, t), LmState(), stop)
    assert run.stop_reason == "mu_ceiling"
    assert run.mu == [MU_CEILING]
    assert run.iterations == 1


def test_lm_step_forwards_only_candidate_nets(monkeypatch):
    from rfmst import ann

    rng = np.random.default_rng(14)
    x = rng.uniform(-1, 1, size=(30, 2))
    t = np.sin(2 * x[:, :1]) + x[:, 1:]
    calls = []

    def counting_forward(n, xx):
        calls.append(n)
        return forward(n, xx)

    monkeypatch.setattr(ann, "forward", counting_forward)
    net, state = init_mlp((2, 5, 1), seed=15), LmState()
    for _ in range(5):
        calls.clear()
        new, _, _, accepted = lm_step(net, x, t, state)
        assert accepted and calls
        assert all(n is not net for n in calls)
        assert calls[-1] is new
        net = new


@pytest.mark.parametrize("n_rows", [6, 40], ids=["dual", "primal"])
def test_lm_step_retries_a_failed_factorisation_with_mu_raised(monkeypatch,
                                                               n_rows):
    from rfmst import ann, openblas

    rng = np.random.default_rng(34)
    x = rng.uniform(-1, 1, size=(n_rows, 2))
    t = np.sin(2 * x[:, :1]) + x[:, 1:]
    net = init_mlp((2, 3, 1), seed=35)          # 13 parameters
    ref, _, ref_mu, _ = lm_step(net, x, t, LmState(mu=10 * MU_INIT))
    seen = []

    def failing_once(a):
        seen.append(a.copy())
        if len(seen) == 1:
            raise np.linalg.LinAlgError("not positive definite")
        return openblas.cho_factor(a)

    monkeypatch.setattr(ann, "cho_factor", failing_once)
    new, new_mse, mu, accepted = lm_step(net, x, t, LmState(mu=MU_INIT))
    assert accepted and new_mse < mse(net, x, t)
    assert len(seen) == 2
    # same Gram matrix: the off-diagonal entries are equal, and only mu,
    # on the diagonal, rose by MU_INC
    n = seen[0].shape[0]
    off = ~np.eye(n, dtype=bool)
    np.testing.assert_array_equal(seen[1][off], seen[0][off])
    np.testing.assert_allclose(np.diag(seen[1] - seen[0]),
                               (MU_INC - 1) * MU_INIT, rtol=1e-6)
    # the retry is the step taken from mu = MU_INC * MU_INIT
    assert mu == ref_mu
    np.testing.assert_array_equal(pack_parameters(new), pack_parameters(ref))


def _lm_cases():
    """(net, train_xy, val_xy): random single-output nets on small (dual)
    and large (primal) batches, and conflicting targets at x = 0, where
    steps are rejected once the bias sits at the targets' mean."""
    def target(x):
        return np.sin(2 * x.sum(axis=1, keepdims=True))

    rng = np.random.default_rng(21)
    cases = []
    for b_sz in (4, 7, 60, 90):
        net = random_net(rng, n_out=1)
        x = rng.uniform(-1, 1, size=(b_sz, net.layer_sizes[0]))
        xv = rng.uniform(-1, 1, size=(10, net.layer_sizes[0]))
        cases.append((net, (x, target(x)), (xv, target(xv))))
    x0 = np.zeros((2, 1))
    t0 = np.array([[1.0], [-1.0]])
    cases.append((init_mlp((1, 1), seed=0), (x0, t0), (x0, t0)))
    return cases


class LoggedLm(LmState):
    """LmState that logs whether each step was accepted."""

    def __init__(self):
        super().__init__()
        self.log = []

    def step(self, net, x, t):
        net, new_mse, mu, accepted = super().step(net, x, t)
        self.log.append(accepted)
        return net, new_mse, mu, accepted


def test_lm_train_matches_two_pass_reference():
    """Primal steps are bit-identical to the explicit-Jacobian reference.
    Dual steps build J J' and J'v per layer, a different summation order,
    so they must take the same decisions (mu trace, accepted steps, stop
    reason, best iteration) with weights equal to 1e-12 relative.  An MSE
    trace is held to 1e-12 of its largest entry: a fit that interpolates
    drives the MSE towards 0, where t - y cancels and only its absolute
    error, about eps * |t| * |r|, stays small."""
    stop = StopCriteria(max_iters=25, mse_goal=1e-12, val_patience=25)
    logs = []
    for net, tr, va in _lm_cases():
        state, ref = LoggedLm(), TwoPassLm()
        got_net, got = train(net, tr, va, state, stop)
        want_net, want = train(net, tr, va, ref, stop)
        assert got.mu == want.mu
        assert got.stop_reason == want.stop_reason
        assert got.best_iteration == want.best_iteration
        assert state.mu == ref.mu
        assert state.log == [accepted for _, accepted in ref.log]
        got_theta, want_theta = pack_parameters(got_net), pack_parameters(want_net)
        if ref.log[0][0]:
            np.testing.assert_allclose(got_theta, want_theta, rtol=1e-12, atol=0)
            for g, w in ((got.train_mse, want.train_mse),
                         (got.val_mse, want.val_mse)):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * max(w))
        else:
            np.testing.assert_array_equal(got_theta, want_theta)
            assert got.train_mse == want.train_mse
            assert got.val_mse == want.val_mse
        logs += ref.log
    assert {dual for dual, _ in logs} == {True, False}
    assert not all(accepted for _, accepted in logs)


def _dual_cases():
    """(net, x): random single-output nets on small batches, and the
    benchmark's stage shapes with their batch sizes."""
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(10):
        net = random_net(rng, n_out=1)
        cases.append((net, rng.uniform(-1, 1, size=(int(rng.integers(1, 6)),
                                                    net.layer_sizes[0]))))
    for sizes, b_sz in (((2048, 10, 10, 1), 36), ((60, 15, 15, 1), 216)):
        net = init_mlp(sizes, rng)
        cases.append((net, rng.uniform(-1, 1, size=(b_sz, sizes[0]))))
    return cases


def test_dual_gram_and_jt_dot_match_explicit_jacobian():
    from rfmst import ann

    for net, x in _dual_cases():
        y, jac = output_jacobian(net, x)
        y_sweep, layers = ann._backward_sweep(net, x)
        np.testing.assert_array_equal(y_sweep, y)
        gram, want = ann._dual_gram(layers), jac @ jac.T
        assert np.abs(gram - want).max() <= 1e-13 * np.abs(want).max()
        v = np.random.default_rng(x.shape[0]).normal(size=x.shape[0])
        got, want = ann._jt_dot(layers, v), jac.T @ v
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("sizes, b_sz", [
    ((4, 1), 7),             # the input layer is the output layer
    ((4, 5, 1), 7),
    ((4, 5, 3, 1), 7),
    ((60, 15, 15, 1), 216),  # a benchmark stage shape and batch
])
def test_dual_gram_and_lm_delta_equal_the_unskipped_formulas(sizes, b_sz):
    from functools import partial

    from rfmst import ann

    rng = np.random.default_rng(b_sz + len(sizes))
    net = init_mlp(sizes, rng)
    x = rng.uniform(-1, 1, size=(b_sz, sizes[0]))
    _, layers = ann._backward_sweep(net, x)
    want = 0.0
    for a, d in layers:
        block = a @ a.T
        block += 1.0
        block *= d @ d.T
        want += block
    gram = ann._dual_gram(layers)
    assert np.array_equal(gram, want)
    r = rng.normal(size=b_sz)
    mu = 1e-3
    jt_dot = partial(ann._jt_dot, layers)
    factor = cho_factor(want + mu * np.eye(b_sz), lower=True,
                        check_finite=False)
    expected = jt_dot(cho_solve(factor, r, check_finite=False))
    assert np.array_equal(ann._lm_delta(gram, jt_dot, r, mu, True), expected)
    assert np.array_equal(gram, want)  # the damping went into a copy


@pytest.mark.parametrize("b_sz", [36, 216])
def test_primal_lm_delta_factors_one_fortran_copy_in_place_like_scipy(
        monkeypatch, b_sz):
    from functools import partial

    from rfmst import ann

    rng = np.random.default_rng(b_sz)
    net = init_mlp((3, 4, 1), rng)              # 21 parameters
    x = rng.uniform(-1, 1, size=(b_sz, 3))
    _, jac = output_jacobian(net, x)
    gram = jac.T @ jac
    before = gram.copy()
    r = rng.normal(size=b_sz)
    mu = 1e-2
    damped = gram.copy()
    damped.flat[:: gram.shape[0] + 1] += mu
    expected = cho_solve(cho_factor(damped, lower=True, check_finite=False),
                         jac.T @ r, check_finite=False)
    calls, factor = [], ann.cho_factor

    def recording(a):
        calls.append(a.flags.f_contiguous)
        return factor(a)

    monkeypatch.setattr(ann, "cho_factor", recording)
    got = ann._lm_delta(gram, partial(np.matmul, jac.T), r, mu, False)
    assert np.array_equal(got, expected)
    assert calls == [True]
    assert np.array_equal(gram, before)  # the damping went into a copy


def test_dual_lm_step_never_forms_the_jacobian(monkeypatch):
    from rfmst import ann

    def no_jacobian(net, x):
        raise AssertionError("output_jacobian called on a dual step")

    monkeypatch.setattr(ann, "output_jacobian", no_jacobian)
    rng = np.random.default_rng(32)
    net = init_mlp((60, 15, 15, 1), rng)
    x = rng.uniform(-1, 1, size=(36, 60))
    t = np.sin(x[:, :1])
    new, new_mse, _, accepted = lm_step(net, x, t, LmState())
    assert accepted
    assert new_mse < mse(net, x, t)


def test_targets_must_have_shape_batch_by_outputs():
    net = init_mlp((2, 4, 1), seed=1)
    x = np.random.default_rng(33).uniform(-1, 1, size=(8, 2))
    t = np.sin(x[:, :1])
    for bad in (t[:, 0], t.T, np.hstack([t, t]), t[:7]):
        for call in (mse, gradient):
            with pytest.raises(ValueError, match="targets"):
                call(net, x, bad)
        with pytest.raises(ValueError, match="targets"):
            lm_step(net, x, bad, LmState())


def test_lm_accepted_steps_never_increase_mse():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, size=(40, 2))
    t = np.sin(3 * x[:, :1]) * np.cos(2 * x[:, 1:])
    net = init_mlp((2, 6, 1), seed=12)
    state = LmState()
    last = mse(net, x, t)
    for _ in range(25):
        net, new_mse, mu, accepted = lm_step(net, x, t, state)
        assert mu == state.mu
        if accepted:
            assert new_mse < last
        else:
            assert new_mse == pytest.approx(last)
        last = new_mse
    assert state.mu > 0


def test_spd_factorization_succeeds_for_positive_mu():
    rng = np.random.default_rng(13)
    for _ in range(10):
        net = random_net(rng, n_out=1)
        x = rng.normal(size=(5, net.layer_sizes[0]))
        _, jac = output_jacobian(net, x)
        h = jac.T @ jac + 1e-6 * np.eye(jac.shape[1])
        cho_factor(h, lower=True)  # raises LinAlgError if not SPD


# ---------------------------------------------------------------------------
# first-order steps


def test_sd_monotone_decrease_on_convex_quadratic():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(50, 2))
    t = x @ np.array([[0.5], [-1.0]])
    net = init_mlp((2, 1), seed=15)
    last = mse(net, x, t)
    for _ in range(100):
        net = sd_step(net, x, t, lr=0.05)
        now = mse(net, x, t)
        assert now <= last + 1e-15
        last = now


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(16)
    for _ in range(5):
        net = random_net(rng, n_out=1)
        x = rng.normal(size=(6, net.layer_sizes[0]))
        t = rng.normal(size=(6, net.layer_sizes[-1]))
        g = gradient(net, x, t)
        g_fd = fd_gradient(net, x, t)
        err = np.abs(g - g_fd).max() / max(np.abs(g_fd).max(), 1e-12)
        assert err < 1e-5


def test_zero_learning_rate_is_identity():
    net = init_mlp((2, 3, 1), seed=17)
    x = np.ones((4, 2))
    t = np.ones((4, 1))
    theta0 = pack_parameters(net)
    np.testing.assert_array_equal(pack_parameters(sd_step(net, x, t, 0.0)), theta0)


# ---------------------------------------------------------------------------
# train loop


def _toy_problem(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(64, 1))
    t = 0.5 * x**2
    xv = rng.uniform(-1, 1, size=(16, 1))
    tv = 0.5 * xv**2
    return (x, t), (xv, tv)


def test_train_stops_immediately_on_huge_mse_goal():
    tr, va = _toy_problem()
    net = init_mlp((1, 4, 1), seed=1)
    _, run = train(net, tr, va, LmState(), StopCriteria(100, 1e9))
    assert run.iterations == 1
    assert run.stop_reason == "mse_goal"


def test_train_val_patience_counts_exactly():
    tr, va = _toy_problem()
    net = init_mlp((1, 4, 1), seed=2)
    stop = StopCriteria(max_iters=500, mse_goal=1e-300, val_patience=7)
    # lr = 0 keeps everything constant, so validation never improves on the
    # pre-training baseline and the counter fires after exactly 7 iterations
    best, run = train(net, tr, va, SdOptimizer(lr=0.0), stop)
    assert run.stop_reason == "val_patience"
    assert run.iterations == 7
    np.testing.assert_array_equal(pack_parameters(best), pack_parameters(net))


def test_train_returns_best_validation_snapshot():
    tr, va = _toy_problem(3)
    net = init_mlp((1, 6, 1), seed=4)
    stop = StopCriteria(max_iters=40, mse_goal=1e-14, val_patience=40)
    best, run = train(net, tr, va, LmState(), stop)
    assert mse(best, *va) == pytest.approx(run.best_val_mse)
    assert run.best_val_mse <= min(run.val_mse)


def test_train_trace_is_deterministic():
    tr, va = _toy_problem(5)
    runs = []
    for _ in range(2):
        net = init_mlp((1, 5, 1), seed=6)
        _, run = train(net, tr, va, LmState(),
                       StopCriteria(30, 1e-12, val_patience=30))
        runs.append((tuple(run.train_mse), tuple(run.val_mse), tuple(run.mu)))
    assert runs[0] == runs[1]


def test_stop_criteria_reject_a_nan_goal():
    # a NaN goal never compares true, so it could never stop a run
    with pytest.raises(ValueError, match="^mse_goal must be finite, got nan$"):
        StopCriteria(max_iters=5, mse_goal=float("nan"))


@pytest.mark.parametrize("goal, message", [
    (True, "mse_goal must be a real number, got True"),
    ("x", "mse_goal must be a real number, got 'x'"),
    (float("inf"), "mse_goal must be finite, got inf"),
    (0.0, "max_iters and mse_goal must be positive"),
], ids=["bool", "str", "inf", "zero"])
def test_stop_criteria_reject_a_goal_not_a_positive_real_number(goal,
                                                                 message):
    # inf used to stop every run after one step
    with pytest.raises(ValueError, match=f"^{message}$"):
        StopCriteria(max_iters=5, mse_goal=goal)


def test_stop_criteria_take_a_numpy_goal_as_a_float():
    stop = StopCriteria(5, np.float32(1e-3))
    assert type(stop.mse_goal) is float
    assert stop.mse_goal == float(np.float32(1e-3))


@pytest.mark.parametrize("field", ["max_iters", "val_patience"])
@pytest.mark.parametrize("bad", [2.5, 3.0, True])
def test_stop_criteria_reject_counts_that_are_not_integers(field, bad):
    fields = {"max_iters": 5, "mse_goal": 1e-3, field: bad}
    with pytest.raises(ValueError,
                       match=f"^{field} must be an integer, got {bad!r}$"):
        StopCriteria(**fields)


def test_stop_criteria_take_numpy_integers_as_ints():
    stop = StopCriteria(np.int64(5), 1e-3, np.uint8(3))
    assert (type(stop.max_iters), type(stop.val_patience)) == (int, int)
    assert (stop.max_iters, stop.val_patience) == (5, 3)


def test_lm_state_rejects_a_nan_mu():
    with pytest.raises(ValueError, match="mu must be positive"):
        LmState(mu=float("nan"))


def test_init_is_seeded_and_bounded():
    a = init_mlp((10, 5, 1), seed=9)
    b = init_mlp((10, 5, 1), seed=9)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    lim = 1.0 / np.sqrt(10)
    assert np.abs(a.weights[0]).max() <= lim


@pytest.mark.parametrize("call", [
    lambda sizes: init_mlp(sizes, seed=0).layer_sizes,
    lambda sizes: unpack_parameters(sizes, np.zeros(17)).layer_sizes,
    count_parameters_reference,
], ids=["init_mlp", "unpack_parameters", "count_parameters_reference"])
@pytest.mark.parametrize("bad", [2.7, True, "2"])
def test_layer_sizes_must_be_integers(call, bad):
    # 2.7 used to build a (2, 4, 1) net and True a (1, 4, 1) one
    with pytest.raises(ValueError, match=re.escape(
            f"layer size must be an integer, got {bad!r}")):
        call((bad, 4, 1))
    assert call((np.int64(2), 4, 1)) == call((2, 4, 1))


# ---------------------------------------------------------------------------
# parameter counting and complexity arithmetic


def test_reference_counts_match_quoted_stage_totals():
    assert count_parameters_reference((1024, 10, 10, 1)) == 10_340
    assert count_parameters_reference((60, 15, 15, 1)) == 1_145
    assert count_parameters_reference((30, 15, 15, 1)) == 705


def test_counting_rule_values_and_quoted_slips():
    # rule: hidden weights + hidden biases, output layer excluded
    assert count_hidden_parameters((1024, 10, 10, 1)) == 10_360
    assert count_hidden_parameters((60, 15, 15, 1)) == 1_155
    assert count_hidden_parameters((30, 15, 15, 1)) == 705
    # quoted table deviates from the rule by -20 / -10 / 0
    assert count_parameters_reference((1024, 10, 10, 1)) == 10_360 - 20
    assert count_parameters_reference((60, 15, 15, 1)) == 1_155 - 10


def test_true_parameter_count():
    assert count_parameters((2, 3, 1)) == 2 * 3 + 3 + 3 * 1 + 1
    net = init_mlp((4, 7, 7, 2), seed=0)
    assert pack_parameters(net).size == net.n_params


def test_complexity_ratios_reproduce_quoted_figures():
    stages = [(60, 10_360), (30, 1_145), (30, 705)]
    ratios = complexity_ratios(674_480, stages)
    assert abs(ratios["serial_speedup"] - 334) <= 1
    assert abs(ratios["parallel_speedup"] - 19_982) / 19_982 < 0.01
    assert abs(ratios["serial_mem"] - 4_168) <= 1
    assert abs(ratios["parallel_mem"] - 70) <= 1


def test_complexity_ratios_single_mlp_is_unity():
    ratios = complexity_ratios(1_000, [(1, 1_000)])
    for v in ratios.values():
        assert v == pytest.approx(1.0)


def test_complexity_ratios_exponent_three_direct_arithmetic():
    stages = [(60, 10_360), (30, 1_145), (30, 705)]
    ratios = complexity_ratios(674_480, stages, exponent=3)
    direct = 674_480**3 / (60 * 10_360**3 + 30 * 1_145**3 + 30 * 705**3)
    assert ratios["serial_speedup"] == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pack_unpack_roundtrip(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    theta = pack_parameters(net)
    net2 = unpack_parameters(net.layer_sizes, theta)
    np.testing.assert_array_equal(pack_parameters(net2), theta)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gradient_property_random_nets(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, max_hidden=4, n_out=1)
    x = rng.uniform(-1, 1, size=(4, net.layer_sizes[0]))
    t = rng.uniform(-1, 1, size=(4, net.layer_sizes[-1]))
    g = gradient(net, x, t)
    g_fd = fd_gradient(net, x, t)
    assert np.abs(g - g_fd).max() / max(np.abs(g_fd).max(), 1e-12) < 1e-5
