"""Multi-stage training orchestrator.

A model is an ordered list of stages, each a group of MLPs; which class
each MLP learns is one rule, _model_targets, that train_mst trains by,
save_model records and load_model checks, and which models are valid is
another, _check_model, that MstModel checks on every model and train_mst
on its arguments before it trains.  Stage-1 nets are narrow
detectors, each trained on the balanced batch it draws where it trains
(_detector_batch); later stages consume the previous stage's outputs on
the full training set.  The final stage regresses the class index, and
classification fuses the final-stage outputs by majority vote over
rounded responses.

Packed stages: each MLP trains on its own, and a model holds each stage as
one Stage, whose float32 arrays are sized from the stage's config: the
first-layer weights of all m MLPs side by side in one (fan_in, m * h)
array, and each later layer as an (m, h, h') stack.  _stage, the one
constructor of a Stage, copies them out of the stage's (m, P) matrix of
pack_parameters rows, the layout of its stage<s>.f32 file, as train_mst
packs it from training and as load_model reads it; it makes the arrays
read-only and each Mlp of the stage a set of views of them, so the
weights exist once.  A stage is evaluated as one GEMM for all first
layers plus one batched matmul per later layer, both for the next
stage's training inputs and in classify_batch: for the 2048-input raw
stage 1, one (B, 2048) x (2048, 600) GEMM instead of 60 skinny ones.

Precision: LM training runs in float64.  Each trained net is rounded to
float32 in the matrix _stage builds its stage from, so a stored stage is
float32, and _stage_outputs, the one evaluation of a stage, runs in
float32: the next stage trains on the very numbers classify_batch
computes.  A model's TrainRun traces describe its float64 nets before
that rounding.

Stage workers: a stage's MLPs are independent, so train_mst trains them
with rfmst.parallel.fork_map, once its inputs are ready: in this process
and in workers forked for the stage, one process per CPU it may run on.
Each MLP trains from its own seed, so the model is the same whichever
process trained which MLP; the parent packs each net, sent back by
pickle, into its row as it arrives.  Each TrainRun's seconds is timed
where it ran.

BLAS policy: training runs with the OpenBLAS that numpy and scipy bundle
pinned to one thread in every process, parent and workers, so a trained
model does not depend on the BLAS thread count.  rfmst.openblas finds those
libraries and owns the pin (single_threaded_blas), as it owns the LM
step's Cholesky solve through scipy's f2py LAPACK wrappers, which run in
scipy's OpenBLAS.  The workers inherit the pin through fork; OpenBLAS
shuts its thread pool down before a fork, so the parent forks with one
thread.  Classification is not pinned and keeps the caller's threading.
LM steps run in float64; stage evaluation, in training and classification
alike, runs in float32.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ann import (
    LmState,
    Mlp,
    SdOptimizer,
    StopCriteria,
    TrainRun,
    count_parameters,
    forward,  # noqa: F401  (kept as mst.forward: perfbench/tracing.py wraps it)
    init_mlp,
    pack_parameters,
    train,
)
from .manifest import (as_count, as_real, build, read_array, read_manifest,
                       write_manifest)
from .openblas import single_threaded_blas
from .parallel import fork_map

DETECTOR_BLOCKS = "detector_blocks"   # stage 1: contiguous blocks of MLPs per class
DETECTOR_CYCLE = "detector_cycle"     # later stages: targets cycle over classes
CLASS_INDEX = "class_index"           # final stages: regress the label value


@dataclass(frozen=True)
class StageConfig:
    role: str
    n_mlps: int
    hidden_layers: int = 2
    neurons_per_layer: int = 10
    max_iters: int = 100
    mse_goal: float = 1e-3

    def __post_init__(self):
        if self.role not in (DETECTOR_BLOCKS, DETECTOR_CYCLE, CLASS_INDEX):
            raise ValueError(f"unknown stage role {self.role!r}")
        for name in ("n_mlps", "hidden_layers", "neurons_per_layer",
                     "max_iters"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        object.__setattr__(self, "mse_goal",
                           as_real("mse_goal", self.mse_goal))
        if self.n_mlps < 1:
            raise ValueError("n_mlps must be >= 1")
        if not self.max_iters >= 1 or not self.mse_goal > 0:
            raise ValueError("max_iters and mse_goal must be positive")

    def layer_sizes(self, input_dim: int) -> tuple[int, ...]:
        return (input_dim, *([self.neurons_per_layer] * self.hidden_layers), 1)

    def n_parameters(self, input_dim: int) -> int:
        """Parameters of one MLP, count_parameters(layer_sizes(input_dim)),
        by arithmetic: no tuple of hidden_layers sizes is built."""
        h, depth = self.neurons_per_layer, self.hidden_layers
        if depth == 0:
            return input_dim + 1
        return (input_dim + 1) * h + (depth - 1) * (h + 1) * h + h + 1


def default_config_2nd(n_t: int = 12) -> list[StageConfig]:
    """Three stages: 60/30/30 at twelve transmitters, scaled with n_t.

    Stage settings: 10 neurons and goal 1e-3 at 100 iterations, then
    15-neuron stages at 150/1e-5 and 250/1e-7.
    """
    if as_count("n_t", n_t) < 2:
        raise ValueError("need at least two transmitters")
    later = math.ceil(2.5 * n_t)
    return [
        StageConfig(DETECTOR_BLOCKS, 5 * n_t, 2, 10, 100, 1e-3),
        StageConfig(DETECTOR_CYCLE, later, 2, 15, 150, 1e-5),
        StageConfig(CLASS_INDEX, later, 2, 15, 250, 1e-7),
    ]


def default_config_1st(n_t: int = 12) -> list[StageConfig]:
    """Six stages for first-order training: goal 1e-1 at the first stage,
    decreasing geometrically to 1e-3 at the last, 15,000 iteration cap."""
    if as_count("n_t", n_t) < 2:
        raise ValueError("need at least two transmitters")
    goals = np.geomspace(1e-1, 1e-3, 6)
    stages = [StageConfig(DETECTOR_BLOCKS, 2 * n_t, 2, 10, 15_000,
                          float(goals[0]))]
    for s in range(1, 5):
        stages.append(StageConfig(DETECTOR_CYCLE, 2 * n_t, 2, 15, 15_000,
                                  float(goals[s])))
    stages.append(StageConfig(CLASS_INDEX, math.ceil(2.5 * n_t), 2, 15,
                              15_000, float(goals[5])))
    return stages


# ---------------------------------------------------------------------------
# what each MLP learns


def stage_targets(cfg: StageConfig, n_labels: int, known) -> list[int | None]:
    """Per-MLP target class for one stage (None = class-index): stage-1
    detectors in contiguous blocks over the sorted labels `known` (empty:
    1..n_labels), later detectors cycling over 1..n_labels."""
    if cfg.role == CLASS_INDEX:
        return [None] * cfg.n_mlps
    if cfg.role == DETECTOR_BLOCKS and len(known):
        return [int(known[i * len(known) // cfg.n_mlps])
                for i in range(cfg.n_mlps)]
    if cfg.role == DETECTOR_BLOCKS:
        return [i * n_labels // cfg.n_mlps + 1 for i in range(cfg.n_mlps)]
    return [i % n_labels + 1 for i in range(cfg.n_mlps)]


def _model_targets(configs, n_labels: int, known_labels) -> list[list]:
    """Each stage's per-MLP target classes (None = class index) for training
    labels 1..n_labels, where empty known_labels means all of them: the one
    rule train_mst trains by, save_model records and load_model checks."""
    known = sorted(known_labels)
    return [stage_targets(cfg, n_labels, known) for cfg in configs]


def _check_model(configs, n_labels, order, seed, known_labels):
    """n_labels, order, seed (as int) and known_labels (a tuple of int) of a
    model train_mst trains: one stage config or more, n_labels >= 1, order
    1 or 2, seed >= 0, and distinct known_labels in 1..n_labels (empty for
    all), two of them if a stage is DETECTOR_BLOCKS; else ValueError."""
    if not configs:
        raise ValueError("need at least one stage config")
    n_labels = as_count("n_labels", n_labels)
    order = as_count("order", order)
    seed = as_count("seed", seed)
    if n_labels < 1:
        raise ValueError(f"n_labels must be >= 1, got {n_labels}")
    if order not in (1, 2):
        raise ValueError("order must be 1 (gradient) or 2 (damped "
                         f"Gauss-Newton), got {order}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    known = tuple(as_count("a known label", v) for v in known_labels)
    if len(set(known)) < len(known) \
            or not all(1 <= v <= n_labels for v in known):
        raise ValueError(f"known_labels {list(known)} are not distinct "
                         f"labels in 1..{n_labels}")
    if (len(known) or n_labels) < 2 \
            and any(c.role == DETECTOR_BLOCKS for c in configs):
        raise ValueError("a detector stage needs negatives from a second "
                         f"known class, got only {list(known) or [1]}")
    return n_labels, order, seed, known


def _detector_batch(train_y, known, t, seed, s, i) -> np.ndarray:
    """Training rows of stage s's MLP i, a detector of class t: every row of
    class t, then as many rows drawn, seeded per MLP, from the other
    classes in `known` (with replacement only if they have fewer rows)."""
    rng = np.random.default_rng(np.random.SeedSequence([0xB47C4, seed, s, i]))
    pos = np.flatnonzero(train_y == t)
    neg_pool = np.flatnonzero(np.isin(train_y, known) & (train_y != t))
    neg = rng.choice(neg_pool, size=pos.size, replace=neg_pool.size < pos.size)
    return np.concatenate([pos, neg])


def _mlp_targets(target_class: int | None, labels: np.ndarray) -> np.ndarray:
    """Targets of one MLP's rule evaluated on an arbitrary labeled set."""
    hit = labels if target_class is None else labels == target_class
    return hit.astype(np.float64)


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True, eq=False)
class Stage:
    """One stage's MLPs with their weights packed for one evaluation.

    For m MLPs with h first-layer neurons: first_w holds their first-layer
    weights side by side, (fan_in, m * h), and first_b their (m * h,)
    biases.  weights and biases hold each later layer as an
    (m, fan_in, fan_out) stack and its (m, 1, fan_out) biases.  All are
    float32 and read-only, and the arrays of each Mlp in `mlps` are views
    of them.
    """
    mlps: tuple[Mlp, ...]
    first_w: np.ndarray
    first_b: np.ndarray
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


def _stage(sizes, params) -> Stage:
    """The read-only Stage of the m MLPs of layer sizes `sizes` whose
    parameters are the rows of params, an (m, P) matrix in pack_parameters
    order, the layout of a stage<s>.f32 file, each weight rounded to the
    nearest float32.  The Stage's arrays are copies, its MLPs views of
    them."""
    m, n, h = len(params), sizes[0], sizes[1]
    # np.array copies each block, rounded to float32; order="C" lays the
    # transposed first layer out as first_w, so reshape copies no more
    first_w = np.array(params[:, :n * h].reshape(m, n, h).transpose(1, 0, 2),
                       np.float32, order="C").reshape(n, m * h)
    first_b = np.array(params[:, n * h:(n + 1) * h], np.float32).reshape(m * h)
    weights, biases, k = [], [], (n + 1) * h
    for a, b in zip(sizes[1:-1], sizes[2:]):
        weights.append(np.array(params[:, k:k + a * b].reshape(m, a, b),
                                np.float32))
        k += a * b
        biases.append(np.array(params[:, k:k + b].reshape(m, 1, b),
                               np.float32))
        k += b
    for arr in (first_w, first_b, *weights, *biases):
        arr.flags.writeable = False
    # views taken after the freeze, since a view keeps the flag it was made with
    mlps = tuple(
        Mlp(sizes, [first_w[:, i * h:(i + 1) * h], *(w[i] for w in weights)],
            [first_b[i * h:(i + 1) * h], *(b[i, 0] for b in biases)])
        for i in range(m))
    return Stage(mlps, first_w, first_b, tuple(weights), tuple(biases))


def _stage_outputs(stage: Stage, x) -> np.ndarray:
    """Outputs of a stage's m MLPs on the (B, fan_in) rows x, side by side
    in MLP order, in float32: x is rounded to float32 once, then one GEMM
    for every first layer and one batched matmul per later layer."""
    m = len(stage.mlps)
    x = np.asarray(x, dtype=np.float32)
    z = x @ stage.first_w
    z += stage.first_b
    a = z.reshape(x.shape[0], m, z.shape[1] // m).transpose(1, 0, 2)
    for w, b in zip(stage.weights, stage.biases):
        np.tanh(a, out=a)
        a = a @ w
        a += b
    return a.transpose(1, 0, 2).reshape(x.shape[0], m * a.shape[2])


@dataclass(frozen=True)
class MstModel:
    """A model train_mst could train, frozen once __post_init__ checked it:
    one Stage of n_mlps MLPs per config, one TrainRun per MLP, and fields
    as _check_model returns them (empty known_labels: every class)."""
    configs: list[StageConfig]
    stages: list[Stage]
    n_labels: int
    order: int
    seed: int
    traces: list[list[TrainRun]]
    known_labels: tuple[int, ...] = ()

    def __post_init__(self):
        checked = _check_model(self.configs, self.n_labels, self.order,
                               self.seed, self.known_labels)
        for name, value in zip(("n_labels", "order", "seed", "known_labels"),
                               checked):
            object.__setattr__(self, name, value)
        want = [c.n_mlps for c in self.configs]
        for what, got in (("MLPs", [len(st.mlps) for st in self.stages]),
                          ("traces", [len(runs) for runs in self.traces])):
            if got != want:
                raise ValueError(f"{got} {what} per stage for {want} "
                                 "configured MLPs")

    def stage_hashes(self) -> list[str]:
        out = []
        for stage in self.stages:
            h = hashlib.sha256()
            for net in stage.mlps:
                h.update(pack_parameters(net).tobytes())
            out.append(h.hexdigest()[:16])
        return out


@single_threaded_blas()
def train_mst(train_x, train_y, val_x, val_y, configs, order: int = 2,
              seed: int = 0, known_labels=None, sd_lr: float = 0.01,
              iter_cap: int | None = None) -> MstModel:
    """Train every stage to completion before the next one starts.

    Stage s+1 consumes the frozen stage-s outputs, evaluated once on the
    full training and validation sets.  Each MLP learns the class
    _model_targets gives it, a stage-1 detector from the rows
    _detector_batch draws for it, and a later MLP from every row.
    known_labels, if given, restricts the classes whose data feeds stage 1
    (incremental learning: range(1, k + 1) for the first k classes); later
    stages always see every class.  iter_cap, an integer >= 1, optionally
    lowers each stage's iteration budget for reduced-scale runs.  Training
    labels must be exactly 1..n, the validation set non-empty with labels
    among them, all features finite and known_labels, if given, not
    empty; SdOptimizer checks sd_lr and _check_model the rest, all before
    training starts.

    The whole call runs on one BLAS thread (single_threaded_blas), so the
    trained model is the same whatever the caller's BLAS thread count;
    that count is restored on return, also when the call raises.
    """
    if iter_cap is not None and as_count("iter_cap", iter_cap) < 1:
        raise ValueError(f"iter_cap must be >= 1, got {iter_cap}")
    first_order = SdOptimizer(lr=sd_lr)
    # C order: full-set stages train on these rows as they are
    train_x = np.ascontiguousarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    train_y = np.asarray(train_y)
    val_y = np.asarray(val_y)
    classes = np.unique(train_y)
    n_labels = len(classes)
    if not np.array_equal(classes, np.arange(1, n_labels + 1)):
        raise ValueError("training labels must be exactly 1..n, got "
                         f"{classes.tolist()}")
    if val_y.size == 0:
        raise ValueError("empty validation set")
    if not np.isin(val_y, classes).all():
        raise ValueError(f"validation labels must lie in 1..{n_labels}, got "
                         f"{np.unique(val_y).tolist()}")
    if not (np.isfinite(train_x).all() and np.isfinite(val_x).all()):
        raise ValueError("training and validation features must be finite")
    known = () if known_labels is None else tuple(known_labels)
    if known_labels is not None and not known:
        raise ValueError("known_labels is empty")
    n_labels, order, seed, known = _check_model(configs, n_labels, order,
                                                seed, known)
    targets = _model_targets(configs, n_labels, known)
    pool = sorted(known) or classes     # the classes stage 1 draws from
    val_patience = 10 if order == 2 else 20
    cur_tr, cur_va = train_x, val_x
    stages, traces = [], []
    for s, cfg in enumerate(configs):
        max_iters = cfg.max_iters if iter_cap is None \
            else min(cfg.max_iters, iter_cap)
        stop = StopCriteria(max_iters=max_iters, mse_goal=cfg.mse_goal,
                            val_patience=val_patience)
        sizes = cfg.layer_sizes(cur_tr.shape[1])

        def train_one(i):
            net = init_mlp(sizes,
                           seed=np.random.SeedSequence([0x3117, seed, s, i]))
            t, x, y = targets[s][i], cur_tr, train_y
            if cfg.role == DETECTOR_BLOCKS:
                rows = _detector_batch(train_y, pool, t, seed, s, i)
                x, y = cur_tr[rows], train_y[rows]
            train_xy = x, _mlp_targets(t, y)[:, None]
            val_xy = cur_va, _mlp_targets(t, val_y)[:, None]
            opt = LmState() if order == 2 else first_order
            return train(net, train_xy, val_xy, opt, stop)

        params, runs = None, [None] * cfg.n_mlps
        with contextlib.closing(fork_map(train_one, cfg.n_mlps)) as trained:
            for i, (net, run) in trained:
                # private memory: stage arrays shared with the workers made
                # each later raw_w1024 featurise fault ~1,900 pages
                if params is None:
                    params = np.empty((cfg.n_mlps, count_parameters(sizes)),
                                      np.float32)
                params[i] = pack_parameters(net)
                runs[i] = run
        stages.append(_stage(sizes, params))
        traces.append(runs)
        if s + 1 < len(configs):
            # float64 once per stage, not once per LM step
            cur_tr = _stage_outputs(stages[-1], cur_tr).astype(np.float64)
            cur_va = _stage_outputs(stages[-1], cur_va).astype(np.float64)
    return MstModel(configs=list(configs), stages=stages, n_labels=n_labels,
                    order=order, seed=seed, traces=traces,
                    known_labels=known)


def fuse_labels(final_outputs: np.ndarray, n_labels: int) -> np.ndarray:
    """Majority vote over rounded, clamped final-stage outputs.

    Ties resolve to the lowest label (argmax of the vote histogram).
    """
    votes = np.clip(np.rint(final_outputs), 1, n_labels).astype(int) - 1
    n_rows = votes.shape[0]
    cells = np.arange(n_rows)[:, None] * n_labels + votes
    counts = np.bincount(cells.ravel(), minlength=n_rows * n_labels)
    return counts.reshape(n_rows, n_labels).argmax(axis=1) + 1


def classify_batch(model: MstModel, x) -> np.ndarray:
    """Label of each row of x, or of the single row x.  A row that is not
    finite once rounded to float32 (1e39 is not) raises ValueError naming
    its index."""
    with np.errstate(over="ignore"):
        cur = np.asarray(x, dtype=np.float32)
    if cur.ndim == 1:
        cur = cur[None, :]
    n_in = model.stages[0].first_w.shape[0]
    if cur.ndim != 2 or cur.shape[1] != n_in:
        raise ValueError(f"expected (*, {n_in}) features, got {cur.shape}")
    bad = np.flatnonzero(~np.isfinite(cur).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite features in rows {bad.tolist()}")
    for stage in model.stages:
        cur = _stage_outputs(stage, cur)
    return fuse_labels(cur, model.n_labels)


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class ConfusionMatrix:
    counts: np.ndarray   # counts[true-1, pred-1]

    @property
    def accuracy(self) -> float:
        total = self.counts.sum()
        return float(np.trace(self.counts) / total) if total else 0.0


def confusion_from_predictions(y_true, y_pred, n_labels: int) -> ConfusionMatrix:
    y_true, y_pred = np.ravel(y_true), np.ravel(y_pred)
    if y_true.size != y_pred.size:
        raise ValueError(f"{y_true.size} true labels and {y_pred.size} "
                         "predicted")
    for which, y in (("true", y_true), ("predicted", y_pred)):
        if y.size and not np.issubdtype(y.dtype, np.integer):
            raise ValueError(f"{which} labels must be integers, got {y.dtype}")
        if y.size and (y.min() < 1 or y.max() > n_labels):
            raise ValueError(f"{which} labels must lie in 1..{n_labels}")
    t, p = y_true.astype(np.intp) - 1, y_pred.astype(np.intp) - 1
    counts = np.bincount(t * n_labels + p, minlength=n_labels * n_labels)
    return ConfusionMatrix(counts=counts.reshape(n_labels, n_labels))


# ---------------------------------------------------------------------------
# persistence: manifest.json plus one stage<s>.f32 per stage, holding the
# stage's MLPs in order as little-endian float32 pack_parameters vectors,
# the stored weights exactly, so on a little-endian host its sha256 is its
# stage_hashes() entry.  The manifest holds the configs, input width,
# stage_hashes(), every MLP's target class and every MLP's training trace,
# and names no file; write_manifest signs it with its digest.


def save_model(model: MstModel, out_dir) -> Path:
    """Write a model, which MstModel has checked, with its training traces.
    Each stage<s>.f32 holds the stage's float32 weights as they are; the
    traces describe the float64 nets that training rounded to them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s, stage in enumerate(model.stages, start=1):
        with open(out / f"stage{s}.f32", "wb") as f:
            for net in stage.mlps:
                pack_parameters(net).astype("<f4", copy=False).tofile(f)
    write_manifest(out, {
        "n_labels": model.n_labels,
        "order": model.order,
        "seed": model.seed,
        "known_labels": list(model.known_labels),
        "input_dim": model.stages[0].first_w.shape[0],
        "stage_hashes": model.stage_hashes(),
        "configs": [dataclasses.asdict(c) for c in model.configs],
        "targets": _model_targets(model.configs, model.n_labels,
                                  model.known_labels),
        "traces": [[dataclasses.asdict(run) for run in runs]
                   for runs in model.traces],
    })
    return out


def load_model(in_dir) -> MstModel:
    """Read a model that save_model wrote.  A manifest that does not match
    its digest, a manifest key or JSON type, input_dim (not a positive
    integer) or per-MLP target class (not the one _model_targets gives for
    n_labels and known_labels) that is wrong, a stage file that does not
    hold exactly its configured MLPs or does not hash to its recorded
    stage hash, or a model that MstModel rejects, raises ValueError naming
    the manifest.  The stages are float32, as saved."""
    path = Path(in_dir) / "manifest.json"
    manifest = read_manifest(path, (
        "n_labels", "order", "seed", "known_labels", "input_dim",
        "configs", "targets", "traces", "stage_hashes"),
        configs=list, targets=list, traces=list[list],
        stage_hashes=list[str], known_labels=list)
    configs = [build(StageConfig, c, path) for c in manifest["configs"]]
    traces = [[build(TrainRun, run, path) for run in runs]
              for runs in manifest["traces"]]
    stages, fan_in = [], manifest["input_dim"]
    if type(fan_in) is not int or fan_in < 1:
        raise ValueError(f"{path}: input_dim {fan_in!r} is not a positive "
                         "integer")
    for s, cfg in enumerate(configs, start=1):
        # the file's size bounds the layer sizes before any is built
        params = read_array(path, f"stage{s}.f32", "<f4",
                            (cfg.n_mlps, cfg.n_parameters(fan_in)))
        stages.append(_stage(cfg.layer_sizes(fan_in), params))
        fan_in = cfg.n_mlps
    model = build(MstModel, dict(
        configs=configs, stages=stages, traces=traces,
        **{k: manifest[k] for k in ("n_labels", "order", "seed",
                                    "known_labels")}), path)
    n_labels, known = model.n_labels, list(model.known_labels)
    planned = _model_targets(configs, n_labels, known)
    for s, (got, want) in enumerate(
            itertools.zip_longest(manifest["targets"], planned), start=1):
        if got != want:
            raise ValueError(f"{path}: stage {s} target classes {got} are "
                             f"not {want}, the ones planned for n_labels "
                             f"{n_labels} and known_labels {known}")
    for s, (got, want) in enumerate(itertools.zip_longest(
            model.stage_hashes(), manifest["stage_hashes"]), start=1):
        if got != want:
            raise ValueError(f"{path}: stage {s} weights hash to {got}, not "
                             f"to the recorded {want!r}")
    return model
