"""Multi-stage training orchestrator.

A model is an ordered list of stages, each a group of MLPs.  Stage-1 nets
are narrow detectors trained on balanced per-class batches; later stages
consume the previous stage's outputs on the full training set.  The final
stage regresses the class index, and classification fuses the final-stage
outputs by majority vote over rounded responses.

Packed stages: each MLP trains on its own, and a model holds each stage as
one Stage (pack_stage).  All MLPs of a stage share their layer sizes, so
the first-layer weights of all m of them sit side by side in one read-only
(fan_in, m * h) array, and each later layer is a read-only (m, h, h')
stack.  train_mst copies each MLP into its stage's arrays as soon as it is
trained, and load_model as soon as it is read; every Mlp of the model then
holds views of those arrays, so the weights exist once.  A stage is
evaluated as one GEMM for all first layers plus one batched matmul per
later layer, both for the next stage's training inputs and in
classify_batch: for the 2048-input raw stage 1, one (B, 2048) x
(2048, 600) GEMM instead of 60 skinny ones.

Stage workers: a stage's MLPs are independent, so train_mst trains them
with rfmst.parallel.fork_map, once its inputs are ready: in this process
and in workers forked for the stage, one process per CPU it may run on.
Each MLP trains from its own seed, so the model is the same whichever
process trained which MLP, and the parent packs each MLP by index as it
arrives.  Each TrainRun's seconds is timed in the process that trained it.

BLAS policy: training runs with the OpenBLAS that numpy and scipy bundle
pinned to one thread in every process, parent and workers, so a trained
model does not depend on the BLAS thread count.  The workers inherit the
pin through fork; OpenBLAS shuts its thread pool down before a fork, so
the parent forks with one thread.  Classification is not pinned and keeps
the caller's threading.
"""
from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

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
    unpack_parameters,
)
from .manifest import build, read_array, read_manifest
from .parallel import fork_map

logger = logging.getLogger(__name__)

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
        if self.n_mlps < 1:
            raise ValueError("n_mlps must be >= 1")
        if not self.max_iters >= 1 or not self.mse_goal > 0:
            raise ValueError("max_iters and mse_goal must be positive")

    def layer_sizes(self, input_dim: int) -> tuple[int, ...]:
        return (input_dim, *([self.neurons_per_layer] * self.hidden_layers), 1)


def default_config_2nd(n_t: int = 12) -> list[StageConfig]:
    """Three stages: 60/30/30 at twelve transmitters, scaled with n_t.

    Stage settings: 10 neurons and goal 1e-3 at 100 iterations, then
    15-neuron stages at 150/1e-5 and 250/1e-7.
    """
    if n_t < 2:
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
    if n_t < 2:
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


def scaled_config(configs, factor: int) -> list[StageConfig]:
    """Same stages with `factor` times the MLP count (the tripled variant)."""
    return [dataclasses.replace(c, n_mlps=factor * c.n_mlps) for c in configs]


# ---------------------------------------------------------------------------
# batch planning


@dataclass
class MlpPlan:
    target_class: int | None      # None for class-index regression
    indices: np.ndarray           # rows of the training set
    targets: np.ndarray           # regression target per row


def stage_targets(cfg: StageConfig, all_labels: np.ndarray,
                  known_labels: np.ndarray) -> list[int | None]:
    """Per-MLP target class for one stage (None = class-index)."""
    if cfg.role == CLASS_INDEX:
        return [None] * cfg.n_mlps
    pool = known_labels if cfg.role == DETECTOR_BLOCKS else all_labels
    k = len(pool)
    if cfg.role == DETECTOR_BLOCKS:
        return [int(pool[(i * k) // cfg.n_mlps]) for i in range(cfg.n_mlps)]
    return [int(pool[i % k]) for i in range(cfg.n_mlps)]


def plan_batches(labels: np.ndarray, configs, seed: int,
                 known_labels=None) -> list[list[MlpPlan]]:
    """Assign batches and targets to every MLP, one list of plans per stage.

    DETECTOR_BLOCKS stages take all positives of the target class plus an
    equal count of seeded random negatives, drawn from the known-class pool
    only; every other stage uses the entire training set.  Batches may overlap.
    """
    labels = np.asarray(labels)
    all_classes = np.unique(labels)
    known = np.asarray(sorted(known_labels)) if known_labels is not None \
        else all_classes
    if known.size == 0:
        raise ValueError("known_labels is empty")
    if np.unique(known).size != known.size:
        raise ValueError(f"known_labels repeats a label: {known.tolist()}")
    missing = set(known) - set(all_classes)
    if missing:
        raise ValueError("no training data for classes "
                         f"{sorted(int(c) for c in missing)}")
    known_pool = np.nonzero(np.isin(labels, known))[0]
    stage_plans = []
    for s, cfg in enumerate(configs):
        targets = stage_targets(cfg, all_classes, known)
        plans = []
        for i, t in enumerate(targets):
            rng = np.random.default_rng(
                np.random.SeedSequence([0xB47C4, seed, s, i]))
            if cfg.role == DETECTOR_BLOCKS:
                pos = np.nonzero(labels == t)[0]
                if pos.size == 0:
                    raise ValueError(f"no positives for class {t}")
                neg_pool = known_pool[labels[known_pool] != t]
                if neg_pool.size == 0:
                    raise ValueError("no negative examples available")
                neg = rng.choice(neg_pool, size=pos.size,
                                 replace=neg_pool.size < pos.size)
                idx = np.concatenate([pos, neg])
                tgt = np.concatenate([np.ones(pos.size), np.zeros(neg.size)])
            else:
                idx = np.arange(len(labels))
                tgt = _mlp_targets(t, labels)
            plans.append(MlpPlan(target_class=t, indices=idx, targets=tgt))
        stage_plans.append(plans)
    return stage_plans


def _mlp_targets(target_class: int | None, labels: np.ndarray) -> np.ndarray:
    """Targets of one MLP's rule evaluated on an arbitrary labeled set."""
    if target_class is None:
        return labels.astype(np.float64)
    return (labels == target_class).astype(np.float64)


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True, eq=False)
class Stage:
    """One stage's MLPs with their weights packed for one evaluation.

    For m MLPs with h first-layer neurons: first_w holds their first-layer
    weights side by side, (fan_in, m * h), and first_b their (m * h,)
    biases.  weights and biases hold each later layer as an
    (m, fan_in, fan_out) stack and its (m, 1, fan_out) biases.  All are
    read-only, and the arrays of each Mlp in `mlps` are views of them.
    Build with pack_stage.
    """
    mlps: tuple[Mlp, ...]
    first_w: np.ndarray
    first_b: np.ndarray
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


def pack_stage(mlps, n_mlps: int) -> Stage:
    """Copy n_mlps MLPs of one layer-size tuple into packed, read-only arrays.

    `mlps` yields (index, net) pairs in any order, each index of
    range(n_mlps) exactly once.  It may be a generator: each MLP is copied
    to its index as it arrives and not held after, so a stage trained or
    loaded through one holds its weights once, not twice.
    """
    arrived = np.zeros(max(n_mlps, 0), dtype=bool)
    sizes = None
    for i, net in mlps:
        if sizes is None:
            sizes, h = net.layer_sizes, net.layer_sizes[1]
            first_w = np.empty((sizes[0], n_mlps * h))
            first_b = np.empty(n_mlps * h)
            weights = tuple(np.empty((n_mlps, a, b))
                            for a, b in zip(sizes[1:-1], sizes[2:]))
            biases = tuple(np.empty((n_mlps, 1, b)) for b in sizes[2:])
        elif net.layer_sizes != sizes:
            raise ValueError("the MLPs of a stage must share their layer sizes")
        if not 0 <= i < n_mlps:
            raise ValueError(f"MLP index {i} outside 0..{n_mlps - 1}")
        if arrived[i]:
            raise ValueError(f"MLP index {i} arrived twice")
        arrived[i] = True
        cols = slice(i * h, (i + 1) * h)
        first_w[:, cols] = net.weights[0]
        first_b[cols] = net.biases[0]
        for w, b, net_w, net_b in zip(weights, biases, net.weights[1:],
                                      net.biases[1:]):
            w[i] = net_w
            b[i, 0] = net_b
    count = int(arrived.sum())
    if n_mlps < 1 or count != n_mlps:
        raise ValueError(f"expected {n_mlps} >= 1 MLPs, got {count}")
    for arr in (first_w, first_b, *weights, *biases):
        arr.flags.writeable = False
    # views taken after the freeze, since a view keeps the flag it was made with
    views = tuple(
        Mlp(sizes, [first_w[:, i * h:(i + 1) * h], *(w[i] for w in weights)],
            [first_b[i * h:(i + 1) * h], *(b[i, 0] for b in biases)])
        for i in range(n_mlps))
    return Stage(views, first_w, first_b, weights, biases)


def _stage_outputs(stage: Stage, x) -> np.ndarray:
    """Outputs of a stage's m MLPs on the (B, fan_in) rows x, side by side
    in MLP order: one GEMM for every first layer, then one batched matmul
    per later layer."""
    m = len(stage.mlps)
    z = x @ stage.first_w
    z += stage.first_b
    a = z.reshape(x.shape[0], m, z.shape[1] // m).transpose(1, 0, 2)
    for w, b in zip(stage.weights, stage.biases):
        np.tanh(a, out=a)
        a = a @ w
        a += b
    return a.transpose(1, 0, 2).reshape(x.shape[0], m * a.shape[2])


@dataclass
class MstModel:
    configs: list[StageConfig]
    stages: list[Stage]
    n_labels: int
    order: int
    seed: int
    traces: list[list[TrainRun]] = field(default_factory=list)
    known_labels: tuple[int, ...] = ()

    def config_hash(self) -> str:
        blob = json.dumps(
            [dataclasses.astuple(c) for c in self.configs]
            + [self.n_labels, self.order, self.seed, list(self.known_labels)])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def stage_hashes(self) -> list[str]:
        out = []
        for stage in self.stages:
            h = hashlib.sha256()
            for net in stage.mlps:
                h.update(pack_parameters(net).tobytes())
            out.append(h.hexdigest()[:16])
        return out


# (set, get) thread-count functions, in the order they are looked up
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_libraries() -> list[tuple[str, object, object]]:
    """(path, set_num_threads, get_num_threads) of each OpenBLAS bundled in
    numpy's and scipy's `<pkg>.libs` directories."""
    found = []
    for pkg in (np, scipy):
        pattern = (Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
                   / "*openblas*")
        for path in sorted(glob.glob(str(pattern))):
            lib = ctypes.CDLL(path)
            for set_name, get_name in _OPENBLAS_THREAD_FUNCTIONS:
                setter = getattr(lib, set_name, None)
                getter = getattr(lib, get_name, None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    found.append((path, setter, getter))
                    break
    return found


@contextlib.contextmanager
def single_threaded_blas():
    """Pin every bundled OpenBLAS to one thread; on exit, also on an
    exception, restore the thread counts found on entry.

    Thread counts are process-wide, so concurrent users would restore
    each other's counts.  Without a bundled OpenBLAS this does nothing.
    """
    libs = _openblas_libraries()
    if not libs:
        logger.debug("no bundled OpenBLAS found; BLAS threads left as they are")
        yield
        return
    logger.debug("OpenBLAS libraries: %s", [path for path, _, _ in libs])
    saved = [getter() for _, _, getter in libs]
    for _, setter, _ in libs:
        setter(1)
    logger.debug("BLAS threads pinned to 1 (were %s)", saved)
    try:
        yield
    finally:
        for (_, setter, _), n in zip(libs, saved):
            setter(n)
        logger.debug("BLAS threads restored to %s", saved)


def _train_stage(train_one, n_mlps: int) -> tuple[Stage, list[TrainRun]]:
    """Train and pack a stage's MLPs, train_one(i) returning MLP i and its
    TrainRun, in this process and in forked stage workers (see the module
    docstring).  No worker outlives the call, also when it raises."""
    runs = [None] * n_mlps

    def nets(trained):
        for i, (net, run) in trained:
            runs[i] = run
            yield i, net

    with contextlib.closing(fork_map(train_one, n_mlps)) as trained:
        return pack_stage(nets(trained), n_mlps), runs


@single_threaded_blas()
def train_mst(train_x, train_y, val_x, val_y, configs, order: int = 2,
              seed: int = 0, known_labels=None, sd_lr: float = 0.01,
              iter_cap: int | None = None) -> MstModel:
    """Train every stage to completion before the next one starts.

    Stage s+1 consumes the frozen stage-s outputs, evaluated once on the
    full training and validation sets.  known_labels restricts the classes
    whose data feeds stage 1 (incremental learning); later stages always
    see every class.  iter_cap optionally lowers each stage's iteration
    budget for reduced-scale runs.  Training labels must be exactly 1..n,
    the validation set non-empty with labels among them, and all features
    finite.

    The whole call runs on one BLAS thread (single_threaded_blas), so the
    trained model is the same whatever the caller's BLAS thread count;
    that count is restored on return, also when the call raises.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 (gradient) or 2 (damped Gauss-Newton)")
    if not configs:
        raise ValueError("need at least one stage config")
    train_x = np.asarray(train_x, dtype=np.float64)
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
    plan = plan_batches(train_y, configs, seed, known_labels)
    val_patience = 10 if order == 2 else 20
    cur_tr, cur_va = train_x, val_x
    stages, traces = [], []
    for s, cfg in enumerate(configs):
        max_iters = cfg.max_iters if iter_cap is None \
            else min(cfg.max_iters, iter_cap)
        stop = StopCriteria(max_iters=max_iters, mse_goal=cfg.mse_goal,
                            val_patience=val_patience)

        def train_one(i):
            mlp_plan = plan[s][i]
            net = init_mlp(
                cfg.layer_sizes(cur_tr.shape[1]),
                seed=np.random.SeedSequence([0x3117, seed, s, i]))
            xb = cur_tr[mlp_plan.indices]
            tb = mlp_plan.targets[:, None]
            tv = _mlp_targets(mlp_plan.target_class, val_y)[:, None]
            opt = LmState() if order == 2 else SdOptimizer(lr=sd_lr)
            return train(net, (xb, tb), (cur_va, tv), opt, stop)

        stage, runs = _train_stage(train_one, cfg.n_mlps)
        stages.append(stage)
        traces.append(runs)
        if s + 1 < len(configs):
            cur_tr = _stage_outputs(stage, cur_tr)
            cur_va = _stage_outputs(stage, cur_va)
    known = () if known_labels is None else tuple(int(v) for v in known_labels)
    return MstModel(configs=list(configs), stages=stages, n_labels=n_labels,
                    order=order, seed=seed, traces=traces, known_labels=known)


def train_incremental(train_x, train_y, val_x, val_y, configs, k: int,
                      order: int = 2, seed: int = 0, **kw) -> MstModel:
    """Stage 1 learns from the first k classes only; later stages see all."""
    classes = np.unique(np.asarray(train_y))
    n = len(classes)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    known = classes[:k]
    return train_mst(train_x, train_y, val_x, val_y, configs, order=order,
                     seed=seed, known_labels=known, **kw)


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
    if not model.stages:
        raise ValueError("model has untrained stages")
    cur = np.asarray(x, dtype=np.float64)
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


def evaluate(model: MstModel, test_x, test_y) -> ConfusionMatrix:
    preds = classify_batch(model, test_x)
    return confusion_from_predictions(test_y, preds, model.n_labels)


# ---------------------------------------------------------------------------
# persistence: manifest.json plus one stage<s>.f64 per stage, holding the
# stage's MLPs in order as little-endian float64 pack_parameters vectors,
# so on a little-endian host its sha256 is its stage_hashes() entry.  The
# manifest holds the configs, input width, config_hash and every MLP's
# training trace, and names no file.


def save_model(model: MstModel, out_dir) -> Path:
    """Write a model with its training traces, one per MLP; a model without
    them raises ValueError."""
    if [len(runs) for runs in model.traces] != \
            [len(stage.mlps) for stage in model.stages]:
        raise ValueError("a saved model needs one training trace per MLP")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s, stage in enumerate(model.stages, start=1):
        with open(out / f"stage{s}.f64", "wb") as f:
            for net in stage.mlps:
                pack_parameters(net).astype("<f8", copy=False).tofile(f)
    manifest = {
        "n_labels": model.n_labels,
        "order": model.order,
        "seed": model.seed,
        "known_labels": list(model.known_labels),
        "input_dim": model.stages[0].first_w.shape[0],
        "config_hash": model.config_hash(),
        "configs": [dataclasses.asdict(c) for c in model.configs],
        "traces": [[dataclasses.asdict(run) for run in runs]
                   for runs in model.traces],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return out


def load_model(in_dir) -> MstModel:
    """Read a model that save_model wrote.  A manifest key, trace count,
    config_hash or field that is wrong, or a stage file that does not hold
    exactly its configured MLPs, raises ValueError naming the manifest."""
    path = Path(in_dir) / "manifest.json"
    manifest = read_manifest(path, (
        "n_labels", "order", "seed", "known_labels", "input_dim",
        "config_hash", "configs", "traces"))
    configs = [build(StageConfig, c, path) for c in manifest["configs"]]
    traces = [[build(TrainRun, run, path,
                     stop=lambda stop: build(StopCriteria, stop, path))
               for run in runs] for runs in manifest["traces"]]
    counts = [len(runs) for runs in traces]
    if counts != [c.n_mlps for c in configs]:
        raise ValueError(f"{path}: {counts} traces per stage for "
                         f"{[c.n_mlps for c in configs]} configured MLPs")
    stages, fan_in = [], manifest["input_dim"]
    for s, cfg in enumerate(configs, start=1):
        sizes = cfg.layer_sizes(fan_in)
        params = read_array(path, f"stage{s}.f64", "<f8",
                            (cfg.n_mlps, count_parameters(sizes)))
        stages.append(pack_stage(
            enumerate(unpack_parameters(sizes, p) for p in params),
            cfg.n_mlps))
        fan_in = cfg.n_mlps
    model = MstModel(configs=configs, stages=stages,
                     n_labels=manifest["n_labels"], order=manifest["order"],
                     seed=manifest["seed"], traces=traces,
                     known_labels=tuple(manifest["known_labels"]))
    if model.config_hash() != manifest["config_hash"]:
        raise ValueError(f"{path}: configuration does not match its "
                         "config_hash")
    return model
