import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import shutil
import time

import numpy as np
import pytest

from rfmst.dataprep import stratified_indices
from rfmst.mst import (
    CLASS_INDEX,
    DETECTOR_BLOCKS,
    DETECTOR_CYCLE,
    ConfusionMatrix,
    MstModel,
    StageConfig,
    classify_batch,
    confusion_from_predictions,
    default_config_1st,
    default_config_2nd,
    fuse_labels,
    load_model,
    save_model,
    stage_targets,
    train_mst,
)
from rfmst import ann, mst
from rfmst.ann import pack_parameters


# ---------------------------------------------------------------------------
# configs


def test_default_2nd_order_stage_sizes():
    cfgs = default_config_2nd(12)
    assert [c.n_mlps for c in cfgs] == [60, 30, 30]
    assert [c.neurons_per_layer for c in cfgs] == [10, 15, 15]
    assert [c.max_iters for c in cfgs] == [100, 150, 250]
    assert [c.mse_goal for c in cfgs] == [1e-3, 1e-5, 1e-7]


def test_default_2nd_order_targets():
    cfgs = default_config_2nd(12)
    labels = np.arange(1, 13)
    s1 = stage_targets(cfgs[0], 12, labels)
    assert s1[:6] == [1, 1, 1, 1, 1, 2]       # five detectors per class
    assert s1[-1] == 12
    s2 = stage_targets(cfgs[1], 12, labels)
    assert s2[:12] == list(range(1, 13))      # cycling detectors
    assert s2[12:24] == list(range(1, 13))
    s3 = stage_targets(cfgs[2], 12, labels)
    assert s3 == [None] * 30                  # class-index regression
    assert mst._model_targets(cfgs, 12, ()) == [s1, s2, s3]


def test_default_1st_order_shape():
    cfgs = default_config_1st(12)
    assert len(cfgs) == 6
    assert cfgs[0].mse_goal == pytest.approx(1e-1)
    assert cfgs[-1].role == CLASS_INDEX
    assert all(c.max_iters == 15_000 for c in cfgs)
    goals = [c.mse_goal for c in cfgs]
    ratios = [goals[i + 1] / goals[i] for i in range(5)]
    np.testing.assert_allclose(ratios, ratios[0])  # geometric schedule


@pytest.mark.parametrize("max_iters, mse_goal", [
    (0, 1e-3), (5, 0.0), (5, float("nan")), (0, float("nan"))])
def test_stage_config_rejects_a_budget_training_cannot_use(max_iters,
                                                           mse_goal):
    message = "mse_goal must be finite, got nan" if math.isnan(mse_goal) \
        else "max_iters and mse_goal must be positive"
    with pytest.raises(ValueError, match=f"^{message}$"):
        StageConfig(DETECTOR_BLOCKS, 4, 2, 10, max_iters, mse_goal)


@pytest.mark.parametrize("goal, message", [
    (True, "mse_goal must be a real number, got True"),
    ("x", "mse_goal must be a real number, got 'x'"),
    (float("inf"), "mse_goal must be finite, got inf"),
    (10**400, "mse_goal must be finite, got inf"),
], ids=["bool", "str", "inf", "int_past_float"])
def test_stage_config_rejects_a_goal_that_is_not_a_finite_real_number(
        goal, message):
    # True used to train a model that load_model refused, "x" to raise a
    # bare TypeError, and inf to stop every MLP after one iteration
    with pytest.raises(ValueError, match=f"^{message}$"):
        StageConfig(DETECTOR_BLOCKS, 4, mse_goal=goal)


@pytest.mark.parametrize("field", ["n_mlps", "hidden_layers",
                                   "neurons_per_layer", "max_iters"])
@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_stage_config_rejects_counts_that_are_not_integers(field, bad):
    with pytest.raises(ValueError,
                       match=f"^{field} must be an integer, got {bad!r}$"):
        dataclasses.replace(StageConfig(DETECTOR_BLOCKS, 4), **{field: bad})


def test_stage_config_takes_numpy_integers_as_ints():
    cfg = StageConfig(DETECTOR_BLOCKS, np.int64(4), np.int32(2),
                      np.uint8(6), np.int16(30))
    counts = (cfg.n_mlps, cfg.hidden_layers, cfg.neurons_per_layer,
              cfg.max_iters)
    assert counts == (4, 2, 6, 30)
    assert all(type(c) is int for c in counts)
    json.dumps(dataclasses.astuple(cfg))     # a manifest takes them


@pytest.mark.parametrize("make", [default_config_1st, default_config_2nd])
@pytest.mark.parametrize("bad", [2.5, 4.0, True])
def test_default_configs_reject_a_transmitter_count_not_an_integer(make, bad):
    # 2.5 used to be blamed on n_mlps
    with pytest.raises(ValueError,
                       match=f"^n_t must be an integer, got {bad!r}$"):
        make(bad)
    assert make(np.int64(4)) == make(4)


# ---------------------------------------------------------------------------
# stage-1 batches


def _labels(n_classes, per_class):
    return np.repeat(np.arange(1, n_classes + 1), per_class)


def test_stage1_batches_balanced_positives_negatives():
    y = _labels(12, 100)
    known = np.arange(1, 13)
    targets = stage_targets(default_config_2nd(12)[0], 12, known)
    for i, t in enumerate(targets):
        rows = mst._detector_batch(y, known, t, 1, 0, i)
        positive = y[rows] == t
        assert positive.sum() == 100 and (~positive).sum() == 100
        np.testing.assert_array_equal(rows[positive], np.flatnonzero(y == t))


def _reference_detector_rows(labels, known, t, seed, s, i):
    """The stage-1 draw stated another way: the rows of the known classes
    first, then the negatives taken from among them."""
    rng = np.random.default_rng(np.random.SeedSequence([0xB47C4, seed, s, i]))
    known_pool = np.nonzero(np.isin(labels, known))[0]
    pos = np.nonzero(labels == t)[0]
    neg_pool = known_pool[labels[known_pool] != t]
    neg = rng.choice(neg_pool, size=pos.size, replace=neg_pool.size < pos.size)
    return np.concatenate([pos, neg])


@pytest.mark.parametrize("per_class, known", [
    ((20, 20, 20, 20), [1, 2, 3, 4]),
    ((20, 20, 20, 20), [2, 4]),
    ((50, 10, 10, 10), [1, 2]),     # fewer negatives: drawn with replacement
])
def test_detector_batches_equal_the_reference_draw(per_class, known):
    y = np.random.default_rng(3).permutation(
        np.repeat(np.arange(1, 5), per_class))
    for i, t in enumerate(stage_targets(StageConfig(DETECTOR_BLOCKS, 8), 4,
                                        known)):
        for seed, s in ((0, 0), (101, 0), (7, 2)):
            np.testing.assert_array_equal(
                mst._detector_batch(y, known, t, seed, s, i),
                _reference_detector_rows(y, known, t, seed, s, i))


def test_plan_is_deterministic_per_seed():
    y, known = _labels(4, 30), np.arange(1, 5)
    a = [mst._detector_batch(y, known, 2, 5, 0, i) for i in range(8)]
    b = [mst._detector_batch(y, known, 2, 5, 0, i) for i in range(8)]
    for rows_a, rows_b in zip(a, b):
        np.testing.assert_array_equal(rows_a, rows_b)
    c = [mst._detector_batch(y, known, 2, 6, 0, i) for i in range(8)]
    assert any(not np.array_equal(ra, rc) for ra, rc in zip(a, c))
    # each MLP draws its own negatives
    assert any(not np.array_equal(a[0], ra) for ra in a[1:])


# ---------------------------------------------------------------------------
# training on a toy separable problem


def _toy_gaussians(n_classes=3, per_class=40, dim=4, seed=0, spread=0.08):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.8, 0.8, size=(n_classes, dim))
    x = np.concatenate([
        centers[c] + spread * rng.normal(size=(per_class, dim))
        for c in range(n_classes)
    ])
    y = _labels(n_classes, per_class)
    return x, y


def _tiny_configs(n_t):
    return [
        StageConfig(DETECTOR_BLOCKS, 2 * n_t, 2, 6, 30, 1e-4),
        StageConfig(DETECTOR_CYCLE, n_t, 2, 6, 30, 1e-5),
        StageConfig(CLASS_INDEX, 5, 2, 6, 40, 1e-6),
    ]


def _split_toy(x, y, seed=0):
    tr, te = stratified_indices(y, 0.8, seed)
    return x[tr], y[tr], x[te], y[te]


def test_train_mst_separable_reaches_full_training_accuracy():
    x, y = _toy_gaussians()
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), order=2, seed=1)
    preds = classify_batch(model, xtr)
    assert (preds == ytr).mean() == 1.0


def test_train_mst_deterministic():
    x, y = _toy_gaussians(seed=2)
    xtr, ytr, xva, yva = _split_toy(x, y)
    m1 = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), order=2, seed=3)
    m2 = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), order=2, seed=3)
    assert m1.stage_hashes() == m2.stage_hashes()


def test_train_mst_rejects_labels_not_1_to_n():
    x, y = _toy_gaussians(n_classes=2)
    y = np.where(y == 1, 2, 5)      # labels {2, 5}
    xtr, ytr, xva, yva = _split_toy(x, y)
    with pytest.raises(ValueError):
        train_mst(xtr, ytr, xva, yva, _tiny_configs(2), seed=1)


def test_train_mst_rejects_empty_validation_set():
    x, y = _toy_gaussians()
    xtr, ytr, xva, yva = _split_toy(x, y)
    with pytest.raises(ValueError, match="validation"):
        train_mst(xtr, ytr, xva[:0], yva[:0], _tiny_configs(3), seed=1)


def test_train_mst_rejects_validation_labels_outside_training_labels():
    x, y = _toy_gaussians()
    xtr, ytr, xva, yva = _split_toy(x, y)
    with pytest.raises(ValueError, match="validation labels"):
        train_mst(xtr, ytr, xva, yva + 5, _tiny_configs(3), seed=1)


def test_train_mst_rejects_empty_configs():
    # MstModel's own rule, checked before any MLP trains
    x, y = _toy_gaussians()
    xtr, ytr, xva, yva = _split_toy(x, y)
    with pytest.raises(ValueError, match="need at least one stage config"):
        train_mst(xtr, ytr, xva, yva, [], seed=1)


@pytest.mark.parametrize("where", ["train", "val"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_mst_rejects_non_finite_features(where, bad):
    x, y = _toy_gaussians()
    xtr, ytr, xva, yva = _split_toy(x, y)
    (xtr if where == "train" else xva)[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=1)


def test_stage_freezing_later_stage_changes_leave_earlier_weights():
    x, y = _toy_gaussians(seed=4)
    xtr, ytr, xva, yva = _split_toy(x, y)
    base = _tiny_configs(3)
    variant = list(base)
    variant[2] = StageConfig(CLASS_INDEX, 5, 2, 6, 8, 1e-9)
    m1 = train_mst(xtr, ytr, xva, yva, base, order=2, seed=5)
    m2 = train_mst(xtr, ytr, xva, yva, variant, order=2, seed=5)
    assert m1.stage_hashes()[:2] == m2.stage_hashes()[:2]
    assert m1.stage_hashes()[2] != m2.stage_hashes()[2]


@pytest.mark.parametrize("iter_cap, message", [
    (1.5, "iter_cap must be an integer, got 1.5"),
    (True, "iter_cap must be an integer, got True"),
    (0, "iter_cap must be >= 1, got 0")])
def test_train_mst_rejects_an_iter_cap_that_is_not_a_positive_integer(
        iter_cap, message):
    x, y = _toy_gaussians(seed=6)
    with pytest.raises(ValueError, match=f"^{message}$"):
        train_mst(*_split_toy(x, y), _tiny_configs(3), iter_cap=iter_cap)


def test_a_numpy_iter_cap_trains_a_model_that_saves(tmp_path):
    x, y = _toy_gaussians(seed=6)
    model = train_mst(*_split_toy(x, y), _tiny_configs(3), seed=7,
                      iter_cap=np.int64(2))
    assert all(run.iterations <= 2 for runs in model.traces for run in runs)
    loaded = load_model(save_model(model, tmp_path / "model"))
    assert loaded.stage_hashes() == model.stage_hashes()


@pytest.mark.parametrize("bad", [-1, "x", 1.5, True])
def test_train_mst_rejects_a_seed_that_is_not_an_integer_at_least_0(
        monkeypatch, tmp_path, bad):
    # each used to train (or fail inside the first MLP's training), and
    # True to save a model that load_model rejects
    x, y = _toy_gaussians(seed=40)
    xtr, ytr, xva, yva = _split_toy(x, y)
    log = tmp_path / "pids"
    _logged_train(monkeypatch, log)
    with pytest.raises(ValueError, match=r"^seed must be"):
        train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=bad)
    assert not log.exists()
    _assert_no_child_left()


def test_a_numpy_seed_trains_the_model_of_its_int(saved_toy_model, tmp_path):
    # np.int64 used to train, then fail to save
    x, y = _toy_gaussians(seed=17)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3),
                      seed=np.int64(18))
    assert type(model.seed) is int
    loaded = load_model(save_model(model, tmp_path / "model"))
    assert loaded.stage_hashes() == model.stage_hashes() == \
        load_model(saved_toy_model).stage_hashes()
    assert type(loaded.seed) is int and loaded.seed == 18


@pytest.mark.parametrize("order, message", [
    (True, "order must be an integer, got True"),
    (2.0, "order must be an integer, got 2.0"),
    (3, r"order must be 1 \(gradient\) or 2 \(damped Gauss-Newton\), got 3"),
], ids=["bool", "float", "three"])
def test_train_mst_rejects_an_order_that_is_not_1_or_2(monkeypatch, tmp_path,
                                                       order, message):
    # True used to train and save a model that load_model rejects
    x, y = _toy_gaussians(seed=40)
    log = tmp_path / "pids"
    _logged_train(monkeypatch, log)
    with pytest.raises(ValueError, match=f"^{message}$"):
        train_mst(*_split_toy(x, y), _tiny_configs(3), order=order)
    assert not log.exists()


def test_a_numpy_order_trains_a_model_that_saves(tmp_path):
    # np.int64 used to train, then fail in save_model with a bare TypeError
    x, y = _toy_gaussians(seed=6)
    model = train_mst(*_split_toy(x, y), _tiny_configs(3), seed=7,
                      order=np.int64(2), iter_cap=2)
    assert type(model.order) is int
    loaded = load_model(save_model(model, tmp_path / "model"))
    assert loaded.stage_hashes() == model.stage_hashes()
    assert loaded.order == 2


def test_a_numpy_goal_trains_a_model_that_saves(tmp_path):
    # np.float32 used to train, then fail in save_model with a bare
    # TypeError
    x, y = _toy_gaussians(seed=6)
    configs = [dataclasses.replace(c, mse_goal=np.float32(c.mse_goal))
               for c in _tiny_configs(3)]
    assert all(type(c.mse_goal) is float for c in configs)
    model = train_mst(*_split_toy(x, y), configs, seed=7, iter_cap=2)
    loaded = load_model(save_model(model, tmp_path / "model"))
    assert loaded.configs == model.configs == configs


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("sd_lr", [float("nan"), float("inf"), -1.0, "x",
                                   True])
def test_train_mst_rejects_a_learning_rate_that_is_not_finite_and_at_least_0(
        monkeypatch, tmp_path, order, sd_lr):
    # nan used to train every MLP of an order-1 model without a word
    x, y = _toy_gaussians(seed=40)
    log = tmp_path / "pids"
    _logged_train(monkeypatch, log)
    with pytest.raises(ValueError, match=r"^lr must be (a real number|"
                                         r"finite|>= 0), got "):
        train_mst(*_split_toy(x, y), _tiny_configs(3), order=order,
                  sd_lr=sd_lr)
    assert not log.exists()


def test_first_order_training_runs_with_iter_cap():
    x, y = _toy_gaussians(seed=6)
    xtr, ytr, xva, yva = _split_toy(x, y)
    cfgs = default_config_1st(3)
    model = train_mst(xtr, ytr, xva, yva, cfgs, order=1, seed=7,
                      sd_lr=0.05, iter_cap=200)
    assert all(run.iterations <= 200 for runs in model.traces for run in runs)
    preds = classify_batch(model, xtr)
    assert (preds == ytr).mean() > 0.5


# ---------------------------------------------------------------------------
# stage workers


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _logged_train(monkeypatch, log, fail=lambda: None):
    """Patch mst.train to append its process id to `log` and call `fail`
    before it trains; a slow MLP in the parent leaves work to the workers."""
    parent, train = os.getpid(), mst.train

    def logged(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        fail()
        if os.getpid() == parent:
            time.sleep(0.02)
        return train(*args, **kwargs)

    monkeypatch.setattr(mst, "train", logged)
    return parent


def _traces_without_seconds(model):
    return [[{k: v for k, v in dataclasses.asdict(run).items()
              if k != "seconds"} for run in runs] for runs in model.traces]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_stage_workers_train_the_same_models_as_one_process(monkeypatch,
                                                           tmp_path):
    x, y = _toy_gaussians(n_classes=5, per_class=20, seed=30)
    xtr, ytr, xva, yva = _split_toy(x, y)
    configs = _tiny_configs(5)
    assert min(c.n_mlps for c in configs) >= 5
    models, pids = [], []
    for n in (1, 4):
        _cpus(monkeypatch, n)
        log = tmp_path / f"pids{n}"
        _logged_train(monkeypatch, log)
        models.append(train_mst(xtr, ytr, xva, yva, configs, seed=31))
        pids.append(set(log.read_text().split()))
        monkeypatch.undo()
    one, several = models
    assert len(pids[0]) == 1 and len(pids[1]) > 1
    assert several.stage_hashes() == one.stage_hashes()
    assert _traces_without_seconds(several) == _traces_without_seconds(one)
    assert all(run.seconds > 0 for runs in several.traces for run in runs)
    _assert_no_child_left()


def test_an_error_in_a_worker_reaches_the_caller(monkeypatch, tmp_path):
    x, y = _toy_gaussians(seed=32)
    xtr, ytr, xva, yva = _split_toy(x, y)
    _cpus(monkeypatch, 4)

    def fail_in_a_worker():
        if os.getpid() != parent:
            raise ValueError(f"MLP failed in worker {os.getpid()}")

    parent = _logged_train(monkeypatch, tmp_path / "pids", fail_in_a_worker)
    with pytest.raises(ValueError, match=r"MLP failed in worker \d+"):
        train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=33)
    _assert_no_child_left()


def test_an_error_in_the_parent_leaves_no_worker(monkeypatch, tmp_path):
    x, y = _toy_gaussians(seed=34)
    xtr, ytr, xva, yva = _split_toy(x, y)
    _cpus(monkeypatch, 4)
    configs = _tiny_configs(3)
    # each of the 3 workers holds at most one MLP while it waits for the
    # parent, so the stage leaves the parent one to fail on
    assert configs[0].n_mlps > 3
    started = tmp_path / "parent-started"

    def fail_in_the_parent():
        if os.getpid() == parent:
            started.touch()
            raise ValueError("MLP failed in the parent")
        deadline = time.monotonic() + 10
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.001)

    parent = _logged_train(monkeypatch, tmp_path / "pids", fail_in_the_parent)
    with pytest.raises(ValueError, match="MLP failed in the parent"):
        train_mst(xtr, ytr, xva, yva, configs, seed=35)
    _assert_no_child_left()


def test_a_worker_that_dies_is_reported(monkeypatch, tmp_path):
    x, y = _toy_gaussians(seed=36)
    xtr, ytr, xva, yva = _split_toy(x, y)
    _cpus(monkeypatch, 2)

    def die_in_a_worker():
        if os.getpid() != parent:
            os._exit(3)

    parent = _logged_train(monkeypatch, tmp_path / "pids", die_in_a_worker)
    with pytest.raises(RuntimeError, match=r"stage worker \d+ exited with "
                                           r"status 3"):
        train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=37)
    _assert_no_child_left()


def test_stage2_batch_is_full_training_set(monkeypatch):
    x, y = _toy_gaussians(seed=38)
    xtr, ytr, xva, yva = _split_toy(x, y)
    _cpus(monkeypatch, 1)
    batches, train = [], mst.train

    def logged(net, train_xy, *args):
        batches.append(train_xy)
        return train(net, train_xy, *args)

    monkeypatch.setattr(mst, "train", logged)
    configs = _tiny_configs(3)
    model = train_mst(xtr, ytr, xva, yva, configs, seed=39, iter_cap=2)
    n1, n2, n3 = (c.n_mlps for c in configs)
    assert len(batches) == n1 + n2 + n3
    stage2_x = mst._stage_outputs(model.stages[0], xtr).astype(np.float64)
    stage3_x = mst._stage_outputs(model.stages[1], stage2_x).astype(np.float64)
    targets = mst._model_targets(configs, 3, ())
    for i, (x_in, t) in enumerate(batches[:n1]):
        rows = mst._detector_batch(ytr, [1, 2, 3], targets[0][i], 39, 0, i)
        np.testing.assert_array_equal(x_in, xtr[rows])
        np.testing.assert_array_equal(t[:, 0], ytr[rows] == targets[0][i])
    for j, (x_in, t) in enumerate(batches[n1:n1 + n2]):
        assert x_in is batches[n1][0]     # the stage input itself, no copy
        np.testing.assert_array_equal(x_in, stage2_x)
        np.testing.assert_array_equal(t[:, 0], ytr == targets[1][j])
    for x_in, t in batches[n1 + n2:]:
        assert x_in is batches[n1 + n2][0]
        np.testing.assert_array_equal(x_in, stage3_x)
        np.testing.assert_array_equal(t[:, 0], ytr)


def _train_with_known_labels(monkeypatch, tmp_path, n_classes, known):
    """train_mst with known_labels `known`; it must raise before any MLP
    trains."""
    x, y = _toy_gaussians(n_classes=n_classes, seed=40)
    xtr, ytr, xva, yva = _split_toy(x, y)
    log = tmp_path / "pids"
    _logged_train(monkeypatch, log)
    try:
        train_mst(xtr, ytr, xva, yva, _tiny_configs(n_classes), seed=41,
                  known_labels=known)
    finally:
        assert not log.exists()


def test_plan_missing_class_raises(monkeypatch, tmp_path):
    with pytest.raises(ValueError, match=r"known_labels \[1, 2, 9\] are not "
                                         r"distinct labels in 1\.\.3"):
        _train_with_known_labels(monkeypatch, tmp_path, 3, [1, 2, 9])


@pytest.mark.parametrize("known", [[True, 2], [1.0, 2], ["1", 2]],
                         ids=["bool", "float", "str"])
def test_plan_rejects_a_known_label_that_is_not_an_integer(monkeypatch,
                                                           tmp_path, known):
    # [True, 2] used to train and record known_labels (1, 2)
    with pytest.raises(ValueError, match=f"^a known label must be an integer, "
                                         f"got {known[0]!r}$"):
        _train_with_known_labels(monkeypatch, tmp_path, 3, known)


def test_plan_rejects_empty_known_labels(monkeypatch, tmp_path):
    with pytest.raises(ValueError, match="known_labels is empty"):
        _train_with_known_labels(monkeypatch, tmp_path, 3, [])


def test_plan_rejects_a_repeated_known_label(monkeypatch, tmp_path):
    # a repeat would hand class 1 more stage-1 detectors than class 2
    with pytest.raises(ValueError, match=r"known_labels \[2, 1, 1\] are not "
                                         r"distinct labels in 1\.\.4"):
        _train_with_known_labels(monkeypatch, tmp_path, 4, [2, 1, 1])


def test_a_detector_stage_needs_two_known_labels(monkeypatch, tmp_path):
    with pytest.raises(ValueError, match=r"a detector stage needs negatives "
                                         r"from a second known class, got "
                                         r"only \[2\]"):
        _train_with_known_labels(monkeypatch, tmp_path, 3, [2])


def test_incremental_k_of_one_leaves_stage1_no_negatives():
    x, y = _toy_gaussians(seed=42)
    xtr, ytr, xva, yva = _split_toy(x, y)
    with pytest.raises(ValueError, match="needs negatives"):
        train_mst(xtr, ytr, xva, yva, _tiny_configs(3),
                  known_labels=range(1, 2))


def test_training_does_not_depend_on_the_feature_layout():
    x, y = _toy_gaussians(seed=43)
    xtr, ytr, xva, yva = _split_toy(x, y)
    # only class-index stages, so stage 1 trains on train_x as it is
    configs = [StageConfig(CLASS_INDEX, 3, 2, 6, 10, 1e-6)] * 2
    c = train_mst(xtr, ytr, xva, yva, configs, seed=44)
    f = train_mst(np.asfortranarray(xtr), ytr, xva, yva, configs, seed=44)
    assert f.stage_hashes() == c.stage_hashes()


def test_label_permutation_equivariance_on_separable_toy():
    x, y = _toy_gaussians(seed=8, spread=0.02)
    perm = {1: 2, 2: 3, 3: 1}
    y_perm = np.vectorize(perm.get)(y)

    def confusion(labels):
        xtr, ytr, xva, yva = _split_toy(x, labels)
        model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=9)
        cm = confusion_from_predictions(ytr, classify_batch(model, xtr),
                                        model.n_labels)
        # the same counts whatever the order of the rows
        rows = np.random.default_rng(10).permutation(ytr.size)
        shuffled = confusion_from_predictions(
            ytr[rows], classify_batch(model, xtr[rows]), model.n_labels)
        np.testing.assert_array_equal(shuffled.counts, cm.counts)
        return cm

    cm, cm_perm = confusion(y), confusion(y_perm)
    p = np.array([perm[1], perm[2], perm[3]]) - 1
    permuted = np.zeros_like(cm.counts)
    for i in range(3):
        for j in range(3):
            permuted[p[i], p[j]] = cm.counts[i, j]
    np.testing.assert_array_equal(cm_perm.counts, permuted)


# ---------------------------------------------------------------------------
# fusion and classification


def test_fuse_unanimous_rounding():
    outs = np.full((1, 30), 7.2)
    assert fuse_labels(outs, 12)[0] == 7


def test_fuse_majority():
    outs = np.array([[3.0] * 16 + [5.0] * 14])
    assert fuse_labels(outs, 12)[0] == 3


def test_fuse_tie_breaks_to_lowest_label():
    outs = np.array([[2.0] * 15 + [9.0] * 15])
    assert fuse_labels(outs, 12)[0] == 2


def test_fuse_clamps_outputs_to_label_range():
    outs = np.array([[17.4, -3.0, 12.2]])
    assert fuse_labels(outs, 12)[0] == 12


def test_fuse_matches_per_row_vote_count():
    rng = np.random.default_rng(8)
    outs = rng.uniform(-2.0, 15.0, size=(200, 7))
    votes = np.clip(np.rint(outs), 1, 12).astype(int)
    ref = [np.argmax(np.bincount(row, minlength=13)[1:]) + 1 for row in votes]
    np.testing.assert_array_equal(fuse_labels(outs, 12), ref)
    assert fuse_labels(np.empty((0, 7)), 12).shape == (0,)


def test_classify_is_pure_function_of_model_and_input():
    x, y = _toy_gaussians(seed=10)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=11)
    v = xtr[0]
    assert classify_batch(model, v) == classify_batch(model, v)
    h_before = model.stage_hashes()
    classify_batch(model, xtr)
    assert model.stage_hashes() == h_before


def test_classify_rejects_non_finite_rows_by_index(monkeypatch):
    x, y = _toy_gaussians(seed=10)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=11)

    def no_forward(net, xx):
        raise AssertionError("forward pass on non-finite features")

    monkeypatch.setattr(mst, "forward", no_forward)
    monkeypatch.setattr(mst, "_stage_outputs", no_forward)
    batch = xtr[:5].copy()
    batch[1, 2] = np.nan
    batch[4, 0] = -np.inf
    with pytest.raises(ValueError, match=r"rows \[1, 4\]"):
        classify_batch(model, batch)


def test_classify_rejects_rows_past_float32_range_by_index():
    # finite in float64, infinite once rounded to the stages' float32
    x, y = _toy_gaussians(seed=10)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=11)
    batch = xtr[:4].copy()
    batch[2, 1] = 1e39
    assert np.isfinite(batch).all()
    with pytest.raises(ValueError, match=r"non-finite features in rows \[2\]"):
        classify_batch(model, batch)


def test_one_row_at_a_time_equals_the_batch():
    x, y = _toy_gaussians(seed=10)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=11)
    batch = classify_batch(model, x)
    np.testing.assert_array_equal(
        [classify_batch(model, row)[0] for row in x], batch)


def test_later_stages_train_on_the_float32_outputs_classify_sees(
        monkeypatch):
    _cpus(monkeypatch, 1)                    # every MLP trains here
    x, y = _toy_gaussians(seed=10)
    xtr, ytr, xva, yva = _split_toy(x, y)
    inputs, train = [], mst.train

    def recording(net, train_xy, val_xy, *args):
        inputs.append((train_xy[0], val_xy[0]))
        return train(net, train_xy, val_xy, *args)

    monkeypatch.setattr(mst, "train", recording)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=11)
    # stage 2 trains on the whole training set: its first MLP's inputs
    xb, xv = inputs[len(model.stages[0].mlps)]
    for rows, got in ((xtr, xb), (xva, xv)):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(
            got, mst._stage_outputs(model.stages[0], rows))


def test_untrained_model_rejected():
    with pytest.raises(ValueError, match="need at least one stage config"):
        MstModel(configs=[], stages=[], n_labels=3, order=2, seed=0,
                 traces=[])


# ---------------------------------------------------------------------------
# incremental learning


def test_incremental_k_equals_n_is_bit_identical_to_full_training():
    x, y = _toy_gaussians(seed=12)
    xtr, ytr, xva, yva = _split_toy(x, y)
    full = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=13)
    inc = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=13,
                    known_labels=range(1, 4))
    assert full.stage_hashes() == inc.stage_hashes()


def test_incremental_stage1_sees_only_first_k_classes():
    y, known = _labels(4, 25), [1, 2]
    targets = mst._model_targets(_tiny_configs(4), 4, known)
    assert set(targets[0]) == {1, 2}
    for i, t in enumerate(targets[0]):
        assert np.all(y[mst._detector_batch(y, known, t, 1, 0, i)] <= 2)
    # later stages still cover all four classes
    assert set(targets[1]) == {1, 2, 3, 4}


def test_incremental_classifies_all_classes():
    x, y = _toy_gaussians(n_classes=4, seed=14, spread=0.03)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(4), seed=15,
                      known_labels=range(1, 3))
    preds = classify_batch(model, xtr)
    assert set(np.unique(preds)) >= {3, 4}  # unseen-by-stage-1 classes reachable
    assert (preds == ytr).mean() > 0.8


def test_incremental_k_out_of_range():
    x, y = _toy_gaussians(seed=16)
    xtr, ytr, xva, yva = _split_toy(x, y)
    with pytest.raises(ValueError, match="known_labels is empty"):
        train_mst(xtr, ytr, xva, yva, _tiny_configs(3),
                  known_labels=range(1, 1))
    with pytest.raises(ValueError, match=r"known_labels \[1, 2, 3, 4\] are "
                                         r"not distinct labels in 1\.\.3"):
        train_mst(xtr, ytr, xva, yva, _tiny_configs(3),
                  known_labels=range(1, 5))


# ---------------------------------------------------------------------------
# evaluation


def test_confusion_perfect_classifier():
    y = _labels(3, 5)
    cm = confusion_from_predictions(y, y, 3)
    np.testing.assert_array_equal(cm.counts, np.diag([5, 5, 5]))
    assert cm.accuracy == 1.0


def test_confusion_row_sums_equal_class_counts():
    y = _labels(12, 7)
    preds = np.roll(y, 3)
    cm = confusion_from_predictions(y, preds, 12)
    np.testing.assert_array_equal(cm.counts.sum(axis=1), np.full(12, 7))


def test_confusion_constant_classifier_on_balanced_set():
    y = _labels(12, 10)
    preds = np.full_like(y, 4)
    cm = confusion_from_predictions(y, preds, 12)
    assert cm.accuracy == pytest.approx(1 / 12)


def test_confusion_rejects_labels_outside_range():
    with pytest.raises(ValueError):
        confusion_from_predictions([0, 1], [1, 1], 2)
    with pytest.raises(ValueError):
        confusion_from_predictions([1, 2], [1, 3], 2)


def test_confusion_rejects_non_integer_labels():
    # float labels used to fail as a bare IndexError while counting
    with pytest.raises(ValueError, match="true labels must be integers"):
        confusion_from_predictions([1.0, 2.0], [1, 2], 2)
    with pytest.raises(ValueError, match="predicted labels must be integers"):
        confusion_from_predictions([1, 2], np.array([1.5, 2.0]), 2)


def test_confusion_counts_match_a_pairwise_count():
    rng = np.random.default_rng(5)
    y_true, y_pred = rng.integers(1, 6, size=(2, 300), dtype=np.uint8)
    expected = np.zeros((5, 5), dtype=int)
    for t, p in zip(y_true, y_pred):
        expected[t - 1, p - 1] += 1
    cm = confusion_from_predictions(y_true, y_pred, 5)
    np.testing.assert_array_equal(cm.counts, expected)
    empty = confusion_from_predictions([], [], 5)
    np.testing.assert_array_equal(empty.counts, np.zeros((5, 5), dtype=int))


def test_confusion_rejects_labels_of_unequal_length():
    # zip used to drop the unmatched label and report accuracy 1.0
    with pytest.raises(ValueError, match="3 true labels and 2 predicted"):
        confusion_from_predictions([1, 2, 3], [1, 2], 3)


# ---------------------------------------------------------------------------
# packed stages


_MIXED_DEPTH_CONFIGS = [
    StageConfig(DETECTOR_BLOCKS, 4, 1, 5, 20, 1e-4),
    StageConfig(DETECTOR_CYCLE, 3, 0, 1, 20, 1e-5),
    StageConfig(CLASS_INDEX, 2, 3, 4, 20, 1e-6),
]


def _assert_stages_match_per_mlp_forward(model, x):
    # the reference runs each stored float32 MLP in float64 on the same
    # float32 inputs, so the two differ only by float32 arithmetic
    cur = x
    for stage in model.stages:
        rounded = cur.astype(np.float32)
        ref = np.concatenate([ann.forward(net, rounded) for net in stage.mlps],
                             axis=1)
        got = mst._stage_outputs(stage, cur)
        assert got.dtype == np.float32
        assert got.shape == ref.shape == (len(x), len(stage.mlps))
        assert np.abs(got - ref).max() <= \
            32 * np.finfo(np.float32).eps * np.abs(ref).max()
        cur = got


@pytest.mark.parametrize("configs", [_tiny_configs(3), _MIXED_DEPTH_CONFIGS],
                         ids=["two_hidden", "mixed_depth"])
def test_packed_stages_match_per_mlp_forward(configs, tmp_path):
    x, y = _toy_gaussians(seed=21)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, configs, seed=22)
    _assert_stages_match_per_mlp_forward(model, x)
    loaded = load_model(save_model(model, tmp_path / "model"))
    _assert_stages_match_per_mlp_forward(loaded, x)
    np.testing.assert_array_equal(classify_batch(loaded, x),
                                  classify_batch(model, x))
    assert classify_batch(loaded, x[:0]).shape == (0,)


def test_trained_weights_are_read_only_views_of_the_packed_stage(tmp_path):
    x, y = _toy_gaussians(seed=23)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=24)
    for m in (model, load_model(save_model(model, tmp_path / "model"))):
        for stage in m.stages:
            packed = (stage.first_w, stage.first_b, *stage.weights,
                      *stage.biases)
            assert not any(a.flags.writeable for a in packed)
            assert all(a.dtype == np.float32 for a in packed)
            for net in stage.mlps:
                for a in (*net.weights, *net.biases):
                    assert not a.flags.writeable
                    assert any(np.shares_memory(a, p) for p in packed)
        with pytest.raises(ValueError, match="read-only"):
            m.stages[0].mlps[0].weights[0][0, 0] = 1.0


def test_a_filled_stage_rounds_each_weight_to_the_nearest_float32():
    sizes = (3, 4, 2, 1)
    nets = [ann.init_mlp(sizes, seed=k) for k in range(3)]
    stage = mst._stage(sizes, np.stack([ann.pack_parameters(n) for n in nets]))
    for net, packed in zip(nets, stage.mlps):
        for a, b in zip((*net.weights, *net.biases),
                        (*packed.weights, *packed.biases)):
            assert a.dtype == np.float64 and b.dtype == np.float32
            np.testing.assert_array_equal(b, a.astype(np.float32))


def test_classify_rejects_rows_of_the_wrong_width():
    x, y = _toy_gaussians(seed=10)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=11)
    with pytest.raises(ValueError, match=r"expected \(\*, 4\) features"):
        classify_batch(model, xtr[:, :3])


# ---------------------------------------------------------------------------
# persistence


def test_model_save_load_roundtrip(tmp_path):
    x, y = _toy_gaussians(seed=17)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=18)
    save_model(model, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    assert loaded.stage_hashes() == model.stage_hashes()
    np.testing.assert_array_equal(classify_batch(loaded, xtr),
                                  classify_batch(model, xtr))


def test_saved_stage_files_hash_to_their_stage_hashes(tmp_path):
    x, y = _toy_gaussians(seed=17)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=18)
    out = save_model(model, tmp_path / "model")
    for s, expected in enumerate(model.stage_hashes(), start=1):
        blob = (out / f"stage{s}.f32").read_bytes()
        assert hashlib.sha256(blob).hexdigest()[:16] == expected
        n_params = sum(ann.count_parameters(net.layer_sizes)
                       for net in model.stages[s - 1].mlps)
        assert len(blob) == 4 * n_params
    assert load_model(out).stage_hashes() == model.stage_hashes()


def test_model_save_load_roundtrip_keeps_training_traces(tmp_path):
    x, y = _toy_gaussians(seed=19)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=20)
    loaded = load_model(save_model(model, tmp_path / "model"))
    assert loaded.configs == model.configs
    assert [len(runs) for runs in loaded.traces] == \
        [len(runs) for runs in model.traces] == [6, 3, 5]
    for runs, loaded_runs in zip(model.traces, loaded.traces):
        for run, back in zip(runs, loaded_runs):
            assert dataclasses.asdict(back) == dataclasses.asdict(run)
            assert back.stop == run.stop
            assert back.iterations == run.iterations


def test_save_model_needs_one_trace_per_mlp(saved_toy_model):
    # a model without its traces is not made, so there is none to save
    model = load_model(saved_toy_model)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.traces = []
    with pytest.raises(ValueError, match=r"^\[\] traces per stage for "
                                         r"\[6, 3, 5\] configured MLPs$"):
        dataclasses.replace(model, traces=[])
    with pytest.raises(ValueError, match=r"^\[6, 3\] MLPs per stage for "
                                         r"\[6, 3, 5\] configured MLPs$"):
        dataclasses.replace(model, stages=model.stages[:2])


@pytest.fixture(scope="module")
def saved_toy_model(tmp_path_factory):
    x, y = _toy_gaussians(seed=17)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=18)
    return save_model(model, tmp_path_factory.mktemp("saved") / "model")


def _drop_last_stage(manifest, out):
    manifest["traces"].pop()


def _drop_one_final_mlp(manifest, out):
    manifest["traces"][-1].pop()


def _drop_one_trace(manifest, out):
    del manifest["traces"][1][2]


def _cut_one_blob(manifest, out):
    blob = out / "stage1.f32"
    blob.write_bytes(blob.read_bytes()[:-4])


def _widen_final_stage(manifest, out):
    # a consistent stage file of another width: it would unpack and pack
    # without error
    with open(out / "stage3.f32", "wb") as f:
        for i in range(5):
            net = ann.init_mlp((3, 7, 7, 1), seed=i)
            ann.pack_parameters(net).astype("<f4").tofile(f)


def _append_to_one_blob(manifest, out):
    with open(out / "stage2.f32", "ab") as f:
        f.write(b"\0" * 2)                    # half of one more float32


@pytest.mark.parametrize("tamper, message", [
    (_drop_last_stage, r"\[6, 3\] traces per stage for \[6, 3, 5\] "
                       r"configured MLPs"),
    (_drop_one_final_mlp, r"\[6, 3, 4\] traces per stage"),
    (_widen_final_stage, r"\S*stage3\.f32 has 1840 bytes, expected 1460 "
                         r"for \(5, 73\) <f4"),
    (_drop_one_trace, r"\[6, 2, 5\] traces per stage"),
    (_cut_one_blob, r"\S*stage1\.f32 has 1892 bytes, expected 1896"),
    (_append_to_one_blob, r"\S*stage2\.f32 has 1094 bytes, expected 1092"),
], ids=["stage_count", "mlp_count", "layer_sizes", "missing_trace",
        "short_blob", "trailing_bytes"])
def test_load_model_rejects_stage_groups_not_matching_the_configs(
        saved_toy_model, tmp_path, resign, tamper, message):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    resign(out, lambda manifest: tamper(manifest, out))
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_model(out)


def _set(keys, value):
    """An edit that sets the manifest's value at the path keys."""
    return lambda manifest: operator.setitem(
        functools.reduce(operator.getitem, keys[:-1], manifest), keys[-1],
        value)


def test_load_model_rejects_a_nan_stage_goal(saved_toy_model, tmp_path,
                                             resign):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    resign(out, _set(("configs", 1, "mse_goal"), float("nan")))
    with pytest.raises(ValueError, match=r"manifest\.json: mse_goal must be "
                                         r"finite, got nan"):
        load_model(out)


_NOT_DISTINCT = r"known_labels .* are not distinct labels in 1\.\."


@pytest.mark.parametrize("n_labels, known, message", [
    (1, [9], _NOT_DISTINCT + "1"),
    (3, [2, 2], _NOT_DISTINCT + "3"),
    (3, [0], _NOT_DISTINCT + "3"),
    (3, [1.0], r"a known label must be an integer, got 1\.0"),
    (3, 5, r"manifest known_labels 5 is not of type list"),
    (3, [[1]], r"a known label must be an integer, got \[1\]"),
    (3, [True, 2], r"a known label must be an integer, got True"),
], ids=["outside_n_labels", "repeated", "zero", "float", "not_a_list",
        "nested_list", "bool"])
def test_load_model_rejects_known_labels_outside_n_labels(
        saved_toy_model, tmp_path, resign, n_labels, known, message):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    resign(out, lambda manifest: manifest.update(n_labels=n_labels,
                                                 known_labels=known))
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_model(out)


@pytest.mark.parametrize("n_labels, message", [
    (0, r"n_labels must be >= 1, got 0"),
    (2.0, r"MstModel n_labels 2\.0 is not of type int"),
    ("3", r"MstModel n_labels '3' is not of type int"),
], ids=["0", "2.0", "3"])
def test_load_model_rejects_n_labels_not_a_positive_integer(
        saved_toy_model, tmp_path, resign, n_labels, message):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    resign(out, _set(("n_labels",), n_labels))
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_model(out)


@pytest.mark.parametrize("keys, value, message", [
    (("configs", 0, "n_mlps"), 3.0, r"StageConfig n_mlps 3\.0 is not of "
                                    r"type int"),
    (("configs", 1, "hidden_layers"), 2.0, r"StageConfig hidden_layers 2\.0"),
    (("input_dim",), 4.0, r"input_dim 4\.0 is not a positive integer"),
    (("input_dim",), "x", r"input_dim 'x' is not a positive integer"),
    (("input_dim",), None, r"input_dim None is not a positive integer"),
    (("input_dim",), [4], r"input_dim \[4\] is not a positive integer"),
    (("traces", 0, 0, "stop"), 5, r"StopCriteria 5 is not an object"),
    (("traces", 1, 0, "train_mse"), "abc", r"TrainRun train_mse 'abc' is "
                                           r"not of type list\[float\]"),
    (("traces", 1, 0, "train_mse"), [1, "x"], r"TrainRun train_mse "
                                              r"\[1, 'x'\] is not of type "
                                              r"list\[float\]"),
    (("traces", 2, 0, "stop", "max_iters"), 5.5, r"StopCriteria max_iters "
                                                  r"5\.5 is not of type int"),
    (("order",), 7, r"order must be 1 \(gradient\) or 2 \(damped "
                    r"Gauss-Newton\), got 7"),
    (("order",), True, r"MstModel order True is not of type int"),
    (("seed",), "x", r"MstModel seed 'x' is not of type int"),
    (("seed",), -1, r"seed must be >= 0, got -1"),
], ids=["n_mlps", "hidden_layers", "input_dim", "str_input_dim",
        "null_input_dim", "list_input_dim", "stop", "str_train_mse",
        "str_in_train_mse", "max_iters", "order", "bool_order", "seed",
        "negative_seed"])
def test_load_model_rejects_a_value_of_the_wrong_type(
        saved_toy_model, tmp_path, resign, keys, value, message):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    resign(out, _set(keys, value))
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_model(out)


def test_load_model_takes_known_labels_in_any_order(tmp_path):
    x, y = _toy_gaussians(seed=17)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=18,
                      known_labels=[3, 1])
    loaded = load_model(save_model(model, tmp_path / "model"))
    assert loaded.known_labels == (3, 1)
    assert loaded.stage_hashes() == model.stage_hashes()


def test_saved_model_records_each_mlps_target_class(saved_toy_model):
    manifest = json.loads((saved_toy_model / "manifest.json").read_text())
    assert manifest["targets"] == [[1, 1, 2, 2, 3, 3], [1, 2, 3], [None] * 5]


def _fewer_labels(manifest):
    # stage 1 then plans targets [1, 1, 1, 2, 2, 2], and a loaded model
    # would vote over labels 1 and 2 only
    manifest["n_labels"] = 2


def _one_known_label(manifest):
    # the targets train_mst would plan for it, if it trained it
    manifest["known_labels"] = [2]
    manifest["targets"][0] = [2] * 6


def _no_stages(manifest):
    for key in ("configs", "targets", "traces", "stage_hashes"):
        manifest[key] = []


def _retargeted_mlp(manifest):
    manifest["targets"][1][0] = 2


def _missing_stage_targets(manifest):
    manifest["targets"].pop()


def _targets_not_a_list(manifest):
    manifest["targets"] = 5


@pytest.mark.parametrize("tamper, message", [
    (_fewer_labels, r"stage 1 target classes \[1, 1, 2, 2, 3, 3\] are not "
                    r"\[1, 1, 1, 2, 2, 2\], the ones planned for n_labels 2 "
                    r"and known_labels \[\]"),
    (_one_known_label, r"a detector stage needs negatives from a second "
                       r"known class, got only \[2\]"),
    (_retargeted_mlp, r"stage 2 target classes \[2, 2, 3\] are not "
                      r"\[1, 2, 3\]"),
    (_missing_stage_targets, r"stage 3 target classes None are not "
                             r"\[None, None, None, None, None\]"),
    (_targets_not_a_list, "manifest targets 5 is not of type list"),
    (_no_stages, "need at least one stage config"),
], ids=["n_labels", "known_labels", "target", "stage_count", "not_a_list",
        "no_stages"])
def test_load_model_rejects_targets_not_planned_for_its_labels(
        saved_toy_model, tmp_path, resign, tamper, message):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    resign(out, tamper)
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_model(out)


def _unknown_config_key(manifest):
    manifest["configs"][0]["batch"] = "balanced"


def _missing_config_key(manifest):
    del manifest["configs"][1]["role"]


def _unknown_trace_key(manifest):
    manifest["traces"][0][0]["wall_s"] = 0.1


def _missing_trace_key(manifest):
    del manifest["traces"][1][0]["seconds"]


def _missing_stop_key(manifest):
    del manifest["traces"][2][1]["stop"]["max_iters"]


def _old_stop_key(manifest):
    # saved before a rejected LM step stopped training at once
    manifest["traces"][0][0]["stop"]["mu_patience"] = 10


def _file_in_trace(manifest):
    # saved when the manifest named each MLP's parameter file
    manifest["traces"][1][1]["file"] = "stage2_mlp2.f64"


def _missing_traces(manifest):
    del manifest["traces"]


def _old_stage_groups(manifest):
    manifest["stages"] = []


@pytest.mark.parametrize("tamper, message", [
    (_unknown_config_key, "unknown StageConfig key 'batch'"),
    (_missing_config_key, "StageConfig key 'role' is missing"),
    (_unknown_trace_key, "unknown TrainRun key 'wall_s'"),
    (_missing_trace_key, "TrainRun key 'seconds' is missing"),
    (_missing_stop_key, "StopCriteria key 'max_iters' is missing"),
    (_old_stop_key, "unknown StopCriteria key 'mu_patience'"),
    (_file_in_trace, "unknown TrainRun key 'file'"),
    (_missing_traces, "manifest key 'traces' is missing"),
    (_old_stage_groups, "unknown manifest key 'stages'"),
], ids=["unknown_config_key", "missing_config_key", "unknown_trace_key",
        "missing_trace_key", "missing_stop_key", "old_stop_key",
        "file_in_trace", "missing_traces", "old_stage_groups"])
def test_load_model_names_the_manifest_and_an_unknown_or_missing_key(
        saved_toy_model, tmp_path, resign, tamper, message):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    resign(out, tamper)
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_model(out)


def test_load_model_names_the_manifest_on_a_stop_criterion_error(
        saved_toy_model, tmp_path, resign):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    resign(out, _set(("traces", 2, 0, "stop", "max_iters"), 0))
    with pytest.raises(ValueError, match=r"manifest\.json: max_iters and "
                                         r"mse_goal must be positive"):
        load_model(out)


def test_load_model_rejects_a_model_saved_in_float64(saved_toy_model,
                                                     tmp_path):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    for s in (1, 2, 3):
        blob = out / f"stage{s}.f32"
        np.fromfile(blob, "<f4").astype("<f8").tofile(out / f"stage{s}.f64")
        blob.unlink()
    with pytest.raises(ValueError, match=r"manifest\.json: \S*stage1\.f32 "
                                         r"is missing"):
        load_model(out)


def test_saved_model_is_a_manifest_and_one_parameter_file_per_stage(
        saved_toy_model):
    assert sorted(f.name for f in saved_toy_model.iterdir()) == \
        ["manifest.json", "stage1.f32", "stage2.f32", "stage3.f32"]
    model = load_model(saved_toy_model)
    for s, stage in enumerate(model.stages, start=1):
        expected = b"".join(ann.pack_parameters(net).astype("<f4").tobytes()
                            for net in stage.mlps)
        assert (saved_toy_model / f"stage{s}.f32").read_bytes() == expected
    assert '"file"' not in (saved_toy_model / "manifest.json").read_text()


def _flip_one_weight_byte(out, resign):
    blob = bytearray((out / "stage2.f32").read_bytes())
    blob[5] ^= 0x01
    (out / "stage2.f32").write_bytes(bytes(blob))


def _drop_a_recorded_stage_hash(out, resign):
    resign(out, lambda manifest: manifest["stage_hashes"].pop())


@pytest.mark.parametrize("tamper, message", [
    (_flip_one_weight_byte, r"stage 2 weights hash to [0-9a-f]{16}, not to "
                            r"the recorded '[0-9a-f]{16}'"),
    (_drop_a_recorded_stage_hash, r"stage 3 weights hash to [0-9a-f]{16}, "
                                  r"not to the recorded None"),
], ids=["flipped_byte", "missing_hash"])
def test_load_model_checks_each_stage_file_against_its_recorded_hash(
        saved_toy_model, tmp_path, resign, tamper, message):
    # a flipped byte used to load without a word, with other weights
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    tamper(out, resign)
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_model(out)


def test_saved_model_records_its_stage_hashes(saved_toy_model, tmp_path,
                                              resign):
    manifest = json.loads((saved_toy_model / "manifest.json").read_text())
    assert manifest["stage_hashes"] == \
        load_model(saved_toy_model).stage_hashes()
    # a model saved before the stage hashes were recorded does not load
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    resign(out, lambda manifest: manifest.pop("stage_hashes"))
    with pytest.raises(ValueError, match=r"manifest\.json: manifest key "
                                         r"'stage_hashes' is missing"):
        load_model(out)


@pytest.mark.parametrize("key, value, message", [
    ("configs", 5, r"manifest configs 5 is not of type list"),
    ("traces", [[], 5], r"manifest traces \[\[\], 5\] is not of type "
                        r"list\[list\]"),
    ("stage_hashes", "abc", r"manifest stage_hashes 'abc' is not of type "
                            r"list\[str\]"),
    ("configs", [[2]], r"StageConfig \[2\] is not an object"),
], ids=["configs", "traces", "stage_hashes", "config"])
def test_load_model_rejects_a_manifest_entry_of_the_wrong_shape(
        saved_toy_model, tmp_path, resign, key, value, message):
    # each used to raise a bare TypeError
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    resign(out, _set((key,), value))
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_model(out)


def test_load_model_names_a_manifest_that_is_not_json(saved_toy_model,
                                                      tmp_path):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    (out / "manifest.json").write_text("{")
    with pytest.raises(ValueError, match=r"manifest\.json: Expecting"):
        load_model(out)


def test_load_model_rejects_every_leaf_edited_without_its_digest(
        saved_toy_model, tmp_path, unsigned_edits):
    # a trace edit used to load as edited, and so did a configuration edit
    # that recomputed the configuration's own hash
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    edited = []
    for keys in unsigned_edits(out):
        with pytest.raises(ValueError, match=r"manifest\.json: manifest does "
                                             r"not match its digest$"):
            load_model(out)
        edited.append(keys)
    assert {("digest",), ("seed",), ("configs", 2, "mse_goal"),
            ("traces", 0, 0, "train_mse", 0), ("traces", 2, 4, "seconds"),
            ("known_labels",), ("targets", 2, 4)} <= set(edited)
    # and a model saved before the digest does not load
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["digest"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: manifest key "
                                         r"'digest' is missing$"):
        load_model(out)


def test_n_parameters_counts_the_parameters_of_its_layer_sizes():
    for hidden_layers in range(4):
        cfg = StageConfig(CLASS_INDEX, 2, hidden_layers, 7)
        assert cfg.n_parameters(11) == \
            ann.count_parameters(cfg.layer_sizes(11))


@pytest.mark.parametrize("keys, value, message", [
    (("n_labels",), 2**32, r"stage 1 target classes \[1, 1, 2, 2, 3, 3\] "
                           r"are not \[1, 715827883, "),
    (("n_labels",), 2**70, r"stage 1 target classes \[1, 1, 2, 2, 3, 3\] "
                           r"are not \[1, 196765270119568550571, "),
    (("configs", 0, "hidden_layers"), 2**32,
     r"stage1\.f32 has 1896 bytes, expected 4329327034248 for "
     r"\(6, 180388626427\) <f4"),
    (("configs", 0, "n_mlps"), 2**62,
     r"stage1\.f32 has 1896 bytes, expected 1457292781823054577664 for "
     r"\(4611686018427387904, 79\) <f4"),
], ids=["n_labels_2**32", "n_labels_2**70", "hidden_layers_2**32",
        "n_mlps_2**62"])
def test_load_model_checks_a_huge_count_before_it_allocates(
        saved_toy_model, tmp_path, resign, keys, value, message):
    # each used to raise MemoryError or OverflowError, or to size the
    # stage file past 2**63 bytes, which wrapped to a negative size
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    resign(out, _set(keys, value))
    with pytest.raises(ValueError, match=r"manifest\.json: \S*" + message):
        load_model(out)
