import dataclasses
import hashlib
import json
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
    evaluate,
    fuse_labels,
    load_model,
    plan_batches,
    save_model,
    scaled_config,
    stage_targets,
    train_incremental,
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
    s1 = stage_targets(cfgs[0], labels, labels)
    assert s1[:6] == [1, 1, 1, 1, 1, 2]       # five detectors per class
    assert s1[-1] == 12
    s2 = stage_targets(cfgs[1], labels, labels)
    assert s2[:12] == list(range(1, 13))      # cycling detectors
    assert s2[12:24] == list(range(1, 13))
    s3 = stage_targets(cfgs[2], labels, labels)
    assert s3 == [None] * 30                  # class-index regression


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
    with pytest.raises(ValueError, match="max_iters and mse_goal must be "
                                         "positive"):
        StageConfig(DETECTOR_BLOCKS, 4, 2, 10, max_iters, mse_goal)


def test_scaled_config_triples_mlps():
    cfgs = scaled_config(default_config_2nd(12), 3)
    assert [c.n_mlps for c in cfgs] == [180, 90, 90]


# ---------------------------------------------------------------------------
# batch planning


def _labels(n_classes, per_class):
    return np.repeat(np.arange(1, n_classes + 1), per_class)


def test_stage1_batches_balanced_positives_negatives():
    y = _labels(12, 100)
    plan = plan_batches(y, default_config_2nd(12), seed=1)
    for mlp_plan in plan[0]:
        t = mlp_plan.target_class
        pos = mlp_plan.indices[mlp_plan.targets == 1.0]
        neg = mlp_plan.indices[mlp_plan.targets == 0.0]
        assert len(pos) == 100 and len(neg) == 100
        assert np.all(y[pos] == t)
        assert np.all(y[neg] != t)


def test_stage2_batch_is_full_training_set():
    y = _labels(12, 10)
    plan = plan_batches(y, default_config_2nd(12), seed=1)
    for mlp_plan in plan[1]:
        assert len(mlp_plan.indices) == len(y)
    for mlp_plan in plan[2]:
        np.testing.assert_array_equal(mlp_plan.targets, y.astype(float))


def test_plan_is_deterministic_per_seed():
    y = _labels(4, 30)
    cfgs = default_config_2nd(4)
    a = plan_batches(y, cfgs, seed=5)
    b = plan_batches(y, cfgs, seed=5)
    for pa, pb in zip(a[0], b[0]):
        np.testing.assert_array_equal(pa.indices, pb.indices)
    c = plan_batches(y, cfgs, seed=6)
    assert any(
        not np.array_equal(pa.indices, pc.indices)
        for pa, pc in zip(a[0], c[0]))


def test_plan_missing_class_raises():
    y = _labels(3, 10)
    with pytest.raises(ValueError, match=r"no training data for classes \[9\]"):
        plan_batches(y, default_config_2nd(3), seed=0, known_labels=[1, 2, 9])


def test_plan_rejects_empty_known_labels():
    with pytest.raises(ValueError, match="known_labels is empty"):
        plan_batches(_labels(3, 10), default_config_2nd(3), seed=0,
                     known_labels=[])


def test_plan_rejects_a_repeated_known_label():
    # a repeat would hand class 1 more stage-1 detectors than class 2
    with pytest.raises(ValueError,
                       match=r"known_labels repeats a label: \[1, 1, 2\]"):
        plan_batches(_labels(4, 10), default_config_2nd(4), seed=0,
                     known_labels=[1, 1, 2])


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
    # a model with no stages would fail only later, in classify_batch
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

    def fail_in_the_parent():
        if os.getpid() == parent:
            raise ValueError("MLP failed in the parent")

    parent = _logged_train(monkeypatch, tmp_path / "pids", fail_in_the_parent)
    with pytest.raises(ValueError, match="MLP failed in the parent"):
        train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=35)
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


def test_label_permutation_equivariance_on_separable_toy():
    x, y = _toy_gaussians(seed=8, spread=0.02)
    perm = {1: 2, 2: 3, 3: 1}
    y_perm = np.vectorize(perm.get)(y)
    xtr, ytr, xva, yva = _split_toy(x, y)
    cm = evaluate(train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=9),
                  *_split_toy(x, y)[0:2])
    xtr2, ytr2, xva2, yva2 = _split_toy(x, y_perm)
    cm_perm = evaluate(
        train_mst(xtr2, ytr2, xva2, yva2, _tiny_configs(3), seed=9),
        xtr2, ytr2)
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


def test_untrained_model_rejected():
    model = MstModel(configs=[], stages=[], n_labels=3, order=2, seed=0)
    with pytest.raises(ValueError, match="model has untrained stages"):
        classify_batch(model, np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# incremental learning


def test_incremental_k_equals_n_is_bit_identical_to_full_training():
    x, y = _toy_gaussians(seed=12)
    xtr, ytr, xva, yva = _split_toy(x, y)
    full = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=13)
    inc = train_incremental(xtr, ytr, xva, yva, _tiny_configs(3), k=3, seed=13)
    assert full.stage_hashes() == inc.stage_hashes()


def test_incremental_stage1_sees_only_first_k_classes():
    y = _labels(4, 25)
    plan = plan_batches(y, _tiny_configs(4), seed=1, known_labels=[1, 2])
    for mlp_plan in plan[0]:
        assert mlp_plan.target_class in (1, 2)
        assert np.all(y[mlp_plan.indices] <= 2)
    # later stages still cover all four classes
    s2_targets = {p.target_class for p in plan[1]}
    assert s2_targets == {1, 2, 3, 4}


def test_incremental_classifies_all_classes():
    x, y = _toy_gaussians(n_classes=4, seed=14, spread=0.03)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_incremental(xtr, ytr, xva, yva, _tiny_configs(4), k=2,
                              seed=15)
    preds = classify_batch(model, xtr)
    assert set(np.unique(preds)) >= {3, 4}  # unseen-by-stage-1 classes reachable
    assert (preds == ytr).mean() > 0.8


def test_incremental_k_out_of_range():
    x, y = _toy_gaussians(seed=16)
    xtr, ytr, xva, yva = _split_toy(x, y)
    with pytest.raises(ValueError):
        train_incremental(xtr, ytr, xva, yva, _tiny_configs(3), k=0)


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
    cur = x
    for stage in model.stages:
        ref = np.concatenate([ann.forward(net, cur) for net in stage.mlps],
                             axis=1)
        got = mst._stage_outputs(stage, cur)
        assert got.shape == ref.shape == (len(x), len(stage.mlps))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        cur = ref


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
            for net in stage.mlps:
                for a in (*net.weights, *net.biases):
                    assert not a.flags.writeable
                    assert any(np.shares_memory(a, p) for p in packed)
        with pytest.raises(ValueError, match="read-only"):
            m.stages[0].mlps[0].weights[0][0, 0] = 1.0


def test_pack_stage_rejects_wrong_counts_and_mixed_shapes():
    nets = [ann.init_mlp((3, 4, 1), seed=k) for k in range(3)]
    with pytest.raises(ValueError):
        mst.pack_stage([], 0)
    with pytest.raises(ValueError, match="got 2"):
        mst.pack_stage(enumerate(nets[:2]), 3)
    with pytest.raises(ValueError, match=r"MLP index 2 outside 0\.\.1"):
        mst.pack_stage(enumerate(nets), 2)
    with pytest.raises(ValueError, match="MLP index 0 arrived twice"):
        mst.pack_stage([(0, nets[0]), (0, nets[1])], 2)
    with pytest.raises(ValueError, match="layer sizes"):
        mst.pack_stage(enumerate([nets[0], ann.init_mlp((3, 5, 1), seed=0)]),
                       2)


def test_pack_stage_takes_mlps_in_any_order():
    nets = [ann.init_mlp((3, 4, 2, 1), seed=k) for k in range(3)]
    in_order = mst.pack_stage(enumerate(nets), 3)
    shuffled = mst.pack_stage([(2, nets[2]), (0, nets[0]), (1, nets[1])], 3)
    for a, b in zip((in_order.first_w, in_order.first_b, *in_order.weights,
                     *in_order.biases),
                    (shuffled.first_w, shuffled.first_b, *shuffled.weights,
                     *shuffled.biases)):
        np.testing.assert_array_equal(a, b)


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


def test_model_save_load_roundtrip_keeps_training_traces(tmp_path):
    x, y = _toy_gaussians(seed=19)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=20)
    loaded = load_model(save_model(model, tmp_path / "model"))
    assert loaded.config_hash() == model.config_hash()
    assert [len(runs) for runs in loaded.traces] == \
        [len(runs) for runs in model.traces] == [6, 3, 5]
    for runs, loaded_runs in zip(model.traces, loaded.traces):
        for run, back in zip(runs, loaded_runs):
            assert dataclasses.asdict(back) == dataclasses.asdict(run)
            assert back.stop == run.stop
            assert back.iterations == run.iterations


def test_load_model_rejects_manifest_not_matching_its_hash(tmp_path):
    x, y = _toy_gaussians(seed=17)
    xtr, ytr, xva, yva = _split_toy(x, y)
    out = save_model(train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=18),
                     tmp_path / "model")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["seed"] += 1
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_model(out)


def test_save_model_needs_one_trace_per_mlp(tmp_path):
    x, y = _toy_gaussians(seed=17)
    xtr, ytr, xva, yva = _split_toy(x, y)
    model = train_mst(xtr, ytr, xva, yva, _tiny_configs(3), seed=18)
    untraced = dataclasses.replace(model, traces=[])
    with pytest.raises(ValueError, match="one training trace per MLP"):
        save_model(untraced, tmp_path / "model")
    assert not (tmp_path / "model").exists()


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
    blob = out / "stage1.f64"
    blob.write_bytes(blob.read_bytes()[:-8])


def _widen_final_stage(manifest, out):
    # a consistent stage file of another width: it would unpack and pack
    # without error
    with open(out / "stage3.f64", "wb") as f:
        for i in range(5):
            net = ann.init_mlp((3, 7, 7, 1), seed=i)
            ann.pack_parameters(net).astype("<f8").tofile(f)


def _append_to_one_blob(manifest, out):
    with open(out / "stage2.f64", "ab") as f:
        f.write(b"\0" * 4)                    # half of one more float64


@pytest.mark.parametrize("tamper, message", [
    (_drop_last_stage, r"\[6, 3\] traces per stage for \[6, 3, 5\] "
                       r"configured MLPs"),
    (_drop_one_final_mlp, r"\[6, 3, 4\] traces per stage"),
    (_widen_final_stage, r"\S*stage3\.f64 has 3680 bytes, expected 2920 "
                         r"for \(5, 73\) <f8"),
    (_drop_one_trace, r"\[6, 2, 5\] traces per stage"),
    (_cut_one_blob, r"\S*stage1\.f64 has 3784 bytes, expected 3792"),
    (_append_to_one_blob, r"\S*stage2\.f64 has 2188 bytes, expected 2184"),
], ids=["stage_count", "mlp_count", "layer_sizes", "missing_trace",
        "short_blob", "trailing_bytes"])
def test_load_model_rejects_stage_groups_not_matching_the_configs(
        saved_toy_model, tmp_path, tamper, message):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    manifest = json.loads((out / "manifest.json").read_text())
    tamper(manifest, out)
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_model(out)


def test_load_model_rejects_a_nan_stage_goal(saved_toy_model, tmp_path):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["configs"][1]["mse_goal"] = float("nan")
    # a config_hash that matches, as MstModel.config_hash computes it
    blob = json.dumps([list(c.values()) for c in manifest["configs"]]
                      + [manifest[k] for k in ("n_labels", "order", "seed",
                                               "known_labels")])
    manifest["config_hash"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: max_iters and "
                                         r"mse_goal must be positive"):
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
        saved_toy_model, tmp_path, tamper, message):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    manifest = json.loads((out / "manifest.json").read_text())
    tamper(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_model(out)


def test_load_model_names_the_manifest_on_a_stop_criterion_error(
        saved_toy_model, tmp_path):
    out = shutil.copytree(saved_toy_model, tmp_path / "model")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["traces"][2][0]["stop"]["max_iters"] = 0
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: max_iters and "
                                         r"mse_goal must be positive"):
        load_model(out)


def test_saved_model_is_a_manifest_and_one_parameter_file_per_stage(
        saved_toy_model):
    assert sorted(f.name for f in saved_toy_model.iterdir()) == \
        ["manifest.json", "stage1.f64", "stage2.f64", "stage3.f64"]
    model = load_model(saved_toy_model)
    for s, stage in enumerate(model.stages, start=1):
        expected = b"".join(ann.pack_parameters(net).astype("<f8").tobytes()
                            for net in stage.mlps)
        assert (saved_toy_model / f"stage{s}.f64").read_bytes() == expected
    assert '"file"' not in (saved_toy_model / "manifest.json").read_text()
