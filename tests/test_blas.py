"""BLAS policy of MST training: one BLAS thread inside train_mst, the
caller's thread counts back after it, also when it raises, and models,
labels and front-end features that do not depend on the caller's thread
count.

The thread counts are read and set here through the OpenBLAS libraries
that numpy and scipy bundle, found independently of rfmst.  Every test
starts from two threads, so that a pin to one shows on any host.
"""
import ctypes
import glob
import json
import logging
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from rfmst import mst
from rfmst.frontend import FrontEnd, pool_windows
from rfmst.mst import (
    CLASS_INDEX,
    DETECTOR_BLOCKS,
    StageConfig,
    single_threaded_blas,
    train_mst,
)


def _thread_functions():
    """(set, get) thread-count functions of each bundled OpenBLAS."""
    found = []
    for pkg in (np, scipy):
        pattern = (Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
                   / "*openblas*")
        for path in glob.glob(str(pattern)):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    found.append((setter, getter))
                    break
    return found


BLAS = _thread_functions()


def _counts():
    return [getter() for _, getter in BLAS]


@pytest.fixture
def two_threads():
    if not BLAS:
        pytest.skip("no bundled OpenBLAS found")
    saved = _counts()
    for setter, _ in BLAS:
        setter(2)
    yield [2] * len(BLAS)
    for (setter, _), n in zip(BLAS, saved):
        setter(n)


def _toy():
    rng = np.random.default_rng(0)
    y = np.repeat([1, 2], 10)
    x = rng.normal(size=(20, 3)) + y[:, None]
    configs = [StageConfig(DETECTOR_BLOCKS, 2, 1, 3, 5, 1e-3),
               StageConfig(CLASS_INDEX, 2, 1, 3, 5, 1e-3)]
    return x, y, configs


def test_training_runs_on_one_blas_thread(two_threads, monkeypatch, tmp_path):
    # mst.train runs in the stage workers too, so each call appends its
    # process and counts to a file instead of to a list only the parent
    # would see; a slow MLP in the parent leaves the other to a worker
    seen = tmp_path / "seen.jsonl"
    parent, train = os.getpid(), mst.train

    def counting_train(*args, **kwargs):
        with open(seen, "a") as f:
            f.write(json.dumps([os.getpid(), _counts()]) + "\n")
        if os.getpid() == parent:
            time.sleep(0.05)
        return train(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(mst, "train", counting_train)
    x, y, configs = _toy()
    train_mst(x, y, x, y, configs, seed=1)
    records = [json.loads(line) for line in seen.read_text().splitlines()]
    assert [counts for _, counts in records] == [[1] * len(BLAS)] * 4
    assert len({pid for pid, _ in records}) > 1


def test_models_do_not_depend_on_caller_thread_count(two_threads):
    # 30 inputs against 20 rows: stage 1 solves the dual form, and the
    # 8-neuron stage 2 (33 parameters) too
    rng = np.random.default_rng(2)
    y = np.repeat([1, 2], 10)
    x = rng.normal(size=(20, 30)) + y[:, None]
    configs = [StageConfig(DETECTOR_BLOCKS, 2, 1, 3, 5, 1e-3),
               StageConfig(CLASS_INDEX, 2, 1, 8, 5, 1e-3)]
    hashes = []
    for n in (1, 2):
        for setter, _ in BLAS:
            setter(n)
        hashes.append(train_mst(x, y, x, y, configs, seed=1).stage_hashes())
    assert hashes[0] == hashes[1]


def test_classification_does_not_depend_on_caller_thread_count(two_threads):
    rng = np.random.default_rng(3)
    y = np.repeat([1, 2, 3], 10)
    x = rng.normal(size=(30, 256)) + y[:, None]
    configs = [StageConfig(DETECTOR_BLOCKS, 6, 1, 16, 5, 1e-3),
               StageConfig(CLASS_INDEX, 4, 1, 8, 5, 1e-3)]
    model = train_mst(x, y, x, y, configs, seed=1)
    # a batch big enough for OpenBLAS to split the stage-1 GEMM
    batch = rng.normal(size=(3000, 256)) + rng.integers(1, 4, size=3000)[:, None]
    labels = []
    for n in (1, 2):
        for setter, _ in BLAS:
            setter(n)
        labels.append(mst.classify_batch(model, batch))
    np.testing.assert_array_equal(labels[0], labels[1])
    assert _counts() == [2] * len(BLAS)     # classification leaves them be


def test_frontend_features_do_not_depend_on_caller_thread_count(two_threads):
    # the default front-end at w512: 30 batched (120 x 32) @ (32 x 16)
    # GEMMs per slab
    rng = np.random.default_rng(4)
    front = FrontEnd(rng.normal(size=(16, 64)), pool_windows((128, 512)),
                     np.zeros(128), np.ones(128))
    scalograms = rng.normal(size=(4, 128, 512))
    features = []
    for n in (1, 2):
        for setter, _ in BLAS:
            setter(n)
        features.append([front(s) for s in scalograms])
    np.testing.assert_array_equal(features[0], features[1])


def test_caller_thread_counts_restored_after_training(two_threads):
    x, y, configs = _toy()
    train_mst(x, y, x, y, configs, seed=1)
    assert _counts() == two_threads


def test_caller_thread_counts_restored_when_training_raises(two_threads):
    x, y, configs = _toy()
    y = np.where(y == 1, 2, 5)
    with pytest.raises(ValueError):
        train_mst(x, y, x, y, configs, seed=1)
    assert _counts() == two_threads


def test_nested_pin_stays_single_threaded_until_outer_exit(two_threads):
    with single_threaded_blas():
        with single_threaded_blas():
            assert _counts() == [1] * len(BLAS)
        assert _counts() == [1] * len(BLAS)
    assert _counts() == two_threads


def test_pin_and_restore_are_logged(two_threads, caplog):
    x, y, configs = _toy()
    with caplog.at_level(logging.DEBUG, logger="rfmst.mst"):
        train_mst(x, y, x, y, configs, seed=1)
    text = caplog.text
    assert "OpenBLAS libraries" in text
    assert "pinned to 1 (were [2" in text
    assert "restored to [2" in text
