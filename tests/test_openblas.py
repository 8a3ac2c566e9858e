"""The LM step's Cholesky solve through scipy's bundled OpenBLAS: the same
bits as scipy.linalg, the same errors, and the scipy.linalg fallback where
no such library is found."""
import os

import numpy as np
import pytest
import scipy.linalg

from rfmst import openblas
from rfmst.mst import CLASS_INDEX, DETECTOR_BLOCKS, StageConfig, train_mst


def _spd(rng, n):
    m = rng.normal(size=(n, n + 2))
    a = m @ m.T + 1e-3 * np.eye(n)
    a[-1, 0] += 1e-12        # read from the lower triangle only, as scipy does
    return a


@pytest.mark.parametrize("n", [1, 36, 216, 300])
def test_factor_and_solve_equal_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = _spd(rng, n)
    c = openblas.cho_factor(a)
    want = scipy.linalg.cho_factor(a, lower=True, check_finite=False)[0]
    assert c.flags.f_contiguous
    np.testing.assert_array_equal(c, want)
    for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
        x = openblas.cho_solve(c, b)
        assert x.shape == b.shape
        np.testing.assert_array_equal(
            x, scipy.linalg.cho_solve((want, True), b, check_finite=False))


def test_factor_leaves_its_input_alone():
    a = _spd(np.random.default_rng(1), 5)
    before = a.copy()
    openblas.cho_factor(a)
    np.testing.assert_array_equal(a, before)


def test_not_positive_definite_raises_linalg_error_like_scipy():
    a = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        openblas.cho_factor(a)
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        scipy.linalg.cho_factor(a, lower=True, check_finite=False)


@pytest.mark.parametrize("a, b", [
    (np.ones((2, 3)), None),
    (np.eye(3), np.ones(2)),
    (np.eye(3), np.ones((3, 1, 1))),
], ids=["non_square", "short_rhs", "3d_rhs"])
def test_shapes_that_do_not_fit_raise_value_error(a, b):
    with pytest.raises(ValueError):
        if b is None:
            openblas.cho_factor(a)
        else:
            openblas.cho_solve(a, b)


def test_bundled_openblas_is_bound():
    if openblas._LAPACK is None:
        pytest.skip("no bundled LP64 OpenBLAS exports dpotrf")
    assert "openblas" in os.path.basename(openblas.lapack())


def test_scipy_linalg_fallback_trains_the_same_model(monkeypatch):
    rng = np.random.default_rng(2)
    y = np.repeat([1, 2], 10)
    x = rng.normal(size=(20, 30)) + y[:, None]
    configs = [StageConfig(DETECTOR_BLOCKS, 2, 1, 3, 5, 1e-3),
               StageConfig(CLASS_INDEX, 2, 1, 8, 5, 1e-3)]
    bound = train_mst(x, y, x, y, configs, seed=1).stage_hashes()
    calls = []
    factor = scipy.linalg.cho_factor

    def counting(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    # one CPU, so every MLP trains in this process, where calls is seen
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
    monkeypatch.setattr(openblas, "_LAPACK", None)
    assert openblas.lapack() == "scipy.linalg"
    assert train_mst(x, y, x, y, configs, seed=1).stage_hashes() == bound
    assert calls
