"""The LM step's Cholesky solve through scipy's f2py LAPACK wrappers,
loaded without scipy.linalg: the same bits as scipy.linalg, the same
errors, and the same functions a later scipy.linalg import finds."""
import os
import pkgutil
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import rfmst
from rfmst import openblas

SRC = Path(rfmst.__file__).resolve().parents[1]


def _spd(rng, n):
    m = rng.normal(size=(n, n + 2))
    a = m @ m.T + 1e-3 * np.eye(n)
    a[-1, 0] += 1e-12        # read from the lower triangle only, as scipy does
    return a


@pytest.mark.parametrize("n", [1, 36, 216, 300])
def test_factor_and_solve_equal_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = _spd(rng, n)
    # before the factor: a 1 x 1 `a` is Fortran-ordered, so factored in place
    want = scipy.linalg.cho_factor(a, lower=True, check_finite=False)[0]
    c = openblas.cho_factor(a)
    assert c.flags.f_contiguous
    np.testing.assert_array_equal(c, want)
    for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
        x = openblas.cho_solve(c, b)
        assert x.shape == b.shape
        np.testing.assert_array_equal(
            x, scipy.linalg.cho_solve((want, True), b, check_finite=False))


@pytest.mark.parametrize("n, b_shape", [(0, (0,)), (0, (0, 2)), (3, (3, 0))])
def test_empty_right_hand_sides_solve_like_scipy(n, b_shape):
    b = np.ones(b_shape)
    x = openblas.cho_solve(openblas.cho_factor(np.eye(n)), b)
    want = scipy.linalg.cho_solve((np.eye(n), True), b, check_finite=False)
    assert x.shape == want.shape and x.dtype == want.dtype


def test_factor_leaves_its_input_alone():
    a = _spd(np.random.default_rng(1), 5)
    before = a.copy()
    openblas.cho_factor(a)
    np.testing.assert_array_equal(a, before)


@pytest.mark.parametrize("n", [1, 36, 216])
def test_factor_in_place_equals_scipy_bit_for_bit(n):
    a = _spd(np.random.default_rng(n), n)
    want = scipy.linalg.cho_factor(a, lower=True, check_finite=False)[0]
    f = np.array(a, order="F")
    c = openblas.cho_factor(f)
    assert c is f or np.shares_memory(c, f)
    np.testing.assert_array_equal(c, want)
    np.testing.assert_array_equal(f, want)


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


def test_lapack_is_scipys_flapack_file():
    assert openblas.lapack() == scipy.linalg._flapack.__file__
    assert openblas._FLAPACK.dpotrf is scipy.linalg.lapack.dpotrf
    assert openblas._FLAPACK.dpotrs is scipy.linalg.lapack.dpotrs


def test_standalone_load_agrees_with_a_later_scipy_linalg_import():
    # a fresh interpreter: this one imported scipy.linalg with the tests
    modules = sorted(m.name for m in pkgutil.iter_modules(rfmst.__path__))
    code = (
        "import importlib, sys\n"
        "import numpy as np\n"
        f"for m in {modules!r}:\n"
        "    importlib.import_module('rfmst.' + m)\n"
        "from rfmst.openblas import cho_factor, cho_solve\n"
        "rng = np.random.default_rng(5)\n"
        "m = rng.normal(size=(36, 40))\n"
        "a, b = m @ m.T, rng.normal(size=36)\n"
        "c = cho_factor(a)\n"
        "x = cho_solve(c, b)\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "import scipy.linalg\n"
        "want = scipy.linalg.cho_factor(a, lower=True, check_finite=False)\n"
        "assert np.array_equal(c, want[0])\n"
        "assert np.array_equal(x, scipy.linalg.cho_solve(want, b))\n"
        "assert np.array_equal(cho_solve(cho_factor(a), b), x)\n"
        "print('same')\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "same"


def test_cores_name_each_bundled_openblas():
    cores = openblas.cores()
    assert sorted(cores) == sorted(Path(path).name
                                   for path, *_ in openblas._THREADS)
    assert all(isinstance(core, str) and core for core in cores.values())


@pytest.mark.skipif(platform.machine() != "x86_64",
                    reason="Haswell is an x86-64 OpenBLAS core")
def test_cores_follow_openblas_coretype():
    code = ("from rfmst.openblas import cores\n"
            "print(sorted(set(cores().values())))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "OPENBLAS_CORETYPE": "Haswell"}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['Haswell']"
