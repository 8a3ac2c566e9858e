"""The OpenBLAS that numpy and scipy bundle: BLAS thread pinning, the
kernels each one runs, and the Cholesky factor and solve of a
Levenberg-Marquardt step.

numpy and scipy wheels each bundle an OpenBLAS in their `<pkg>.libs`
directory.  Both are found once, when this module is imported, through
importlib, so scipy itself is never imported.  single_threaded_blas pins
every one of them to one thread for the duration of a call; mst and
frontend train under it.  cores names the CPU core each one chose its
kernels for, which a trained model's bits depend on.

cho_factor and cho_solve call dpotrf and dpotrs of scipy.linalg._flapack,
scipy's f2py LAPACK wrappers, with the arguments scipy.linalg.cho_factor
(overwrite_a=True) and cho_solve pass them, so the results agree bit for
bit.  The extension
is loaded from its file once, at import: importing scipy.linalg for two
functions would add about 27 MB of RSS and 300 modules to every process.
Every scipy build ships it, so there is one path and no fallback.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.machinery
import importlib.util
import logging
import sys
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

# (set, get) thread-count functions, in the order they are looked up
_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_CORE_FUNCTIONS = ("scipy_openblas_get_corename64_",
                   "scipy_openblas_get_corename", "openblas_get_corename")


def _package_dir(package: str) -> Path:
    """The directory of an installed package, found without importing it."""
    return Path(importlib.util.find_spec(package).origin).parent


def _core(lib) -> str | None:
    """The core an OpenBLAS chose its kernels for, or None if it does not
    say."""
    for name in _CORE_FUNCTIONS:
        function = getattr(lib, name, None)
        if function is not None:
            function.argtypes, function.restype = [], ctypes.c_char_p
            return function().decode()
    return None


def _discover():
    """[(path, set_num_threads, get_num_threads, core)] of every bundled
    OpenBLAS in numpy's and scipy's `<pkg>.libs` directories."""
    threads = []
    for package in ("numpy", "scipy"):
        libs = _package_dir(package).parent / f"{package}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for names in _THREAD_FUNCTIONS:
                functions = [getattr(lib, name, None) for name in names]
                if None not in functions:
                    setter, getter = functions
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    threads.append((path, setter, getter, _core(lib)))
                    break
    return threads


def _load_flapack():
    """scipy.linalg._flapack: scipy.linalg's own, if it is imported, else
    loaded from its file without its package."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    path = (_package_dir("scipy") / "linalg"
            / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension registers itself in sys.modules, where its package is
    # not; drop it, so a later `import scipy.linalg` binds a _flapack of
    # its own, with the same functions
    sys.modules.pop(name, None)
    return module


_THREADS = _discover()
_FLAPACK = _load_flapack()


def lapack() -> str:
    """The file of the LAPACK wrappers cho_factor and cho_solve call."""
    return _FLAPACK.__file__


def cores() -> dict[str, str | None]:
    """Each bundled OpenBLAS's file name and the core it chose its kernels
    for (None if it does not say): the one it detected, or the one
    OPENBLAS_CORETYPE names."""
    return {Path(path).name: core for path, _, _, core in _THREADS}


@contextlib.contextmanager
def single_threaded_blas():
    """Pin every bundled OpenBLAS to one thread; on exit, also on an
    exception, restore the thread counts found on entry.

    Thread counts are process-wide, so concurrent users would restore
    each other's counts.  Without a bundled OpenBLAS this does nothing.
    """
    if not _THREADS:
        logger.debug("no bundled OpenBLAS found; BLAS threads left as they are")
        yield
        return
    logger.debug("OpenBLAS libraries: %s", [path for path, *_ in _THREADS])
    saved = [getter() for _, _, getter, _ in _THREADS]
    for _, setter, _, _ in _THREADS:
        setter(1)
    logger.debug("BLAS threads pinned to 1 (were %s)", saved)
    try:
        yield
    finally:
        for (_, setter, _, _), n in zip(_THREADS, saved):
            setter(n)
        logger.debug("BLAS threads restored to %s", saved)


def _check_info(info: int, routine: str) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                         f"argument on entry to {routine}")


def cho_factor(a) -> np.ndarray:
    """Cholesky factor of the symmetric positive definite matrix a, read
    from its lower triangle: a Fortran-ordered float64 array whose lower
    triangle holds L, a = L L', and whose strict upper triangle is a's.
    A Fortran-ordered float64 a is factored in place and returned; any
    other input is copied first and left alone.

    Equals scipy.linalg.cho_factor(a, lower=True, overwrite_a=True,
    check_finite=False)[0] bit for bit.  Raises np.linalg.LinAlgError if a
    is not positive definite, ValueError if it is not square.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    c, info = _FLAPACK.dpotrf(a, lower=1, clean=0, overwrite_a=1)
    _check_info(info, "POTRF")
    return c


def cho_solve(c, b) -> np.ndarray:
    """x with a x = b, for c = cho_factor(a) and b of shape (n,) or (n, k).

    Equals scipy.linalg.cho_solve((c, True), b, check_finite=False) bit for
    bit.  Raises ValueError if the shapes do not fit.
    """
    c = np.asarray(c, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or b.ndim not in (1, 2) \
            or b.shape[0] != c.shape[0]:
        raise ValueError(f"cannot solve with a {c.shape} factor for a "
                         f"{b.shape} right-hand side")
    if b.size == 0:         # f2py rejects empty arrays; scipy returns them
        return b.copy()
    x, info = _FLAPACK.dpotrs(c, b, lower=1, overwrite_b=0)
    _check_info(info, "POTRS")
    return x
