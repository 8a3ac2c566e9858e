"""The OpenBLAS that numpy and scipy bundle: BLAS thread pinning, and the
Cholesky factor and solve of a Levenberg-Marquardt step.

numpy and scipy wheels each bundle an OpenBLAS in their `<pkg>.libs`
directory: numpy's with 64-bit integers (ILP64), scipy's with 32-bit ones
(LP64).  Both are found once, when this module is imported, through
importlib, so scipy itself is never imported.  Nothing else in rfmst calls
into them.

single_threaded_blas pins every one of them to one thread for the duration
of a call; mst and frontend train under it.

cho_factor and cho_solve call LAPACK dpotrf and dpotrs through ctypes in
scipy's LP64 OpenBLAS: the functions scipy.linalg.cho_factor and
cho_solve reach through scipy.linalg._flapack, called on the same
Fortran-ordered copies, so the results agree bit for bit.  Importing
scipy.linalg for them would add about 27 MB of RSS and 300 modules to
every process.  numpy's ILP64 copy is no substitute: it is another build,
and its solves differ in the last bits.  Where no bundled LP64 OpenBLAS
exports dpotrf and dpotrs (a conda or system BLAS, macOS Accelerate), both
import scipy.linalg on their first call and use its functions instead.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.util
import logging
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

# (set, get) thread-count functions, in the order they are looked up
_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# (potrf, potrs) of an LP64 LAPACK, in the order they are looked up
_CHOLESKY_FUNCTIONS = (
    ("scipy_dpotrf_", "scipy_dpotrs_"),
    ("dpotrf_", "dpotrs_"),
)

_INT = ctypes.POINTER(ctypes.c_int)
# Fortran calling convention: every argument by reference, then the hidden
# length of the one-character UPLO argument
_POTRF_ARGS = [ctypes.c_char_p, _INT, ctypes.c_void_p, _INT, _INT,
               ctypes.c_size_t]
_POTRS_ARGS = [ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT,
               ctypes.c_void_p, _INT, _INT, ctypes.c_size_t]


def _bundled(package: str) -> list[str]:
    """Paths of the OpenBLAS libraries in package's `<pkg>.libs` directory,
    found without importing the package."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return []
    libs = Path(spec.origin).parent.parent / f"{package}.libs"
    return sorted(glob.glob(str(libs / "*openblas*")))


def _exported(lib, candidates):
    """The first pair of functions in candidates that lib exports, or None."""
    for names in candidates:
        functions = [getattr(lib, name, None) for name in names]
        if None not in functions:
            return functions
    return None


def _discover():
    """([(path, set_num_threads, get_num_threads)] of every bundled
    OpenBLAS, (path, potrf, potrs) of scipy's or None)."""
    threads, cholesky = [], None
    for package in ("numpy", "scipy"):
        for path in _bundled(package):
            lib = ctypes.CDLL(path)
            functions = _exported(lib, _THREAD_FUNCTIONS)
            if functions is not None:
                setter, getter = functions
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads.append((path, setter, getter))
            if package != "scipy" or cholesky is not None:
                continue
            functions = _exported(lib, _CHOLESKY_FUNCTIONS)
            if functions is not None:
                potrf, potrs = functions
                potrf.argtypes, potrf.restype = _POTRF_ARGS, None
                potrs.argtypes, potrs.restype = _POTRS_ARGS, None
                cholesky = (path, potrf, potrs)
    return threads, cholesky


_THREADS, _LAPACK = _discover()


def lapack() -> str:
    """Where cho_factor and cho_solve solve: a library path, or
    'scipy.linalg' when no bundled LP64 OpenBLAS was found."""
    return "scipy.linalg" if _LAPACK is None else _LAPACK[0]


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
    logger.debug("OpenBLAS libraries: %s", [path for path, _, _ in _THREADS])
    saved = [getter() for _, _, getter in _THREADS]
    for _, setter, _ in _THREADS:
        setter(1)
    logger.debug("BLAS threads pinned to 1 (were %s)", saved)
    try:
        yield
    finally:
        for (_, setter, _), n in zip(_THREADS, saved):
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
    from its lower triangle: a Fortran-ordered float64 copy of a whose lower
    triangle holds L, a = L L', and whose strict upper triangle is a's.

    Equals scipy.linalg.cho_factor(a, lower=True, check_finite=False)[0]
    bit for bit.  Raises np.linalg.LinAlgError if a is not positive
    definite, ValueError if it is not square.
    """
    if _LAPACK is None:
        from scipy.linalg import cho_factor as factor
        return factor(a, lower=True, check_finite=False)[0]
    c = np.array(a, dtype=np.float64, order="F")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {c.shape}")
    n, ld, info = (ctypes.c_int(c.shape[0]), ctypes.c_int(max(1, len(c))),
                   ctypes.c_int())
    _LAPACK[1](b"L", n, c.ctypes.data, ld, info, 1)
    _check_info(info.value, "POTRF")
    return c


def cho_solve(c, b) -> np.ndarray:
    """x with a x = b, for c = cho_factor(a) and b of shape (n,) or (n, k).

    Equals scipy.linalg.cho_solve((c, True), b, check_finite=False) bit for
    bit.  Raises ValueError if the shapes do not fit.
    """
    if _LAPACK is None:
        from scipy.linalg import cho_solve as solve
        return solve((c, True), b, check_finite=False)
    c = np.asarray(c, dtype=np.float64, order="F")
    x = np.array(b, dtype=np.float64, order="F")
    if c.ndim != 2 or c.shape[0] != c.shape[1] or x.ndim not in (1, 2) \
            or x.shape[0] != c.shape[0]:
        raise ValueError(f"cannot solve with a {c.shape} factor for a "
                         f"{x.shape} right-hand side")
    n, ld = ctypes.c_int(len(c)), ctypes.c_int(max(1, len(c)))
    nrhs, info = ctypes.c_int(1 if x.ndim == 1 else x.shape[1]), ctypes.c_int()
    _LAPACK[2](b"L", n, nrhs, c.ctypes.data, ld, x.ctypes.data, ld, info, 1)
    _check_info(info.value, "POTRS")
    return x
