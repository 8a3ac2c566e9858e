"""Morlet continuous wavelet transform, scalograms and variance analysis.

The transform of a length-n real sequence v is the discretized integral

    coef[a, b] = a**-0.5 * sum_t v[t] * conj(psi((t - b) / a))

with translations b on the sample grid and the modulated-Gaussian mother
wavelet psi(t) = pi**-0.25 * (exp(-i*xi0*t) - exp(-xi0**2 / 2)) * exp(-t**2/2).
The admissibility correction exp(-xi0**2/2) is kept even though it is
negligible at xi0 = 6.  Boundaries are zero-padded; all n translations are
returned.

The fast path evaluates the same sum by frequency-domain convolution.  The
wavelet at scale a is truncated to taps |d| <= ceil(8.5 a), where its
Gaussian envelope falls below ~1e-16.  Since every translation b and every
sample t lie in [0, n), a tap d = t - b only ever meets a sample when
|d| <= n - 1; taps beyond that multiply the zero padding, so they are
dropped and the support is K = min(ceil(8.5 a), n - 1).  Each conjugated
kernel is placed circularly, tap d at index -d mod N.  The scale grid is
split between two FFT lengths: the scales with K <= n // 4 share
N = next_fast_len(n + their largest K), and the rest share
N = next_fast_len(n + K_max) <= next_fast_len(2n - 1).  At n = 512 that
is 55 rows at N = 640 and 73 at N = 1024, about 0.8 of the inverse-FFT
work of one length for all rows.  N >= n + K keeps every row's circular
convolution free of wrap-around, so translation b is sample b of the
inverse FFT.  Each group goes through one batched inverse FFT, done in
place.  This matches a direct evaluation of the sum to ~1e-15 of the
scalogram's peak.

`next_fast_len` is local: the smallest 11-smooth length (2^a 3^b 5^c 7^d
11^e) at or above the target, the lengths numpy's pocketfft transforms
fastest and what `scipy.fft.next_fast_len` returns.  Importing scipy.fft
would also load scipy.special.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .manifest import as_count

ENVELOPE_CUTOFF = 8.5  # wavelet support in units of the Gaussian width
XI0 = 6.0              # the mother wavelet's centre frequency


@dataclass(frozen=True)
class MorletParams:
    """The scale grid: n_scales log-spaced scales covering digital periods
    2 .. n/2 of a length-n signal, period p being scale XI0*p / (2*pi)."""

    n_scales: int = 128

    def __post_init__(self):
        object.__setattr__(self, "n_scales",
                           as_count("n_scales", self.n_scales))
        if self.n_scales < 1:
            raise ValueError("n_scales must be >= 1")

    def scales(self, n: int) -> np.ndarray:
        """The grid for a length-n signal; raises ValueError for n < 5,
        too short for periods 2 .. n/2."""
        if n < 5:
            raise ValueError(f"signal of {n} samples is too short for this "
                             f"scale grid, which needs at least 5")
        lo = XI0 * 2 / (2 * np.pi)
        if self.n_scales == 1:
            return np.array([lo])
        return np.geomspace(lo, XI0 * (n / 2) / (2 * np.pi), self.n_scales)


def morlet(t, xi0: float = XI0) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    correction = np.exp(-xi0**2 / 2)
    return np.pi**-0.25 * (np.exp(-1j * xi0 * t) - correction) * np.exp(-t**2 / 2)


def next_fast_len(target: int) -> int:
    """Smallest 2^a * 3^b * 5^c * 7^d * 11^e that is >= target."""
    n = max(1, target)
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=4)
def _kernel_bank(n: int, params: MorletParams) -> list:
    """Spectra of the per-scale correlation kernels, cached per (n, params).

    A list of (rows, spectra) per FFT-length group: rows is a slice of the
    scale grid and spectra an (len(rows), N) array whose row i is the FFT
    of that scale's conjugated, 1/sqrt(a)-weighted wavelet on its clipped
    support |d| <= K, tap d placed at index -d mod N.  Scales with
    K <= n // 4 share N = next_fast_len(n + their largest K); the rest
    share N = next_fast_len(n + K_max).
    """
    scales = params.scales(n)
    support = np.minimum(np.ceil(ENVELOPE_CUTOFF * scales).astype(int), n - 1)
    # scales ascend, so the short supports are a leading block of rows
    split = int(np.count_nonzero(support <= n // 4))
    bank = []
    for rows in (slice(0, split), slice(split, len(scales))):
        if rows.start == rows.stop:
            continue
        n_fft = next_fast_len(n + int(support[rows].max()))
        kernels = np.zeros((rows.stop - rows.start, n_fft), dtype=complex)
        for row, a, k in zip(kernels, scales[rows], support[rows]):
            taps = np.arange(-k, k + 1)
            row[(-taps) % n_fft] = np.conj(morlet(taps / a)) / np.sqrt(a)
        bank.append((rows, np.fft.fft(kernels, axis=-1)))
    return bank


def _transform(v, params: MorletParams, dtype, store) -> np.ndarray:
    """(n_scales, len(v)) array of the given dtype, into whose rows the
    ufunc `store` writes each group's coefficients: np.positive keeps
    them, np.abs takes their magnitudes.

    Every group's product of spectra is inverse-transformed in place in
    one work buffer sized for the largest group, so a call holds that
    buffer and the output, not a temporary per group; with more, glibc
    hands the freed pages back to the kernel and faults them in again on
    every call.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("cwt expects a 1-D sequence")
    n = v.size
    bank = _kernel_bank(n, params)
    out = np.empty((params.n_scales, n), dtype=dtype)
    buffer = np.empty(max(spectra.size for _, spectra in bank), dtype=complex)
    for rows, spectra in bank:
        work = buffer[: spectra.size].reshape(spectra.shape)
        np.multiply(np.fft.fft(v, spectra.shape[-1]), spectra, out=work)
        np.fft.ifft(work, axis=-1, out=work)
        store(work[:, :n], out=out[rows])
    return out


def cwt(v: np.ndarray, params: MorletParams = MorletParams()) -> np.ndarray:
    """Complex coefficient matrix, shape (n_scales, len(v)), on the scale
    grid `params.scales(len(v))`; v needs at least 5 samples."""
    return _transform(v, params, complex, np.positive)


def scalogram(v: np.ndarray, params: MorletParams = MorletParams()) -> np.ndarray:
    """Coefficient magnitudes, shape (n_scales, len(v))."""
    return _transform(v, params, np.float64, np.abs)


@dataclass
class VarianceMap:
    var: np.ndarray
    mean: np.ndarray
    n_tx: int
    n_sig: int


def variance_map(scalograms: np.ndarray) -> VarianceMap:
    """Per-pixel mean and sample variance across transmitters and signals.

    scalograms: array (n_tx, n_sig, rows, cols).  The variance divisor is
    n_tx * n_sig - 1.
    """
    s = np.asarray(scalograms, dtype=np.float64)
    if s.ndim != 4:
        raise ValueError("expected (n_tx, n_sig, rows, cols)")
    n_tx, n_sig = s.shape[:2]
    count = n_tx * n_sig
    if count < 2:
        raise ValueError("need at least two scalograms")
    flat = s.reshape(count, *s.shape[2:])
    mean = flat.mean(axis=0)
    var = ((flat - mean) ** 2).sum(axis=0) / (count - 1)
    return VarianceMap(var=var, mean=mean, n_tx=n_tx, n_sig=n_sig)


def variance_sparsity(var: np.ndarray, threshold_fraction: float = 0.1) -> float:
    """Fraction of pixels above threshold_fraction of the peak variance."""
    peak = var.max()
    if peak == 0:
        return 0.0
    return float((var > threshold_fraction * peak).mean())
