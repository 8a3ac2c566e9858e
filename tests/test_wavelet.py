import math
import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len

from rfmst import wavelet
from rfmst.wavelet import (
    ENVELOPE_CUTOFF,
    MorletParams,
    VarianceMap,
    cwt,
    morlet,
    scalogram,
    variance_map,
    variance_sparsity,
)


@pytest.mark.parametrize("bad", [4.0, True])
def test_morlet_params_reject_a_scale_count_that_is_not_an_integer(bad):
    # 4.0 used to raise TypeError from numpy, True to make one scale
    with pytest.raises(ValueError,
                       match=f"^n_scales must be an integer, got {bad!r}$"):
        MorletParams(n_scales=bad)
    assert type(MorletParams(n_scales=np.int64(4)).n_scales) is int


# ---------------------------------------------------------------------------
# direct-integration oracle (kept independent of the FFT fast path)


def direct_cwt(v, scales, xi0=6.0):
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    t = np.arange(n)
    correction = math.exp(-(xi0**2) / 2)
    out = np.empty((len(scales), n), dtype=complex)
    for i, a in enumerate(scales):
        u = (t[None, :] - np.arange(n)[:, None]) / a  # u[b, t]
        psi = np.pi**-0.25 * (np.exp(-1j * xi0 * u) - correction) \
            * np.exp(-(u**2) / 2)
        out[i] = (np.conj(psi) @ v) / math.sqrt(a)
    return out


def test_morlet_includes_admissibility_correction():
    # at t=0: pi^-1/4 * (1 - exp(-xi0^2/2))
    xi0 = 2.0
    expected = np.pi**-0.25 * (1 - math.exp(-(xi0**2) / 2))
    assert morlet(0.0, xi0) == pytest.approx(expected, rel=1e-15)


def test_cwt_zero_signal_is_zero_matrix():
    out = cwt(np.zeros(64), MorletParams(n_scales=16))
    assert out.shape == (16, 64)
    assert np.all(out == 0)


def test_cwt_linearity():
    rng = np.random.default_rng(0)
    u = rng.normal(size=128)
    w = rng.normal(size=128)
    params = MorletParams(n_scales=32)
    alpha, beta = 1.7, -0.4
    lhs = cwt(alpha * u + beta * w, params)
    rhs = alpha * cwt(u, params) + beta * cwt(w, params)
    err = np.abs(lhs - rhs).max() / np.abs(rhs).max()
    assert err < 1e-10


def test_fast_cwt_matches_direct_oracle_on_length_256():
    rng = np.random.default_rng(1)
    v = rng.normal(size=256)
    params = MorletParams()
    fast = cwt(v, params)
    direct = direct_cwt(v, params.scales(256))
    err = np.abs(fast - direct).max() / np.abs(direct).max()
    assert err < 1e-8


ORACLE_CASES = [
    # (n, scale grid, whether some kernel reaches past the signal)
    (512, MorletParams(), True),  # the benchmark's shape
    (257, MorletParams(), True),
    (5, MorletParams(), True),  # the grid needs n >= 5
    (6, MorletParams(n_scales=16), True),
    (64, MorletParams(n_scales=16), True),
    (300, MorletParams(n_scales=1), False),  # period 2 alone: K = 17
]


@pytest.mark.parametrize("n, params, clipped", ORACLE_CASES)
def test_fast_cwt_matches_direct_oracle_on_every_row(n, params, clipped):
    scales = params.scales(n)
    assert (np.ceil(ENVELOPE_CUTOFF * scales) > n - 1).any() == clipped
    v = np.random.default_rng(n).normal(size=n)
    direct = direct_cwt(v, scales)
    fast = cwt(v, params)
    assert fast.shape == direct.shape
    assert np.abs(fast - direct).max() / np.abs(direct).max() < 1e-12


@pytest.mark.parametrize("n, params, shortest", [
    (2, MorletParams(), 5),
    (3, MorletParams(), 5),
    (4, MorletParams(), 5),
])
def test_too_short_signal_names_its_length_and_the_shortest(n, params,
                                                            shortest):
    message = (f"signal of {n} samples is too short for this scale grid, "
               f"which needs at least {shortest}")
    with pytest.raises(ValueError, match=message):
        scalogram(np.ones(n), params)


def test_next_fast_len_matches_scipy():
    targets = range(1, 8193)
    assert [wavelet.next_fast_len(t) for t in targets] == \
        [next_fast_len(t) for t in targets]


@pytest.mark.parametrize("n", [64, 512, 2048])
def test_fft_length_follows_signal_not_widest_wavelet(n):
    params = MorletParams()
    support = np.minimum(np.ceil(ENVELOPE_CUTOFF * params.scales(n)), n - 1)
    bank = wavelet._kernel_bank(n, params)
    assert [rows.start for rows, _ in bank] == [0] + [
        rows.stop for rows, _ in bank[:-1]]
    assert bank[-1][0].stop == 128
    for rows, spectra in bank:
        n_fft = spectra.shape[-1]
        assert spectra.shape[0] == rows.stop - rows.start
        assert n_fft <= next_fast_len(2 * n - 1)
        assert n_fft >= n + support[rows].max()  # no wrap-around


@pytest.mark.parametrize("n, groups", [
    (64, [(128, 128)]),  # no scale has K <= n // 4
    (512, [(55, 640), (73, 1024)]),
])
def test_short_supports_share_a_shorter_fft(n, groups):
    params = MorletParams()
    bank = wavelet._kernel_bank(n, params)
    assert [spectra.shape for _, spectra in bank] == groups
    v = np.random.default_rng(n + 1).normal(size=n)
    direct = direct_cwt(v, params.scales(n))
    fast = cwt(v, params)
    for rows, _ in bank:
        err = np.abs(fast[rows] - direct[rows]).max() / np.abs(direct).max()
        assert err < 1e-12
    assert np.array_equal(scalogram(v, params), np.abs(fast))


def test_cwt_holds_one_bank_sized_temporary():
    # Two live temporaries per FFT group made glibc return and re-fault
    # megabytes per call at n = 512, which made identification unsteady;
    # the groups share one work buffer sized for the largest.
    v = np.random.default_rng(11).normal(size=512)
    bank = wavelet._kernel_bank(512, MorletParams())
    largest = max(spectra.nbytes for _, spectra in bank)
    for transform in (cwt, scalogram):
        tracemalloc.start()
        try:
            out = transform(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 1.5 * largest


def test_scalogram_bit_identical_across_calls_and_cache_rebuilds():
    v = np.random.default_rng(10).normal(size=512)
    first = scalogram(v)
    assert np.array_equal(scalogram(v), first)
    for n in range(100, 106):  # more lengths than the cache holds
        scalogram(np.ones(n))
    misses = wavelet._kernel_bank.cache_info().misses
    assert scalogram(v).tobytes() == first.tobytes()   # a rebuilt bank
    assert wavelet._kernel_bank.cache_info().misses == misses + 1


def test_tone_localization_against_dense_grid_oracle():
    # a unit cosine at digital frequency omega peaks at scale ~ xi0/omega
    omega = 0.2
    n = 512
    v = np.cos(omega * np.arange(n))
    center = n // 2

    dense_scales = np.geomspace(2.0, 200.0, 400)
    mags = np.abs(direct_cwt_at(v, dense_scales, b=center))
    a_star = dense_scales[np.argmax(mags)]
    grid_step = dense_scales[1] / dense_scales[0] - 1
    assert abs(a_star * omega - 6.0) / 6.0 < grid_step * 1.5

    params = MorletParams(n_scales=128)
    scales = params.scales(n)
    coeffs = np.abs(cwt(v, params))[:, center]
    a_fast = scales[np.argmax(coeffs)]
    fast_step = scales[1] / scales[0] - 1
    assert abs(a_fast * omega - 6.0) / 6.0 < fast_step * 1.5


def direct_cwt_at(v, scales, b, xi0=6.0):
    v = np.asarray(v, dtype=np.float64)
    t = np.arange(len(v))
    correction = math.exp(-(xi0**2) / 2)
    out = np.empty(len(scales), dtype=complex)
    for i, a in enumerate(scales):
        u = (t - b) / a
        psi = np.pi**-0.25 * (np.exp(-1j * xi0 * u) - correction) \
            * np.exp(-(u**2) / 2)
        out[i] = (v * np.conj(psi)).sum() / math.sqrt(a)
    return out


def test_time_shift_covariance_on_interior_columns():
    rng = np.random.default_rng(2)
    base = rng.normal(size=300)
    k = 7
    shifted = np.zeros_like(base)
    shifted[k:] = base[:-k]
    params = MorletParams(n_scales=8)
    c1 = cwt(base, params)
    c2 = cwt(shifted, params)
    # interior columns, and the scales whose support (17, 31 and 56
    # samples) keeps them away from both ends
    lo, hi = 100, 200
    rows = np.ceil(ENVELOPE_CUTOFF * params.scales(300)) < lo - k
    assert rows.sum() == 3
    err = np.abs(c2[rows, lo + k : hi + k] - c1[rows, lo:hi]).max()
    assert err / np.abs(c1[rows]).max() < 1e-10


def test_default_grid_covers_periods_2_to_half_n():
    scales = MorletParams().scales(2048)
    assert len(scales) == 128
    assert scales[0] == pytest.approx(6.0 * 2 / (2 * np.pi))
    assert scales[-1] == pytest.approx(6.0 * 1024 / (2 * np.pi))


def test_scalogram_shape_and_nonnegative():
    v = np.random.default_rng(3).normal(size=256)
    s = scalogram(v, MorletParams(n_scales=128))
    assert s.shape == (128, 256)
    assert np.all(s >= 0)
    assert np.all(np.isfinite(s))


# ---------------------------------------------------------------------------
# variance maps


def test_variance_identical_scalograms_is_zero():
    s = np.ones((3, 4, 5, 6))
    vm = variance_map(s)
    assert np.all(vm.var == 0)
    np.testing.assert_array_equal(vm.mean, np.ones((5, 6)))


def test_variance_two_values_sample_divisor():
    s = np.zeros((2, 1, 1, 1))
    s[1] = 2.0
    vm = variance_map(s)
    assert vm.var[0, 0] == 2.0  # divisor n-1 = 1
    assert vm.mean[0, 0] == 1.0


def test_variance_matches_two_pass_loop_oracle():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(12, 30, 8, 16))
    vm = variance_map(s)
    # brute-force two-pass oracle with explicit loops
    mean = np.zeros((8, 16))
    for t in range(12):
        for m in range(30):
            mean += s[t, m]
    mean /= 360
    var = np.zeros((8, 16))
    for t in range(12):
        for m in range(30):
            var += (s[t, m] - mean) ** 2
    var /= 359
    np.testing.assert_allclose(vm.mean, mean, atol=1e-12)
    np.testing.assert_allclose(vm.var, var, atol=1e-12)


def test_variance_shape_mismatch():
    with pytest.raises(ValueError, match="need at least two scalograms"):
        variance_map(np.zeros((1, 1, 4, 4)))  # single scalogram
    with pytest.raises(ValueError,
                       match=r"expected \(n_tx, n_sig, rows, cols\)"):
        variance_map(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# differences


def test_difference_scalograms_center_to_zero_over_corpus():
    # a difference scalogram is s - vm.mean; they sum to zero over the corpus
    rng = np.random.default_rng(6)
    s = rng.normal(size=(5, 7, 3, 4))
    vm = variance_map(s)
    np.testing.assert_allclose((s - vm.mean).sum(axis=(0, 1)), 0.0,
                               atol=1e-9)


def test_variance_sparsity_metric():
    var = np.zeros((10, 10))
    var[0, 0] = 1.0
    var[5, 5] = 0.05  # below the 10% threshold
    assert variance_sparsity(var) == pytest.approx(0.01)
    assert variance_sparsity(np.zeros((4, 4))) == 0.0
