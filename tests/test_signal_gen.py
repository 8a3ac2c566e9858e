import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import re
import time

import numpy as np
import pytest
from scipy.signal import resample_poly

from rfmst import signal_gen
from rfmst.signal_gen import (
    Corpus,
    IqPacket,
    OfdmParams,
    TransmitterProfile,
    apply_impairments,
    default_profiles,
    generate_corpus,
    generate_payload,
    load_corpus,
    modulate,
    profiles_hash,
    save_corpus,
    synthesize_packet,
    validate_profiles,
)

# small parameter set for fast tests; same structure as the defaults
FAST = OfdmParams(subcarrier_count=38, subcarrier_spacing=30_000.0,
                  cyclic_prefix=4, baseband_rate=1.92e6, capture_rate=5e6,
                  packet_len=1_500, silence_len=100, ramp_len=20)


def quiet_profile(radio="R01v1", tx=1, **kw):
    return TransmitterProfile(radio_id=radio, tx_index=tx, **kw)


def float64_chain(payload, profile):
    """The complex128 impairment chain of one packet, without noise."""
    rngs = (np.random.default_rng(s) for s in (1, 2, 3))
    return apply_impairments(modulate(payload, FAST), profile, FAST, None,
                             *rngs)


# ---------------------------------------------------------------------------
# payload


def test_payload_deterministic_per_seed():
    a = generate_payload(7, FAST)
    b = generate_payload(7, FAST)
    np.testing.assert_array_equal(a, b)
    c = generate_payload(8, FAST)
    assert not np.array_equal(a, c)


def test_payload_symbols_have_unit_modulus():
    grid = generate_payload(3, FAST)
    np.testing.assert_allclose(np.abs(grid), 1.0, rtol=1e-12)


def test_payload_constellation_frequencies_are_uniform():
    # chi-square style check over >= 1e5 symbols: each of the four points
    # should appear with frequency 0.25 +/- 0.01
    params = OfdmParams()
    grids = [generate_payload(s, params) for s in range(50)]
    symbols = np.concatenate([g.reshape(-1) for g in grids])
    assert symbols.size >= 100_000
    points = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
    counts = np.array([(np.abs(symbols - p) < 1e-9).sum() for p in points])
    assert counts.sum() == symbols.size
    freqs = counts / symbols.size
    np.testing.assert_allclose(freqs, 0.25, atol=0.01)
    chi2 = ((counts - symbols.size / 4) ** 2 / (symbols.size / 4)).sum()
    assert chi2 < 30  # df=3; generous bound against a broken generator


# ---------------------------------------------------------------------------
# packet synthesis


def test_zero_impairments_and_no_noise_is_identity_chain():
    payload = generate_payload(1, FAST)
    samples = float64_chain(payload, quiet_profile())
    np.testing.assert_array_equal(samples, modulate(payload, FAST))
    assert len(samples) == FAST.packet_len


def test_dc_offset_shifts_samples_exactly():
    # the offset applies from the instant the transmitter keys on; the
    # leading silence stays receiver-noise only
    payload = generate_payload(2, FAST)
    c = 0.03 - 0.01j
    samples = float64_chain(payload, quiet_profile(dc_offset=c))
    ideal = modulate(payload, FAST)
    keyed = slice(FAST.silence_len, FAST.packet_len)
    np.testing.assert_allclose(samples[keyed], ideal[keyed] + c,
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(samples[: FAST.silence_len],
                                  ideal[: FAST.silence_len])


def test_cfo_phase_advance_matches_oracle():
    # phase-difference oracle: y[n] * conj(x_ideal[n]) advances by exactly
    # 2*pi*df/capture_rate per sample over the burst
    payload = generate_payload(3, FAST)
    df = 12_345.0
    samples = float64_chain(payload, quiet_profile(carrier_freq_offset=df))
    ideal = modulate(payload, FAST)
    burst = slice(FAST.silence_len + FAST.ramp_len, FAST.packet_len)
    rot = samples[burst] * np.conj(ideal[burst])
    steps = np.angle(rot[1:] * np.conj(rot[:-1]))
    np.testing.assert_allclose(steps, 2 * np.pi * df / FAST.capture_rate,
                               atol=1e-9)


def reference_chain(packet, profile, params, noise_snr_db, rng_phase,
                    rng_noise, rng_carrier):
    """The impairment chain written as out-of-place numpy expressions, one
    new array per step: what `apply_impairments` must equal bit for bit."""
    x = packet
    i = (1.0 + profile.iq_gain_imbalance) * x.real
    q = x.imag * np.cos(profile.iq_phase_imbalance) \
        + x.real * np.sin(profile.iq_phase_imbalance)
    x = i + 1j * q
    if profile.amam_cubic_coeff != 0.0:
        x = x * (1.0 - profile.amam_cubic_coeff * np.abs(x) ** 2)
    phi0 = 0.0
    if profile.carrier_phase_jitter > 0.0:
        phi0 = profile.carrier_phase_jitter * rng_carrier.uniform(-1.0, 1.0)
    phase = (2 * np.pi * profile.carrier_freq_offset * np.arange(len(x))
             / params.capture_rate + phi0)
    if profile.phase_noise_bw > 0.0:
        sigma = np.sqrt(2 * np.pi * profile.phase_noise_bw / params.capture_rate)
        n_burst = len(x) - params.silence_len
        phase[params.silence_len:] += np.cumsum(
            rng_phase.normal(0.0, sigma, size=n_burst))
    if phase.any():
        x = x * np.exp(1j * phase)
    x[params.silence_len:] += complex(profile.dc_offset)
    if noise_snr_db is not None:
        burst = packet[params.silence_len:]
        burst_power = np.mean(np.abs(burst) ** 2)
        noise_power = burst_power / 10 ** (noise_snr_db / 10)
        scale = np.sqrt(noise_power / 2)
        x = x + scale * (rng_noise.normal(size=len(x))
                         + 1j * rng_noise.normal(size=len(x)))
    return x


def _rngs(packet_id):
    return [signal_gen._noise_rng(5, 1, packet_id, s) for s in (1, 2, 3)]


# every default transmitter, and three without DC offset, whose noiseless
# captures keep the signs the chain's complex products give to zeros: the
# last turns the silence's zeros negative in the IQ step
CHAIN_PROFILES = default_profiles() + [
    quiet_profile(),
    quiet_profile(carrier_freq_offset=-5e3, amam_cubic_coeff=0.2),
    quiet_profile(iq_gain_imbalance=-1.5, iq_phase_imbalance=-2.0,
                  carrier_freq_offset=3e3)]


@pytest.mark.parametrize("snr_db", [30.0, None])
def test_chain_equals_the_out_of_place_reference_bit_for_bit(snr_db):
    params = OfdmParams()
    workspace = signal_gen.impairment_workspace(params.packet_len)
    for m in range(3):
        ideal = modulate(generate_payload(m, params), params)
        for profile in CHAIN_PROFILES:
            want = reference_chain(ideal, profile, params, snr_db, *_rngs(m))
            got = apply_impairments(ideal, profile, params, snr_db,
                                    *_rngs(m), workspace)
            assert got.dtype == np.complex128
            assert got.tobytes() == want.tobytes(), (m, profile.name)


def test_a_workspace_keeps_nothing_from_the_packet_before():
    params = OfdmParams()
    a = modulate(generate_payload(1, params), params)
    b = modulate(generate_payload(2, params), params)
    profile_a, profile_b = default_profiles()[10:]
    alone = apply_impairments(b, profile_b, params, 30.0, *_rngs(2)).copy()
    workspace = signal_gen.impairment_workspace(params.packet_len)
    apply_impairments(a, profile_a, params, 30.0, *_rngs(1), workspace)
    after = apply_impairments(b, profile_b, params, 30.0, *_rngs(2),
                              workspace)
    assert after.tobytes() == alone.tobytes()
    assert np.shares_memory(after, workspace)


def test_a_complex64_packet_runs_the_float64_chain():
    # the chain of a complex64 packet is the chain of its exact upcast, not
    # a float32 one: a Python float times a float32 array stays float32
    params = OfdmParams()
    packet = modulate(generate_payload(1, params), params).astype(np.complex64)
    profile = default_profiles()[3]
    got = apply_impairments(packet, profile, params, 30.0, *_rngs(1))
    want = apply_impairments(packet.astype(np.complex128), profile, params,
                             30.0, *_rngs(1))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("field, kw", [
    ("baseband_rate", {"baseband_rate": 1.92e6 + 0.4}),
    ("capture_rate", {"capture_rate": 5e6 + 0.5}),
    ("subcarrier_spacing", {"subcarrier_spacing": 3700.0}),
    ("subcarrier_spacing", {"subcarrier_spacing": 0.0}),
])
def test_params_reject_rates_that_would_be_rounded(field, kw):
    # a fractional rate used to be resampled as its rounded value, and a
    # spacing that does not divide the baseband rate used to round n_fft
    with pytest.raises(ValueError, match=field):
        OfdmParams(**kw)


@pytest.mark.parametrize("field, kw", [
    ("burst_rms", {"burst_rms": 0.0}),          # an all-zero burst
    ("burst_rms", {"burst_rms": -0.35}),        # an inverted burst
    ("burst_rms", {"burst_rms": float("nan")}),
    ("burst_rms", {"burst_rms": float("inf")}),
    ("silence_len", {"silence_len": -5}),
    ("ramp_len", {"ramp_len": -3}),             # a silently skipped ramp
    ("ramp_len", {"ramp_len": 20_000}),
    ("ramp_len", {"silence_len": 10_001}),
])
def test_params_reject_bursts_that_modulate_cannot_make(field, kw):
    with pytest.raises(ValueError, match=field):
        OfdmParams(**kw)


_PARAM_COUNTS = ("subcarrier_count", "cyclic_prefix", "packet_len",
                 "silence_len", "ramp_len", "preamble_symbols")


@pytest.mark.parametrize("field", _PARAM_COUNTS)
@pytest.mark.parametrize("whole_float", [False, True])
def test_params_reject_counts_that_are_not_integers(field, whole_float):
    # OfdmParams(silence_len=True) and packet_len=2000.0 used to be taken
    bad = float(getattr(OfdmParams(), field)) if whole_float else True
    with pytest.raises(ValueError,
                       match=f"^{field} must be an integer, got {bad!r}$"):
        dataclasses.replace(OfdmParams(), **{field: bad})


def test_params_take_numpy_integers_as_ints():
    params = OfdmParams(**{f: np.int32(getattr(FAST, f))
                           for f in _PARAM_COUNTS},
                        subcarrier_spacing=FAST.subcarrier_spacing)
    assert params == FAST
    assert all(type(getattr(params, f)) is int for f in _PARAM_COUNTS)


@pytest.mark.parametrize("bad", [True, 1.0])
def test_profile_rejects_a_tx_index_that_is_not_an_integer(bad):
    # TransmitterProfile("R", True) used to be named "R_TxTrue"
    with pytest.raises(ValueError,
                       match=f"^tx_index must be an integer, got {bad!r}$"):
        quiet_profile("R", bad)
    assert quiet_profile("R", np.int64(2)).name == "R_Tx2"


def test_profile_validation_rejects_out_of_range():
    with pytest.raises(ValueError):
        quiet_profile(amam_cubic_coeff=1.5)
    with pytest.raises(ValueError):
        quiet_profile(carrier_freq_offset=float("nan"))
    with pytest.raises(ValueError):
        quiet_profile(tx=3)


# ---------------------------------------------------------------------------
# resampling: resample_poly to the last bits, and the same complex64 capture


@pytest.mark.parametrize("up, down", [(125, 48), (3, 2), (2, 3), (5, 1),
                                      (1, 1), (250, 96)])
@pytest.mark.parametrize("n", [1, 7, 777, 11_084])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_resampler_equals_resample_poly_byte_for_byte(up, down, n, dtype):
    # n = 1 and 7 are shorter than the filter's half-length, 10*max(up, down)
    rng = np.random.default_rng(n + up)
    x = rng.normal(size=n)
    if dtype is np.complex128:
        x = x + 1j * rng.normal(size=n)
    got = signal_gen._resample(x, up, down)
    want = resample_poly(x, up, down)
    assert got.dtype == want.dtype and got.shape == want.shape
    # np.kaiser's window may differ from scipy's in the last bits, so the
    # samples agree to a bound, not byte for byte
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    assert not np.shares_memory(got, x)   # 1/1 copies, as scipy does


@pytest.mark.parametrize("params", [OfdmParams(), FAST])
def test_modulate_equals_a_resample_poly_reference(params, monkeypatch):
    # the capture, not the complex128 packet: rounding to complex64 hides
    # the last-bit differences of np.kaiser's window.  13 payloads reach
    # payload 12, whose transmitter-5 packet a reordered filter formula
    # (sinc(m / max_rate), scaled once by up / sum) moves by one rounding.
    got = generate_corpus(default_profiles(), 13, seed=5, params=params)
    monkeypatch.setattr(signal_gen, "_resample", resample_poly)
    want = generate_corpus(default_profiles(), 13, seed=5, params=params)
    for a, b in zip(got.packets, want.packets, strict=True):
        assert a.samples.dtype == b.samples.dtype == np.complex64
        assert a.samples.tobytes() == b.samples.tobytes()


def test_resampling_filter_is_designed_once(monkeypatch):
    designs = []
    design = signal_gen._lowpass_taps

    def counting(numtaps, cutoff):
        designs.append(numtaps)
        return design(numtaps, cutoff)

    monkeypatch.setattr(signal_gen, "_lowpass_taps", counting)
    signal_gen._resampler.cache_clear()
    for seed in range(3):
        modulate(generate_payload(seed, FAST), FAST)
    assert designs == [2 * 10 * 125 + 1]


# ---------------------------------------------------------------------------
# corpus


def test_corpus_size_is_profiles_times_packets():
    # 12 profiles x 1000 packets -> 12,000 packets
    tiny = OfdmParams(subcarrier_count=6, subcarrier_spacing=240_000.0,
                      cyclic_prefix=2, baseband_rate=1.92e6, capture_rate=5e6,
                      packet_len=60, silence_len=10, ramp_len=5)
    corpus = generate_corpus(default_profiles(), 1000, seed=1, params=tiny,
                             noise_snr_db=None)
    assert len(corpus.packets) == 12_000


@pytest.mark.parametrize("bad", [True, 1.5, 2.0])
def test_corpus_rejects_a_packet_count_that_is_not_an_integer(bad):
    # True used to make one packet per transmitter, 1.5 raise TypeError
    with pytest.raises(ValueError,
                       match=f"^packets_per_tx must be an integer, got {bad!r}$"):
        generate_corpus([quiet_profile()], bad, seed=1, params=FAST)


@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an integer, got True"),
    (1.0, "seed must be an integer, got 1.0"),
    ("1", "seed must be an integer, got '1'"),
    (2**32 + 1, r"seed must lie in \[0, 2\*\*32\), got 4294967297"),
    (-(2**32) + 1, r"seed must lie in \[0, 2\*\*32\), got -4294967295"),
    (-1, r"seed must lie in \[0, 2\*\*32\), got -1"),
], ids=["bool", "float", "str", "above", "below", "negative"])
def test_corpus_rejects_a_seed_outside_0_to_2_to_the_32(monkeypatch, seed,
                                                        message):
    # True, 2**32 + 1 and -(2**32) + 1 used to synthesise seed 1's bytes,
    # recorded as another seed; 1.0 and "1" to raise a bare TypeError
    monkeypatch.setattr(signal_gen, "shared_zeros", _no_capture)
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_corpus([quiet_profile()], 1, seed=seed, params=FAST)


def test_corpus_rejects_an_empty_profile_list(monkeypatch):
    # used to return a corpus of no transmitters
    monkeypatch.setattr(signal_gen, "shared_zeros", _no_capture)
    with pytest.raises(ValueError, match="^need at least one transmitter "
                                         "profile$"):
        generate_corpus([], 3, seed=1)


def _no_capture(*args):
    raise AssertionError("a capture was made before the arguments' checks")


def _corpus_digest(corpus):
    """sha256 of every packet's little-endian complex64 samples, each
    followed by its label as two little-endian bytes."""
    h = hashlib.sha256()
    for p in corpus.packets:
        h.update(p.samples.astype("<c8", copy=False).tobytes())
        h.update(int(p.tx_label).to_bytes(2, "little"))
    return h.hexdigest()


@pytest.mark.parametrize("seed, digest", [
    (1, "9ed01226f6f3746986f93963e7c5d0c4bfe8b212bcea50d1f9caa4d7e9dba500"),
    (2, "a98f209198770316528e8e2c225661f6f2943718d87251c33952f9c3b431a4dd"),
    (101, "d35ea98c44bf1e1420b06627bf56032566c4512adccf5d9053ec1467a2f373e0"),
], ids=["seed1", "seed2", "seed101"])
def test_default_corpus_bytes_are_pinned(seed, digest):
    # the samples and labels, at the default parameters and SNR, did not
    # move with the OpenBLAS core or numpy's SIMD dispatch; a change here
    # is a synthesis change, whatever the host
    corpus = generate_corpus(default_profiles(), 2, seed=seed)
    assert _corpus_digest(corpus) == digest


def test_corpus_single_profile_single_packet():
    corpus = generate_corpus([quiet_profile()], 1, seed=1, params=FAST,
                             noise_snr_db=None)
    assert len(corpus.packets) == 1
    assert corpus.packets[0].tx_label == 1


def test_same_payload_sent_through_every_profile():
    # with no impairments the m-th packet is identical across transmitters
    p1 = quiet_profile("A", 1)
    p2 = quiet_profile("B", 1)
    corpus = generate_corpus([p1, p2], 3, seed=5, params=FAST,
                             noise_snr_db=None)
    for m in range(3):
        a = corpus.packets[m]
        b = corpus.packets[3 + m]
        np.testing.assert_array_equal(a.samples, b.samples)


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("snr_db", [25.0, None])
def test_corpus_equals_packet_by_packet_synthesis(seed, snr_db):
    # each packet is also its float64 impairment chain rounded once to
    # complex64, the format save_corpus writes
    profiles = default_profiles()[:3]
    corpus = generate_corpus(profiles, 4, seed=seed, params=FAST,
                             noise_snr_db=snr_db)
    keys = [(label, profile, m)
            for label, profile in enumerate(profiles, start=1)
            for m in range(4)]
    assert len(corpus.packets) == len(keys)
    for got, (label, profile, m) in zip(corpus.packets, keys):
        payload = generate_payload(seed * 1_000_003 + m, FAST)
        want = synthesize_packet(payload, profile, FAST, snr_db,
                                 tx_label=label, packet_id=m,
                                 corpus_seed=seed)
        rngs = [signal_gen._noise_rng(seed, label, m, stream)
                for stream in (1, 2, 3)]
        chain = apply_impairments(modulate(payload, FAST), profile, FAST,
                                  snr_db, *rngs)
        assert got.samples.dtype == np.complex64
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.samples.tobytes() == chain.astype(np.complex64).tobytes()
        assert (got.name, got.tx_label, got.packet_id) == \
            (want.name, want.tx_label, want.packet_id)


def test_corpus_does_not_depend_on_the_cpu_count(monkeypatch):
    # synthesised by one process, then by three forked ones
    corpora = []
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)))
        corpus = generate_corpus(default_profiles()[:4], 6, seed=11)
        corpora.append([(p.samples.tobytes(), p.name, p.tx_label, p.packet_id)
                        for p in corpus.packets])
    one, three = corpora
    assert len(one) == 24
    assert three == one


def test_sample_past_the_float32_range_raises():
    # finite in the float64 chain, infinite once rounded to complex64
    payload = generate_payload(1, FAST)
    with pytest.raises(ValueError, match="non-finite"):
        synthesize_packet(payload, quiet_profile(dc_offset=1e39), FAST,
                          noise_snr_db=None)


@pytest.mark.parametrize("cpus", [1, 2])
def test_corpus_packets_are_consecutive_rows_of_one_capture(monkeypatch,
                                                             cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    corpus = generate_corpus(default_profiles()[:3], 4, seed=2, params=FAST)
    rows = [p.samples for p in corpus.packets]
    capture = rows[0].base
    assert capture.dtype == np.complex64 and capture.flags.c_contiguous
    assert capture.shape == (12 * FAST.packet_len,)
    row_bytes = FAST.packet_len * capture.itemsize
    start = capture.__array_interface__["data"][0]
    for k, row in enumerate(rows):
        assert row.base is capture and row.flags.c_contiguous
        assert row.shape == (FAST.packet_len,)
        assert row.__array_interface__["data"][0] == start + k * row_bytes


def test_a_sample_past_the_float32_range_raises_from_a_worker(monkeypatch):
    # the worker's ideal packets overflow float32, the parent's do not
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, modulated = os.getpid(), signal_gen.modulate

    def too_loud_in_a_worker(payload, params):
        if os.getpid() == parent:
            time.sleep(0.05)
            return modulated(payload, params)
        return modulated(payload, params) * 1e39

    monkeypatch.setattr(signal_gen, "modulate", too_loud_in_a_worker)
    with pytest.raises(ValueError, match="non-finite"):
        generate_corpus([quiet_profile()], 4, seed=1, params=FAST)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _two_cpus_recording(monkeypatch, log, name, record):
    """On two CPUs, patch signal_gen.<name> to append record(*args), with
    its process id, to the file `log`, not to a list, since it also runs in
    the forked synthesis workers; it sleeps in the parent, so that a worker
    takes at least one payload.  Returns a reader of the file's records."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, fn = os.getpid(), getattr(signal_gen, name)

    def recording(*args):
        with open(log, "a") as f:
            f.write(json.dumps([os.getpid(), *record(*args)]) + "\n")
        if os.getpid() == parent:
            time.sleep(0.05)
        return fn(*args)

    monkeypatch.setattr(signal_gen, name, recording)
    return lambda: [json.loads(line) for line in log.read_text().splitlines()]


def _digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def test_corpus_modulates_each_payload_once(monkeypatch, tmp_path):
    records = _two_cpus_recording(monkeypatch, tmp_path / "log", "modulate",
                                  lambda payload, params: [_digest(payload)])
    generate_corpus(default_profiles()[:3], 4, seed=2, params=FAST)
    calls = records()
    assert sorted(digest for _, digest in calls) == sorted(
        _digest(generate_payload(2 * 1_000_003 + m, FAST)) for m in range(4))
    assert len({pid for pid, _ in calls}) > 1


def test_shared_ideal_packets_are_read_only(monkeypatch, tmp_path):
    def write_and_record(packet, profile, *args):
        try:
            packet[0] = 1.0
        except ValueError as exc:
            read_only = "read-only" in str(exc)
        else:
            read_only = False
        return [id(packet), _digest(packet), profile.name, read_only]

    records = _two_cpus_recording(monkeypatch, tmp_path / "log",
                                  "apply_impairments", write_and_record)
    profiles = default_profiles()[:3]
    generate_corpus(profiles, 2, seed=2, params=FAST)
    inputs = records()
    assert len(inputs) == 6
    assert all(read_only for *_, read_only in inputs)
    assert len({pid for pid, *_ in inputs}) > 1
    # in the process that modulated it, one ideal goes to every transmitter
    by_payload = {}
    for pid, ident, digest, name, _ in inputs:
        by_payload.setdefault(digest, []).append((pid, ident, name))
    assert len(by_payload) == 2
    for sent in by_payload.values():
        assert len({(pid, ident) for pid, ident, _ in sent}) == 1
        assert sorted(name for *_, name in sent) == \
            sorted(p.name for p in profiles)


def test_duplicate_radio_tx_rejected():
    with pytest.raises(ValueError):
        generate_corpus([quiet_profile("A", 1), quiet_profile("A", 1)],
                        1, seed=0, params=FAST)


def test_shared_oscillator_must_match_within_radio():
    p1 = TransmitterProfile("A", 1, carrier_freq_offset=100.0)
    p2 = TransmitterProfile("A", 2, carrier_freq_offset=200.0)
    with pytest.raises(ValueError):
        validate_profiles([p1, p2])


def test_shared_phase_noise_must_match_within_radio():
    profiles = default_profiles()
    validate_profiles(profiles)
    i = next(k for k, p in enumerate(profiles) if p.radio_id == "Y06v2")
    profiles[i] = dataclasses.replace(
        profiles[i], phase_noise_bw=2 * profiles[i].phase_noise_bw + 1.0)
    with pytest.raises(ValueError, match="radio Y06v2: .* phase_noise_bw"):
        validate_profiles(profiles)


def test_corpus_determinism_bit_identical():
    profiles = default_profiles()[:4]
    a = generate_corpus(profiles, 2, seed=9, params=FAST, noise_snr_db=20.0)
    b = generate_corpus(profiles, 2, seed=9, params=FAST, noise_snr_db=20.0)
    for pa, pb in zip(a.packets, b.packets):
        np.testing.assert_array_equal(pa.samples, pb.samples)
        assert pa.name == pb.name


def test_labels_bijective_with_profile_order():
    profiles = [quiet_profile("A", 1), quiet_profile("A", 2),
                quiet_profile("B", 1)]
    corpus = generate_corpus(profiles, 2, seed=0, params=FAST,
                             noise_snr_db=None)
    by_label = {}
    for pkt in corpus.packets:
        by_label.setdefault(pkt.tx_label, set()).add(pkt.name.rsplit("_", 1)[0])
    assert by_label == {1: {"A_Tx1"}, 2: {"A_Tx2"}, 3: {"B_Tx1"}}


def test_packet_names_follow_convention():
    corpus = generate_corpus([quiet_profile("Y06v2", 2)], 3, seed=0,
                             params=FAST, noise_snr_db=None)
    assert [p.name for p in corpus.packets] == [
        "Y06v2_Tx2_0000", "Y06v2_Tx2_0001", "Y06v2_Tx2_0002"]


def test_snr_contract_within_half_db():
    # over 100 packets the realized burst-power / noise-power ratio stays
    # within +/- 0.5 dB of the request; the noise realization is recovered
    # by re-synthesizing the same packets without noise
    snr_db = 30.0
    profile = quiet_profile(iq_gain_imbalance=0.05, amam_cubic_coeff=0.1,
                            carrier_freq_offset=5e3, dc_offset=0.01)
    noisy = generate_corpus([profile], 100, seed=3, params=FAST,
                            noise_snr_db=snr_db)
    clean = generate_corpus([profile], 100, seed=3, params=FAST,
                            noise_snr_db=None)
    burst = slice(FAST.silence_len, FAST.packet_len)
    sig_power = 0.0
    noise_power = 0.0
    for pn, pc in zip(noisy.packets, clean.packets):
        noise = pn.samples - pc.samples
        sig_power += np.mean(np.abs(pc.samples[burst]) ** 2)
        noise_power += np.mean(np.abs(noise) ** 2)
    measured_db = 10 * np.log10(sig_power / noise_power)
    assert abs(measured_db - snr_db) <= 0.5


@pytest.mark.parametrize("snr_db", [np.nan, np.inf, -np.inf, 10**400],
                         ids=["nan", "inf", "-inf", "int_past_float"])
def test_non_finite_snr_raises(monkeypatch, snr_db):
    # None is the one spelling of "no noise"; NaN used to be caught only
    # once the capture was made
    monkeypatch.setattr(signal_gen, "shared_zeros", _no_capture)
    with pytest.raises(ValueError, match="noise_snr_db must be finite or None"):
        generate_corpus([quiet_profile()], 1, seed=3, params=FAST,
                        noise_snr_db=snr_db)


@pytest.mark.parametrize("snr_db", [True, "30", [25.0], 30j],
                         ids=["bool", "str", "list", "complex"])
def test_corpus_rejects_an_snr_that_is_not_a_real_number(monkeypatch,
                                                         snr_db):
    # True used to synthesise at 1 dB and record True, "30" to raise a bare
    # TypeError from inside synthesis
    monkeypatch.setattr(signal_gen, "shared_zeros", _no_capture)
    with pytest.raises(ValueError, match="^noise_snr_db must be a real number "
                       f"or None, got {re.escape(repr(snr_db))}$"):
        generate_corpus([quiet_profile()], 1, seed=3, params=FAST,
                        noise_snr_db=snr_db)


@pytest.mark.parametrize("snr_db", [np.float32(30), np.int64(30), 30],
                         ids=["float32", "int64", "int"])
def test_an_snr_of_another_real_type_makes_the_corpus_of_its_float(
        tmp_path, snr_db):
    # np.float32(30) used to synthesise, then fail to save with a bare
    # TypeError
    saved = []
    for name, snr in (("given", snr_db), ("float", 30.0)):
        corpus = generate_corpus([quiet_profile()], 2, seed=4, params=FAST,
                                 noise_snr_db=snr)
        assert type(corpus.snr_db) is float
        saved.append(save_corpus(corpus, tmp_path / name))
    for name in ("manifest.json", "samples.c64"):
        assert (saved[0] / name).read_bytes() == (saved[1] / name).read_bytes()
    assert load_corpus(saved[0]).snr_db == 30.0


def test_save_load_roundtrip(tmp_path):
    corpus = generate_corpus(default_profiles()[:2], 3, seed=4, params=FAST,
                             noise_snr_db=25.0)
    save_corpus(corpus, tmp_path / "corpus")
    loaded = load_corpus(tmp_path / "corpus")
    assert len(loaded.packets) == 6
    assert loaded.params == corpus.params
    assert profiles_hash(loaded.profiles) == profiles_hash(corpus.profiles)
    for pa, pb in zip(corpus.packets, loaded.packets):
        assert pa.name == pb.name
        assert pa.tx_label == pb.tx_label
        # the file holds the complex64 samples' own bytes
        assert pb.samples.dtype == np.complex64
        np.testing.assert_array_equal(pb.samples, pa.samples)


def _saved_corpus(tmp_path):
    corpus = generate_corpus(default_profiles()[:2], 2, seed=4, params=FAST,
                             noise_snr_db=25.0)
    return save_corpus(corpus, tmp_path / "corpus")


def test_load_rejects_profiles_not_matching_their_hash(tmp_path):
    out = _saved_corpus(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["profiles"][0]["iq_gain_imbalance"] += 0.01
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_corpus(out)


def test_load_rejects_truncated_packet(tmp_path):
    out = _saved_corpus(tmp_path)
    path = out / "samples.c64"
    # the last packet keeps 1000 of its 1500 samples
    path.write_bytes(path.read_bytes()[:-4000])
    with pytest.raises(ValueError):
        load_corpus(out)


def test_load_rejects_trailing_partial_sample(tmp_path):
    out = _saved_corpus(tmp_path)
    with open(out / "samples.c64", "ab") as f:
        f.write(b"\0" * 4)                    # half of one more sample
    with pytest.raises(ValueError, match=r"samples\.c64 has 48004 bytes"):
        load_corpus(out)


def _unknown_profile_key(manifest):
    manifest["profiles"][0]["timing_jitter"] = 1.0


def _missing_profile_key(manifest):
    del manifest["profiles"][1]["dc_offset"]


def _unknown_params_key(manifest):
    manifest["params"]["symbol_rate"] = 3750.0


def _missing_params_key(manifest):
    del manifest["params"]["packet_len"]


def _file_in_packet(manifest):
    # saved when the manifest named each packet's file
    manifest["packets"][2]["file"] = "Y06v2_Tx2_0000.iq"


def _missing_packets(manifest):
    del manifest["packets"]


@pytest.mark.parametrize("tamper, message", [
    (_unknown_profile_key, "unknown TransmitterProfile key 'timing_jitter'"),
    (_missing_profile_key, "TransmitterProfile key 'dc_offset' is missing"),
    (_unknown_params_key, "unknown OfdmParams key 'symbol_rate'"),
    (_missing_params_key, "OfdmParams key 'packet_len' is missing"),
    (_file_in_packet, "unknown IqPacket key 'file'"),
    (_missing_packets, "manifest key 'packets' is missing"),
], ids=["unknown_profile_key", "missing_profile_key", "unknown_params_key",
        "missing_params_key", "file_in_packet", "missing_packets"])
def test_load_names_the_manifest_and_an_unknown_or_missing_key(
        tmp_path, tamper, message):
    out = _saved_corpus(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    tamper(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_corpus(out)


def _zero_packet_len(manifest):
    manifest["params"]["packet_len"] = 0


def _third_tx_index(manifest):
    manifest["profiles"][1]["tx_index"] = 3


def _seed_above(manifest):
    manifest["seed"] = 2**32 + 1


def _negative_seed(manifest):
    manifest["seed"] = -5


def _nan_snr(manifest):
    manifest["snr_db"] = math.nan       # json writes and reads NaN


def _infinite_snr(manifest):
    manifest["snr_db"] = math.inf


@pytest.mark.parametrize("tamper, message", [
    (_zero_packet_len, "packet_len must be >= 1"),
    (_third_tx_index, "tx_index must be 1 or 2"),
    # the seeds and SNRs used to load, and to be reported as they were
    (_seed_above, r"seed must lie in \[0, 2\*\*32\), got 4294967297"),
    (_negative_seed, r"seed must lie in \[0, 2\*\*32\), got -5"),
    (_nan_snr, "noise_snr_db must be finite or None, got nan"),
    (_infinite_snr, "noise_snr_db must be finite or None, got inf"),
], ids=["packet_len", "tx_index", "seed_above", "negative_seed", "nan_snr",
        "infinite_snr"])
def test_load_names_the_manifest_on_a_field_error(tmp_path, tamper, message):
    out = _saved_corpus(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    tamper(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_corpus(out)


@pytest.mark.parametrize("keys, value, message", [
    (("params", "packet_len"), 1500.0, r"OfdmParams packet_len 1500\.0 is "
                                       r"not of type int"),
    (("packets", 1, "tx_label"), 1.5, r"IqPacket tx_label 1\.5"),
    (("packets", 1, "tx_label"), True, r"IqPacket tx_label True"),
    (("profiles", 0, "tx_index"), 1.0, r"TransmitterProfile tx_index 1\.0"),
    (("profiles", 0, "dc_offset"), "ab", r"TransmitterProfile dc_offset "
                                         r"'ab': "),
    (("profiles", 1, "dc_offset"), 5, r"TransmitterProfile dc_offset 5: "),
    (("packets", 1), 5, r"manifest packets \[.*5.*\] is not of type "
                        r"list\[dict\]"),
    (("profiles",), 5, r"manifest profiles 5 is not of type list"),
], ids=["packet_len", "float_tx_label", "bool_tx_label", "tx_index",
        "str_dc_offset", "int_dc_offset", "packet", "profiles"])
def test_load_rejects_a_value_of_the_wrong_type(tmp_path, keys, value,
                                                message):
    out = _saved_corpus(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    functools.reduce(operator.getitem, keys[:-1], manifest)[keys[-1]] = value
    manifest["profile_hash"] = hashlib.sha256(json.dumps(
        manifest["profiles"], sort_keys=True).encode()).hexdigest()[:16]
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
        load_corpus(out)


@pytest.mark.parametrize("snr_db", ["x", True, [25.0]])
def test_load_rejects_an_snr_that_is_neither_a_number_nor_null(tmp_path,
                                                                snr_db):
    out = _saved_corpus(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["snr_db"] = snr_db
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: Corpus snr_db "
                                         r".* is not of type float \| None"):
        load_corpus(out)


@pytest.mark.parametrize("snr_db", [20, 17.5, None])
def test_load_takes_an_snr_that_is_a_number_or_null(tmp_path, snr_db):
    out = _saved_corpus(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["snr_db"] = snr_db
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert load_corpus(out).snr_db == snr_db


def test_load_rejects_a_repeated_transmitter(tmp_path):
    # two ('Y06v2', 1) transmitters with different carrier offsets, under a
    # profile_hash that matches them
    out = _saved_corpus(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    first, second = default_profiles()[:2]
    second = dataclasses.replace(
        second, tx_index=1,
        carrier_freq_offset=second.carrier_freq_offset + 100.0)
    manifest["profiles"][1]["tx_index"] = 1
    manifest["profiles"][1]["carrier_freq_offset"] = second.carrier_freq_offset
    manifest["profile_hash"] = profiles_hash([first, second])
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: duplicate "
                                         r"transmitter \('Y06v2', 1\)"):
        load_corpus(out)


def test_load_rejects_a_label_outside_the_profiles(tmp_path):
    out = _saved_corpus(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["packets"][3]["tx_label"] = 7
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: packet tx_label 7 "
                                         r"outside 1\.\.2"):
        load_corpus(out)


def test_saved_corpus_is_a_manifest_and_one_capture_file(tmp_path):
    corpus = generate_corpus(default_profiles()[:2], 2, seed=4, params=FAST,
                             noise_snr_db=25.0)
    out = save_corpus(corpus, tmp_path / "corpus")
    assert sorted(f.name for f in out.iterdir()) == \
        ["manifest.json", "samples.c64"]
    # every packet's complex64 bytes, back to back in packet order
    assert (out / "samples.c64").read_bytes() == b"".join(
        p.samples.astype("<c8").tobytes() for p in corpus.packets)
    assert '"file"' not in (out / "manifest.json").read_text()


@pytest.mark.parametrize("samples", [
    lambda x: x[:-1],
    lambda x: x[:10],
    lambda x: x.astype(np.complex128),
    lambda x: x[None, :],
    lambda x: list(x),
], ids=["one_short", "ten_samples", "complex128", "2d", "list"])
def test_corpus_rejects_a_packet_that_is_not_packet_len_complex64_samples(
        samples):
    # a 10-sample packet used to make a Corpus that only save_corpus
    # rejected
    corpus = generate_corpus([quiet_profile()], 2, seed=4, params=FAST)
    first = corpus.packets[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.samples = first.samples[:-1]
    bad = dataclasses.replace(first, samples=samples(first.samples))
    with pytest.raises(ValueError, match="^packet R01v1_Tx1_0000 is not 1500 "
                                         "complex64 samples$"):
        dataclasses.replace(corpus, packets=[bad, corpus.packets[1]])


def test_load_rejects_a_corpus_of_no_packets(tmp_path):
    # used to load as a corpus of 0 packets
    out = _saved_corpus(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["packets"] = []
    (out / "manifest.json").write_text(json.dumps(manifest))
    (out / "samples.c64").write_bytes(b"")
    with pytest.raises(ValueError, match=r"manifest\.json: a corpus holds at "
                                         r"least one packet$"):
        load_corpus(out)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imaginary_inf"])
def test_load_rejects_a_sample_that_is_not_finite(tmp_path, value):
    # used to load without a word, though synthesis refuses such a packet
    out = _saved_corpus(tmp_path)
    samples = np.fromfile(out / "samples.c64", "<c8")
    samples[2 * FAST.packet_len + 700] = value
    samples[3 * FAST.packet_len + 5] = value
    samples.tofile(out / "samples.c64")
    with pytest.raises(ValueError, match=r"manifest\.json: samples\.c64 "
                                         r"packet 2 holds a sample that is "
                                         r"not finite$"):
        load_corpus(out)
