import dataclasses
import hashlib
import json
import os
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


@pytest.mark.parametrize("snr_db", [np.nan, np.inf, -np.inf])
def test_non_finite_snr_raises(snr_db):
    # None is the one spelling of "no noise"
    with pytest.raises(ValueError, match="noise_snr_db must be finite or None"):
        generate_corpus([quiet_profile()], 1, seed=3, params=FAST,
                        noise_snr_db=snr_db)


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


@pytest.mark.parametrize("tamper, message", [
    (_zero_packet_len, "packet_len must be >= 1"),
    (_third_tx_index, "tx_index must be 1 or 2"),
], ids=["packet_len", "tx_index"])
def test_load_names_the_manifest_on_a_field_error(tmp_path, tamper, message):
    out = _saved_corpus(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    tamper(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: " + message):
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


def test_save_rejects_a_packet_of_another_length(tmp_path):
    corpus = generate_corpus([quiet_profile()], 2, seed=4, params=FAST)
    corpus.packets[0].samples = corpus.packets[0].samples[:-1]
    with pytest.raises(ValueError, match="packet_len=1500 samples"):
        save_corpus(corpus, tmp_path / "corpus")
