import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfmst.dataprep import (
    ONSET_WINDOW,
    ONSET_WINDOW_GROWTH,
    NoOnset,
    Segment,
    SplitSpec,
    TooShort,
    detect_onset,
    feature_matrix,
    normalize_corpus,
    packets_to_segments,
    segment,
    split,
    stratified_indices,
)
from rfmst.signal_gen import IqPacket, default_profiles, generate_corpus


# ---------------------------------------------------------------------------
# onset


def test_onset_first_crossing():
    f = np.array([0.01, 0.02, 0.06, 0.9]) + 0j
    assert detect_onset(f, tau=0.05) == 3


def test_onset_default_tau_is_005():
    f = np.array([0.04, 0.051]) + 0j
    assert detect_onset(f) == 2


def test_onset_all_zero_raises():
    with pytest.raises(NoOnset):
        detect_onset(np.zeros(100, dtype=complex), tau=0.05)


@pytest.mark.parametrize("tau", [0.0, -0.05, np.nan, np.inf])
def test_onset_rejects_a_threshold_no_sample_can_cross(tau):
    # NoOnset is the per-packet failure an identify loop counts, so a bad
    # threshold must not read as every packet failing
    f = np.array([0.01, 0.9]) + 0j
    for call in (lambda: detect_onset(f, tau),
                 lambda: packets_to_segments(
                     [IqPacket(f, tx_label=1, packet_id=0, name="p")], 1,
                     tau)):
        with pytest.raises(ValueError, match="tau must be finite and > 0") \
                as err:
            call()
        assert not isinstance(err.value, NoOnset)


def test_onset_uses_real_part_magnitude():
    f = np.array([0.9j, -0.2 + 0.0j])
    assert detect_onset(f, tau=0.05) == 2  # imaginary part never counts


def _full_scan_onset(f, tau):
    hits = np.flatnonzero(np.abs(f.real) >= tau)
    if hits.size == 0:
        raise NoOnset("reference: no crossing")
    return int(hits[0]) + 1


# 0-based crossing positions at and next to the scan's window edges
_EDGE = ONSET_WINDOW + ONSET_WINDOW_GROWTH * ONSET_WINDOW
_WINDOW_EDGES = [0, ONSET_WINDOW - 1, ONSET_WINDOW, ONSET_WINDOW + 1,
                 _EDGE - 1, _EDGE, _EDGE + 1]


@settings(max_examples=80, deadline=None)
@given(at=st.one_of(st.none(), st.sampled_from(_WINDOW_EDGES),
                    st.integers(0, 12_000)),
       n_after=st.integers(0, 3_000),
       cross=st.sampled_from([0.05, -0.05, 0.0500001, 0.9, -3.0]),
       nan_frac=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)),
       is_complex=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_onset_matches_full_scan(at, n_after, cross, nan_frac, is_complex,
                                 seed):
    tau = 0.05
    rng = np.random.default_rng(seed)
    n = (at or 0) + 1 + n_after
    f = rng.uniform(-0.999 * tau, 0.999 * tau, size=n)
    if at is not None:
        f[at] = cross
        f[at + 1:] = rng.uniform(-1.0, 1.0, size=n_after)
    if nan_frac is not None:
        f[int(nan_frac * (n if at is None else at))] = np.nan
    if is_complex:
        f = f + 1j * rng.uniform(-1.0, 1.0, size=n)
    try:
        expected = _full_scan_onset(f, tau)
    except NoOnset:
        with pytest.raises(NoOnset):
            detect_onset(f, tau)
        return
    assert detect_onset(f, tau) == expected


def test_onset_and_segment_reject_packets_that_are_not_1d():
    f = np.zeros(1000, dtype=complex)
    f[400:] = 0.5
    with pytest.raises(ValueError, match="1-D"):
        detect_onset(f[None, :])          # a full scan finds row 0: onset 1
    with pytest.raises(ValueError, match="1-D"):
        segment(f[:, None], 401, 32)      # would cut a (32, 1) segment


# ---------------------------------------------------------------------------
# segmentation


def test_segment_positions_match_onset():
    f = np.arange(1, 10_001, dtype=float) + 0j  # f_i = i (1-based values)
    seg = segment(f, onset_index=451, n=2048)
    assert seg.g[0] == 451
    assert seg.g[-1] == 2498
    assert seg.g.shape == (2048,)


def test_segment_length_32():
    f = np.random.default_rng(0).normal(size=100) + 0j
    assert segment(f, 5, 32).g.shape == (32,)


def test_segment_too_short():
    f = np.zeros(10_000, dtype=complex)
    with pytest.raises(TooShort):
        segment(f, 9_990, 32)


@pytest.mark.parametrize("onset, n, message", [
    (0, 32, "1-based"),
    (5, 0, "n must be >= 1"),
    (5, -3, "n must be >= 1"),   # used to cut an empty segment
])
def test_segment_rejects_an_onset_or_length_out_of_range(onset, n, message):
    f = np.zeros(100, dtype=complex)
    with pytest.raises(ValueError, match=message) as err:
        segment(f, onset, n)
    assert not isinstance(err.value, TooShort)


def test_segment_roundtrip_recovers_packet_samples():
    rng = np.random.default_rng(1)
    f = rng.normal(size=500) + 1j * rng.normal(size=500)
    seg = segment(f, 17, 64)
    np.testing.assert_array_equal(seg.g, f[16:80])


def test_packets_to_segments_is_onset_then_segment_per_packet():
    corpus = generate_corpus(default_profiles()[:3], 2, seed=5)
    segs = packets_to_segments(corpus.packets, 64, tau=0.04)
    assert len(segs) == len(corpus.packets)
    for seg, p in zip(segs, corpus.packets):
        onset = detect_onset(p.samples, 0.04)
        assert seg.onset_index == onset
        assert seg.tx_label == p.tx_label
        np.testing.assert_array_equal(seg.g,
                                      segment(p.samples, onset, 64).g)
    silent = IqPacket(np.zeros(1000, dtype=complex), tx_label=1,
                      packet_id=0, name="silent")
    with pytest.raises(NoOnset):
        packets_to_segments([corpus.packets[0], silent], 64)


# ---------------------------------------------------------------------------
# vectorization


def _seg(values, label=1):
    g = np.asarray(values, dtype=complex)
    return Segment(g=g, onset_index=1, tx_label=label)


def _vec(values, mode):
    """Feature row of one segment."""
    x, _ = feature_matrix([_seg(values)], mode)
    return x[0]


def test_vectorize_concat_dim_is_2n():
    assert _vec(np.ones(32), "concat_reim").size == 64


def test_vectorize_concat_ordering():
    v = _vec([1 + 2j], "concat_reim")
    np.testing.assert_array_equal(v, [1.0, 2.0])
    v2 = _vec([1 + 2j, 3 - 4j], "concat_reim")
    np.testing.assert_array_equal(v2, [1.0, 3.0, 2.0, -4.0])


def test_vectorize_magnitude():
    v = _vec([3 + 4j], "magnitude")
    np.testing.assert_array_equal(v, [5.0])


def test_feature_matrix_stacks_rows_and_labels():
    segs = [_seg([1 + 2j, 3 + 4j], label=1), _seg([5 + 6j, 7 + 8j], label=2)]
    x, y = feature_matrix(segs, "concat_reim")
    assert x.shape == (2, 4)
    np.testing.assert_array_equal(y, [1, 2])


@pytest.mark.parametrize("mode", ["concat_reim", "magnitude"])
def test_feature_matrix_rows_equal_the_stacked_reference(mode):
    rng = np.random.default_rng(7)
    g = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    x, _ = feature_matrix([_seg(row) for row in g], mode)
    ref = np.concatenate([g.real, g.imag], axis=1) \
        if mode == "concat_reim" else np.abs(g)
    assert x.dtype == np.float64
    np.testing.assert_array_equal(x, ref)
    with pytest.raises(ValueError):
        feature_matrix([_seg(g[0]), _seg(g[1, :8])], mode)
    with pytest.raises(ValueError):
        feature_matrix([], mode)


@pytest.mark.parametrize("tau, expected", [(0.05, 1201), (0.7, 1301)])
def test_complex64_packet_matches_its_complex128_upcast(tau, expected):
    # corpus packets are complex64.  The onset, the segment and both feature
    # modes must give what the exact complex128 upcast gives; tau = 0.7
    # rounds down in float32, so a float32 comparison would put the onset
    # at a sample that lies below tau.
    rng = np.random.default_rng(11)
    f = (rng.uniform(-0.04, 0.04, 3000)
         + 1j * rng.uniform(-1.0, 1.0, 3000)).astype(np.complex64)
    f[1500:] += rng.normal(size=1500) + 1j * rng.normal(size=1500)
    f[1200] = np.float32(tau)            # just below tau when tau = 0.7
    f[1300] = np.nextafter(np.float32(tau), np.float32(1))
    f[1400] = 1.5
    wide = f.astype(np.complex128)
    onset = detect_onset(f, tau)
    assert onset == detect_onset(wide, tau) == _full_scan_onset(wide, tau)
    assert onset == expected
    segs = [segment(f, onset, 1024, tx_label=3)]
    wide_segs = [segment(wide, onset, 1024, tx_label=3)]
    assert segs[0].g.dtype == np.complex64
    for mode in ("concat_reim", "magnitude"):
        x, y = feature_matrix(segs, mode)
        x_wide, y_wide = feature_matrix(wide_segs, mode)
        assert x.dtype == np.float64
        assert x.tobytes() == x_wide.tobytes()
        np.testing.assert_array_equal(y, y_wide)


def test_vectorize_injective_for_fixed_mode():
    a = _vec([1 + 2j, 0 + 1j], "concat_reim")
    b = _vec([1 + 1j, 2 + 0j], "concat_reim")
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_scales_by_train_max():
    x = np.array([[1.0, -2.0], [0.5, 1.5]])
    xn, stats = normalize_corpus(x)
    assert stats.max_abs == 2.0
    assert xn[0, 0] == 0.5
    assert np.abs(xn).max() <= 1.0


def test_normalize_frozen_stats_reused_on_test():
    _, stats = normalize_corpus(np.array([[2.0]]))
    xt, _ = normalize_corpus(np.array([[4.0]]), stats)
    assert xt[0, 0] == 2.0  # test entries may exceed 1


def test_normalize_deterministic():
    x = np.random.default_rng(2).normal(size=(10, 4))
    _, s1 = normalize_corpus(x)
    _, s2 = normalize_corpus(x)
    assert s1 == s2


def test_normalize_zero_corpus_raises():
    with pytest.raises(ValueError, match="identically zero"):
        normalize_corpus(np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalize_rejects_non_finite_training_entry(bad):
    x = np.ones((3, 3))
    x[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        normalize_corpus(x)


# ---------------------------------------------------------------------------
# splits


def _balanced_labels(n_classes=12, per_class=1000):
    return np.repeat(np.arange(1, n_classes + 1), per_class)


def test_split_90_10_counts():
    y = _balanced_labels()
    x = np.zeros((len(y), 1))
    (xtr, ytr), (xte, yte) = split(x, y, SplitSpec(0.9, seed=1))
    assert len(ytr) == 10_800
    assert len(yte) == 1_200


def test_split_10_90_counts():
    y = _balanced_labels()
    x = np.zeros((len(y), 1))
    (_, ytr), (_, yte) = split(x, y, SplitSpec(0.1, seed=1))
    assert len(ytr) == 1_200
    assert len(yte) == 10_800


def test_split_1_99_counts():
    y = _balanced_labels()
    x = np.zeros((len(y), 1))
    (_, ytr), (_, yte) = split(x, y, SplitSpec(0.01, seed=1))
    assert len(ytr) == 120


def test_split_rejects_undeclared_fraction():
    with pytest.raises(ValueError):
        SplitSpec(0.33, seed=0)


def test_split_disjoint_union_and_stratified():
    y = _balanced_labels(4, 50)
    x = np.arange(len(y), dtype=float)[:, None]
    (xtr, ytr), (xte, yte) = split(x, y, SplitSpec(0.1, seed=3))
    all_vals = np.sort(np.concatenate([xtr[:, 0], xte[:, 0]]))
    np.testing.assert_array_equal(all_vals, np.arange(len(y)))
    for lab in range(1, 5):
        assert (ytr == lab).sum() == 5  # round(0.1 * 50)


def test_split_rejects_empty_training_class():
    # 1% of 40 packets per class rounds to 0 training rows
    y = _balanced_labels(12, 40)
    x = np.zeros((len(y), 1))
    with pytest.raises(ValueError):
        split(x, y, SplitSpec(0.01, seed=1))


@pytest.mark.parametrize("frac", [-0.5, 0.0, 1.0, 1.5])
def test_stratified_indices_rejects_fraction_outside_open_unit_interval(frac):
    with pytest.raises(ValueError, match="train_fraction"):
        stratified_indices(_balanced_labels(3, 40), frac, seed=1)


def test_split_deterministic_under_seed():
    y = _balanced_labels(3, 40)
    a = stratified_indices(y, 0.5, seed=7)
    b = stratified_indices(y, 0.5, seed=7)
    np.testing.assert_array_equal(a[0], b[0])
    c = stratified_indices(y, 0.5, seed=8)
    assert not np.array_equal(a[0], c[0])


@settings(max_examples=30, deadline=None)
@given(per_class=st.integers(4, 60), seed=st.integers(0, 2**31 - 1),
       frac=st.sampled_from([0.9, 0.5, 0.1]))
def test_split_property_counts_within_one(per_class, seed, frac):
    y = _balanced_labels(5, per_class)
    if round(frac * per_class) == 0:
        with pytest.raises(ValueError):
            stratified_indices(y, frac, seed)
        return
    tr, te = stratified_indices(y, frac, seed)
    assert len(tr) + len(te) == len(y)
    assert len(np.intersect1d(tr, te)) == 0
    for lab in range(1, 6):
        got = (y[tr] == lab).sum()
        assert abs(got - frac * per_class) <= 1
