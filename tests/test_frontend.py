import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from rfmst.ann import count_hidden_parameters
from rfmst.frontend import (
    MAX_PATCH_SOURCES,
    N_PATCHES,
    OUTPUT_DIM,
    PATCH,
    SOM_EPOCHS,
    SOM_GRID,
    SOM_LR,
    SOM_RADIUS,
    STRIDE,
    FrontEnd,
    pool_windows,
    sample_patches,
    train_frontend,
    train_som,
)

N_FILTERS = SOM_GRID[0] * SOM_GRID[1]


def two_means_oracle(data, iters=50):
    """Plain Lloyd iterations with deterministic farthest-point init."""
    c0 = data[0]
    d = ((data - c0) ** 2).sum(axis=1)
    c1 = data[np.argmax(d)]
    centers = np.stack([c0, c1])
    for _ in range(iters):
        d0 = ((data - centers[0]) ** 2).sum(axis=1)
        d1 = ((data - centers[1]) ** 2).sum(axis=1)
        assign = (d1 < d0).astype(int)
        for k in (0, 1):
            if np.any(assign == k):
                centers[k] = data[assign == k].mean(axis=0)
    return centers


# ---------------------------------------------------------------------------
# SOM


def test_som_single_patch_single_node_converges_to_it():
    # one patch, repeated: its best-matching node converges onto it
    patch = np.full((N_PATCHES, 16), 0.7)
    nodes = train_som(patch, seed=1)
    assert nodes.shape == (N_FILTERS, 16)
    assert np.linalg.norm(nodes - patch[0], axis=1).min() < 1e-6


def test_som_two_clusters_match_kmeans_oracle():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 0.05, size=(200, 8))
    b = rng.normal(1.0, 0.05, size=(200, 8))
    data = np.vstack([a, b])
    centers = two_means_oracle(data)
    radius = 3 * 0.05 * np.sqrt(8)
    nodes = train_som(data, seed=3)
    # every node that wins a sample sits within cluster radius of a
    # centroid, and both centroids have such nodes
    winners = np.unique(
        ((data[:, None, :] - nodes[None]) ** 2).sum(axis=2).argmin(axis=1))
    d = np.linalg.norm(nodes[winners, None, :] - centers[None, :, :], axis=2)
    best = d.argmin(axis=1)
    assert set(best) == {0, 1}
    assert d[np.arange(len(winners)), best].max() < radius


def test_som_deterministic_under_seed():
    rng = np.random.default_rng(4)
    data = rng.uniform(size=(100, 12))
    np.testing.assert_array_equal(train_som(data, seed=9),
                                  train_som(data, seed=9))


def _som_reference(patches, seed):
    """Online SOM written step by step from its definition."""
    rows, cols = SOM_GRID
    init = np.random.default_rng(np.random.SeedSequence([0x50F, seed]))
    nodes = init.uniform(0.0, 1.0, size=(rows * cols, patches.shape[1]))
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    coords = np.stack([rr.reshape(-1), cc.reshape(-1)], axis=1).astype(float)
    (lr0, lr1), (r0, r1) = SOM_LR, SOM_RADIUS
    rng = np.random.default_rng(np.random.SeedSequence([0x50F + 1, seed]))
    total_steps = SOM_EPOCHS * patches.shape[0]
    step = 0
    for _ in range(SOM_EPOCHS):
        for idx in rng.permutation(patches.shape[0]):
            x = patches[idx]
            frac = step / max(total_steps - 1, 1)
            lr = lr0 * (lr1 / lr0) ** frac
            radius = r0 * (r1 / r0) ** frac
            best = int(np.argmin(((nodes - x) ** 2).sum(axis=1)))
            dist2 = ((coords - coords[best]) ** 2).sum(axis=1)
            nodes += lr * np.exp(-dist2 / (2 * radius**2))[:, None] * (x - nodes)
            step += 1
    return nodes


def test_som_equals_step_by_step_reference():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(150, 10))
    np.testing.assert_array_equal(train_som(data, seed=2),
                                  _som_reference(data, 2))


def test_som_rejects_empty_or_mismatched_patches():
    with pytest.raises(ValueError, match="sample set"):
        train_som(np.empty((0, 4)))
    with pytest.raises(ValueError, match="need at least 16 patches, got 2"):
        train_som(np.ones((2, 4)))  # fewer patches than nodes


# ---------------------------------------------------------------------------
# pool arithmetic


def _pooled_shape(shape, pools):
    """Pooled map of one filter: valid convolution positions at STRIDE,
    floor-divided by both pools."""
    (p, q), (sr, sc) = PATCH, STRIDE
    (h1, w1), (h2, w2) = pools
    return ((shape[0] - p) // sr + 1) // h1 // h2, \
        ((shape[1] - q) // sc + 1) // w1 // w2


def test_default_config_reaches_256_on_full_scalogram():
    assert PATCH == (8, 8) and STRIDE == (4, 4)
    pools = pool_windows((128, 2048))
    assert N_FILTERS * np.prod(_pooled_shape((128, 2048), pools)) == 256
    filters = np.random.default_rng(0).normal(size=(N_FILTERS, 64))
    assert _unscaled(filters, pools, 128)(np.zeros((128, 2048))).shape == (256,)


def test_default_config_adapts_to_1024_translations():
    pools = pool_windows((128, 1024))
    h, w = _pooled_shape((128, 1024), pools)
    assert N_FILTERS * h * w == 256


def test_config_validation_rejects_wrong_arithmetic():
    filters = np.random.default_rng(0).normal(size=(N_FILTERS, 64))
    with pytest.raises(ValueError,
                       match=r"pipeline on \(128, 2048\) yields \d+ features"):
        _unscaled(filters, ((2, 2), (2, 2)), 128)(np.zeros((128, 2048)))


@settings(max_examples=20, deadline=None)
@given(rows=st.sampled_from([64, 96, 128]), cols=st.sampled_from([512, 1024, 2048]))
def test_dimensional_contract_any_valid_config(rows, cols):
    h, w = _pooled_shape((rows, cols), pool_windows((rows, cols)))
    assert N_FILTERS * h * w == OUTPUT_DIM


# ---------------------------------------------------------------------------
# feature extraction


def _unscaled(filters, pools, rows):
    """A FrontEnd that leaves every pixel as it is: x - 0.0 and x / 1.0
    are exact."""
    return FrontEnd(filters, pools, np.zeros(rows), np.ones(rows))


def _standardized(fe, s):
    """Whole-scalogram oracle of the FrontEnd's per-row standardization."""
    return (s - fe.row_mean[:, None]) / fe.row_scale[:, None]


def _trained_frontend(shape=(40, 128), seed=0):
    rng = np.random.default_rng(seed)
    scalos = [rng.uniform(size=shape) for _ in range(4)]
    return train_frontend(scalos, seed=seed)


def test_zero_scalogram_gives_zero_features():
    # bias-free convolution + tanh + max pooling carries zero through
    fe = _trained_frontend()
    out = _unscaled(fe.filters, fe.pools, 40)(np.zeros((40, 128)))
    np.testing.assert_array_equal(out, np.zeros(OUTPUT_DIM))


def test_output_length_is_256_on_full_size_input():
    rng = np.random.default_rng(5)
    scalos = [rng.uniform(size=(128, 2048)) for _ in range(2)]
    fe = train_frontend(scalos, seed=1)
    out = fe(rng.uniform(size=(128, 2048)))
    assert out.shape == (256,)
    assert np.all(np.abs(out) <= 1.0)  # tanh-squashed


def test_brightening_pixel_never_decreases_covering_feature():
    # with nonnegative filters, raising a pixel can only raise conv
    # responses, and max pooling is monotone, so no feature decreases
    fe = _trained_frontend(seed=7)
    rng = np.random.default_rng(8)
    s = rng.uniform(0.1, 0.5, size=(40, 128))
    extract = _unscaled(np.abs(fe.filters), fe.pools, 40)
    base = extract(s)
    s2 = s.copy()
    s2[10, 20] = 10.0  # large enough to win its pool windows
    boosted = extract(s2)
    changed = np.nonzero(boosted != base)[0]
    assert changed.size > 0
    assert np.all(boosted[changed] >= base[changed])


def test_translation_tolerance_within_pool_window():
    shape = (40, 128)
    fe = _trained_frontend(shape=shape, seed=9)
    col_a, col_b = 100, 101  # shift smaller than one pool window
    s = np.zeros(shape)
    s[16, col_a] = 1.0
    a = fe(s)
    s_shift = np.zeros(shape)
    s_shift[16, col_b] = 1.0
    b = fe(s_shift)
    # features whose receptive field sees neither impulse column must not move
    q, sc = PATCH[1], STRIDE[1]
    conv_w = (shape[1] - q) // sc + 1
    span = fe.pools[0][1] * fe.pools[1][1]
    pooled = a.reshape(N_FILTERS, *_pooled_shape(shape, fe.pools))
    untouched = []
    for j in range(pooled.shape[2]):
        cols = range(j * span, min((j + 1) * span, conv_w))
        sees = any(c * sc <= col_b and col_a <= c * sc + q - 1 for c in cols)
        if not sees:
            untouched.append(j)
    assert untouched, "test setup must leave some cells outside the impulse"
    mask = np.zeros_like(pooled, dtype=bool)
    mask[:, :, untouched] = True
    np.testing.assert_array_equal(a[mask.reshape(-1)], b[mask.reshape(-1)])


def _reference_features(scalogram, filters, pools):
    """Every valid convolution position, tanh, then two floor-dividing
    max pools, flattened filter by filter."""

    def max_pool(maps, window):
        wh, ww = window
        k, h, w = maps.shape
        h2, w2 = h // wh, w // ww
        trimmed = maps[:, : h2 * wh, : w2 * ww]
        return trimmed.reshape(k, h2, wh, w2, ww).max(axis=(2, 4))

    (p, q), (sr, sc) = PATCH, STRIDE
    windows = sliding_window_view(scalogram, (p, q))[::sr, ::sc]
    h, w = windows.shape[:2]
    conv = (windows.reshape(h * w, p * q) @ filters.T) / (p * q)
    maps = np.tanh(conv.T.reshape(len(filters), h, w))
    return max_pool(max_pool(maps, pools[0]), pools[1]).reshape(-1)


@pytest.mark.parametrize("shape, output_dim, som_filters", [
    ((40, 128), OUTPUT_DIM, N_FILTERS),    # conv 9 x 31, pools keep 8 x 28
    ((40, 200), OUTPUT_DIM, N_FILTERS),    # conv 9 x 49, pools keep 9 x 48
    ((128, 512), OUTPUT_DIM, N_FILTERS),   # conv 31 x 127, pools keep 30 x 120
    ((128, 2048), OUTPUT_DIM, N_FILTERS),  # conv 31 x 511, pools keep 31 x 496
])
def test_extraction_equals_tanh_first_two_pool_reference(shape, output_dim,
                                                         som_filters):
    pools = pool_windows(shape)
    rng = np.random.default_rng(shape[1])
    filters = rng.normal(size=(som_filters, 64))
    for _ in range(3):
        s = rng.normal(size=shape)
        expected = _reference_features(s, filters, pools)
        assert expected.size == output_dim
        # the phase GEMMs sum each response in another order
        np.testing.assert_allclose(_unscaled(filters, pools, shape[0])(s),
                                   expected, rtol=0, atol=1e-14)


_SWEEP_SHAPES = [(40, w) for w in range(60, 301)] \
    + [(128, w) for w in (511, 512, 513, 2047, 2048)]


def test_every_poolable_width_reads_only_whole_windows():
    # STRIDE divides PATCH, so the columns the phases read never run past
    # the scalogram and no filter tap is padding: on every shape that
    # pools to OUTPUT_DIM, the phase GEMMs match the im2col oracle
    rng = np.random.default_rng(23)
    filters = rng.normal(size=(N_FILTERS, 64))
    checked = 0
    for shape in _SWEEP_SHAPES:
        try:
            pools = pool_windows(shape)
        except ValueError:
            continue
        s = rng.normal(size=shape)
        out = _unscaled(filters, pools, shape[0])(s)
        assert out.shape == (OUTPUT_DIM,)
        np.testing.assert_allclose(out, _reference_features(s, filters, pools),
                                   rtol=0, atol=1e-14)
        checked += 1
    assert checked == 242  # 237 widths at 40 rows and all 5 at 128


def _brute_force_pools(shape):
    """pool_windows by trying every window pair on both axes: the pair of
    axes covering the most convolution pixels, ties broken by each axis's
    (covered, -w1 - w2, w1, w2); None when no pair reaches OUTPUT_DIM."""
    conv = [(n - p) // stride + 1
            for n, p, stride in zip(shape, PATCH, STRIDE)]
    best_per_out = []
    for extent in conv:
        best = {}
        for w1 in range(1, extent + 1):
            for w2 in range(1, extent // w1 + 1):
                out = extent // w1 // w2
                cand = (w1 * w2 * out, -w1 - w2, w1, w2)
                best[out] = max(best.get(out, cand), cand)
        best_per_out.append(best)
    per_map = OUTPUT_DIM // N_FILTERS
    cands = [(rows[0] * cols[0], rows, cols)
             for h_out, rows in best_per_out[0].items()
             for w_out, cols in best_per_out[1].items()
             if h_out * w_out == per_map]
    if not cands:
        return None
    _, (_, _, h1, h2), (_, _, w1, w2) = max(cands)
    return (h1, w1), (h2, w2)


def test_pool_windows_equal_a_search_over_every_window_pair():
    raised = 0
    for shape in _SWEEP_SHAPES:
        expected = _brute_force_pools(shape)
        if expected is None:
            raised += 1
            with pytest.raises(ValueError, match="no two-stage pooling"):
                pool_windows(shape)
        else:
            assert pool_windows(shape) == expected, shape
    assert raised == 4


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_pixel_raises(value):
    # tanh would squash an infinite response to a plausible 1.0
    fe = _trained_frontend(seed=17)
    s = np.random.default_rng(18).uniform(size=(40, 128))
    s[5, 9] = value
    with pytest.raises(ValueError, match="NaN or infinite"):
        fe(s)
    with pytest.raises(ValueError, match="NaN or infinite"):
        _unscaled(fe.filters, fe.pools, 40)(s)


def test_pixel_statistics_must_match_the_scalogram_rows():
    fe = _trained_frontend(seed=20)
    with pytest.raises(ValueError,
                       match="pixel statistics for 40 scales, scalogram has 48"):
        fe(np.zeros((48, 128)))


def test_call_equals_extraction_on_the_standardized_scalogram():
    # standardizing only the pixels read does the same arithmetic
    fe = _trained_frontend(shape=(128, 512), seed=21)
    s = np.random.default_rng(22).gamma(2.0, size=(128, 512))
    assert fe(s).tobytes() == \
        _unscaled(fe.filters, fe.pools, 128)(_standardized(fe, s)).tobytes()


def test_extraction_is_pure_and_deterministic():
    fe = _trained_frontend(seed=10)
    rng = np.random.default_rng(11)
    s = rng.uniform(size=(40, 128))
    np.testing.assert_array_equal(fe(s), fe(s))


def test_patch_sampler_is_seeded():
    rng = np.random.default_rng(12)
    scalos = [rng.uniform(size=(16, 16)) for _ in range(3)]
    mean, scale = np.zeros(16), np.ones(16)
    a = sample_patches(scalos, 10, mean, scale, seed=1)
    b = sample_patches(scalos, 10, mean, scale, seed=1)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (10, 64)


def test_patch_corners_follow_per_patch_scalar_draws():
    # oracle: one scalar draw for each patch's row, then one for its column
    rng = np.random.default_rng(15)
    shapes = [(16, 16), (8, 40), (30, 9), (12, 12)]
    scalos = [rng.uniform(size=shape) for shape in shapes]
    p, q = PATCH
    mean, scale = rng.uniform(size=30), rng.uniform(1, 2, size=30)
    seed = 16
    draws = np.random.default_rng(np.random.SeedSequence([0x5A7C4, seed]))
    which = draws.integers(0, len(scalos), size=500)
    expected = np.empty((500, p * q))
    for i, s_idx in enumerate(which):
        s = scalos[s_idx]
        r = draws.integers(0, s.shape[0] - p + 1)
        c = draws.integers(0, s.shape[1] - q + 1)
        expected[i] = ((s[r:r + p, c:c + q] - mean[r:r + p, None])
                       / scale[r:r + p, None]).reshape(-1)
    got = sample_patches(scalos, 500, mean, scale, seed=seed)
    assert got.tobytes() == expected.tobytes()


def test_patches_standardized_alone_match_whole_scalogram_oracle():
    # oracle: standardize every source scalogram whole, then sample; more
    # scalograms than MAX_PATCH_SOURCES, so only a subset are sources
    rng = np.random.default_rng(13)
    n = MAX_PATCH_SOURCES + 4
    scalos = [rng.gamma(2.0, size=(40, 128)) * np.geomspace(1, 50, 40)[:, None]
              for _ in range(n)]
    seed = 14
    fe = train_frontend(scalos, seed=seed)
    sources = np.random.default_rng(
        np.random.SeedSequence([0x5A7C5, seed])).choice(
            n, MAX_PATCH_SOURCES, replace=False)
    whole = [_standardized(fe, scalos[i]) for i in sources]
    expected = sample_patches(whole, N_PATCHES, np.zeros(40), np.ones(40),
                              seed=seed)
    got = sample_patches([scalos[i] for i in sources], N_PATCHES, fe.row_mean,
                         fe.row_scale, seed=seed)
    assert got.tobytes() == expected.tobytes()
    assert fe.filters.tobytes() == train_som(expected, seed=seed).tobytes()


# ---------------------------------------------------------------------------
# parameter-count claim for the compressed representation


def test_staged_parameter_totals_for_256_vs_2048_inputs():
    # stage shapes: 60 first-stage nets on the front-end output or the raw
    # time-domain vector, plus the standard later stages
    def total(input_dim):
        return (60 * count_hidden_parameters((input_dim, 10, 10, 1))
                + 30 * count_hidden_parameters((60, 15, 15, 1))
                + 30 * count_hidden_parameters((30, 15, 15, 1)))

    compressed = total(256)
    raw = total(2048)
    assert abs(compressed - 213_000) / 213_000 < 0.05
    assert abs(raw - 1_300_000) / 1_300_000 < 0.05
