import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from rfmst.ann import count_hidden_parameters
from rfmst.frontend import (
    EmptyPatchSet,
    FrontEnd,
    FrontEndConfig,
    ShapeMismatch,
    SomGrid,
    default_frontend_config,
    extract_features,
    init_som,
    sample_patches,
    train_frontend,
    train_som,
)


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
    patch = np.full((1, 16), 0.7)
    grid = init_som(16, grid_shape=(1, 1), seed=1)
    trained = train_som(patch, grid, epochs=150)
    assert np.linalg.norm(trained.nodes[0] - patch[0]) < 1e-6
    assert trained.trained


def test_som_two_clusters_match_kmeans_oracle():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 0.05, size=(200, 8))
    b = rng.normal(1.0, 0.05, size=(200, 8))
    data = np.vstack([a, b])
    centers = two_means_oracle(data)
    radius = 3 * 0.05 * np.sqrt(8)
    grid = init_som(8, grid_shape=(1, 2), seed=3,
                    radius_initial=0.8, radius_final=0.05)
    trained = train_som(data, grid, epochs=8)
    # each node sits within cluster radius of a distinct centroid
    d = np.linalg.norm(trained.nodes[:, None, :] - centers[None, :, :], axis=2)
    best = d.argmin(axis=1)
    assert set(best) == {0, 1}
    assert d[np.arange(2), best].max() < radius


def test_som_deterministic_under_seed():
    rng = np.random.default_rng(4)
    data = rng.uniform(size=(100, 12))
    t1 = train_som(data, init_som(12, (2, 2), seed=9), epochs=3)
    t2 = train_som(data, init_som(12, (2, 2), seed=9), epochs=3)
    np.testing.assert_array_equal(t1.nodes, t2.nodes)


def _som_reference(patches, grid, epochs):
    """Online SOM written step by step from its definition."""
    nodes = grid.nodes.copy()
    coords = grid.node_coords()
    rng = np.random.default_rng(np.random.SeedSequence([0x50F + 1, grid.seed]))
    total_steps = epochs * patches.shape[0]
    step = 0
    for _ in range(epochs):
        for idx in rng.permutation(patches.shape[0]):
            x = patches[idx]
            frac = step / max(total_steps - 1, 1)
            lr = grid.lr_initial * (grid.lr_final / grid.lr_initial) ** frac
            radius = grid.radius_initial \
                * (grid.radius_final / grid.radius_initial) ** frac
            best = int(np.argmin(((nodes - x) ** 2).sum(axis=1)))
            dist2 = ((coords - coords[best]) ** 2).sum(axis=1)
            nodes += lr * np.exp(-dist2 / (2 * radius**2))[:, None] * (x - nodes)
            step += 1
    return nodes


def test_som_equals_step_by_step_reference():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(150, 10))
    grid = init_som(10, (3, 4), seed=2)
    np.testing.assert_array_equal(train_som(data, grid, epochs=2).nodes,
                                  _som_reference(data, grid, 2))


def test_som_rejects_empty_or_mismatched_patches():
    grid = init_som(4, (2, 2), seed=0)
    with pytest.raises(EmptyPatchSet):
        train_som(np.empty((0, 4)), grid)
    with pytest.raises(EmptyPatchSet):
        train_som(np.ones((2, 4)), grid)  # fewer patches than nodes
    with pytest.raises(ShapeMismatch):
        train_som(np.ones((10, 5)), grid)


# ---------------------------------------------------------------------------
# config arithmetic


def test_default_config_reaches_256_on_full_scalogram():
    cfg = default_frontend_config((128, 2048))
    assert cfg.patch == (8, 8) and cfg.stride == (4, 4)
    assert cfg.som_filters * np.prod(cfg.pooled_shape((128, 2048))) == 256
    cfg.validate((128, 2048))


def test_default_config_adapts_to_1024_translations():
    cfg = default_frontend_config((128, 1024))
    cfg.validate((128, 1024))
    h, w = cfg.pooled_shape((128, 1024))
    assert cfg.som_filters * h * w == 256


def test_config_validation_rejects_wrong_arithmetic():
    cfg = FrontEndConfig(pool1=(2, 2), pool2=(2, 2))
    with pytest.raises(ShapeMismatch):
        cfg.validate((128, 2048))


@settings(max_examples=20, deadline=None)
@given(rows=st.sampled_from([64, 96, 128]), cols=st.sampled_from([512, 1024, 2048]))
def test_dimensional_contract_any_valid_config(rows, cols):
    cfg = default_frontend_config((rows, cols))
    h, w = cfg.pooled_shape((rows, cols))
    assert cfg.som_filters * h * w == cfg.output_dim


# ---------------------------------------------------------------------------
# feature extraction


def _trained_frontend(shape=(32, 64), seed=0):
    rng = np.random.default_rng(seed)
    scalos = [rng.uniform(size=shape) for _ in range(4)]
    cfg = default_frontend_config(shape, output_dim=16, som_filters=4)
    return train_frontend(scalos, cfg, seed=seed, n_patches=200, epochs=2)


def test_zero_scalogram_gives_zero_features():
    # bias-free convolution + tanh + max pooling carries zero through
    fe = _trained_frontend()
    out = extract_features(np.zeros((32, 64)), fe.som, fe.cfg)
    np.testing.assert_array_equal(out, np.zeros(16))


def test_output_length_is_256_on_full_size_input():
    rng = np.random.default_rng(5)
    scalos = [rng.uniform(size=(128, 2048)) for _ in range(2)]
    fe = train_frontend(scalos, seed=1, n_patches=300, epochs=1)
    out = fe(rng.uniform(size=(128, 2048)))
    assert out.shape == (256,)
    assert np.all(np.abs(out) <= 1.0)  # tanh-squashed


def test_untrained_som_rejected():
    som = init_som(64, (4, 4), seed=0)
    with pytest.raises(ValueError):
        extract_features(np.zeros((128, 2048)), som, FrontEndConfig())


def test_brightening_pixel_never_decreases_covering_feature():
    # with nonnegative filters, raising a pixel can only raise conv
    # responses, and max pooling is monotone, so no feature decreases
    fe = _trained_frontend(seed=7)
    som = SomGrid(nodes=np.abs(fe.som.nodes), grid_shape=fe.som.grid_shape,
                  trained=True)
    rng = np.random.default_rng(8)
    s = rng.uniform(0.1, 0.5, size=(32, 64))
    base = extract_features(s, som, fe.cfg)
    s2 = s.copy()
    s2[10, 20] = 10.0  # large enough to win its pool windows
    boosted = extract_features(s2, som, fe.cfg)
    changed = np.nonzero(boosted != base)[0]
    assert changed.size > 0
    assert np.all(boosted[changed] >= base[changed])


def test_translation_tolerance_within_pool_window():
    shape = (32, 128)
    fe = _trained_frontend(shape=shape, seed=9)
    cfg = fe.cfg
    col_a, col_b = 100, 101  # shift smaller than one pool window
    s = np.zeros(shape)
    s[16, col_a] = 1.0
    a = fe(s)
    s_shift = np.zeros(shape)
    s_shift[16, col_b] = 1.0
    b = fe(s_shift)
    # features whose receptive field sees neither impulse column must not move
    q, sc = cfg.patch[1], cfg.stride[1]
    conv_w = cfg.conv_shape(shape)[1]
    span = cfg.pool1[1] * cfg.pool2[1]
    pooled = a.reshape(cfg.som_filters, *cfg.pooled_shape(shape))
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


def _reference_features(scalogram, som, cfg):
    """Every valid convolution position, tanh, then two floor-dividing
    max pools, flattened filter by filter."""

    def max_pool(maps, window):
        wh, ww = window
        k, h, w = maps.shape
        h2, w2 = h // wh, w // ww
        trimmed = maps[:, : h2 * wh, : w2 * ww]
        return trimmed.reshape(k, h2, wh, w2, ww).max(axis=(2, 4))

    p, q = cfg.patch
    sr, sc = cfg.stride
    windows = sliding_window_view(scalogram, (p, q))[::sr, ::sc]
    h, w = windows.shape[:2]
    conv = (windows.reshape(h * w, p * q) @ som.nodes.T) / (p * q)
    maps = np.tanh(conv.T.reshape(som.n_nodes, h, w))
    return max_pool(max_pool(maps, cfg.pool1), cfg.pool2).reshape(-1)


@pytest.mark.parametrize("shape, output_dim, som_filters", [
    ((32, 64), 16, 4),       # conv 7 x 15, pools keep 6 x 14
    ((32, 128), 16, 4),      # conv 7 x 31, pools keep 7 x 28
    ((128, 512), 256, 16),   # conv 31 x 127, pools keep 30 x 120
    ((128, 2048), 256, 16),  # conv 31 x 511, pools keep 31 x 496
])
def test_extraction_equals_tanh_first_two_pool_reference(shape, output_dim,
                                                         som_filters):
    cfg = default_frontend_config(shape, output_dim=output_dim,
                                  som_filters=som_filters)
    rng = np.random.default_rng(shape[1])
    som = SomGrid(nodes=rng.normal(size=(som_filters, 64)),
                  grid_shape=(1, som_filters), trained=True)
    for _ in range(3):
        s = rng.normal(size=shape)
        expected = _reference_features(s, som, cfg)
        np.testing.assert_array_equal(extract_features(s, som, cfg), expected)


def test_extraction_is_pure_and_deterministic():
    fe = _trained_frontend(seed=10)
    rng = np.random.default_rng(11)
    s = rng.uniform(size=(32, 64))
    np.testing.assert_array_equal(fe(s), fe(s))


def test_patch_sampler_is_seeded():
    rng = np.random.default_rng(12)
    scalos = [rng.uniform(size=(16, 16)) for _ in range(3)]
    cfg = FrontEndConfig()
    mean, scale = np.zeros(16), np.ones(16)
    a = sample_patches(scalos, cfg, 10, mean, scale, seed=1)
    b = sample_patches(scalos, cfg, 10, mean, scale, seed=1)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (10, 64)


def test_patch_corners_follow_per_patch_scalar_draws():
    # oracle: one scalar draw for each patch's row, then one for its column
    rng = np.random.default_rng(15)
    shapes = [(16, 16), (8, 40), (30, 9), (12, 12)]
    scalos = [rng.uniform(size=shape) for shape in shapes]
    cfg = FrontEndConfig()
    p, q = cfg.patch
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
    got = sample_patches(scalos, cfg, 500, mean, scale, seed=seed)
    assert got.tobytes() == expected.tobytes()


def test_patches_standardized_alone_match_whole_scalogram_oracle():
    # oracle: standardize every source scalogram whole, then sample
    rng = np.random.default_rng(13)
    scalos = [rng.gamma(2.0, size=(32, 64)) * np.geomspace(1, 50, 32)[:, None]
              for _ in range(12)]
    cfg = default_frontend_config((32, 64), output_dim=16, som_filters=4)
    seed = 14
    fe = train_frontend(scalos, cfg, seed=seed, n_patches=300, epochs=2,
                        max_patch_sources=8)
    sources = np.random.default_rng(
        np.random.SeedSequence([0x5A7C5, seed])).choice(12, 8, replace=False)
    whole = [fe.standardize(scalos[i]) for i in sources]
    expected = sample_patches(whole, cfg, 300, np.zeros(32), np.ones(32),
                              seed=seed)
    got = sample_patches([scalos[i] for i in sources], cfg, 300, fe.row_mean,
                         fe.row_scale, seed=seed)
    assert got.tobytes() == expected.tobytes()
    som = train_som(expected, init_som(64, grid_shape=(2, 2), seed=seed),
                    epochs=2)
    assert fe.som.nodes.tobytes() == som.nodes.tobytes()


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
