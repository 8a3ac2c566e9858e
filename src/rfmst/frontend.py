"""Scalogram front-end: SOM-selected convolution filters plus max pooling.

`train_frontend` fits a `FrontEnd` on training-split scalograms, and
calling that `FrontEnd` is the one way to extract features.  A
self-organizing map trained on patches sampled from those scalograms
supplies the convolution filter weights, and per-scale pixel statistics
standardize each row.  Each scalogram is convolved with every node (valid
positions, configurable stride), reduced by two non-overlapping max-pool
stages sized so the flattened output has exactly `output_dim` entries,
then squashed with tanh.  Only the convolution positions the pools keep
are computed, and tanh, being monotone, is applied to the pooled values
alone.

The convolution runs by column phase instead of im2col: the pixels it
reads are standardized once into a layout where each filter slab sees
every window of a convolution row through one strided view, so no
overlapping window is copied and each slab is one batched GEMM.  The
features agree with an im2col convolution to within 1e-15.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided


@dataclass
class SomGrid:
    nodes: np.ndarray                  # (K, patch_dim)
    grid_shape: tuple[int, int]
    lr_initial: float = 0.5
    lr_final: float = 0.02
    radius_initial: float = 1.5
    radius_final: float = 0.3
    seed: int = 0
    trained: bool = False

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def node_coords(self) -> np.ndarray:
        rows, cols = self.grid_shape
        rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        return np.stack([rr.reshape(-1), cc.reshape(-1)], axis=1).astype(float)


def init_som(patch_dim: int, grid_shape=(4, 4), seed: int = 0, **schedule) -> SomGrid:
    rows, cols = grid_shape
    rng = np.random.default_rng(np.random.SeedSequence([0x50F, seed]))
    nodes = rng.uniform(0.0, 1.0, size=(rows * cols, patch_dim))
    return SomGrid(nodes=nodes, grid_shape=(rows, cols), seed=seed, **schedule)


def train_som(patches: np.ndarray, grid: SomGrid, epochs: int = 5) -> SomGrid:
    """Classical online SOM.

    Per sample: the best-matching node (Euclidean) and its grid neighbors
    move toward the sample, with learning rate and neighborhood radius
    decaying geometrically over the schedule.  Deterministic per seed.
    """
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 2 or patches.shape[0] == 0:
        raise ValueError("need a (n_patches, patch_dim) sample set")
    if patches.shape[0] < grid.n_nodes:
        raise ValueError(
            f"need at least {grid.n_nodes} patches, got {patches.shape[0]}")
    if patches.shape[1] != grid.nodes.shape[1]:
        raise ValueError("patch dimension does not match the node vectors")
    nodes = grid.nodes.copy()
    coords = grid.node_coords()
    # grid_dist2[k] holds the squared grid distances from node k to every node
    grid_dist2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    rng = np.random.default_rng(np.random.SeedSequence([0x50F + 1, grid.seed]))
    total_steps = epochs * patches.shape[0]
    step = 0
    for _ in range(epochs):
        order = rng.permutation(patches.shape[0])
        for idx in order:
            x = patches[idx]
            frac = step / max(total_steps - 1, 1)
            lr = grid.lr_initial * (grid.lr_final / grid.lr_initial) ** frac
            radius = grid.radius_initial \
                * (grid.radius_final / grid.radius_initial) ** frac
            diff = nodes - x
            best = int(np.argmin((diff ** 2).sum(axis=1)))
            influence = lr * np.exp(-grid_dist2[best] / (2 * radius**2))
            nodes -= influence[:, None] * diff
            step += 1
    return replace(grid, nodes=nodes, trained=True)


@dataclass(frozen=True)
class FrontEndConfig:
    patch: tuple[int, int] = (8, 8)
    stride: tuple[int, int] = (4, 4)
    som_filters: int = 16
    pool1: tuple[int, int] = (5, 9)
    pool2: tuple[int, int] = (3, 7)
    output_dim: int = 256

    def conv_shape(self, scalogram_shape) -> tuple[int, int]:
        rows, cols = scalogram_shape
        p, q = self.patch
        sr, sc = self.stride
        if rows < p or cols < q:
            raise ValueError(f"scalogram {scalogram_shape} smaller than patch")
        return (rows - p) // sr + 1, (cols - q) // sc + 1

    def pooled_shape(self, scalogram_shape) -> tuple[int, int]:
        h, w = self.conv_shape(scalogram_shape)
        h = h // self.pool1[0] // self.pool2[0]
        w = w // self.pool1[1] // self.pool2[1]
        return h, w

    def validate(self, scalogram_shape) -> None:
        h, w = self.pooled_shape(scalogram_shape)
        got = self.som_filters * h * w
        if h < 1 or w < 1 or got != self.output_dim:
            raise ValueError(
                f"pipeline on {scalogram_shape} yields {got} features "
                f"({self.som_filters} filters x {h} x {w}), expected "
                f"{self.output_dim}")


def default_frontend_config(scalogram_shape, output_dim: int = 256,
                            som_filters: int = 16) -> FrontEndConfig:
    """Pick pool windows so the pipeline lands exactly on output_dim.

    Deterministic small search over two-stage non-overlapping max pools;
    among valid window pairs the one covering the most conv pixels wins.
    """
    base = FrontEndConfig(som_filters=som_filters, output_dim=output_dim)
    conv_h, conv_w = base.conv_shape(scalogram_shape)
    if output_dim % som_filters:
        raise ValueError("output_dim must be a multiple of som_filters")
    per_map = output_dim // som_filters

    def stage_options(extent):
        opts = {}
        for w1 in range(1, extent + 1):
            first = extent // w1
            if first < 1:
                break
            for w2 in range(1, first + 1):
                out = first // w2
                covered = w1 * w2 * out
                opts.setdefault(out, []).append((covered, -w1 - w2, w1, w2))
        return opts

    rows_opts = stage_options(conv_h)
    cols_opts = stage_options(conv_w)
    best = None
    for h_out, h_cands in rows_opts.items():
        if per_map % h_out:
            continue
        w_out = per_map // h_out
        if w_out not in cols_opts:
            continue
        hc = max(h_cands)
        wc = max(cols_opts[w_out])
        cand = (hc[0] * wc[0], hc, wc)
        if best is None or cand > best:
            best = cand
    if best is None:
        raise ValueError(
            f"no two-stage pooling reaches {output_dim} features on "
            f"{scalogram_shape}")
    _, (_, _, h1, h2), (_, _, w1, w2) = best
    cfg = FrontEndConfig(patch=base.patch, stride=base.stride,
                         som_filters=som_filters, pool1=(h1, w1),
                         pool2=(h2, w2), output_dim=output_dim)
    cfg.validate(scalogram_shape)
    return cfg


def sample_patches(scalograms, cfg: FrontEndConfig, n_patches: int,
                   row_mean: np.ndarray, row_scale: np.ndarray,
                   seed: int = 0) -> np.ndarray:
    """Random patch sample across a set of scalograms (training split only).

    Each patch is standardized with the per-scale statistics of the rows it
    covers, so only the sampled pixels are standardized, never a whole
    scalogram.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x5A7C4, seed]))
    p, q = cfg.patch
    out = np.empty((n_patches, p * q))
    n = len(scalograms)
    if n == 0:
        raise ValueError("no scalograms to sample from")
    which = rng.integers(0, n, size=n_patches)
    # each patch's row then column corner, in the order of a scalar draw
    # per coordinate
    shapes = np.array([s.shape for s in scalograms])
    corners = rng.integers(0, shapes[which] - (p - 1, q - 1))
    for i, (s_idx, (r, c)) in enumerate(zip(which, corners)):
        s = scalograms[s_idx]
        rows = slice(r, r + p)
        out[i] = ((s[rows, c : c + q] - row_mean[rows, None])
                  / row_scale[rows, None]).reshape(-1)
    return out


@dataclass
class FrontEnd:
    """Trained front-end bundle: filters, config and per-scale pixel stats.

    Scalogram rows are standardized with training-split statistics before
    convolution; raw coefficient magnitudes span orders of magnitude across
    scales and would otherwise drown the fine-scale texture.
    """

    som: SomGrid
    cfg: FrontEndConfig
    row_mean: np.ndarray
    row_scale: np.ndarray

    def __call__(self, scalogram: np.ndarray) -> np.ndarray:
        """Standardize, convolve with the SOM filters, max-pool twice, tanh,
        flatten.

        Only the pixels the convolution reads are standardized, each row as
        (pixel - row_mean) / row_scale.  Convolution responses are
        normalized by the patch size to keep tanh in its active range.
        Only the block of convolution positions the floor-dividing pools
        keep is computed; the nested pool windows tile it, so both pools
        are one max per (pool1 * pool2) block.  max is exact and tanh and
        the normalization are monotone, so pooling first gives the same
        result as squashing every response.  Output length is exactly
        cfg.output_dim, ordered filter by filter.

        The block is convolved by column phase, without copying overlapping
        windows.  With stride (sr, sc), the pixels the block reads are laid
        out as P[row, f, m] = z[row, sc * m + f], and each filter splits
        into ceil(q / sc) slabs of p * sc taps, zero-padded where sc does
        not divide q.  Slab e of every window in convolution row i is then
        one strided view of P (rows sr * i ... sr * i + p - 1, columns
        j + e), so the convolution is one batched GEMM per slab, summed
        over the slabs.  The sums run in another order than one dot product
        per window, so the features move in the last bits: against an
        im2col convolution they differ by at most 4e-16 over default,
        strided and non-dividing configurations, and the normalized
        seed-101 wavelet_w512 benchmark features by at most 7.8e-16.

        Raises ValueError if the pixel statistics do not match the
        scalogram's rows, or if a standardized pixel the convolution reads
        is NaN or infinite: tanh would squash it to a plausible +-1, and a
        zero-padded tap would turn it into NaN.
        """
        som, cfg = self.som, self.cfg
        s = np.asarray(scalogram, dtype=np.float64)
        if self.row_mean.shape != s.shape[:1] \
                or self.row_scale.shape != s.shape[:1]:
            raise ValueError(
                f"pixel statistics for {self.row_mean.shape[0]} scales, "
                f"scalogram has {s.shape[0]}")
        if not som.trained:
            raise ValueError("SOM filters are untrained")
        cfg.validate(s.shape)
        p, q = cfg.patch
        if som.nodes.shape[1] != p * q:
            raise ValueError("SOM node dimension does not match the patch size")
        sr, sc = cfg.stride
        h, w = cfg.pooled_shape(s.shape)
        r = cfg.pool1[0] * cfg.pool2[0]
        c = cfg.pool1[1] * cfg.pool2[1]
        k = som.n_nodes
        n_i, n_j = h * r, w * c               # the convolution block kept
        slabs = -(-q // sc)
        n_m = n_j + slabs - 1                 # columns of each phase
        rows = sr * (n_i - 1) + p
        block = s[:rows, : sc * n_m]
        if block.shape[1] < sc * n_m:
            # the last phases run past the scalogram; only zero taps read them
            block = np.pad(block, ((0, 0), (0, sc * n_m - block.shape[1])))
        phases = np.empty((rows, sc, n_m))
        phases[...] = block.reshape(rows, n_m, sc).transpose(0, 2, 1)
        phases -= self.row_mean[:rows, None, None]
        phases /= self.row_scale[:rows, None, None]
        if not np.isfinite(phases).all():
            raise ValueError("scalogram has a NaN or infinite pixel")
        taps = np.zeros((k, p, slabs * sc))
        taps[:, :, :q] = som.nodes.reshape(k, p, q)
        # weights[e][a * sc + f] is tap (a, sc * e + f) of every filter
        weights = taps.reshape(k, p, slabs, sc).transpose(2, 1, 3, 0) \
            .reshape(slabs, p * sc, k)
        # windows[i, j, a * sc + f] = P[sr * i + a, f, j + e], from column e
        row_step, phase_step, col_step = phases.strides
        conv = None
        for e in range(slabs):
            windows = as_strided(phases[:, :, e:], shape=(n_i, n_j, p * sc),
                                 strides=(sr * row_step, col_step, phase_step),
                                 writeable=False)
            term = windows @ weights[e]
            conv = term if conv is None else np.add(conv, term, out=conv)
        pooled = (conv.reshape(h, r, n_j, k).max(axis=1)
                  .reshape(h, w, c, k).max(axis=2))
        out = np.tanh(pooled.transpose(2, 0, 1).reshape(-1) / (p * q))
        if out.size != cfg.output_dim:
            raise ValueError(
                f"got {out.size} features, expected {cfg.output_dim}")
        return out


def train_frontend(train_scalograms, cfg: FrontEndConfig | None = None,
                   seed: int = 0, n_patches: int = 4000,
                   epochs: int = 3, max_patch_sources: int = 256) -> FrontEnd:
    """Fit the pixel statistics and SOM filters on training-split scalograms."""
    n = len(train_scalograms)
    if n == 0:
        raise ValueError("no training scalograms")
    shape = np.asarray(train_scalograms[0]).shape
    if cfg is None:
        cfg = default_frontend_config(shape)
    cfg.validate(shape)
    # one-pass per-scale moments, without a stacked copy of the scalograms
    total = np.zeros(shape[0])
    total_sq = np.zeros(shape[0])
    for s in train_scalograms:
        s = np.asarray(s, dtype=np.float64)
        total += s.sum(axis=1)
        total_sq += (s**2).sum(axis=1)
    count = n * shape[1]
    row_mean = total / count
    row_scale = np.sqrt(np.maximum(total_sq / count - row_mean**2, 0.0))
    row_scale[row_scale == 0.0] = 1.0
    rng = np.random.default_rng(np.random.SeedSequence([0x5A7C5, seed]))
    sources = rng.choice(n, size=min(n, max_patch_sources), replace=False)
    patches = sample_patches([train_scalograms[i] for i in sources], cfg,
                             n_patches, row_mean, row_scale, seed=seed)
    grid = init_som(cfg.patch[0] * cfg.patch[1],
                    grid_shape=_square_grid(cfg.som_filters), seed=seed)
    som = train_som(patches, grid, epochs=epochs)
    return FrontEnd(som=som, cfg=cfg, row_mean=row_mean, row_scale=row_scale)


def _square_grid(k: int) -> tuple[int, int]:
    r = int(np.sqrt(k))
    while k % r:
        r -= 1
    return (r, k // r)
