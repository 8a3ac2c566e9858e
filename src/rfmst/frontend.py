"""Scalogram front-end: SOM-selected convolution filters plus max pooling.

`train_frontend` fits a `FrontEnd` on training-split scalograms, and
calling that `FrontEnd` is the one way to extract features.  A
self-organizing map trained on patches sampled from those scalograms
supplies the convolution filter weights, and per-scale pixel statistics
standardize each row.  Each scalogram is convolved with every node (valid
positions), reduced by two non-overlapping max-pool stages sized so the
flattened output has exactly `OUTPUT_DIM` entries, then squashed with
tanh.  Only the convolution positions the pools keep are computed, and
tanh, being monotone, is applied to the pooled values alone.

The convolution runs by column phase instead of im2col: the pixels it
reads are standardized once into a layout where each filter slab sees
every window of a convolution row through one strided view, so no
overlapping window is copied and each slab is one batched GEMM.  The
features agree with an im2col convolution to within 1e-15.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

PATCH = (8, 8)             # filter rows (scales) x columns (translations)
STRIDE = (4, 4)            # divides PATCH, so every filter tap reads a pixel
SOM_GRID = (4, 4)          # SOM nodes, one convolution filter each
OUTPUT_DIM = 256           # features per scalogram
SOM_LR = (0.5, 0.02)       # learning rate, first and last SOM step
SOM_RADIUS = (1.5, 0.3)    # neighbourhood radius, first and last SOM step
SOM_EPOCHS = 3
N_PATCHES = 4000           # patches the SOM trains on
MAX_PATCH_SOURCES = 256    # training scalograms the patches come from


def train_som(patches: np.ndarray, seed: int = 0) -> np.ndarray:
    """Classical online SOM on a SOM_GRID of nodes; returns the trained
    (n_nodes, patch_dim) node vectors, row-major over the grid.

    The nodes start uniform on [0, 1).  Per sample: the best-matching node
    (Euclidean) and its grid neighbors move toward the sample, with
    learning rate and neighborhood radius decaying geometrically from
    SOM_LR[0] to SOM_LR[1] and SOM_RADIUS[0] to SOM_RADIUS[1] over
    SOM_EPOCHS passes.  Deterministic per seed.
    """
    patches = np.asarray(patches, dtype=np.float64)
    n_nodes = SOM_GRID[0] * SOM_GRID[1]
    if patches.ndim != 2 or patches.shape[0] == 0:
        raise ValueError("need a (n_patches, patch_dim) sample set")
    if patches.shape[0] < n_nodes:
        raise ValueError(
            f"need at least {n_nodes} patches, got {patches.shape[0]}")
    rng = np.random.default_rng(np.random.SeedSequence([0x50F, seed]))
    nodes = rng.uniform(0.0, 1.0, size=(n_nodes, patches.shape[1]))
    coords = np.indices(SOM_GRID).reshape(2, -1).T.astype(float)
    # grid_dist2[k] holds the squared grid distances from node k to every node
    grid_dist2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    (lr_initial, lr_final), (radius_initial, radius_final) = SOM_LR, SOM_RADIUS
    rng = np.random.default_rng(np.random.SeedSequence([0x50F + 1, seed]))
    total_steps = SOM_EPOCHS * patches.shape[0]
    step = 0
    for _ in range(SOM_EPOCHS):
        order = rng.permutation(patches.shape[0])
        for idx in order:
            x = patches[idx]
            frac = step / max(total_steps - 1, 1)
            lr = lr_initial * (lr_final / lr_initial) ** frac
            radius = radius_initial * (radius_final / radius_initial) ** frac
            diff = nodes - x
            best = int(np.argmin((diff ** 2).sum(axis=1)))
            influence = lr * np.exp(-grid_dist2[best] / (2 * radius**2))
            nodes -= influence[:, None] * diff
            step += 1
    return nodes


def _conv_shape(scalogram_shape) -> tuple[int, int]:
    rows, cols = scalogram_shape
    (p, q), (sr, sc) = PATCH, STRIDE
    if rows < p or cols < q:
        raise ValueError(f"scalogram {scalogram_shape} smaller than patch")
    return (rows - p) // sr + 1, (cols - q) // sc + 1


def pool_windows(scalogram_shape) -> tuple[tuple[int, int], tuple[int, int]]:
    """(pool1, pool2) windows, each (rows, cols), so the pipeline lands
    exactly on OUTPUT_DIM features.

    Windows w1 then w2 leave extent // (w1 * w2) outputs along an axis, so
    the product that covers the most while leaving `out` is extent // out,
    if that leaves `out`; its windows are its most nearly square factor
    pair, larger first.  Of the splits of a map's outputs into rows times
    columns, the one covering the most convolution pixels wins.
    """
    def axis(extent, out):  # (covered, -w1 - w2, w1, w2), or None
        w = extent // out
        if w < 1 or extent // w != out:
            return None
        w2 = max(d for d in range(1, math.isqrt(w) + 1) if w % d == 0)
        return w * out, -(w // w2) - w2, w // w2, w2

    conv_h, conv_w = _conv_shape(scalogram_shape)
    per_map = OUTPUT_DIM // (SOM_GRID[0] * SOM_GRID[1])
    cands = []
    for h_out in (k for k in range(1, per_map + 1) if per_map % k == 0):
        rows, cols = axis(conv_h, h_out), axis(conv_w, per_map // h_out)
        if rows and cols:
            cands.append((rows[0] * cols[0], rows, cols))
    if not cands:
        raise ValueError(
            f"no two-stage pooling reaches {OUTPUT_DIM} features on "
            f"{scalogram_shape}")
    _, (_, _, h1, h2), (_, _, w1, w2) = max(cands)
    return (h1, w1), (h2, w2)


def sample_patches(scalograms, n_patches: int, row_mean: np.ndarray,
                   row_scale: np.ndarray, seed: int = 0) -> np.ndarray:
    """Random PATCH-sized sample across a set of scalograms (training split
    only).

    Each patch is standardized with the per-scale statistics of the rows it
    covers, so only the sampled pixels are standardized, never a whole
    scalogram.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x5A7C4, seed]))
    p, q = PATCH
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
    """Trained front-end bundle: filters, pool windows and per-scale pixel
    stats.

    filters is the (n_filters, PATCH[0] * PATCH[1]) trained SOM, and pools
    the (pool1, pool2) windows of `pool_windows`.  Scalogram rows are
    standardized with training-split statistics before convolution; raw
    coefficient magnitudes span orders of magnitude across scales and would
    otherwise drown the fine-scale texture.
    """

    filters: np.ndarray
    pools: tuple[tuple[int, int], tuple[int, int]]
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
        OUTPUT_DIM, ordered filter by filter.

        The block is convolved by column phase, without copying overlapping
        windows.  With stride (sr, sc), the pixels the block reads are laid
        out as P[row, f, m] = z[row, sc * m + f], and each filter splits
        into q / sc slabs of p * sc taps.  Slab e of every window in
        convolution row i is then one strided view of P (rows
        sr * i ... sr * i + p - 1, columns j + e), so the convolution is
        one batched GEMM per slab, summed over the slabs.  The sums run in
        another order than one dot product per window, so the features move
        in the last bits: against an im2col convolution they differ by at
        most 4e-16, and the normalized seed-101 wavelet_w512 benchmark
        features by at most 7.8e-16.

        Raises ValueError if the pixel statistics do not match the
        scalogram's rows, if the pools do not reduce the scalogram to
        OUTPUT_DIM features, or if a standardized pixel the convolution
        reads is NaN or infinite: tanh would squash it to a plausible +-1.
        """
        s = np.asarray(scalogram, dtype=np.float64)
        if self.row_mean.shape != s.shape[:1] \
                or self.row_scale.shape != s.shape[:1]:
            raise ValueError(
                f"pixel statistics for {self.row_mean.shape[0]} scales, "
                f"scalogram has {s.shape[0]}")
        (p, q), (sr, sc) = PATCH, STRIDE
        (h1, w1), (h2, w2) = self.pools
        k = len(self.filters)
        conv_h, conv_w = _conv_shape(s.shape)
        h, w = conv_h // h1 // h2, conv_w // w1 // w2
        if k * h * w != OUTPUT_DIM:
            raise ValueError(
                f"pipeline on {s.shape} yields {k * h * w} features "
                f"({k} filters x {h} x {w}), expected {OUTPUT_DIM}")
        r, c = h1 * h2, w1 * w2
        n_i, n_j = h * r, w * c               # the convolution block kept
        slabs = q // sc
        n_m = n_j + slabs - 1                 # columns of each phase
        rows = sr * (n_i - 1) + p
        phases = np.empty((rows, sc, n_m))
        phases[...] = s[:rows, : sc * n_m].reshape(rows, n_m, sc) \
            .transpose(0, 2, 1)
        phases -= self.row_mean[:rows, None, None]
        phases /= self.row_scale[:rows, None, None]
        if not np.isfinite(phases).all():
            raise ValueError("scalogram has a NaN or infinite pixel")
        # weights[e][a * sc + f] is tap (a, sc * e + f) of every filter
        weights = self.filters.reshape(k, p, slabs, sc).transpose(2, 1, 3, 0) \
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
        return np.tanh(pooled.transpose(2, 0, 1).reshape(-1) / (p * q))


def train_frontend(train_scalograms, seed: int = 0) -> FrontEnd:
    """Fit the pixel statistics and SOM filters on training-split scalograms:
    the SOM trains on N_PATCHES patches drawn from at most
    MAX_PATCH_SOURCES of them."""
    n = len(train_scalograms)
    if n == 0:
        raise ValueError("no training scalograms")
    shape = np.asarray(train_scalograms[0]).shape
    pools = pool_windows(shape)
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
    sources = rng.choice(n, size=min(n, MAX_PATCH_SOURCES), replace=False)
    patches = sample_patches([train_scalograms[i] for i in sources],
                             N_PATCHES, row_mean, row_scale, seed=seed)
    return FrontEnd(train_som(patches, seed=seed), pools, row_mean, row_scale)
