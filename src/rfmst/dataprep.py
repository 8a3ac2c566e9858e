"""Onset detection, wN segmentation, vectorization and stratified splits.

Indexing in the public operations is 1-based to match the usual signal
notation (onset index N_o is the first sample at or above the threshold);
arrays are stored 0-based internally.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_TAU = 0.05
ALLOWED_TRAIN_FRACTIONS = (0.9, 0.5, 0.1, 0.01)


class NoOnset(ValueError):
    """No sample crosses the onset threshold."""


class TooShort(ValueError):
    """Packet too short for the requested segment."""


class ZeroCorpus(ValueError):
    """Normalization impossible: the training corpus is identically zero."""


@dataclass
class Segment:
    g: np.ndarray              # complex, length n
    n: int
    onset_index: int           # 1-based N_o
    source: str = ""
    tx_label: int = 0


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int

    def __post_init__(self):
        if self.train_fraction not in ALLOWED_TRAIN_FRACTIONS:
            raise ValueError(
                f"train_fraction must be one of {ALLOWED_TRAIN_FRACTIONS}")


def detect_onset(f: np.ndarray, tau: float = DEFAULT_TAU) -> int:
    """Smallest 1-based index i with |Re(f_i)| >= tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    f = np.asarray(f)
    if f.size == 0:
        raise ValueError("empty signal")
    hits = np.nonzero(np.abs(f.real) >= tau)[0]
    if hits.size == 0:
        raise NoOnset(f"no sample crosses tau={tau}")
    return int(hits[0]) + 1


def segment(f: np.ndarray, onset_index: int, n: int, source: str = "",
            tx_label: int = 0) -> Segment:
    """Take the n samples starting at the (1-based) onset index."""
    f = np.asarray(f)
    if onset_index < 1:
        raise ValueError("onset_index is 1-based and must be >= 1")
    if onset_index + n - 1 > len(f):
        raise TooShort(
            f"packet of length {len(f)} too short for onset {onset_index} "
            f"and n={n}")
    g = f[onset_index - 1 : onset_index - 1 + n].copy()
    return Segment(g=g, n=n, onset_index=onset_index, source=source,
                   tx_label=tx_label)


@dataclass(frozen=True)
class NormStats:
    max_abs: float


def normalize_corpus(matrix: np.ndarray, stats: NormStats | None = None):
    """Divide by the max absolute entry of the training set.

    Without stats the scale is computed from `matrix` (the training set) and
    returned frozen for reuse on test data, whose entries may then fall
    outside [-1, 1].
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if stats is None:
        if matrix.size == 0:
            raise ZeroCorpus("empty training set")
        max_abs = float(np.abs(matrix).max())
        if max_abs == 0.0:
            raise ZeroCorpus("training corpus is identically zero")
        stats = NormStats(max_abs=max_abs)
    return matrix / stats.max_abs, stats


def stratified_indices(labels: np.ndarray, train_fraction: float, seed: int):
    """Seeded per-class index split; train counts are round(fraction * n).

    Raises ValueError when a class would get no training rows.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(np.random.SeedSequence([0x59717, seed]))
    train_idx, test_idx = [], []
    for lab in np.unique(labels):
        idx = np.nonzero(labels == lab)[0]
        perm = rng.permutation(idx)
        k = int(round(train_fraction * len(idx)))
        if k == 0:
            raise ValueError(
                f"a {train_fraction} split of class {lab}'s {len(idx)} rows "
                "leaves no training rows")
        train_idx.append(perm[:k])
        test_idx.append(perm[k:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def split(matrix: np.ndarray, labels: np.ndarray, spec: SplitSpec):
    """Stratified train/test split of a feature matrix.

    Returns ((train_x, train_y), (test_x, test_y)); disjoint, union = corpus.
    """
    labels = np.asarray(labels)
    counts = np.bincount(labels)
    if counts[counts > 0].min() < 2:
        raise ValueError("need at least 2 packets per transmitter")
    tr, te = stratified_indices(labels, spec.train_fraction, spec.seed)
    return (matrix[tr], labels[tr]), (matrix[te], labels[te])


def packets_to_segments(packets, n: int, tau: float = DEFAULT_TAU):
    """Onset-detect and segment every packet (the wN preparation)."""
    return [
        segment(p.samples, detect_onset(p.samples, tau), n,
                source=p.name, tx_label=p.tx_label)
        for p in packets
    ]


def feature_matrix(segments, mode: str = "concat_reim"):
    """Stack segments into (n_packets, dim) features + labels.

    concat_reim: (Re g_1..Re g_N, Im g_1..Im g_N), length 2N.
    magnitude: |g_i|, length N.
    """
    g = np.stack([s.g for s in segments])
    if mode == "concat_reim":
        x = np.concatenate([g.real, g.imag], axis=1)
    elif mode == "magnitude":
        x = np.abs(g)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return x.astype(np.float64), np.array([s.tx_label for s in segments])


# ---------------------------------------------------------------------------
# disk format: flat little-endian float64 matrix + JSON header


def save_features(path, matrix: np.ndarray, labels: np.ndarray,
                  stats: NormStats | None = None, meta: dict | None = None):
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    matrix.tofile(path / "features.f64")
    header = {
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "dtype": "<f8",
        "labels": [int(v) for v in labels],
        "norm_max_abs": None if stats is None else stats.max_abs,
    }
    if meta:
        header["meta"] = meta
    (path / "header.json").write_text(json.dumps(header, indent=1))
    return path


def load_features(path):
    path = Path(path)
    header = json.loads((path / "header.json").read_text())
    matrix = np.fromfile(path / "features.f64", dtype="<f8")
    matrix = matrix.reshape(header["rows"], header["cols"])
    labels = np.array(header["labels"], dtype=int)
    stats = None
    if header.get("norm_max_abs") is not None:
        stats = NormStats(max_abs=header["norm_max_abs"])
    return matrix, labels, stats
