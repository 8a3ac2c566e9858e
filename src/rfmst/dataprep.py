"""Onset detection, wN segmentation, vectorization and stratified splits.

Indexing in the public operations is 1-based to match the usual signal
notation (onset index N_o is the first sample at or above the threshold);
arrays are stored 0-based internally.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifest import as_count

DEFAULT_TAU = 0.05


class NoOnset(ValueError):
    """No sample crosses the onset threshold."""


class TooShort(ValueError):
    """Packet too short for the requested segment."""


@dataclass
class Segment:
    g: np.ndarray              # the n samples from the onset, in the
                               # packet's dtype (complex64 for a corpus)
    onset_index: int           # 1-based N_o
    tx_label: int = 0


# Samples in the first window of the onset scan; each later window is
# ONSET_WINDOW_GROWTH times as wide as the one before.
ONSET_WINDOW = 1024
ONSET_WINDOW_GROWTH = 4


def _as_packet(f) -> np.ndarray:
    f = np.asarray(f)
    if f.ndim != 1:
        raise ValueError(f"expected a 1-D packet, got shape {f.shape}")
    return f


def detect_onset(f: np.ndarray, tau: float = DEFAULT_TAU) -> int:
    """Smallest 1-based index i with |Re(f_i)| >= tau.

    The scan takes |Re| of consecutive windows, ONSET_WINDOW samples first
    and ONSET_WINDOW_GROWTH times wider each time, and returns at the first
    window that holds a crossing.  The windows tile the packet in order, so
    every sample before that window was already found below tau, and the
    first crossing in it is the first of the whole packet: the answer of a
    full scan, at the cost of the samples up to the onset's window.  A NaN
    sample never crosses.  f must be 1-D.  tau is compared in float64, so a
    complex64 packet gives the onset of its exact complex128 upcast.
    """
    if not 0 < tau < np.inf:
        # NoOnset would count a bad threshold as every packet failing
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    tau = np.float64(tau)
    f = _as_packet(f)
    if f.size == 0:
        raise ValueError("empty signal")
    re = f.real
    start, width = 0, ONSET_WINDOW
    while start < re.size:
        mask = np.abs(re[start:start + width]) >= tau
        i = int(mask.argmax())
        if mask[i]:
            return start + i + 1
        start += width
        width *= ONSET_WINDOW_GROWTH
    raise NoOnset(f"no sample crosses tau={tau}")


def segment(f: np.ndarray, onset_index: int, n: int,
            tx_label: int = 0) -> Segment:
    """Take the n samples starting at the (1-based) onset index of the
    1-D packet f."""
    f = _as_packet(f)
    if as_count("onset_index", onset_index) < 1:
        raise ValueError("onset_index is 1-based and must be >= 1")
    if as_count("n", n) < 1:
        raise ValueError(f"segment length n must be >= 1, got {n}")
    if onset_index + n - 1 > len(f):
        raise TooShort(
            f"packet of length {len(f)} too short for onset {onset_index} "
            f"and n={n}")
    g = f[onset_index - 1 : onset_index - 1 + n].copy()
    return Segment(g=g, onset_index=onset_index, tx_label=tx_label)


@dataclass(frozen=True)
class NormStats:
    max_abs: float


def normalize_corpus(matrix: np.ndarray, stats: NormStats | None = None):
    """Divide by the max absolute entry of the training set.

    Without stats the scale is computed from `matrix` (the training set) and
    returned frozen for reuse on test data, whose entries may then fall
    outside [-1, 1].  A non-finite training entry raises ValueError.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if stats is None:
        if matrix.size == 0:
            raise ValueError("empty training set")
        max_abs = float(np.maximum(matrix.max(), -matrix.min()))
        if not np.isfinite(max_abs):
            raise ValueError("training corpus has non-finite entries")
        if max_abs == 0.0:
            raise ValueError("training corpus is identically zero")
        stats = NormStats(max_abs=max_abs)
    return matrix / stats.max_abs, stats


def stratified_indices(labels: np.ndarray, train_fraction: float, seed: int):
    """Seeded per-class index split; train counts are round(fraction * n).

    Raises ValueError unless 0 < train_fraction < 1, and when a class would
    get no training rows.
    """
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction {train_fraction} is not in (0, 1)")
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


def packets_to_segments(packets, n: int, tau: float = DEFAULT_TAU):
    """Onset-detect and segment every packet (the wN preparation)."""
    return [
        segment(p.samples, detect_onset(p.samples, tau), n, tx_label=p.tx_label)
        for p in packets
    ]


def feature_matrix(segments, mode: str = "concat_reim"):
    """Stack segments into (n_packets, dim) float64 features + labels.

    concat_reim: (Re g_1..Re g_N, Im g_1..Im g_N), length 2N.
    magnitude: |g_i|, length N, taken in float64 precision.
    Complex64 segments give the rows of their exact complex128 upcast.
    """
    if not segments:
        raise ValueError("no segments")
    if mode == "concat_reim":
        n = segments[0].g.size
        x = np.empty((len(segments), 2 * n))
        np.stack([s.g.real for s in segments], out=x[:, :n])
        np.stack([s.g.imag for s in segments], out=x[:, n:])
    elif mode == "magnitude":
        x = np.stack([np.abs(s.g, dtype=np.float64) for s in segments])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return x, np.array([s.tx_label for s in segments])
