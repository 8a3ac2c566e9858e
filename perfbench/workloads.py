"""Workloads and the enrol/identify pipeline the benchmark drives.

Every call into the library goes through a module attribute
(`dataprep.detect_onset`, `mst.train_mst`, ...), never through a name
imported into this file, so the tracer in `tracing.py` can wrap it.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from rfmst import dataprep, frontend, mst, signal_gen, wavelet

SNR_DB = 30.0
# Share of each class's training packets kept for fitting; the rest of the
# training split is the validation set that early-stops MST training.
FIT_FRACTION = 0.9
# LM iterations per MLP.  With the full budget, how many iterations the
# last stage takes before its goal or patience fires swings 3x from seed to
# seed (369..1160 on raw_w1024), and train_s with it.  At 10 the default
# stages run 2-10 iterations per MLP and the total stays within ~4% across
# seeds, at the same accuracy.
ITER_CAP = 10


@dataclass(frozen=True)
class Workload:
    name: str
    packets_per_tx: int
    n: int                  # wN segment length
    features: str           # "wavelet" or a dataprep vectorisation mode
    train_fraction: float
    # Identification passes before each re-run of features and of training
    # in a measurement round: about 4 s on wavelet_w512, 2 s on raw_w1024.
    identify_passes: int


WORKLOADS = {
    w.name: w for w in (
        Workload("wavelet_w512", 40, 512, "wavelet", 0.5, 1),
        Workload("raw_w1024", 40, 1024, "concat_reim", 0.5, 40),
    )
}


def key_on(params) -> int:
    """1-based index of the first keyed sample: DC offset and ramp start here."""
    return params.silence_len + 1


def onset_window(params) -> tuple[int, int]:
    """Inclusive range a correct onset may fall in.

    The silence before key-on is noise alone, far below tau at 30 dB, so no
    onset may precede key-on.  After it, every packet starts with the same
    preamble, so how late |Re| first reaches tau depends only on the
    transmitter, the carrier phase and the noise.  For the default profiles,
    with the phase within +-0.45 rad (the +-0.25 jitter plus the
    phase-noise walk) and the noise within 6 sigma, the noiseless preamble
    puts that sample at key-on + 27 at the latest; the window allows
    4 ramp lengths.
    """
    k = key_on(params)
    return k, k + 4 * params.ramp_len


def synthesise(wl: Workload, seed: int):
    return signal_gen.generate_corpus(signal_gen.default_profiles(),
                                      wl.packets_per_tx, seed=seed,
                                      noise_snr_db=SNR_DB)


def corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for p in corpus.packets:
        h.update(p.samples.tobytes())
        h.update(int(p.tx_label).to_bytes(2, "little"))
    return h.hexdigest()


@dataclass
class TrainingSet:
    """Normalised features of the training split, and how they were made."""
    train_idx: np.ndarray        # corpus rows of the training split
    test_idx: np.ndarray         # corpus rows held out for identification
    onsets: np.ndarray           # detected onset of each training packet
    x: np.ndarray
    y: np.ndarray
    stats: object                # dataprep.NormStats
    front: object | None         # frontend.FrontEnd on the wavelet path


def _vector_mode(wl: Workload) -> str:
    return "magnitude" if wl.features == "wavelet" else wl.features


def featurise(wl: Workload, segments, front, stats) -> np.ndarray:
    """Segments to normalised feature rows, with a trained front-end."""
    x, _ = dataprep.feature_matrix(segments, _vector_mode(wl))
    if wl.features == "wavelet":
        x = np.stack([front(wavelet.scalogram(row)) for row in x])
    return dataprep.normalize_corpus(x, stats)[0]


def featurise_training(wl: Workload, corpus, seed: int) -> TrainingSet:
    """Split the corpus, then onset, segment and featurise the training
    split; on the wavelet path this trains the front-end as well."""
    train_idx, test_idx = dataprep.stratified_indices(
        corpus.labels(), wl.train_fraction, seed)
    packets = [corpus.packets[i] for i in train_idx]
    segments = dataprep.packets_to_segments(packets, wl.n)
    x, y = dataprep.feature_matrix(segments, _vector_mode(wl))
    front = None
    if wl.features == "wavelet":
        scalograms = [wavelet.scalogram(row) for row in x]
        front = frontend.train_frontend(scalograms, seed=seed)
        x = np.stack([front(s) for s in scalograms])
        del scalograms
    x, stats = dataprep.normalize_corpus(x)
    return TrainingSet(train_idx=train_idx, test_idx=test_idx,
                       onsets=np.array([s.onset_index for s in segments]),
                       x=x, y=y, stats=stats, front=front)


def validation_split(ts: TrainingSet, seed: int):
    """Rows of ts that MST fits on and rows it validates on."""
    return dataprep.stratified_indices(ts.y, FIT_FRACTION, seed)


def train_model(ts: TrainingSet, n_transmitters: int, seed: int):
    fit, val = validation_split(ts, seed)
    return mst.train_mst(ts.x[fit], ts.y[fit], ts.x[val], ts.y[val],
                         mst.default_config_2nd(n_transmitters), order=2,
                         seed=seed, iter_cap=ITER_CAP)


@dataclass
class Pass:
    labels: np.ndarray       # predicted label per held-out packet, 0 if failed
    onsets: np.ndarray       # detected onset per packet, 0 if none
    rows: np.ndarray | None  # feature rows of the packets that did not fail
    failed: int
    seconds: float


def identify(wl: Workload, ts: TrainingSet, model, packets, window) -> Pass:
    """Take every held-out packet from raw IQ to a predicted label.

    A packet fails when the library raises on it or its onset falls
    outside `window`; failed packets get label 0.
    """
    lo, hi = window
    labels = np.zeros(len(packets), dtype=int)
    onsets = np.zeros(len(packets), dtype=int)
    kept, segments = [], []
    rows = np.empty((0, 0))
    t0 = perf_counter()
    for i, p in enumerate(packets):
        try:
            onsets[i] = dataprep.detect_onset(p.samples)
            seg = dataprep.segment(p.samples, int(onsets[i]), wl.n)
        except ValueError:
            continue
        if lo <= onsets[i] <= hi:
            kept.append(i)
            segments.append(seg)
    if segments:
        rows = featurise(wl, segments, ts.front, ts.stats)
        labels[kept] = mst.classify_batch(model, rows)
    seconds = perf_counter() - t0
    return Pass(labels=labels, onsets=onsets, rows=rows,
                failed=len(packets) - len(kept), seconds=seconds)


def nearest_neighbour_accuracy(train_x, train_y, test_x, test_y) -> float:
    """Plain-numpy 1-NN (Euclidean) on the same normalised features."""
    d = ((test_x**2).sum(axis=1)[:, None] - 2.0 * test_x @ train_x.T
         + (train_x**2).sum(axis=1)[None, :])
    return float(np.mean(train_y[np.argmin(d, axis=1)] == test_y))
