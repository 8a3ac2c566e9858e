"""Correctness checks, each computed apart from the library code it checks.

Every check returns a list of problems; an empty list means it passed.
`selfcheck.py` feeds each one a deliberately wrong output to show it bites.
"""
from __future__ import annotations

import numpy as np

XI0 = 6.0
SCALOGRAM_SHIFTS_PER_SCALE = 4
# The library scales the noise to the measured power of the ideal burst,
# which the onset ramp and the cut at packet_len move off burst_rms**2 by
# well under this share.
BURST_POWER_SLACK = 0.02
SIGMAS = 6.0
MIN_CHANCE_MULTIPLE = 6.0


def _morlet(t):
    """Mother wavelet as written in the wavelet module's docstring."""
    return (np.pi**-0.25 * (np.exp(-1j * XI0 * t) - np.exp(-XI0**2 / 2))
            * np.exp(-t**2 / 2))


def scalogram_matches_definition(v, scal, seed: int = 0) -> list[str]:
    """|coef[a, b]| = |a**-0.5 * sum_t v[t] conj(psi((t - b) / a))|, summed
    over the whole signal, at a few seeded shifts b on every scale row.

    The scale grid is the documented default: n_scales log-spaced scales
    covering digital periods 2 .. n/2, where period p is scale xi0*p/(2*pi).
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    n_scales = scal.shape[0]
    if scal.shape != (n_scales, n):
        return [f"scalogram shape {scal.shape}, expected (*, {n})"]
    scales = np.geomspace(XI0 * 2 / (2 * np.pi), XI0 * (n / 2) / (2 * np.pi),
                          n_scales)
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    tol = 1e-9 * float(np.abs(scal).max())
    worst, where = 0.0, None
    for row, a in enumerate(scales):
        for b in rng.integers(0, n, SCALOGRAM_SHIFTS_PER_SCALE):
            direct = abs(np.sum(v * np.conj(_morlet((t - b) / a))) / np.sqrt(a))
            err = abs(direct - scal[row, b])
            if err > worst:
                worst, where = err, (row, int(b))
    if worst > tol:
        return [f"scalogram differs from the direct sum by {worst:.3g} "
                f"(> {tol:.3g}) at (scale row, shift) {where}"]
    return []


def silence_noise_power(corpus, snr_db: float) -> list[str]:
    """Noise power in each packet's leading silence against
    burst_rms**2 / 10**(snr/10).

    The silence holds silence_len complex Gaussian samples, so a packet's
    power estimate has relative standard deviation 1/sqrt(silence_len), and
    the corpus mean 1/sqrt(packets * silence_len); both get SIGMAS of them.
    """
    params = corpus.params
    length = params.silence_len
    expected = params.burst_rms**2 / 10 ** (snr_db / 10)
    ratio = np.array([np.mean(np.abs(p.samples[:length]) ** 2)
                      for p in corpus.packets]) / expected
    problems = []
    per_packet = SIGMAS / np.sqrt(length)
    bad = np.nonzero(np.abs(ratio - 1) > per_packet + BURST_POWER_SLACK)[0]
    if bad.size:
        problems.append(
            f"{bad.size} packets have silence noise power off by more than "
            f"{per_packet + BURST_POWER_SLACK:.0%}, e.g. packet {bad[0]} at "
            f"{ratio[bad[0]]:.3f} x expected")
    pooled = SIGMAS / np.sqrt(length * len(ratio)) + BURST_POWER_SLACK
    if abs(ratio.mean() - 1) > pooled:
        problems.append(f"mean silence noise power is {ratio.mean():.4f} x "
                        f"expected (tolerance {pooled:.4f})")
    return problems


def onsets_in_window(onsets, window, what: str) -> list[str]:
    lo, hi = window
    onsets = np.asarray(onsets)
    bad = np.nonzero((onsets < lo) | (onsets > hi))[0]
    if bad.size:
        return [f"{bad.size} {what} onsets outside [{lo}, {hi}], e.g. "
                f"{onsets[bad[0]]} at row {bad[0]}"]
    return []


def traces_never_increase(model) -> list[str]:
    """LM accepts only steps that lower the training MSE."""
    problems = []
    for s, runs in enumerate(model.traces, start=1):
        for i, run in enumerate(runs, start=1):
            steps = np.diff(np.asarray(run.train_mse))
            if steps.size and steps.max() > 0:
                problems.append(f"stage {s} MLP {i}: train_mse rises by "
                                f"{steps.max():.3g}")
    return problems


def split_is_clean(n_rows, train_idx, test_idx, fit_idx, val_idx) -> list[str]:
    train, test = set(map(int, train_idx)), set(map(int, test_idx))
    fit, val = set(map(int, fit_idx)), set(map(int, val_idx))
    problems = []
    if train & test:
        problems.append(f"{len(train & test)} held-out rows in the training split")
    if (fit | val) & test:
        problems.append(f"{len((fit | val) & test)} held-out rows in the "
                        "training or validation rows")
    if not (fit | val) <= train:
        problems.append("fit or validation rows outside the training split")
    if fit & val:
        problems.append(f"{len(fit & val)} rows both fit and validate")
    if train | test != set(range(n_rows)):
        problems.append("training and held-out rows do not cover the corpus")
    return problems


def labels_and_confusion(y_true, y_pred, n_labels: int, counts) -> list[str]:
    """Predictions lie in 1..n_labels and the confusion matrix accounts for
    every one of them, with its diagonal equal to the correct count."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    problems = []
    if y_pred.size and (y_pred.min() < 1 or y_pred.max() > n_labels):
        problems.append(f"predicted labels span {y_pred.min()}..{y_pred.max()}, "
                        f"outside 1..{n_labels}")
    if counts.sum() != y_true.size:
        problems.append(f"confusion counts sum to {counts.sum()}, "
                        f"expected {y_true.size}")
    if np.trace(counts) != np.sum(y_true == y_pred):
        problems.append(f"confusion diagonal {np.trace(counts)} != "
                        f"{np.sum(y_true == y_pred)} correct labels")
    return problems


def same_labels(a, b, what: str) -> list[str]:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return [f"{what}: {a.shape} vs {b.shape} labels"]
    diff = np.nonzero(a != b)[0]
    if diff.size:
        return [f"{what}: {diff.size} labels differ, first at row {diff[0]} "
                f"({a[diff[0]]} vs {b[diff[0]]})"]
    return []


def above_chance(accuracy: float, n_labels: int) -> list[str]:
    floor = MIN_CHANCE_MULTIPLE / n_labels
    if accuracy < floor:
        return [f"accuracy {accuracy:.3f} below {floor:.3f} "
                f"({MIN_CHANCE_MULTIPLE:g} x chance)"]
    return []
