#!/usr/bin/env python3
"""Toy-size self-check of the benchmark's correctness checks.

Each check must pass on a correct toy output and fail on a deliberately
wrong one.  Run from the repository root, in about a second:

    python3 perfbench/selfcheck.py

Exits 0 when every check behaves, 1 otherwise.
"""
from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from rfmst import mst, signal_gen, wavelet  # noqa: E402

import checks  # noqa: E402
from workloads import onset_window  # noqa: E402


def cases():
    """(name, problems on the correct output, problems on the wrong one)."""
    rng = np.random.default_rng(7)

    v = np.abs(rng.normal(size=64) + 1j * rng.normal(size=64))
    scal = wavelet.scalogram(v, wavelet.MorletParams(n_scales=16))
    bent = scal.copy()
    bent[5] *= 1.0 + 1e-6
    yield ("perturbed scalogram row",
           checks.scalogram_matches_definition(v, scal),
           checks.scalogram_matches_definition(v, bent))

    params = signal_gen.OfdmParams()
    window = onset_window(params)
    good = np.array([window[0], window[0] + 3, window[1]])
    yield ("shifted onset",
           checks.onsets_in_window(good, window, "toy"),
           checks.onsets_in_window(good - 4, window, "toy"))

    true = np.array([1, 1, 2, 2, 3, 3])
    pred = np.array([1, 1, 2, 3, 3, 3])
    permuted = pred[[1, 2, 0, 4, 5, 3]]
    yield ("permuted labels",
           checks.same_labels(pred, pred.copy(), "toy"),
           checks.same_labels(pred, permuted, "toy"))
    counts = mst.confusion_from_predictions(true, pred, 3).counts
    yield ("labels outside 1..n",
           checks.labels_and_confusion(true, pred, 3, counts),
           checks.labels_and_confusion(true, np.where(pred == 3, 4, pred), 3,
                                       counts))

    train, test = np.array([0, 2, 4, 5]), np.array([1, 3])
    fit, val = np.array([0, 2, 4]), np.array([5])
    yield ("test index leaked into training",
           checks.split_is_clean(6, train, test, fit, val),
           checks.split_is_clean(6, train, test, np.append(fit, 3), val))

    corpus = signal_gen.generate_corpus(signal_gen.default_profiles()[:2], 2,
                                        seed=3, noise_snr_db=30.0)
    yield ("noise at another SNR",
           checks.silence_noise_power(corpus, 30.0),
           checks.silence_noise_power(corpus, 24.0))

    def model(*traces):
        return SimpleNamespace(traces=[[SimpleNamespace(train_mse=t)
                                        for t in traces]])
    yield ("rising training MSE",
           checks.traces_never_increase(model([0.5, 0.2, 0.2, 0.1])),
           checks.traces_never_increase(model([0.5, 0.2, 0.3])))

    yield ("accuracy at chance",
           checks.above_chance(0.9, 12),
           checks.above_chance(1 / 12, 12))


def main() -> int:
    ok = True
    for name, on_good, on_bad in cases():
        behaves = not on_good and bool(on_bad)
        ok &= behaves
        print(f"{'ok  ' if behaves else 'FAIL'} {name}: correct output -> "
              f"{on_good or 'pass'}; wrong output -> {on_bad or 'pass'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
