#!/usr/bin/env python3
"""Print, per benchmark workload, the hashes that pin a seed's results, and
check that each workload's model and corpus survive a save and load.

Builds each workload's corpus, training features and model with
`perfbench/workloads.py`, identifies the held-out packets, and prints one
JSON line per workload:

    {"workload", "corpus", "features", "filters", "stages", "iterations",
     "accuracy"}

`corpus` is the first 16 hex digits of `corpus_digest`, `features` the
first 16 of the sha256 of the training feature matrix, `filters` the first
16 of the sha256 of the trained front-end's filters (null on a workload
without a front-end), `stages` the model's `stage_hashes()` and
`iterations` its total LM iterations, and `accuracy` the share of
held-out packets identified correctly (`workloads.identify`; a packet that
fails counts as wrong), so a log shows what a change that moves the hashes
did to accuracy.  Two commits that print the same lines built the same
corpus, front-end, features and models; a front-end change moves
`filters` as well as the features and stages, an MST change only the
stages.

Each model and corpus is then saved to and loaded from a temporary
directory.  The script exits 1 unless the loaded model's `stage_hashes()`
and the loaded corpus's `corpus_digest` equal the built ones, and each
`stage<s>.f32`'s sha256 (first 16 hex digits) equals its stage hash.
These compare bytes with bytes, so they hold on any little-endian host.

A last line, for comparison only, names the numeric profile the hashes
belong to: the LAPACK wrappers that LM training solved with
(`rfmst.openblas.lapack()`, the file of scipy's `_flapack` extension), the
core each bundled OpenBLAS chose its kernels for (`rfmst.openblas.cores()`,
which `OPENBLAS_CORETYPE` overrides), numpy's SIMD dispatch targets that
run on this CPU (which `NPY_DISABLE_CPU_FEATURES` trims) and the installed
numpy and scipy versions.  Another profile prints other feature and stage
hashes with no code change.  The line also gives this process's peak RSS
(`ru_maxrss`, in MB) and the minor page faults of the seed's first
synthesis, this process's plus its reaped children's (`ru_minflt`): a
synthesis that allocates a fresh array per packet step faults several
times as often.  Run from anywhere:

    python3 .github/scripts/seed_hashes.py --seed 101

`seed101_pinned.jsonl` beside this script holds the two workload lines of
seed 101 under the profile CI pins: numpy 2.4.6 and scipy 1.17.1,
`OPENBLAS_CORETYPE=Haswell` and
`NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`.
"""
import argparse
import hashlib
import importlib.metadata
import json
import resource
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]


def minor_faults() -> int:
    """Minor page faults so far of this process and its reaped children."""
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def numpy_dispatch() -> list[str]:
    """numpy's SIMD dispatch targets that this process runs: those this CPU
    has, less any that NPY_DISABLE_CPU_FEATURES disables."""
    from numpy._core import _multiarray_umath as umath
    return [target for target in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(target)]


def round_trip_faults(model, corpus, corpus_digest) -> list[str]:
    """What a save and load of model and corpus failed to keep."""
    from rfmst.mst import load_model, save_model
    from rfmst.signal_gen import load_corpus, save_corpus

    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        out = save_model(model, Path(tmp) / "model")
        if load_model(out).stage_hashes() != model.stage_hashes():
            faults.append("loaded stage hashes differ")
        for s, expected in enumerate(model.stage_hashes(), start=1):
            blob = (out / f"stage{s}.f32").read_bytes()
            if hashlib.sha256(blob).hexdigest()[:16] != expected:
                faults.append(f"stage{s}.f32 does not hash to {expected}")
        loaded = load_corpus(save_corpus(corpus, Path(tmp) / "corpus"))
        if corpus_digest(loaded) != corpus_digest(corpus):
            faults.append("loaded corpus digest differs")
    return faults


def accuracy(workloads, wl, corpus, ts, model) -> float:
    """Share of the held-out packets identified as their transmitter."""
    packets = [corpus.packets[i] for i in ts.test_idx]
    labels = workloads.identify(wl, ts, model, packets,
                                workloads.onset_window(corpus.params)).labels
    return round(float(np.mean(labels == corpus.labels()[ts.test_idx])), 4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    failed = False
    synthesis_minflt = []
    for wl in workloads.WORKLOADS.values():
        before = minor_faults()
        corpus = workloads.synthesise(wl, args.seed)
        synthesis_minflt.append(minor_faults() - before)
        ts = workloads.featurise_training(wl, corpus, args.seed)
        model = workloads.train_model(ts, corpus.n_transmitters, args.seed)
        print(json.dumps({
            "workload": wl.name,
            "corpus": workloads.corpus_digest(corpus)[:16],
            "features": hashlib.sha256(ts.x.tobytes()).hexdigest()[:16],
            "filters": None if ts.front is None else
            hashlib.sha256(ts.front.filters.tobytes()).hexdigest()[:16],
            "stages": model.stage_hashes(),
            "iterations": sum(run.iterations for runs in model.traces
                              for run in runs),
            "accuracy": accuracy(workloads, wl, corpus, ts, model),
        }), flush=True)
        for fault in round_trip_faults(model, corpus,
                                       workloads.corpus_digest):
            print(f"{wl.name}: round trip: {fault}", file=sys.stderr)
            failed = True
    from rfmst.openblas import cores, lapack
    print(json.dumps({
        "lapack": lapack(),
        "openblas_cores": cores(),
        "numpy_dispatch": numpy_dispatch(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0, 1),
        "synthesis_minflt": synthesis_minflt[0],
    }), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
