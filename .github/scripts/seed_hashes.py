#!/usr/bin/env python3
"""Print, per benchmark workload, the hashes that pin a seed's results, and
check that each workload's model and corpus survive a save and load.

Builds each workload's corpus, training features and model with
`perfbench/workloads.py` and prints one JSON line per workload:

    {"workload", "corpus", "features", "stages", "iterations"}

`corpus` is the first 16 hex digits of `corpus_digest`, `features` the
first 16 of the sha256 of the training feature matrix, `stages` the
model's `stage_hashes()` and `iterations` its total LM iterations.  Two
commits that print the same lines built the same corpus, features and
models.

Each model and corpus is then saved to and loaded from a temporary
directory.  The script exits 1 unless the loaded model's `stage_hashes()`
and the loaded corpus's `corpus_digest` equal the built ones, and each
`stage<s>.f64`'s sha256 (first 16 hex digits) equals its stage hash.
These compare bytes with bytes, so they hold on any little-endian host.
Run from anywhere:

    python3 .github/scripts/seed_hashes.py --seed 101
"""
import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


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
            blob = (out / f"stage{s}.f64").read_bytes()
            if hashlib.sha256(blob).hexdigest()[:16] != expected:
                faults.append(f"stage{s}.f64 does not hash to {expected}")
        loaded = load_corpus(save_corpus(corpus, Path(tmp) / "corpus"))
        if corpus_digest(loaded) != corpus_digest(corpus):
            faults.append("loaded corpus digest differs")
    return faults


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    failed = False
    for wl in workloads.WORKLOADS.values():
        corpus = workloads.synthesise(wl, args.seed)
        ts = workloads.featurise_training(wl, corpus, args.seed)
        model = workloads.train_model(ts, corpus.n_transmitters, args.seed)
        print(json.dumps({
            "workload": wl.name,
            "corpus": workloads.corpus_digest(corpus)[:16],
            "features": hashlib.sha256(ts.x.tobytes()).hexdigest()[:16],
            "stages": model.stage_hashes(),
            "iterations": sum(run.iterations for runs in model.traces
                              for run in runs),
        }), flush=True)
        for fault in round_trip_faults(model, corpus,
                                       workloads.corpus_digest):
            print(f"{wl.name}: round trip: {fault}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
