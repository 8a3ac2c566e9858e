#!/usr/bin/env python3
"""Print, per benchmark workload, the hashes that pin a seed's results.

Builds each workload's corpus, training features and model with
`perfbench/workloads.py` and prints one JSON line per workload:

    {"workload", "corpus", "features", "stages", "iterations"}

`corpus` is the first 16 hex digits of `corpus_digest`, `features` the
first 16 of the sha256 of the training feature matrix, `stages` the
model's `stage_hashes()` and `iterations` its total LM iterations.  Two
commits that print the same lines built the same corpus, features and
models.  Run from anywhere:

    python3 .github/scripts/seed_hashes.py --seed 101
"""
import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
