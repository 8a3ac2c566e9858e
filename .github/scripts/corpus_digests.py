#!/usr/bin/env python3
"""Print the corpus digest of each seed's benchmark corpus, one line per
seed: the seed and the first 16 hex digits of `workloads.corpus_digest`.

The corpus is the one both benchmark workloads synthesise
(`workloads.synthesise`): the 12 default transmitters, 40 packets each, at
30 dB.  The seeds are 1-30, 101, 1601-1610, 1701-1710, 2001-2010,
2101-2110 and 2201-2211; the resampler once moved one packet of 480 at
seed 5, which the small corpora tier-1 pins would likely miss.
`corpus_digests.txt` beside this script holds the output; CI diffs the
two, so a change that moves a byte of synthesis at any of these seeds
fails there.  Run from anywhere (about 40 s on two CPUs):

    python3 .github/scripts/corpus_digests.py | diff .github/scripts/corpus_digests.txt -
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = [*range(1, 31), 101, *range(1601, 1611), *range(1701, 1711),
         *range(2001, 2011), *range(2101, 2111), *range(2201, 2212)]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    wl = workloads.WORKLOADS["raw_w1024"]
    for seed in SEEDS:
        corpus = workloads.synthesise(wl, seed)
        print(seed, workloads.corpus_digest(corpus)[:16], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
