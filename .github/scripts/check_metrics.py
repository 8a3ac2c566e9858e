#!/usr/bin/env python3
"""Fail when a benchmark result line lacks a metric BENCHMARK.json names.

Reads the last line of `perfbench/run.py --workload all` on standard input
and checks that it holds `<workload>.<name>` for every workload and every
metric of the given kind: `end_to_end` for an untraced run, `per_layer`
for a traced one.

    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 \
        | tail -n 1 | python3 .github/scripts/check_metrics.py per_layer
"""
import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in ("end_to_end", "per_layer"):
        sys.exit(f"usage: {sys.argv[0]} end_to_end|per_layer < result line")
    kind = sys.argv[1]
    spec = json.loads(SPEC.read_text())
    metrics = json.loads(sys.stdin.read())["metrics"]
    missing = [f"{w['name']}.{m['name']}" for w in spec["workloads"]
               for m in spec[kind] if f"{w['name']}.{m['name']}" not in metrics]
    if missing:
        print(f"result line lacks {len(missing)} {kind} metric(s) named in "
              f"BENCHMARK.json: {', '.join(missing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
