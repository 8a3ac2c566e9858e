#!/usr/bin/env python3
"""Layered rfmst benchmark: enrol 12 transmitters, identify held-out packets.

Run from the repository root:

    python3 perfbench/run.py --workload wavelet_w512 --seed 1 --seconds 20 --trace 0

--workload all runs every workload, each in a process of its own.
--trace 0 prints the end-to-end metrics.  --trace 1 first runs the same
workload untraced in a child process, then runs it once with every layer
call wrapped in a span, and prints the per-layer metrics together with the
tracing overhead against the child.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Reports and
spans go to .perfbench_out/ at the repository root.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 120
SETUP_RUNS = 3
WARMUP_PACKETS = 24
MIN_ROUNDS = 2
# A re-run of an enrolment phase repeats until this much time has passed,
# so a phase of milliseconds (features on raw_w1024) gets many samples.
RERUN_MIN_S = 0.5
SCALOGRAM_CHECK_PACKETS = 2


def _import_library() -> None:
    """Import rfmst from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rfmst
    except ImportError as exc:
        sys.exit(f"run.py: cannot import rfmst from {src}: {exc}")
    if not Path(rfmst.__file__).resolve().is_relative_to(src):
        sys.exit(f"run.py: rfmst resolved to {rfmst.__file__}, not {src}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "blas": f"{blas['name']} {blas['version']}",
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    # numpy and scipy each bundle their own OpenBLAS; ask both
    for pkg in (numpy, scipy):
        pattern = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs" / "*openblas*"
        for path in glob.glob(str(pattern)):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    env[f"{pkg.__name__}_blas_threads"] = fn()
                    break
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn):
    t0 = perf_counter()
    result = fn()
    return result, perf_counter() - t0


def verify(wl, corpus, ts, model, passes) -> tuple[list[str], dict]:
    """Every correctness check on one run; returns (problems, facts)."""
    import numpy as np
    from rfmst import mst, wavelet

    import checks
    from workloads import (SNR_DB, nearest_neighbour_accuracy, onset_window,
                           validation_split)

    true = corpus.labels()[ts.test_idx]
    first = passes[0]
    kept = first.labels > 0
    n_labels = corpus.n_transmitters
    fit, val = validation_split(ts, model.seed)
    problems = checks.silence_noise_power(corpus, SNR_DB)
    problems += checks.onsets_in_window(ts.onsets, onset_window(corpus.params),
                                        "training")
    problems += checks.traces_never_increase(model)
    problems += checks.split_is_clean(len(corpus.packets), ts.train_idx,
                                      ts.test_idx, ts.train_idx[fit],
                                      ts.train_idx[val])
    confusion = mst.confusion_from_predictions(true[kept], first.labels[kept],
                                               model.n_labels)
    problems += checks.labels_and_confusion(true[kept], first.labels[kept],
                                            n_labels, confusion.counts)
    for p in passes[1:]:
        problems += checks.same_labels(first.labels, p.labels, "repeated pass")
    accuracy = float(np.mean(first.labels == true))
    problems += checks.above_chance(accuracy, n_labels)
    one_at_a_time = np.array(
        [mst.classify_batch(model, row[None, :])[0] for row in first.rows],
        dtype=int)
    problems += checks.same_labels(first.labels[kept], one_at_a_time,
                                   "one packet at a time vs one batch")
    if wl.features == "wavelet":
        for j in range(SCALOGRAM_CHECK_PACKETS):
            start = first.onsets[j] - 1
            v = np.abs(corpus.packets[ts.test_idx[j]].samples[start:start + wl.n])
            problems += checks.scalogram_matches_definition(
                v, wavelet.scalogram(v), seed=j)
    facts = {
        "accuracy": accuracy,
        "nn1_accuracy": nearest_neighbour_accuracy(ts.x, ts.y, first.rows,
                                                   true[kept]),
        "confusion": confusion.counts.tolist(),
        "test_onsets": np.bincount(first.onsets).nonzero()[0].tolist(),
        "iterations": sum(r.iterations for runs in model.traces for r in runs),
    }
    return problems, facts


def timed_run(wl, seed: int, seconds: float) -> dict:
    """Set up, enrol and identify with tracing off.

    Set-up runs SETUP_RUNS times first; then features and training run
    once, to enrol.  The measurement window is whole rounds, at least
    MIN_ROUNDS of them, of: `wl.identify_passes` identification passes of
    every held-out packet, re-runs of features, as many passes again,
    re-runs of training; each re-run repeats until RERUN_MIN_S passed.
    Spreading every phase over the whole window lets each see the same
    drift of the host.  Every time metric is the median over its runs.
    """
    import numpy as np

    from workloads import (corpus_digest, featurise_training, identify,
                           onset_window, synthesise, train_model)

    setup_s, digests = [], []
    for _ in range(SETUP_RUNS):
        corpus = None       # let the previous corpus go before the next
        corpus, t = timed(lambda: synthesise(wl, seed))
        setup_s.append(t)
        digests.append(corpus_digest(corpus))
    enrolment = {
        "features": lambda: featurise_training(wl, corpus, seed),
        "train": lambda: train_model(ts, corpus.n_transmitters, seed),
    }
    ts, t = timed(enrolment["features"])
    phase_s = {"features": [t]}
    model, t = timed(enrolment["train"])
    phase_s["train"] = [t]
    problems = []

    packets = [corpus.packets[i] for i in ts.test_idx]
    window = onset_window(corpus.params)
    identify(wl, ts, model, packets[:WARMUP_PACKETS], window)
    passes = []
    t0 = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - t0 < seconds:
        for name in ("features", "train"):
            for _ in range(wl.identify_passes):
                passes.append(identify(wl, ts, model, packets, window))
                if len(passes) > 1:
                    passes[-1].rows = None  # only the first pass's are checked
            t_rerun = perf_counter()
            while perf_counter() - t_rerun < RERUN_MIN_S:
                again, t = timed(enrolment[name])
                phase_s[name].append(t)
                same = (np.array_equal(again.x, ts.x) if name == "features"
                        else again.stage_hashes() == model.stage_hashes())
                if not same:
                    problems.append(f"re-running {name} gave another result")
        rounds += 1

    more, facts = verify(wl, corpus, ts, model, passes)
    problems += more
    if len(set(digests)) != 1:
        problems.append("one seed synthesised different corpora")
    rates = [len(packets) / p.seconds for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "features_s": (statistics.median(phase_s["features"]), "s"),
        "train_s": (statistics.median(phase_s["train"]), "s"),
        "identify_pkt_per_s": (statistics.median(rates), "1/s"),
        "accuracy": (facts["accuracy"], "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    facts.update(setup_runs_s=setup_s, features_runs_s=phase_s["features"],
                 train_runs_s=phase_s["train"], identify_rates=rates)
    return _result(problems, passes, metrics, facts)


def traced_run(wl, args) -> dict:
    from tracing import Tracer, install, layer_metrics
    from workloads import (featurise_training, identify, key_on, onset_window,
                           synthesise, train_model)

    child = subprocess.run(
        [sys.executable, __file__, "--workload", wl.name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if child.returncode != 0:
        sys.stderr.write(child.stdout + child.stderr)
        sys.exit(f"run.py: untraced child run exited with {child.returncode}")
    plain = json.loads(_report_path(wl.name, args.seed, 0).read_text())
    if not plain["correct"]:
        sys.exit("run.py: untraced child run failed its checks")
    plain = plain["facts"]

    tracer = Tracer()
    install(tracer)
    seconds = {}

    def phase(name, fn):
        t0 = perf_counter()
        with tracer.span(f"phase.{name}"):
            result = fn()
        seconds[name] = perf_counter() - t0
        return result

    try:
        tracer.active = True
        corpus = phase("setup", lambda: synthesise(wl, args.seed))
        ts = phase("features", lambda: featurise_training(wl, corpus, args.seed))
        model = phase("train",
                      lambda: train_model(ts, corpus.n_transmitters, args.seed))
        packets = [corpus.packets[i] for i in ts.test_idx]
        window = onset_window(corpus.params)
        tracer.active = False
        identify(wl, ts, model, packets[:WARMUP_PACKETS], window)
        tracer.active = True
        passes = [phase("identify",
                        lambda: identify(wl, ts, model, packets, window))]
        tracer.active = False
    finally:
        tracer.restore()
    tracer.dump(OUT / f"{wl.name}-seed{args.seed}-spans.json")
    problems, facts = verify(wl, corpus, ts, model, passes)
    layers = layer_metrics(tracer, model, key_on(corpus.params),
                           list(ts.onsets) + list(passes[0].onsets),
                           len(packets) - passes[0].failed)
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    # like for like: each traced phase against the child's first run of it
    untraced = {"setup": plain["setup_runs_s"][0],
                "features": plain["features_runs_s"][0],
                "train": plain["train_runs_s"][0],
                "identify": len(packets) / plain["identify_rates"][0]}
    for name, base in untraced.items():
        metrics[f"trace.{name}_overhead_pct"] = (
            100.0 * (seconds[name] / base - 1.0), "%")
    facts["spans"] = len(tracer.spans)
    return _result(problems, passes, metrics, facts)


def run_all(args) -> dict:
    """Every workload, each in a process of its own so that peak RSS stays
    per workload; metric names get the workload as a prefix."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
        if child.returncode != 0:
            sys.stderr.write(child.stdout + child.stderr)
            sys.exit(f"run.py: workload {name} exited with {child.returncode}")
        *lines, last = child.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def _report_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}{'-trace' if trace else ''}.json"


def _unit(name: str) -> str:
    for suffix, unit in (("_us_per_pkt", "us"), ("_ms_per_pkt", "ms"),
                         ("_ms_p50", "ms"), ("_s", "s"), ("_samples", "samples"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _result(problems, passes, metrics, facts) -> dict:
    return {
        "correct": not problems,
        "attempted": sum(len(p.labels) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "facts": facts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run every one")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    result = traced_run(wl, args) if args.trace else \
        timed_run(wl, args.seed, args.seconds)
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "environment": environment(), **result}
    OUT.mkdir(exist_ok=True)
    _report_path(wl.name, args.seed, args.trace).write_text(
        json.dumps(report, indent=1))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, m in result["metrics"].items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
