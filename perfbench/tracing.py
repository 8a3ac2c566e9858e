"""In-memory span tracer that wraps library calls from outside the library.

A span is [name, start, end, parent index].  Spans nest on one thread, so a
span's self time is its duration minus the durations of its direct
children.  The tracer records only while `active` is true.
"""
from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from rfmst import ann, dataprep, frontend, mst, signal_gen, wavelet


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a version that records a span per call."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if on_result is not None:
                on_result(result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def dump(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"names": names, "counts": dict(self.counts),
                       "spans": [[ids[s[0]], s[1], s[2], s[3]]
                                 for s in self.spans]}, f)


def install(tracer: Tracer) -> None:
    """Wrap the calls into each layer that the workloads make."""
    def lm_result(result):
        tracer.counts["ann.lm_step_accepted"] += bool(result[3])

    tracer.wrap(signal_gen, "generate_corpus", "signal_gen.generate_corpus")
    tracer.wrap(signal_gen, "modulate", "signal_gen.modulate")
    tracer.wrap(signal_gen, "apply_impairments", "signal_gen.apply_impairments")
    tracer.wrap(dataprep, "detect_onset", "dataprep.detect_onset")
    tracer.wrap(dataprep, "segment", "dataprep.segment")
    tracer.wrap(dataprep, "feature_matrix", "dataprep.feature_matrix")
    tracer.wrap(wavelet, "scalogram", "wavelet.scalogram")
    tracer.wrap(frontend, "train_frontend", "frontend.train_frontend")
    tracer.wrap(frontend, "train_som", "frontend.train_som")
    tracer.wrap(frontend.FrontEnd, "__call__", "frontend.extract")
    # mst imports train and forward by name; ann calls its own globals
    tracer.wrap(mst, "train", "ann.train")
    tracer.wrap(mst, "forward", "ann.forward")
    tracer.wrap(ann, "forward", "ann.forward")
    tracer.wrap(ann, "lm_step", "ann.lm_step", on_result=lm_result)
    tracer.wrap(ann, "output_jacobian", "ann.output_jacobian")
    tracer.wrap(ann, "cho_factor", "ann.cho_factor")
    tracer.wrap(mst, "classify_batch", "mst.classify_batch")


class SpanIndex:
    """Durations and self times of recorded spans, optionally within the
    phase (root span) they ran under."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.phase = [""] * len(spans)
        self.by_name = defaultdict(list)
        # a parent is recorded before its children
        for i, (name, start, end, parent) in enumerate(spans):
            self.by_name[name].append(i)
            if parent == -1:
                self.phase[i] = name
            else:
                self.phase[i] = self.phase[parent]
                self.child_time[parent] += end - start

    def select(self, name: str, phase: str | None = None) -> list[int]:
        return [i for i in self.by_name[name]
                if phase is None or self.phase[i] == phase]

    def durations(self, name: str, phase: str | None = None) -> np.ndarray:
        return np.array([self.spans[i][2] - self.spans[i][1]
                         for i in self.select(name, phase)])

    def total(self, name: str, phase: str | None = None) -> float:
        return float(self.durations(name, phase).sum())

    def self_time(self, name: str, phase: str | None = None) -> float:
        return float(sum(self.spans[i][2] - self.spans[i][1] - self.child_time[i]
                         for i in self.select(name, phase)))


def _mean(values: np.ndarray, scale: float) -> float:
    return float(values.mean() * scale) if values.size else 0.0


def layer_metrics(tracer: Tracer, model, key_on: int, onsets,
                  identified: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ann.* counts and times cover MST training only; classification cost is
    in mst.classify_batch_*.  `identified` is the packet count of the one
    traced identification pass.
    """
    idx = SpanIndex(tracer.spans)
    m: dict[str, float] = {}
    m["signal_gen.generate_corpus_s"] = idx.total("signal_gen.generate_corpus")
    m["signal_gen.modulate_s"] = idx.total("signal_gen.modulate")
    m["signal_gen.modulate_calls"] = len(idx.select("signal_gen.modulate"))
    m["signal_gen.apply_impairments_s"] = idx.total("signal_gen.apply_impairments")

    m["dataprep.detect_onset_us_per_pkt"] = _mean(
        idx.durations("dataprep.detect_onset"), 1e6)
    m["dataprep.onset_err_samples"] = float(
        np.median(np.abs(np.asarray(onsets) - key_on)))
    m["dataprep.segment_s"] = idx.total("dataprep.segment")
    m["dataprep.feature_matrix_s"] = idx.total("dataprep.feature_matrix")

    scal = idx.durations("wavelet.scalogram")
    m["wavelet.scalogram_ms_per_pkt"] = _mean(scal, 1e3)
    m["wavelet.scalogram_calls"] = int(scal.size)

    m["frontend.train_frontend_s"] = idx.total("frontend.train_frontend")
    m["frontend.train_som_s"] = idx.total("frontend.train_som")
    m["frontend.extract_ms_per_pkt"] = _mean(idx.durations("frontend.extract"), 1e3)

    phase = "phase.train"
    lm = idx.durations("ann.lm_step", phase)
    accepted = tracer.counts["ann.lm_step_accepted"]
    m["ann.train_calls"] = len(idx.select("ann.train", phase))
    m["ann.lm_step_calls"] = int(lm.size)
    m["ann.lm_step_accepted"] = int(accepted)
    m["ann.lm_accept_ratio"] = accepted / lm.size if lm.size else 0.0
    m["ann.lm_step_ms_p50"] = float(np.median(lm) * 1e3) if lm.size else 0.0
    m["ann.output_jacobian_s"] = idx.total("ann.output_jacobian", phase)
    m["ann.cho_factor_calls"] = len(idx.select("ann.cho_factor", phase))
    m["ann.cho_factor_s"] = idx.total("ann.cho_factor", phase)
    m["ann.forward_calls"] = len(idx.select("ann.forward", phase))
    m["ann.forward_s"] = idx.total("ann.forward", phase)
    m["ann.lm_step_self_s"] = idx.self_time("ann.lm_step", phase)

    # train_mst makes one ann.train call per MLP, stage by stage
    train_runs = idx.durations("ann.train", phase)
    start = 0
    for s, cfg in enumerate(model.configs, start=1):
        m[f"mst.stage{s}_train_s"] = float(train_runs[start:start + cfg.n_mlps].sum())
        start += cfg.n_mlps
    m["mst.iterations"] = sum(run.iterations for runs in model.traces
                              for run in runs)
    classify = idx.durations("mst.classify_batch", "phase.identify")
    m["mst.classify_batch_calls"] = int(classify.size)
    m["mst.classify_batch_ms_per_pkt"] = (
        float(classify.sum() * 1e3 / identified) if identified else 0.0)
    return m
