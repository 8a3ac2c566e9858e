"""The benchmark's tracer wraps library attributes by name; each must exist."""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_wrapped_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)     # a missing attribute raises here
        originals = list(tracer._patched)
    finally:
        tracer.restore()
    assert originals
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
