"""The benchmark's traced runs wrap modalkit functions by module attribute
name (perfbench/tracing.py, layer_targets).  Building its Swap looks up
every one of them, so renaming or moving a wrapped function fails here,
not only in a later traced benchmark run.  This reads perfbench/ and
changes nothing in it."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_layer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracing.Swap(tracing.Tracer())  # raises AttributeError on a missing target
