"""Every name the benchmark's per-layer trace wraps must still exist."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("speq_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == []
