"""The benchmark's readers of ``speq`` must keep working: every name the
per-layer trace wraps exists, and the resident-bytes, traffic and digest
readers agree on a fresh default model."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from speq.model import ModelConfig, forward_draft, forward_full, init_model

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name: str, module_name: str):
    spec = importlib.util.spec_from_file_location(module_name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    spans = _load(monkeypatch, "spans", "speq_bench_spans")
    assert spans.TARGETS
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == []


def test_bench_readers_agree(monkeypatch):
    # speqbench imports its siblings by their plain names
    _load(monkeypatch, "spans", "spans")
    _load(monkeypatch, "speed", "speed")
    bench = _load(monkeypatch, "speqbench", "speqbench")
    assert bench.logits_digest() == bench.DIGEST

    m = init_model(ModelConfig())
    resident, params = bench.resident_bytes(m)
    assert params == 114688
    # no resident bit streams: only the two float32 operands and the scales
    want = {"wq": 0, "wr": 0, "scales": 6144, "cache": 8 * params, "raw": 0}
    assert resident == want
    assert bench._traffic_bits(m) == (0, 0)
    cache = m.new_cache()
    forward_full(m, [1], cache)
    forward_draft(m, 2, cache)
    assert bench._traffic_bits(m) == (4 * params, 16 * params)
