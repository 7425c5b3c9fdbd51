"""The benchmark's readers of ``speq`` must keep working: every name the
per-layer trace wraps exists, and the resident-bytes, traffic and digest
readers agree on a fresh default model. Every weight GEMM the benchmark's
workloads run takes the BLAS path, and the probe that admits it rejects a
BLAS that sums in another order."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from speq import _accel
from speq.kernels import gemm_draft, gemm_full
from speq.model import ModelConfig, draw_weights, forward_draft, forward_full, init_model
from speq.specdec import SpecDecConfig

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


def _workloads(monkeypatch):
    _load(monkeypatch, "spans", "spans")
    _load(monkeypatch, "speed", "speed")
    return _load(monkeypatch, "speqbench", "speqbench").WORKLOADS.values()


def _weight_gemm_shapes(wl):
    """(rows, k, n) of every weight-GEMM group a workload can run: its prompt,
    and 1 to L+1 rows for decode steps, drafts and verify windows."""
    cfg = ModelConfig(**wl.model)
    rows = {wl.prompt_len, *range(1, SpecDecConfig(**wl.spec).max_draft_len + 2)}
    gs = cfg.group_size
    kn = set()
    for name, w in draw_weights(cfg).items():
        if name != "embed":
            k, n = w.shape
            kn |= {(min(gs, k - k0), n) for k0 in range(0, k, gs)}
    return sorted((r, k, n) for r in rows for k, n in kn)


@pytest.fixture
def fresh_probe():
    _accel._blas_in_order.cache_clear()
    _accel._blas_admits.cache_clear()
    yield
    _accel._blas_in_order.cache_clear()
    _accel._blas_admits.cache_clear()


def test_every_workload_weight_gemm_takes_blas(monkeypatch, fresh_probe):
    for wl in _workloads(monkeypatch):
        shapes = _weight_gemm_shapes(wl)
        assert shapes
        rejected = [s for s in shapes if not _accel._blas_in_order(*s)]
        assert rejected == [], wl.name


_SGEMM = _accel._sgemm


def _reversed_k(a, w):
    return _SGEMM(np.ascontiguousarray(a[:, ::-1]), np.ascontiguousarray(w[::-1]))


def _pairwise(a, w):
    # reduce over a contiguous axis sums pairwise
    return np.add.reduce(np.ascontiguousarray(a[:, None, :] * w.T[None]), axis=-1)


def _split_k(a, w):
    h = a.shape[1] // 2
    return _SGEMM(np.ascontiguousarray(a[:, :h]), w[:h]) + _SGEMM(np.ascontiguousarray(a[:, h:]), w[h:])


def _sgemv(a, w):
    return np.matmul(a, w)  # one row goes to sgemv


@pytest.mark.parametrize("kernel", [_reversed_k, _pairwise, _split_k, _sgemv])
def test_probe_rejects_reassociating_blas(monkeypatch, fresh_probe, kernel):
    monkeypatch.setattr(_accel, "_sgemm", kernel)
    for wl in _workloads(monkeypatch):
        # sgemv differs from the padded call only on one row
        shapes = [s for s in _weight_gemm_shapes(wl) if kernel is not _sgemv or s[0] == 1]
        admitted = [s for s in shapes if _accel._blas_in_order(*s)]
        assert admitted == [], wl.name

        model = init_model(ModelConfig(**wl.model))
        rng = np.random.default_rng(wl.prompt_len)
        for m in sorted({1, wl.prompt_len, SpecDecConfig(**wl.spec).max_draft_len + 1}):
            for p in model.weights.values():
                a = rng.normal(0, 1, (m, p.rows)).astype(np.float16)
                a32 = a.astype(np.float32)
                full = _accel.gemm_groups(_accel.gemm_f32, a32, p.full_values_f32(), p.group_size)
                draft = _accel.gemm_groups(
                    _accel.gemm_f32, a32, p.draft_values(), p.group_size, p.group_scales
                )
                for got, want in ((gemm_full(a, p), full), (gemm_draft(a, p), draft)):
                    want = want * p.inv_tensor_scale
                    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
