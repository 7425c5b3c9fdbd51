"""The benchmark's readers of ``speq`` must keep working: every name the
per-layer trace wraps exists, the resident-bytes, traffic and digest
readers agree on a fresh default model, and the benchmark's self-test
passes. Every weight GEMM the benchmark's workloads run takes the BLAS
path, every attention sum they run takes numpy's einsum, and the probes
that admit them reject a kernel that sums in another order."""

from __future__ import annotations

import importlib.util
import subprocess
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


def test_bench_selftest_passes():
    # The benchmark's own tests, as its checkout runs them: a change under
    # src/ that breaks a bench reader fails here.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/selftest.py"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]


def _workloads(monkeypatch):
    _load(monkeypatch, "spans", "spans")
    _load(monkeypatch, "speed", "speed")
    return _load(monkeypatch, "speqbench", "speqbench").WORKLOADS.values()


def _weight_gemm_shapes(wl):
    """(rows, k, n, group size) of every weight GEMM a workload can run: its
    prompt, and 1 to L+1 rows for decode steps, drafts and verify windows."""
    cfg = ModelConfig(**wl.model)
    rows = {wl.prompt_len, *range(1, SpecDecConfig(**wl.spec).max_draft_len + 2)}
    kn = {w.shape for name, w in draw_weights(cfg).items() if name != "embed"}
    return sorted((r, k, n, cfg.group_size) for r in rows for k, n in kn)


def test_every_workload_weight_gemm_takes_blas(monkeypatch, fresh_probes):
    for wl in _workloads(monkeypatch):
        shapes = _weight_gemm_shapes(wl)
        assert shapes
        rejected = [s for s in shapes if not _accel._blas_admits(*s)]
        assert rejected == [], wl.name


# Stacked kernels, (G, rows, gs) x (G, gs, n) -> (G, rows, n), each summing
# in another order than the fixed one.
_SGEMM = _accel._sgemm


def _reversed_k(a, w):
    # each group's slice summed in descending k
    return _SGEMM(np.ascontiguousarray(a[..., ::-1]), np.ascontiguousarray(w[:, ::-1]))


def _pairwise(a, w):
    # reduce over a contiguous axis sums pairwise
    return np.add.reduce(np.ascontiguousarray(a[..., None, :] * w.swapaxes(1, 2)[:, None]), axis=-1)


def _split_k(a, w):
    h = a.shape[-1] // 2
    return _SGEMM(a[..., :h], w[:, :h]) + _SGEMM(a[..., h:], w[:, h:])


def _sgemv(a, w):
    # numpy sends a one-row slice to sgemv
    return np.concatenate([np.matmul(a[:, i : i + 1], w) for i in range(a.shape[1])], axis=1)


def _descending_groups(a, w):
    # every group's sums in the fixed order, handed back last group first, so
    # the groups are scaled and added in descending order
    return _SGEMM(a, w)[::-1]


def _groups(shape):
    return -(-shape[1] // shape[3])


@pytest.mark.parametrize("kernel", [_reversed_k, _pairwise, _split_k, _sgemv, _descending_groups])
def test_probe_rejects_reassociating_blas(monkeypatch, fresh_probes, kernel):
    monkeypatch.setattr(_accel, "_sgemm", kernel)
    for wl in _workloads(monkeypatch):
        shapes = _weight_gemm_shapes(wl)
        if kernel is _descending_groups:
            # with one group there is no order to get wrong: the same bits
            assert all(_accel._blas_admits(*s) for s in shapes if _groups(s) == 1), wl.name
            shapes = [s for s in shapes if _groups(s) > 1]
            assert shapes, wl.name
        admitted = [s for s in shapes if _accel._blas_admits(*s)]
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


def test_every_workload_attention_takes_einsum(monkeypatch, fresh_probes):
    assert _accel._einsum_in_order()
    workloads = list(_workloads(monkeypatch))
    for wl in workloads:  # the sgemm probes check against the loop: run them first
        assert all(_accel._blas_admits(*s) for s in _weight_gemm_shapes(wl))
    loop, looped = _accel._loop_f32, []

    def recording_loop(a, w):
        looped.append((a.shape, w.shape, w.strides))
        return loop(a, w)

    monkeypatch.setattr(_accel, "_loop_f32", recording_loop)
    for wl in workloads:
        model = init_model(ModelConfig(**wl.model))
        window = SpecDecConfig(**wl.spec).max_draft_len + 1
        cache = model.new_cache(wl.prompt_len + wl.gen_len)  # as the decoders size it
        tokens = np.random.default_rng(wl.prompt_len).integers(0, model.cfg.vocab, cache.positions)
        forward_full(model, tokens[: wl.prompt_len], cache, last_only=True)
        while cache.len < cache.positions - window:  # one-row forwards at every length
            forward_draft(model, int(tokens[cache.len]), cache)
        forward_full(model, tokens[cache.len :], cache)  # a verify window that fills the cache
        assert cache.len == cache.positions
        assert looped == [], wl.name


_EINSUM = _accel._einsum


def _per_k(a, w):
    """The fixed order, one k-step at a time into a +0.0 output."""
    out = np.zeros((*a.shape[:-1], w.shape[-1]), dtype=np.float32)
    for i in range(a.shape[-1]):
        out = out + a[..., i : i + 1] * w[..., i : i + 1, :]
    return out


def _einsum_reversed_k(a, w):
    return _EINSUM(np.ascontiguousarray(a[..., ::-1]), np.ascontiguousarray(w[..., ::-1, :]))


def _einsum_pairwise(a, w):
    # reduce over a contiguous axis sums pairwise
    prods = a[..., :, None, :] * w.swapaxes(-1, -2)[..., None, :, :]
    return np.add.reduce(np.ascontiguousarray(prods), axis=-1)


def _einsum_fma64(a, w):
    # each product exact in float64 and added to the running sum before one rounding to float32
    out = np.zeros((*a.shape[:-1], w.shape[-1]), dtype=np.float32)
    for i in range(a.shape[-1]):
        out = (out + a[..., i : i + 1].astype(np.float64) * w[..., i : i + 1, :]).astype(np.float32)
    return out


@pytest.mark.parametrize("kernel", [_einsum_reversed_k, _einsum_pairwise, _einsum_fma64])
def test_probe_rejects_reordered_einsum(monkeypatch, fresh_probes, kernel):
    monkeypatch.setattr(_accel, "_einsum", kernel)
    assert not _accel._einsum_in_order()

    rng = np.random.default_rng(70)
    n_heads, d, n, t = 4, 64, 17, 40
    dh = d // n_heads
    q, k, v = (rng.standard_normal((r, d), dtype=np.float32) for r in (n, t, t))
    probs = rng.random((n_heads, n, t), dtype=np.float32)
    keys = np.zeros((dh, n_heads, t + 5), dtype=np.float32)  # as KvCache holds them
    keys[..., :t] = k.reshape(t, n_heads, dh).T
    a = rng.standard_normal((n, d), dtype=np.float32)
    w = rng.standard_normal((d, 96), dtype=np.float32)
    assert not np.array_equal(kernel(a, w).view(np.uint32), _per_k(a, w).view(np.uint32))

    def same_bits(got, want):
        return np.array_equal(got.view(np.uint32), want.view(np.uint32))

    scores = _accel.attn_scores_f32(q, keys[..., :t], n_heads)
    ctx = _accel.attn_ctx_f32(probs, v, n_heads)
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        assert same_bits(scores[h], _per_k(q[:, sl], k[:, sl].T))
        assert same_bits(ctx[:, sl], _per_k(probs[h], v[:, sl]))
    assert same_bits(_accel.gemm_f32(a, w), _per_k(a, w))


def _tile_paths(monkeypatch):
    """Record (rows, d_head, key-major) of every attention tile's context call,
    and check that its row sum took the same layout."""
    ctx, rowsum, tiles, sums = _accel.attn_ctx_f32, _accel.rowsum_f32, [], []

    def recording_ctx(probs, v, n_heads, key_major=False):
        rows = probs.shape[-1] if key_major else probs.shape[1]
        tiles.append((rows, v.shape[1] // n_heads, key_major))
        return ctx(probs, v, n_heads, key_major=key_major)

    def recording_rowsum(x, key_major=False):
        sums.append(key_major)
        return rowsum(x, key_major=key_major)

    monkeypatch.setattr(_accel, "attn_ctx_f32", recording_ctx)
    monkeypatch.setattr(_accel, "rowsum_f32", recording_rowsum)
    return tiles, sums


def _loop_calls(monkeypatch):
    """Record the operand shapes of every ``_loop_f32`` call."""
    loop, looped = _accel._loop_f32, []

    def recording_loop(a, w):
        looped.append((a.shape, w.shape))
        return loop(a, w)

    monkeypatch.setattr(_accel, "_loop_f32", recording_loop)
    return looped


def test_wide_tiles_take_the_key_major_path(monkeypatch, fresh_probes):
    # Tiles of more rows than d_head sum over the keys on the key-major copy:
    # long-context's prefill tiles do, one-row tiles and draft-heavy's
    # windows (d_head 32, at most 17 rows) do not, and no sum, row sums
    # included, runs the loop. The probes compare with the loop: run them
    # before it is recorded.
    assert _accel._einsum_in_order()
    workloads = {wl.name: wl for wl in _workloads(monkeypatch)}
    for wl in workloads.values():
        assert all(_accel._blas_admits(*s) for s in _weight_gemm_shapes(wl))
    looped = _loop_calls(monkeypatch)
    tiles, sums = _tile_paths(monkeypatch)
    seen = {}
    for name, wl in workloads.items():
        model = init_model(ModelConfig(**wl.model))
        window = SpecDecConfig(**wl.spec).max_draft_len + 1
        cache = model.new_cache(wl.prompt_len + wl.gen_len)
        tokens = np.random.default_rng(wl.prompt_len).integers(0, model.cfg.vocab, cache.positions)
        tiles.clear()
        forward_full(model, tokens[: wl.prompt_len], cache, last_only=True)
        prefill = list(tiles)
        while cache.len < cache.positions - window:
            forward_draft(model, int(tokens[cache.len]), cache)
        forward_full(model, tokens[cache.len :], cache)
        seen[name] = (prefill, list(tiles))

    prefill, _ = seen["long-context"]
    # layer 0 runs six 64-row tiles; the last layer runs the last row alone
    assert [km for rows, _, km in prefill if rows > 1] == [True] * 6
    for name, (_, every) in seen.items():
        assert all(km == (rows > d_head) for rows, d_head, km in every), name
        assert not any(km for rows, _, km in every if rows == 1), name
    assert not any(km for _, _, km in seen["draft-heavy"][1])
    assert [km for _, _, km in seen["chat-short"][1]].count(True) == 2  # the 17-row window
    every = [km for name in seen for _, _, km in seen[name][1]]
    assert sums == every
    # at the rule's edge, on the default model: d_head rows, then one more
    model = init_model(ModelConfig())
    for rows in (16, 17):
        tiles.clear()
        forward_full(model, list(range(rows)), model.new_cache())
        assert tiles == [(rows, 16, rows > 16)] * model.cfg.n_layers
    assert looped == []


def _einsum_reversed_when_key_major(a, w):
    # attention's key-major sums alone have both operands C-contiguous
    if a.flags.c_contiguous and w.flags.c_contiguous:
        return _einsum_reversed_k(a, w)
    return _EINSUM(a, w)


def _is_row_sum(a, w):
    # the key-major row sum alone has one row of ``a`` per head as well
    return a.shape[-2] == 1 and a.flags.c_contiguous and w.flags.c_contiguous


def _einsum_reversed_when_row_sum(a, w):
    return _einsum_reversed_k(a, w) if _is_row_sum(a, w) else _EINSUM(a, w)


def _einsum_pairwise_when_row_sum(a, w):
    return _einsum_pairwise(a, w) if _is_row_sum(a, w) else _EINSUM(a, w)


@pytest.mark.parametrize(
    "kernel,a_rows",
    [
        (_einsum_reversed_when_key_major, 16),
        (_einsum_reversed_when_row_sum, 1),
        (_einsum_pairwise_when_row_sum, 1),
    ],
)
def test_probes_reject_reordered_key_major_sums(monkeypatch, fresh_probes, kernel, a_rows):
    # An einsum that sums a key-major context or row sum in another order is
    # caught by the probe, and every tile then gives the bits it gives today.
    model = init_model(ModelConfig())
    tokens = np.random.default_rng(71).integers(0, 256, 100)  # tiles of 64 and 36 rows
    want = forward_full(model, tokens, model.new_cache())

    # the kernel does sum in another order on a tile's key-major layout
    rng = np.random.default_rng(72)
    km = rng.random((4, 150, 20), dtype=np.float32)
    a = rng.standard_normal((4, a_rows, 150), dtype=np.float32)
    assert not np.array_equal(kernel(a, km), _EINSUM(a, km))
    monkeypatch.setattr(_accel, "_einsum", kernel)
    _accel._einsum_in_order.cache_clear()
    assert not _accel._einsum_in_order()
    looped = _loop_calls(monkeypatch)
    tiles, _ = _tile_paths(monkeypatch)
    got = forward_full(model, tokens, model.new_cache())
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    # the wide tiles keep the key-major layout, and both of their sums run
    # the per-k loop: in each layer, 64 rows over 64 keys, then 36 over 100
    assert [(rows, km) for rows, _, km in tiles] == [(64, True), (36, True)] * model.cfg.n_layers
    heads, dh = model.cfg.n_heads, model.cfg.d_model // model.cfg.n_heads
    for rows, t in ((64, 64), (36, 100)):
        assert ((heads, 1, t), (heads, t, rows)) in looped  # the row sum
        assert ((heads, dh, t), (heads, t, rows)) in looped  # the context
