"""GEMM kernel tests: exact products, fixed-order accumulation, traffic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from speq import _accel, pe
from speq.kernels import GemmMode, TrafficCounter, gemm_draft, gemm_full
from speq.quantize import draft_reconstruction, handle_outliers, quantize_tensor


def _rand16(rng, shape, scale=0.02):
    return rng.normal(0.0, scale, shape).astype(np.float16)


# ── exact product ────────────────────────────────────────────────────────
# The kernels multiply FP16 operands widened to float32, which is exact.


def test_exact_product_basic():
    assert np.float32(np.float16(1.5)) * np.float32(np.float16(0.5)) == np.float32(0.75)


def test_exact_product_sign_symmetry():
    for x in [0.0, 6e-8, 0.333, 1.0, 65504.0]:
        x16 = np.float16(x)
        assert np.float32(np.float16(-1.0)) * np.float32(x16) == -np.float32(x16)


def test_exact_product_integer_significand_oracle():
    # Wide-integer oracle: decompose both operands, multiply significands
    # exactly, scale by the summed exponents in float64 (exact here).
    rng = np.random.default_rng(40)
    bits_a = rng.integers(0, 1 << 16, 100_000, dtype=np.uint16)
    bits_w = rng.integers(0, 1 << 16, 100_000, dtype=np.uint16)
    # Keep operands finite.
    bits_a = np.where(((bits_a >> 10) & 0x1F) == 31, bits_a & 0x7FFF ^ (1 << 14), bits_a)
    bits_w = np.where(((bits_w >> 10) & 0x1F) == 31, bits_w & 0x7FFF ^ (1 << 14), bits_w)
    a = bits_a.view(np.float16)
    w = bits_w.view(np.float16)

    def decomp(bits):
        e = ((bits >> 10) & 0x1F).astype(np.int64)
        man = (bits & 0x3FF).astype(np.int64)
        sig = np.where(e > 0, man + 1024, man)
        return (bits >> 15).astype(np.int64), sig, np.maximum(e, 1)

    sa, siga, ea = decomp(bits_a)
    sw, sigw, ew = decomp(bits_w)
    prod = (siga * sigw).astype(np.float64)  # <= 2^22, exact
    oracle = np.where(sa != sw, -prod, prod) * np.ldexp(1.0, ea + ew - 50)

    got = a.astype(np.float32) * w.astype(np.float32)
    assert np.array_equal(got.astype(np.float64), oracle)


def test_exact_product_rejects_nonfinite():
    for x in np.array([np.inf, -np.inf, np.nan], np.float16):
        with pytest.raises(ValueError, match="non-finite"):
            pe.pe_full_mac(x, np.float16(1.0))
        with pytest.raises(ValueError, match="non-finite"):
            pe.pe_full_mac(np.float16(1.0), x)
        with pytest.raises(ValueError, match="non-finite"):
            pe.pe_quant_mac(np.array([1.0, x], np.float16), 0, 14)


# ── gemm_full ────────────────────────────────────────────────────────────


def test_gemm_full_identity():
    rng = np.random.default_rng(41)
    w = _rand16(rng, (16, 16))
    p = quantize_tensor(w)
    out = gemm_full(np.eye(16, dtype=np.float16), p)
    assert np.array_equal(out, w.astype(np.float32))


def test_gemm_full_all_ones():
    p = quantize_tensor(np.ones((128, 1), dtype=np.float16))
    out = gemm_full(np.ones((1, 128), dtype=np.float16), p)
    assert out[0, 0] == 128.0


def test_gemm_full_double_oracle():
    # Error is measured against the magnitude-sum denominator (backward
    # style): sequential float32 accumulation keeps it under 2^-20.
    rng = np.random.default_rng(42)
    a = rng.normal(0, 1, (4, 4096)).astype(np.float16)
    w = _rand16(rng, (4096, 8))
    p = quantize_tensor(w)
    out = gemm_full(a, p).astype(np.float64)
    w64 = p.full_values().astype(np.float64)
    oracle = a.astype(np.float64) @ w64
    denom = np.abs(a.astype(np.float64)) @ np.abs(w64)
    assert np.max(np.abs(out - oracle) / denom) <= 2.0**-20


def test_gemm_full_applies_inverse_tensor_scale():
    w = np.full((4, 1), 4.0, dtype=np.float16)
    p = quantize_tensor(w, group_size=4)
    out = gemm_full(np.ones((1, 4), dtype=np.float16), p)
    scaled, ts = handle_outliers(w)
    acc = np.float32(0.0)
    for v in scaled.astype(np.float32)[:, 0]:
        acc += v
    expect = acc * (np.float32(1.0) / np.float32(ts))
    assert out[0, 0] == expect


# ── gemm_draft ───────────────────────────────────────────────────────────


def test_gemm_draft_all_ones():
    p = quantize_tensor(np.ones((128, 1), dtype=np.float16))
    out = gemm_draft(np.ones((1, 128), dtype=np.float16), p)
    assert out[0, 0] == 128.0  # 2.0 * (128 * 0.5)


def test_gemm_draft_zero_rows():
    rng = np.random.default_rng(43)
    p = quantize_tensor(_rand16(rng, (64, 8)))
    a = np.zeros((3, 64), dtype=np.float16)
    assert np.all(gemm_draft(a, p) == 0.0)


def test_gemm_draft_equals_full_on_pow2_groups():
    # Groups with a single shared power-of-two magnitude quantize exactly,
    # and the fitted scale is itself a power of two: draft == full bitwise.
    rng = np.random.default_rng(44)
    sign = rng.integers(0, 2, (256, 4)).astype(np.uint16)
    e = np.repeat(rng.integers(8, 15, (2, 4)), 128, axis=0).astype(np.uint16)
    w = ((sign << 15) | (e << 10)).view(np.float16)
    p = quantize_tensor(w)
    a = rng.normal(0, 1, (3, 256)).astype(np.float16)
    d = gemm_draft(a, p)
    f = gemm_full(a, p)
    assert np.array_equal(d.view(np.uint32), f.view(np.uint32))


def test_gemm_draft_group_error_statistic():
    # Per-group relative L2 error of the draft reconstruction: <= 1 is the
    # least-squares guarantee; ~0.45 is the measured bound when exponents
    # span the top buckets [8, 15].
    rng = np.random.default_rng(45)
    bits = (rng.integers(8, 16, (256, 8)).astype(np.uint16) << 10) | rng.integers(
        0, 1024, (256, 8)
    ).astype(np.uint16)
    w = bits.view(np.float16)
    p = quantize_tensor(w)
    rec = draft_reconstruction(p)
    w64 = w.astype(np.float64)
    for g in range(p.n_groups):
        sl = slice(g * 128, min((g + 1) * 128, 256))
        for c in range(8):
            ratio = math.sqrt(
                np.sum((w64[sl, c] - rec[sl, c]) ** 2) / np.sum(w64[sl, c] ** 2)
            )
            assert ratio <= 1.0
            assert ratio <= 0.45


# ── contracts ────────────────────────────────────────────────────────────


def test_gemm_rejects_bad_inputs():
    rng = np.random.default_rng(46)
    p = quantize_tensor(_rand16(rng, (8, 2)))
    with pytest.raises(ValueError):
        gemm_full(np.ones((1, 4), dtype=np.float16), p)  # K mismatch
    with pytest.raises(ValueError):
        gemm_full(np.ones((1, 8), dtype=np.float32), p)  # wrong dtype
    bad = np.ones((1, 8), dtype=np.float16)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        gemm_full(bad, p)
    with pytest.raises(ValueError):
        gemm_draft(bad, p)
    empty = np.ones((0, 8), dtype=np.float16)  # no rows: nothing to multiply
    for gemm in (gemm_full, gemm_draft):
        with pytest.raises(ValueError, match="at least one row"):
            gemm(empty, p)
    for mode in GemmMode:
        with pytest.raises(ValueError, match="at least one row"):
            pe.simulate_gemm(empty, p, mode)


def test_determinism_repeat_runs():
    rng = np.random.default_rng(47)
    a = rng.normal(0, 1, (5, 300)).astype(np.float16)
    p = quantize_tensor(_rand16(rng, (300, 7)))
    r1 = gemm_full(a, p)
    r2 = gemm_full(a, p)
    d1 = gemm_draft(a, p)
    d2 = gemm_draft(a, p)
    assert np.array_equal(r1.view(np.uint32), r2.view(np.uint32))
    assert np.array_equal(d1.view(np.uint32), d2.view(np.uint32))


def test_draft_never_touches_remainder_stream(poison_remainder):
    rng = np.random.default_rng(48)
    p = quantize_tensor(_rand16(rng, (128, 4)))
    a = rng.normal(0, 1, (2, 128)).astype(np.float16)
    expect = gemm_draft(a, p)
    poison_remainder(p)
    for _ in range(2):
        assert np.array_equal(gemm_draft(a, p).view(np.uint32), expect.view(np.uint32))
    with pytest.raises(RuntimeError, match="poisoned remainder"):
        gemm_full(a, p)


def test_traffic_quarter_property():
    rng = np.random.default_rng(49)
    for shape in [(128, 8), (200, 3), (64, 64), (333, 5)]:
        p = quantize_tensor(_rand16(rng, shape))
        a = rng.normal(0, 1, (2, shape[0])).astype(np.float16)
        td, tf = TrafficCounter(), TrafficCounter()
        gemm_draft(a, p, td)
        gemm_full(a, p, tf)
        assert 4 * td.weight_bits == tf.weight_bits
        assert td.scale_bytes == 4 * p.group_scales.size + 4
        assert tf.scale_bytes == 4
        assert td.activation_bytes == tf.activation_bytes == 2 * a.size


def test_decoded_weight_caches_are_read_only():
    rng = np.random.default_rng(51)
    w = _rand16(rng, (128, 4))
    a = rng.normal(0, 1, (2, 128)).astype(np.float16)
    expect = gemm_full(a, quantize_tensor(w))
    p = quantize_tensor(w)
    p.full_values()[:] = 0
    assert np.array_equal(gemm_full(a, p).view(np.uint32), expect.view(np.uint32))
    with pytest.raises(ValueError):
        p.draft_values()[0, 0] = 0.0
    with pytest.raises(ValueError):
        p.full_values_f32()[0, 0] = 0.0
    with pytest.raises(ValueError):
        p.group_scales[0, 0] = 0.0


# ── fixed-order oracle for the accumulation loop ─────────────────────────


def _oracle_dot(xs, ys):
    """Scalar float32 sum of products, k ascending from +0.0."""
    acc = np.float32(0.0)
    for x, y in zip(xs, ys):
        acc = np.float32(acc + np.float32(x * y))
    return acc


def _oracle_gemm(a, w, group_size, scales=None):
    """Group sums in ascending order, each scaled once, added in order."""
    m, k = a.shape
    out = np.zeros((m, w.shape[1]), dtype=np.float32)
    for r, c in np.ndindex(out.shape):
        acc = np.float32(0.0)
        for g, k0 in enumerate(range(0, k, group_size)):
            gsum = _oracle_dot(a[r, k0 : k0 + group_size], w[k0 : k0 + group_size, c])
            if scales is not None:
                gsum = np.float32(gsum * scales[c, g])
            acc = np.float32(acc + gsum)
        out[r, c] = acc
    return out


def _assert_same_bits(got, expect):
    assert np.array_equal(got.view(np.uint32), expect.view(np.uint32))


def _with_neg_zeros(rng, x):
    x = x.copy()
    x[rng.random(x.shape) < 0.2] = -0.0
    return x


# (m, k): a decode row (run as two rows), two rows, a verify window and a
# long-context prefill, over K = 256 and 512, two and four groups of 128, so
# the group scales apply. N = 32: OpenBLAS sgemm differed from the fixed
# order at N <= 8 only.
@pytest.mark.parametrize("k", [256, 512])
@pytest.mark.parametrize("m", [1, 2, 17, 384])
def test_weight_gemms_match_scalar_oracle(m, k):
    n, group = 32, 128
    rng = np.random.default_rng(m * 1000 + k)
    w = rng.normal(0, 0.5, (k, n)).astype(np.float16)
    w[:, 0] = 0.0  # a zero draft group gets scale 0
    p = quantize_tensor(w, group)
    a = rng.normal(0, 1, (m, k)).astype(np.float16)
    a[:, 1::3] = (rng.normal(0, 1, (m, len(range(1, k, 3)))) * 2.0**-18).astype(np.float16)
    assert np.any((a != 0) & (np.abs(a) < 2.0**-14))  # FP16-subnormal activations
    # a row of negatives against the zero column: every full product is -0.0,
    # every draft group sum is negative and scaled by 0
    a[0] = -np.abs(a[0])
    rows = sorted({0, m // 2, m - 1})  # outputs are independent by row
    a32 = a.astype(np.float32)
    for got, wv, scales in (
        (gemm_full(a, p), p.full_values_f32(), None),
        (gemm_draft(a, p), p.draft_values(), p.group_scales),
    ):
        expect = _oracle_gemm(a32[rows], wv, group, scales) * p.inv_tensor_scale
        _assert_same_bits(got[rows], expect)
        assert got[0, 0].view(np.uint32) == 0  # +0.0


def test_active_backend_names_the_blas(monkeypatch):
    name = _accel.active_backend()
    assert name.startswith(f"numpy {np.__version__}; weight GEMMs on ")
    assert name.endswith(" sgemm where order-checked")
    assert "unnamed" not in name
    monkeypatch.setattr(np, "show_config", lambda mode="stdout": {})
    assert "an unnamed BLAS" in _accel.active_backend()


# (m, k, n, group): K not a multiple of the group, group larger than K,
# M = 1, a single element, an exact multiple, and a wide output. The single
# element and the last shape, one output above REDUCE_MAX_OUTPUTS, take
# the per-k loop path; the others the block path.
_ORACLE_SHAPES = [
    (1, 10, 3, 4),
    (2, 5, 4, 8),
    (1, 1, 1, 1),
    (3, 33, 5, 16),
    (2, 16, 3, 16),
    (2, 9, 260, 4),
    (1, 3, _accel.REDUCE_MAX_OUTPUTS + 1, 4),
]


def _f32_groups(a, w, group_size, scales=None):
    """The group loop on ``gemm_f32``, as ``reference_gemm`` runs it."""
    return _accel.gemm_groups(_accel.gemm_f32, a, w, group_size, scales)


@pytest.mark.parametrize("shape", _ORACLE_SHAPES)
def test_gemm_f32_matches_scalar_oracle(shape):
    m, k, n, group = shape
    rng = np.random.default_rng(sum(shape))
    n_groups = -(-k // group)
    for _ in range(4):
        # float32 operands that are not FP16-exact, so rounding shows the order
        a = _with_neg_zeros(rng, rng.normal(0, 1, (m, k)).astype(np.float32))
        w = _with_neg_zeros(rng, rng.normal(0, 1, (k, n)).astype(np.float32))
        scales = rng.uniform(0.1, 2.0, (n, n_groups)).astype(np.float32)
        _assert_same_bits(_f32_groups(a, w, group), _oracle_gemm(a, w, group))
        _assert_same_bits(_f32_groups(a, w, group, scales), _oracle_gemm(a, w, group, scales))
    a, w = -np.zeros((m, k), dtype=np.float32), np.abs(w)  # every product is -0.0: the sum is +0.0
    _assert_same_bits(_f32_groups(a, w, group), _oracle_gemm(a, w, group))
    _assert_same_bits(_accel.gemm_f32(a, w), np.zeros((m, n), dtype=np.float32))


def _cached_keys(k, n_heads):
    """(t, d) keys as ``KvCache`` stores them: a (d_head, n_heads, t) view
    into a buffer with room for more positions."""
    t, d = k.shape
    buf = np.zeros((d // n_heads, n_heads, t + 3), dtype=np.float32)
    buf[..., :t] = k.reshape(t, n_heads, d // n_heads).T
    return buf[..., :t]


@pytest.mark.parametrize("n_heads,n,t", [(1, 1, 1), (2, 3, 5), (4, 1, 9), (2, 2, 7)])
def test_attention_kernels_match_scalar_oracle(n_heads, n, t):
    d = 8
    dh = d // n_heads
    rng = np.random.default_rng(n_heads * 100 + n * 10 + t)
    q = _with_neg_zeros(rng, rng.normal(0, 1, (n, d)).astype(np.float32))
    k = _with_neg_zeros(rng, rng.normal(0, 1, (t, d)).astype(np.float32))
    v = _with_neg_zeros(rng, rng.normal(0, 1, (t, d)).astype(np.float32))
    probs = rng.uniform(0, 1, (n_heads, n, t)).astype(np.float32)
    start = t - n  # causal: row r sees keys [0, start + r], the tail is exact zeros
    probs[:, np.arange(t)[None, :] > (start + np.arange(n))[:, None]] = 0.0

    scores = np.zeros((n_heads, n, t), dtype=np.float32)
    ctx = np.zeros((n, d), dtype=np.float32)
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        for r in range(n):
            for j in range(t):
                scores[h, r, j] = _oracle_dot(q[r, sl], k[j, sl])
            for c in range(sl.start, sl.stop):
                ctx[r, c] = _oracle_dot(probs[h, r], v[:, c])
    _assert_same_bits(_accel.attn_scores_f32(q, _cached_keys(k, n_heads), n_heads), scores)
    _assert_same_bits(_accel.attn_ctx_f32(probs, v, n_heads), ctx)


def test_rowsum_f32_matches_scalar_oracle():
    rng = np.random.default_rng(52)
    for h, n, t in [(1, 1, 1), (2, 3, 9), (4, 1, 136), (1, 130, 136)]:
        x = _with_neg_zeros(rng, rng.uniform(0, 1, (h, n, t)).astype(np.float32))
        start = t - n  # causal: masked tails are exact zeros
        x[:, np.arange(t)[None, :] > (start + np.arange(n))[:, None]] = 0.0
        x[0, -1] = -0.0  # an all-(-0.0) row sums to +0.0
        expect = np.zeros((h, n), dtype=np.float32)
        for hi, r in np.ndindex(h, n):
            acc = np.float32(0.0)
            for v in x[hi, r]:
                acc = np.float32(acc + v)
            expect[hi, r] = acc
        _assert_same_bits(_accel.rowsum_f32(x), expect)


# ── both gemm_f32 strategies against the per-k loop ──────────────────────


def _loop_gemm(a, w, group_size, scales=None):
    """Per-k loop over the fixed order: test-only oracle for ``gemm_f32``."""
    m, k = a.shape
    out = np.zeros((m, w.shape[1]), dtype=np.float32)
    for g, k0 in enumerate(range(0, k, group_size)):
        gacc = np.zeros_like(out)
        for i in range(k0, min(k0 + group_size, k)):
            gacc += a[:, i : i + 1] * w[i : i + 1, :]
        if scales is not None:
            gacc *= scales[:, g]
        out += gacc
    return out


_T = _accel.REDUCE_MAX_OUTPUTS
# (m, k, n, group): outputs one below, at and one above REDUCE_MAX_OUTPUTS
# (M > 1 at it); N = 1 with M > 1 and K >= 9 on the block path and on the
# loop path; a single output (M = N = 1, loop path); the verify
# shapes (17, 256, 64) and (17, 64, 256), whose groups each span several
# k-chunks of at most BLOCK_MAX products; M = 1 with K > group; a group
# larger than K.
_LOOP_EDGE_SHAPES = [
    (1, 40, _T - 1, 16),
    (_T // 128, 10, 128, 8),
    (1, 20, _T + 1, 16),
    (5, 96, 1, 128),
    (_T + 8, 12, 1, 16),
    (1, 130, 1, 64),
    (17, 256, 64, 128),
    (17, 64, 256, 64),
    (7, 40, 73, 16),
    (1, 200, 512, 128),
    (3, 20, 9, 64),
]


def _loop_case(rng, shape):
    """float32 operands with -0.0 entries and one all-(-0.0) group."""
    m, k, n, group = shape
    a = _with_neg_zeros(rng, rng.normal(0, 1, (m, k)).astype(np.float32))
    w = _with_neg_zeros(rng, rng.uniform(-1, 1, (k, n)).astype(np.float32))
    g0 = int(rng.integers(0, -(-k // group))) * group
    a[:, g0 : g0 + group] = -0.0  # times +0.0: every product is -0.0
    w[g0 : g0 + group] = 0
    scales = rng.uniform(0.1, 2.0, (n, -(-k // group))).astype(np.float32)
    return a, w, scales


def test_gemm_f32_matches_loop_oracle():
    rng = np.random.default_rng(53)
    shapes = list(_LOOP_EDGE_SHAPES)
    for _ in range(300):
        m, n = (int(x) for x in rng.integers(1, 33, 2))
        k = int(rng.integers(1, 161))
        group = int(rng.choice([1, 4, 16, 32, 64, 128, 256]))
        shapes.append((m, k, n, group))
    assert {_T - 1, _T, _T + 1} <= {m * n for m, _, n, _ in shapes}
    assert any(k * m * n > _accel.BLOCK_MAX for m, k, n, _ in shapes)
    for i, (m, k, n, group) in enumerate(shapes):
        a, w, scales = _loop_case(rng, (m, k, n, group))
        if i % 2:
            # Fortran order: a k-contiguous product block would be summed pairwise
            a, w = np.asfortranarray(a), np.asfortranarray(w)
        for s in (None, scales):
            _assert_same_bits(_f32_groups(a, w, group, s), _loop_gemm(a, w, group, s))


# ── the batch axis against the per-k loop, slice by slice ────────────────

# (b, m, k, n, group): B*M*N one below, at and one above REDUCE_MAX_OUTPUTS
# (one below: that many slices of one output each, so also M*N = 1 with
# B >= 2 on the block path; one above: a single slice on the loop path);
# just above it with B >= 2, split into per-slice calls on the block path,
# and per-slice loops; M*N = 1 with B >= 2 and K >= 9; B*M*N = 1; B = 1;
# sums that each span several k-chunks of at most BLOCK_MAX products. Each
# slice is one sum over K; ``group`` sets the run of -0.0 products that
# ``_loop_case`` writes into it.
_BATCH_EDGE_SHAPES = [
    (_T - 1, 1, 12, 1, 8),
    (2, 64, 10, _T // 128, 4),
    (1, 1, 9, _T + 1, 8),
    (2, 1, 20, _T // 2 + 1, 16),
    (3, _T // 3 + 1, 9, 1, 4),
    (3, _T // 2 + 4, 10, 2, 8),
    (5, 1, 40, 1, 16),
    (1, 1, 30, 1, 8),
    (1, 3, 20, 5, 8),
    (4, 17, 64, 64, 64),
    (4, 1, 200, 136, 128),
]


def _batch_case(rng, shape):
    """Stacked ``_loop_case`` operands."""
    b, m, k, n, group = shape
    cases = [_loop_case(rng, (m, k, n, group)) for _ in range(b)]
    return np.stack([c[0] for c in cases]), np.stack([c[1] for c in cases])


def _assert_batch_matches_loop(a, w):
    got = _accel.gemm_f32(a, w)
    assert got.shape == (a.shape[0], a.shape[1], w.shape[2])
    for b in range(a.shape[0]):
        _assert_same_bits(got[b], _loop_gemm(a[b], w[b], a.shape[2]))


def test_batched_gemm_f32_matches_loop_oracle():
    rng = np.random.default_rng(54)
    shapes = list(_BATCH_EDGE_SHAPES)
    for _ in range(200):
        b, m, n = (int(x) for x in rng.integers(1, 9, 3))
        k = int(rng.integers(1, 100))
        group = int(rng.choice([1, 4, 16, 32, 64, 128]))
        shapes.append((b, m, k, n, group))
    assert {_T - 1, _T, _T + 1, 1} <= {b * m * n for b, m, _, n, _ in shapes}
    assert any(b * m * n * k > _accel.BLOCK_MAX for b, m, k, n, _ in shapes)
    for i, (b, m, k, n, group) in enumerate(shapes):
        a, w = _batch_case(rng, (b, m, k, n, group))
        if i % 3 == 1:
            # Fortran order: a k-contiguous product block would be summed pairwise
            a, w = np.asfortranarray(a), np.asfortranarray(w)
        elif i % 3 == 2:
            # transposed views, as attention passes them
            a = np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)
            w = np.ascontiguousarray(w.transpose(2, 1, 0)).transpose(2, 1, 0)
        _assert_batch_matches_loop(a, w)
    for b, m, k, n, _ in _BATCH_EDGE_SHAPES:
        # every product is -0.0, on the block path, per-slice blocks and
        # per-slice loops: the sum is +0.0
        got = _accel.gemm_f32(-np.zeros((b, m, k), np.float32), np.ones((b, k, n), np.float32))
        _assert_same_bits(got, np.zeros((b, m, n), dtype=np.float32))


# (n_heads, n, t): decode (n = 1), verify windows (n = 17) over chat-short
# lengths and with H*n*t on either side of REDUCE_MAX_OUTPUTS, and a
# prefill on the per-head loop.
@pytest.mark.parametrize(
    "n_heads,n,t",
    [
        (4, 1, 136),
        (4, 1, 480),
        (4, 17, 120),
        (4, 17, 137),
        (4, 17, _T // 68),
        (4, 17, _T // 68 + 1),
        (2, 70, 70),
    ],
)
def test_attention_kernels_match_loop_oracle(n_heads, n, t):
    d = 64
    dh = d // n_heads
    rng = np.random.default_rng(n_heads * 1000 + n * 10 + t)
    q, k, v = (_with_neg_zeros(rng, rng.normal(0, 1, (r, d)).astype(np.float32)) for r in (n, t, t))
    probs = rng.uniform(0, 1, (n_heads, n, t)).astype(np.float32)
    probs[:, np.arange(t)[None, :] > (t - n + np.arange(n))[:, None]] = 0.0
    scores = _accel.attn_scores_f32(q, _cached_keys(k, n_heads), n_heads)
    ctx = _accel.attn_ctx_f32(probs, v, n_heads)
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        _assert_same_bits(scores[h], _loop_gemm(q[:, sl], k[:, sl].T, dh))
        _assert_same_bits(ctx[:, sl], _loop_gemm(probs[h], v[:, sl], t))
