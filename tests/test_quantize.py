"""Quantizer tests: outlier handling, scale fitting, formats, BF16 ingest."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from speq import bsfp
from speq.container import (
    MAGIC,
    from_bytes,
    pack_12bit,
    pack_nibbles,
    to_bytes,
    unpack_12bit,
    unpack_nibbles,
)
from speq.quantize import (
    PackedTensor,
    QuantFormat,
    _fit_group_scales,
    draft_mse,
    draft_reconstruction,
    exponent_histogram,
    handle_outliers,
    ingest_bf16,
    quantize_tensor,
)


def _rand16(rng, shape, scale=0.02):
    return rng.normal(0.0, scale, shape).astype(np.float16)


# ── outlier rescaling ────────────────────────────────────────────────────


def test_outlier_llama_value():
    w = np.zeros((4, 4), dtype=np.float16)
    w[1, 2] = np.float16(2.4062)
    scaled, ts = handle_outliers(w)
    assert ts == float(np.float32(1.999) / np.float32(np.float16(2.4062)))
    assert np.max(np.abs(scaled.astype(np.float32))) < 2.0


def test_outlier_not_taken():
    w = np.full((3, 3), 1.5, dtype=np.float16)
    scaled, ts = handle_outliers(w)
    assert ts == 1.0
    assert np.array_equal(scaled, w)


def test_outlier_all_fours():
    w = np.full((2, 5), 4.0, dtype=np.float16)
    scaled, ts = handle_outliers(w)
    assert ts == pytest.approx(0.4997499883174896, abs=0)
    assert np.all(scaled == np.float16(1.999))


def test_outlier_exactly_two():
    # max |w| = 2.0 has biased exponent 16, so it is rescaled like any larger outlier.
    w = np.array([[2.0], [0.5]], dtype=np.float16)
    scaled, ts = handle_outliers(w)
    assert ts == float(np.float32(1.999) / np.float32(2.0))
    p = quantize_tensor(w, group_size=2)
    assert p.tensor_scale == ts
    assert np.array_equal(p.full_values().view(np.uint16), scaled.view(np.uint16))
    assert from_bytes(to_bytes(p)) == p
    assert draft_mse(w, 2, QuantFormat.E1M2) >= 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_outlier_nonfinite(bad):
    w = np.array([[1.0, bad]], dtype=np.float16)
    with pytest.raises(ValueError):
        handle_outliers(w)


# ── scale fitting ────────────────────────────────────────────────────────


def _fit(w, q):
    """``_fit_group_scales``' scale for one column that is one group."""
    w, q = np.asarray(w).reshape(-1, 1), np.asarray(q).reshape(-1, 1)
    return _fit_group_scales(w, q, len(w))[0, 0]


def test_fit_scale_all_ones():
    w = np.ones(128)
    q = np.full(128, 0.5)
    assert _fit(w, q) == 2.0
    assert np.all(2.0 * q == w)


def test_fit_scale_exact_multiple():
    # the float64 least-squares ratio, rounded once to float32
    rng = np.random.default_rng(0)
    q = rng.normal(size=64)
    assert _fit(3.7 * q, q) == np.float32(3.7)


def test_fit_scale_mixed():
    w = np.concatenate([np.ones(64), np.full(64, 0.5)])
    q = np.full(128, 0.5)
    assert _fit(w, q) == 1.5


def test_fit_scale_zero_denominator():
    # an all-zero draft group fits scale +0.0, never -0.0, whatever its weights
    for w in (np.ones(4), -np.ones(4)):
        s = _fit(w, np.zeros(4))
        assert s == 0.0 and not np.signbit(s)


def test_fit_scale_is_minimizer_scan():
    # Numeric scan oracle: no scale on a fine grid beats the closed form.
    rng = np.random.default_rng(1)
    w = rng.normal(0, 0.02, 128)
    q = np.where(w < 0, -1.0, 1.0) * 2.0 ** rng.integers(-10, -5, 128).astype(float)
    s = float(_fit(w, q))
    mse = np.mean((w - s * q) ** 2)
    for cand in np.linspace(s * 0.5, s * 1.5, 201):
        assert mse <= np.mean((w - cand * q) ** 2) + 1e-18


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_fit_scale_perturbation(eps):
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = rng.normal(0, 0.02, 128).astype(np.float16).astype(np.float64)
        p = quantize_tensor(w.astype(np.float16).reshape(-1, 1))
        q = p.draft_values().astype(np.float64).ravel()
        s = float(_fit(w, q))
        mse = np.mean((w - s * q) ** 2)
        assert mse <= np.mean((w - s * (1 + eps) * q) ** 2)
        assert mse <= np.mean((w - s * (1 - eps) * q) ** 2)


# ── quantize / dequantize ────────────────────────────────────────────────


def test_quantize_all_ones_column():
    p = quantize_tensor(np.ones((128, 1), dtype=np.float16))
    assert p.n_groups == 1
    assert np.all(p.group_scales == 2.0)
    assert np.all(p.words()[0] == 0b0111)  # sign 0, qcode 111
    rec = draft_reconstruction(p)
    assert np.all(rec == 1.0)


def test_quantize_roundtrip_bit_exact():
    rng = np.random.default_rng(11)
    w = _rand16(rng, (256, 128))
    p = quantize_tensor(w)
    assert p.tensor_scale == 1.0
    assert np.array_equal(p.full_values().view(np.uint16), w.view(np.uint16))


def test_quantize_roundtrip_with_outlier():
    rng = np.random.default_rng(12)
    w = _rand16(rng, (200, 3))
    w[0, 0] = np.float16(2.4062)
    scaled, ts = handle_outliers(w)
    p = quantize_tensor(w)
    assert p.tensor_scale == ts != 1.0
    # Round trip reconstructs the scaled tensor, not the original.
    assert np.array_equal(p.full_values().view(np.uint16), scaled.view(np.uint16))
    assert not np.array_equal(p.full_values().view(np.uint16), w.view(np.uint16))


def test_quantize_edge_patterns():
    w = np.array([[0.0], [-0.0], [6e-8], [-6e-8], [1.0], [-1.999]], dtype=np.float16)
    p = quantize_tensor(w, group_size=6)
    assert np.array_equal(p.full_values().view(np.uint16), w.view(np.uint16))


def test_quantize_rejects_bad_shapes():
    with pytest.raises(ValueError):
        quantize_tensor(np.ones((2, 2, 2), dtype=np.float16))
    with pytest.raises(ValueError):
        quantize_tensor(np.ones((4, 4), dtype=np.float16), group_size=0)


def test_tail_groups():
    rng = np.random.default_rng(13)
    w = _rand16(rng, (200, 5))
    p = quantize_tensor(w, group_size=128)
    assert p.n_groups == 2
    # The tail group scale is fitted over its actual 72 rows.
    q = p.draft_values().astype(np.float64)
    w64 = w.astype(np.float64)
    s = np.dot(w64[128:, 2], q[128:, 2]) / np.dot(q[128:, 2], q[128:, 2])
    assert p.group_scales[2, 1] == np.float32(s)


def test_remap_beats_naive_single():
    rng = np.random.default_rng(21)
    w = _rand16(rng, (256, 16))
    assert draft_mse(w, 128, QuantFormat.E3M0_REMAP) < draft_mse(w, 128, QuantFormat.E3M0_NAIVE)


def test_draft_mse_remap_is_the_packed_draft():
    rng = np.random.default_rng(27)
    for shape, gs in [((200, 5), 128), ((9, 4), 4), ((64, 3), 1)]:
        w = _rand16(rng, shape)
        diff = draft_reconstruction(quantize_tensor(w, gs)) - w.astype(np.float64)
        assert draft_mse(w, gs, QuantFormat.E3M0_REMAP) == float(np.mean(diff * diff))


@pytest.mark.parametrize(
    "fmt,mags",
    [
        (QuantFormat.E3M0_NAIVE, [2.0 ** (2 * c - 15) for c in range(8)]),
        (QuantFormat.E2M1, [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]),
        (QuantFormat.E1M2, [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]),
    ],
)
def test_baseline_draft_values_per_code(fmt, mags):
    # Every code's value, with both signs, in one group: the draft holds each
    # exactly, so the fitted scale reproduces the column with zero error.
    # A missing or wrong value, or a lost sign, would leave an error.
    k = 2.0**-3 if fmt is QuantFormat.E2M1 else 1.0  # keep the grid below 2
    col = np.array(mags + [-m for m in mags]) * k
    w = col.astype(np.float16).reshape(16, 1)
    assert np.array_equal(w.astype(np.float64).ravel(), col)
    assert draft_mse(w, 16, fmt) == 0.0
    assert draft_mse(w, 16, QuantFormat.E3M0_REMAP) > 0.0  # not every table fits


def test_grid_formats_tie_to_even():
    # Prescaled magnitudes 6.0 and 2.5: the tie at 2.5 rounds to code 4
    # (value 2), not code 5 (value 3).
    w = np.array([[1.5], [0.625]], dtype=np.float16)

    def mse_with(q):
        s = np.float32(np.dot(w.ravel().astype(np.float64), q) / np.dot(q, q))
        diff = np.float64(s) * q - w.ravel().astype(np.float64)
        return float(np.mean(diff * diff))

    got = draft_mse(w, 128, QuantFormat.E2M1)
    assert got == pytest.approx(mse_with(np.array([6.0, 2.0])), rel=1e-12)
    assert got != pytest.approx(mse_with(np.array([6.0, 3.0])), rel=1e-3)


def test_grid_formats_reasonable_mse():
    rng = np.random.default_rng(22)
    w = _rand16(rng, (128, 4))
    ref = w.astype(np.float64)
    for fmt in (QuantFormat.E2M1, QuantFormat.E1M2):
        assert draft_mse(w, 128, fmt) < np.mean(ref**2)  # beats the zero predictor


def test_scale_equivariance_flat_bucket():
    # Exponents {4,5,6} stay in one quantization bucket under doubling:
    # identical qcodes, scales double.
    rng = np.random.default_rng(23)
    e = rng.integers(4, 7, (256, 4)).astype(np.uint16)
    man = rng.integers(0, 1024, (256, 4)).astype(np.uint16)
    sign = rng.integers(0, 2, (256, 4)).astype(np.uint16)
    w = ((sign << 15) | (e << 10) | man).view(np.float16)
    w2 = (w.astype(np.float32) * 2.0).astype(np.float16)
    p1, p2 = quantize_tensor(w), quantize_tensor(w2)
    assert np.array_equal(p1.words()[0], p2.words()[0])
    assert np.allclose(p2.group_scales, 2.0 * p1.group_scales, rtol=1e-6)

    half = quantize_tensor((w2.astype(np.float32) * 0.5).astype(np.float16))
    assert np.array_equal(half.words()[0], p1.words()[0])
    assert np.array_equal(half.group_scales, p1.group_scales)


def test_scale_equivariance_reconstruction():
    # On exponents 8..11 doubling shifts every decoded exponent by one:
    # the group-scaled reconstruction doubles exactly.
    rng = np.random.default_rng(24)
    e = rng.integers(8, 12, (128, 4)).astype(np.uint16)
    man = rng.integers(0, 1024, (128, 4)).astype(np.uint16)
    w = (e << 10 | man).view(np.float16)
    w2 = (w.astype(np.float32) * 2.0).astype(np.float16)
    r1 = draft_reconstruction(quantize_tensor(w))
    r2 = draft_reconstruction(quantize_tensor(w2))
    assert np.allclose(r2, 2.0 * r1, rtol=1e-6, atol=0)


def test_bit_volume():
    rng = np.random.default_rng(25)
    w = _rand16(rng, (64, 32))
    p = quantize_tensor(w)
    n = w.size
    wq, wr = p.words()
    assert len(pack_nibbles(wq)) == n // 2
    assert len(pack_12bit(wr)) == 12 * n // 8
    # 16 bits/weight; the container adds only its header, the scales and the CRC
    header = len(MAGIC) + 1 + 16 + 4
    assert len(to_bytes(p)) == header + 4 * p.group_scales.size + 2 * n + 4


# ── one copy of each weight ──────────────────────────────────────────────


def _both_ways(w, group_size=128):
    """A tensor from ``quantize_tensor`` and the same tensor back from its container."""
    p = quantize_tensor(w, group_size)
    return p, from_bytes(to_bytes(p))


def test_holds_no_stream():
    for p in _both_ways(_rand16(np.random.default_rng(40), (9, 5)), group_size=4):
        held = {k: v for k, v in vars(p).items() if isinstance(v, np.ndarray)}
        assert sorted(held) == ["_full32", "_qval", "group_scales"]
        assert all(v.dtype.kind == "f" for v in held.values())
        assert not hasattr(p, "wq") and not hasattr(p, "wr")


def test_operands_read_only_and_c_contiguous():
    # _accel._sgemm would copy an F-ordered weight on every call.
    for p in _both_ways(_rand16(np.random.default_rng(41), (9, 5)), group_size=4):
        for op in (p.draft_values(), p.full_values_f32()):
            assert op.dtype == np.float32 and op.shape == (9, 5)
            assert op.flags.c_contiguous and not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 0.0


def test_words_are_the_construction_words():
    rng = np.random.default_rng(42)
    w = _rand16(rng, (9, 5))
    w[0, 0] = 4.0  # outlier: the words are those of the rescaled tensor
    scaled, _ = handle_outliers(w)
    want = bsfp.encode_array(scaled.view(np.uint16))
    for p in _both_ways(w, group_size=4):
        for got, exp in zip(p.words(), want):
            assert got.dtype == exp.dtype and np.array_equal(got, exp)
    # any valid words, given directly, come back unchanged
    wq, wr = bsfp.encode_array(rng.integers(0, 0x3C00, (6, 3)).astype(np.uint16))
    p = PackedTensor(4, 1.0, np.ones((3, 2), np.float32), wq, wr)
    assert np.array_equal(p.words()[0], wq) and np.array_equal(p.words()[1], wr)


def _direct_args():
    """Valid constructor inputs for a 6x3 tensor whose three columns hold the same words."""
    col = np.random.default_rng(43).integers(0, 0x3C00, (6, 1)).astype(np.uint16)
    wq, wr = bsfp.encode_array(np.repeat(col, 3, axis=1))
    return dict(group_size=4, tensor_scale=1.0, group_scales=np.ones((3, 2), np.float32), wq=wq, wr=wr)


def _wq_with(code):
    """The valid 6x3 ``wq`` of ``_direct_args`` with one record set to ``code``."""
    wq = _direct_args()["wq"].astype(np.int16)
    wq[0, 0] = code
    return wq


def test_shape_comes_from_the_words():
    assert not {"rows", "cols"} & set(inspect.signature(PackedTensor).parameters)
    p = PackedTensor(**_direct_args())
    assert (p.rows, p.cols, p.n_groups) == (6, 3, 2)
    with pytest.raises(TypeError):
        PackedTensor(rows=3, cols=4, **_direct_args())


@pytest.mark.parametrize(
    "name,value,match",
    [
        # broadcasts to the same 6x3 words, so only the shape rule can catch it
        pytest.param("wr", _direct_args()["wr"][:, :1], "wq", id="mismatched-words"),
        pytest.param("group_scales", np.ones((7, 9), np.float32), "group scales", id="scale-shape"),
        pytest.param("group_scales", np.full((3, 2), np.nan, np.float32), "group scales", id="nan-scale"),
        pytest.param("group_scales", np.full((3, 2), -0.0, np.float32), "group scales", id="neg-zero-scale"),
        pytest.param("tensor_scale", 0.0, "tensor_scale", id="zero-tensor-scale"),
        # a float32 subnormal whose reciprocal overflows
        pytest.param("tensor_scale", 1e-45, "tensor_scale", id="subnormal-tensor-scale"),
        # float32 casts both to a valid scale (0.5 and 1.0)
        pytest.param("tensor_scale", "0.5", "tensor_scale", id="string-tensor-scale"),
        pytest.param("tensor_scale", True, "tensor_scale", id="bool-tensor-scale"),
        # 2.5 would give 3.0 groups and True 6, so the scale-shape rule alone misnames them
        pytest.param("group_size", 2.5, "group_size", id="fractional-group-size"),
        pytest.param("group_size", True, "group_size", id="bool-group-size"),
        # the draft table has 16 entries: no code outside 0..15 may index it
        pytest.param("wq", _wq_with(16), "out of range", id="wide-wq"),
        pytest.param("wq", _wq_with(-1), "out of range", id="negative-wq"),
    ],
)
def test_packed_tensor_rejects_inconsistent_input(name, value, match):
    args = _direct_args()
    PackedTensor(**args)
    args[name] = value
    with pytest.raises(ValueError, match=match):
        PackedTensor(**args)


def test_direct_tensor_round_trips():
    args = {**_direct_args(), "tensor_scale": 0.1, "group_size": np.int64(4)}
    p = PackedTensor(**args)
    assert from_bytes(to_bytes(p)) == p  # held as float32(0.1), the value the container stores
    args["group_scales"][:] = 0  # float32 and C-contiguous, yet copied, not aliased
    assert np.all(p.group_scales == 1)


def test_signed_zero_is_not_equal():
    w = np.array([[0.5], [0.0], [0.25]], dtype=np.float16)
    neg = w.copy()
    neg[1, 0] = -0.0
    p, q = quantize_tensor(w), quantize_tensor(neg)
    assert np.array_equal(p.group_scales, q.group_scales)
    assert np.array_equal(p.full_values_f32(), q.full_values_f32())  # as floats, 0.0 == -0.0
    assert p != q
    assert p == quantize_tensor(w.copy())


# ── packing primitives ───────────────────────────────────────────────────


@pytest.mark.parametrize("count", [0, 1, 2, 5, 128, 255])
def test_pack_nibbles_roundtrip(count):
    rng = np.random.default_rng(count)
    v = rng.integers(0, 16, count).astype(np.uint8)
    packed = pack_nibbles(v)
    assert len(packed) == (count + 1) // 2
    assert np.array_equal(unpack_nibbles(packed, count), v)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 128, 255, 65535, 65536])
def test_pack_12bit_roundtrip(count):
    rng = np.random.default_rng(count)
    v = rng.integers(0, 4096, count).astype(np.uint16)
    packed = pack_12bit(v)
    assert len(packed) == (12 * count + 7) // 8
    assert np.array_equal(unpack_12bit(packed, count), v)


@pytest.mark.parametrize("count", [1, 2, 7, 128])
def test_unpack_12bit_reads_inside_its_slice(count):
    # Each record is read as an unaligned u16; set bytes on both sides of the
    # stream would show in a record read across its edge, and a view reaching
    # past the slice's end is refused.
    v = np.random.default_rng(count).integers(0, 4096, count).astype(np.uint16)
    packed = pack_12bit(v)
    buf = bytearray(b"\xff" * 5) + packed + bytearray(b"\xff" * 5)
    stream = memoryview(buf)[5 : 5 + len(packed)]
    assert np.array_equal(unpack_12bit(stream, count), v)
    with pytest.raises((TypeError, ValueError), match="buffer"):
        unpack_12bit(stream[:-1], count)


def test_pack_nibbles_low_first():
    assert pack_nibbles(np.array([0xA, 0x3], np.uint8)) == bytes([0x3A])


# ── BF16 ingestion ───────────────────────────────────────────────────────


def _bf16_value(bits: int) -> float:
    s = (bits >> 15) & 1
    e = (bits >> 7) & 0xFF
    m = bits & 0x7F
    v = (m / 128) * 2.0**-126 if e == 0 else (1 + m / 128) * 2.0 ** (e - 127)
    return -v if s else v


def test_bf16_one():
    out = ingest_bf16(np.array([0x3F80], np.uint16))
    assert float(out[0]) == 1.0
    assert (out.view(np.uint16)[0] >> 10) & 0x1F == 15


def test_bf16_smallest_normal_maps_to_subnormal():
    out = ingest_bf16(np.array([112 << 7], np.uint16))
    assert float(out[0]) == 2.0**-15
    assert (out.view(np.uint16)[0] >> 10) & 0x1F == 0  # FP16 subnormal row


def test_bf16_clamped_exponent():
    bits = (107 << 7) | 0x40  # 2^-20 * 1.5, exponent clamped up to 112
    out = ingest_bf16(np.array([bits], np.uint16))
    assert float(out[0]) == 1.5 * 2.0**-15


def test_bf16_value_exact_in_range():
    rng = np.random.default_rng(31)
    e = rng.integers(112, 128, 500).astype(np.uint16)
    m = rng.integers(0, 128, 500).astype(np.uint16)
    s = rng.integers(0, 2, 500).astype(np.uint16)
    bits = (s << 15) | (e << 7) | m
    out = ingest_bf16(bits)
    expect = np.array([_bf16_value(int(b)) for b in bits])
    assert np.array_equal(out.astype(np.float64), expect)


def test_bf16_rejects_large_exponent():
    with pytest.raises(bsfp.ExponentRangeError):
        ingest_bf16(np.array([128 << 7], np.uint16))


# ── exponent histogram ───────────────────────────────────────────────────


def test_histogram_all_ones():
    h = exponent_histogram(np.ones((10, 7), dtype=np.float16))
    assert h.counts[15] == 70
    assert h.total == 70
    assert h.frac_unused == 0.0


def test_histogram_unused_fraction():
    h = exponent_histogram(np.array([2.5, 1.0], dtype=np.float16))
    assert h.frac_unused == 0.5  # 2.5 has biased exponent 16


def test_histogram_normal_weights():
    w = np.random.default_rng(32).normal(0, 0.02, 10_000).astype(np.float16)
    h = exponent_histogram(w)
    assert h.frac_unused == 0.0
    core = h.counts[4:13].sum()
    assert core / h.total > 0.95
