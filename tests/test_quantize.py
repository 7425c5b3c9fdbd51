"""Quantizer tests: outlier handling, scale fitting, formats, BF16 ingest."""

from __future__ import annotations

import numpy as np
import pytest

from speq import bsfp
from speq.quantize import (
    FormatMismatchError,
    QuantFormat,
    draft_reconstruction,
    exponent_histogram,
    fit_group_scale,
    handle_outliers,
    ingest_bf16,
    pack_12bit,
    pack_nibbles,
    quantize_tensor,
    reconstruction_mse,
    unpack_12bit,
    unpack_nibbles,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_outlier_nonfinite(bad):
    w = np.array([[1.0, bad]], dtype=np.float16)
    with pytest.raises(ValueError):
        handle_outliers(w)


# ── scale fitting ────────────────────────────────────────────────────────


def test_fit_scale_all_ones():
    w = np.ones(128)
    q = np.full(128, 0.5)
    assert fit_group_scale(w, q) == 2.0
    assert np.all(2.0 * q == w)


def test_fit_scale_exact_multiple():
    rng = np.random.default_rng(0)
    q = rng.normal(size=64)
    assert fit_group_scale(3.7 * q, q) == pytest.approx(3.7, rel=1e-12)


def test_fit_scale_mixed():
    w = np.concatenate([np.ones(64), np.full(64, 0.5)])
    q = np.full(128, 0.5)
    assert fit_group_scale(w, q) == 1.5


def test_fit_scale_zero_denominator():
    with pytest.raises(ValueError):
        fit_group_scale(np.ones(4), np.zeros(4))


def test_fit_scale_is_minimizer_scan():
    # Numeric scan oracle: no scale on a fine grid beats the closed form.
    rng = np.random.default_rng(1)
    w = rng.normal(0, 0.02, 128)
    q = np.where(w < 0, -1.0, 1.0) * 2.0 ** rng.integers(-10, -5, 128).astype(float)
    s = fit_group_scale(w, q)
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
        s = fit_group_scale(w, q)
        mse = np.mean((w - s * q) ** 2)
        assert mse <= np.mean((w - s * (1 + eps) * q) ** 2)
        assert mse <= np.mean((w - s * (1 - eps) * q) ** 2)


# ── quantize / dequantize ────────────────────────────────────────────────


def test_quantize_all_ones_column():
    p = quantize_tensor(np.ones((128, 1), dtype=np.float16))
    assert p.n_groups == 1
    assert np.all(p.group_scales == 2.0)
    assert np.all(p.wq == 0b0111)  # sign 0, qcode 111
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
    s = fit_group_scale(w64[128:, 2], q[128:, 2])
    assert p.group_scales[2, 1] == np.float32(s)


def test_dequantize_rejects_baselines():
    w = np.ones((8, 2), dtype=np.float16)
    for fmt in (QuantFormat.E3M0_NAIVE, QuantFormat.E2M1, QuantFormat.E1M2):
        with pytest.raises(FormatMismatchError):
            quantize_tensor(w, 8, fmt).full_values()


def test_remap_beats_naive_single():
    rng = np.random.default_rng(21)
    w = _rand16(rng, (256, 16))
    scaled, _ = handle_outliers(w)
    ref = scaled.astype(np.float64)
    mse_r = reconstruction_mse(quantize_tensor(w, 128, QuantFormat.E3M0_REMAP), ref)
    mse_n = reconstruction_mse(quantize_tensor(w, 128, QuantFormat.E3M0_NAIVE), ref)
    assert mse_r < mse_n


def test_grid_formats_tie_to_even():
    # Prescaled magnitudes 6.0 and 2.5: the tie at 2.5 rounds to code 4 (value 2).
    w = np.array([[1.5], [0.625]], dtype=np.float16)
    p = quantize_tensor(w, 128, QuantFormat.E2M1)
    assert list(p.wq.ravel()) == [7, 4]
    assert list(p.draft_values().ravel()) == [6.0, 2.0]


def test_grid_formats_reasonable_mse():
    rng = np.random.default_rng(22)
    w = _rand16(rng, (128, 4))
    ref = w.astype(np.float64)
    for fmt in (QuantFormat.E2M1, QuantFormat.E1M2):
        p = quantize_tensor(w, 128, fmt)
        assert np.all(np.abs(p.draft_values()) <= 6.0)
        assert reconstruction_mse(p, ref) < np.mean(ref**2)  # beats the zero predictor


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
    assert np.array_equal(p1.wq, p2.wq)
    assert np.allclose(p2.group_scales, 2.0 * p1.group_scales, rtol=1e-6)

    half = quantize_tensor((w2.astype(np.float32) * 0.5).astype(np.float16))
    assert np.array_equal(half.wq, p1.wq)
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
    assert p.wq_bits == 4 * n
    assert p.wr_bits == 12 * n
    assert len(p.wq_packed()) == n // 2
    assert len(p.wr_packed()) == 12 * n // 8
    assert len(p.wq_packed()) + len(p.wr_packed()) == 2 * n  # 16 bits/weight


def test_draft_stream_is_quarter():
    rng = np.random.default_rng(26)
    for shape in [(128, 8), (200, 3), (64, 64)]:
        p = quantize_tensor(_rand16(rng, shape))
        assert 4 * p.wq_bits == p.wq_bits + p.wr_bits


# ── packing primitives ───────────────────────────────────────────────────


@pytest.mark.parametrize("count", [0, 1, 2, 5, 128, 255])
def test_pack_nibbles_roundtrip(count):
    rng = np.random.default_rng(count)
    v = rng.integers(0, 16, count).astype(np.uint8)
    packed = pack_nibbles(v)
    assert len(packed) == (count + 1) // 2
    assert np.array_equal(unpack_nibbles(packed, count), v)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 128, 255])
def test_pack_12bit_roundtrip(count):
    rng = np.random.default_rng(count)
    v = rng.integers(0, 4096, count).astype(np.uint16)
    packed = pack_12bit(v)
    assert len(packed) == (12 * count + 7) // 8
    assert np.array_equal(unpack_12bit(packed, count), v)


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
