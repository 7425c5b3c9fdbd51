"""PE array model: split-significand exactness, mode parity, cycle model."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from speq import pe
from speq.kernels import GemmMode, GemmSpec, gemm_draft, gemm_full
from speq.pe import (
    ACTIVATION_BITS,
    FULL_WEIGHT_BITS,
    QUANT_WEIGHT_BITS,
    PeConfig,
    decompose_fp16,
    estimate,
    pe_full_mac,
    pe_quant_mac,
    simulate_gemm,
)
from speq.quantize import quantize_tensor


def _rand16(rng, shape, scale=0.02):
    return rng.normal(0.0, scale, shape).astype(np.float16)


# ── single MAC datapaths ─────────────────────────────────────────────────


def test_pe_full_mac_basic():
    assert pe_full_mac(np.float16(1.0), np.float16(1.0)) == np.float32(1.0)
    assert pe_full_mac(np.float16(1.5), np.float16(1.5)) == np.float32(2.25)


def test_pe_full_mac_matches_exact_product():
    rng = np.random.default_rng(60)
    bits_a = rng.integers(0, 1 << 16, 500, dtype=np.uint16)
    bits_a = np.where(((bits_a >> 10) & 0x1F) == 31, bits_a ^ (1 << 14), bits_a)
    bits_w = rng.integers(0, 1 << 15, 500, dtype=np.uint16)
    bits_w = np.where(((bits_w >> 10) & 0x1F) > 15, bits_w & np.uint16(0x83FF), bits_w)
    a = bits_a.view(np.float16)
    w = bits_w.view(np.float16)
    got = pe_full_mac(a[:, None], w[None, :])  # broadcast (500, 500)
    expect = a.astype(np.float32)[:, None] * w.astype(np.float32)[None, :]
    assert np.array_equal(got.view(np.uint32), expect.view(np.uint32))


def test_pe_full_mac_rejects_large_weight_exponent():
    with pytest.raises(Exception):
        pe_full_mac(np.float16(1.0), np.float16(2.5))


def test_split_multiply_exhaustive_at_fixed_exponents():
    # All 2^20 (mantissa, mantissa) pairs at exponents (15, 14): the
    # hi-6/low-5 split product must equal the direct 11x11 multiply.
    man = np.arange(1024, dtype=np.int64)
    sig_a = (1024 + man)[:, None]  # (1024, 1)
    sig_w = (1024 + man)[None, :]  # (1, 1024)
    direct = sig_a * sig_w
    split = sig_a * (sig_w >> 5) * 32 + sig_a * (sig_w & 0x1F)
    assert np.array_equal(direct, split)


# Quantize mode: one activation against three (sign, exp4) draft weights.


def test_pe_quant_mac3_examples():
    got = pe_quant_mac(np.float16(1.0), np.array([0, 0, 0]), np.array([14, 14, 14]))
    assert got.dtype == np.float32
    assert got.tolist() == [0.5] * 3
    zeros = pe_quant_mac(np.float16(0.0), np.array([0, 1, 0]), np.array([9, 2, 14]))
    assert zeros.tolist() == [0.0] * 3


def test_pe_quant_mac3_matches_exact_product():
    rng = np.random.default_rng(61)
    for _ in range(300):
        a = np.float16(rng.normal(0, 2.0))
        sign = rng.integers(0, 2, 3)
        exp4 = rng.integers(2, 15, 3)
        got = pe_quant_mac(a, sign, exp4)
        wval = np.where(sign == 1, -1.0, 1.0) * np.ldexp(1.0, exp4 - 15)
        expect = np.float32(a) * wval.astype(np.float16).astype(np.float32)
        assert np.array_equal(got.view(np.uint32), expect.view(np.uint32))


def test_decompose_fp16_semantics():
    sign, sig, e = decompose_fp16(np.array([1.5, -6e-8, 0.0], dtype=np.float16))
    # value = (-1)^sign * sig * 2^(e-25)
    vals = np.where(sign == 1, -1.0, 1.0) * sig * np.ldexp(1.0, e - 25)
    assert np.array_equal(vals, np.array([1.5, float(np.float16(-6e-8)), 0.0]))


# ── mode parity ──────────────────────────────────────────────────────────


def test_input_width_parity():
    assert FULL_WEIGHT_BITS == 15
    assert QUANT_WEIGHT_BITS == 15
    assert ACTIVATION_BITS == 16
    assert ACTIVATION_BITS + FULL_WEIGHT_BITS == 31
    assert ACTIVATION_BITS + QUANT_WEIGHT_BITS == 31


# ── functional equivalence with the kernels ──────────────────────────────


# (k, m, n, group): the fourth is checked in k-slices of 5; the fifth has
# several groups and K not a multiple of the group; the last has one column,
# which neither sgemm nor einsum is trusted with, so the per-k loop runs it.
_SIM_SHAPES = [(64, 3, 5, 128), (130, 2, 4, 128), (256, 1, 9, 128)]
_SIM_SHAPES += [(16, 33, 373, 128), (100, 3, 7, 32), (300, 40, 1, 128)]


@pytest.mark.parametrize("shape", _SIM_SHAPES)
def test_simulate_matches_kernels(shape):
    k, m, n, group = shape
    rng = np.random.default_rng(hash(shape) % (1 << 32))
    w = _rand16(rng, (k, n))
    a = rng.normal(0, 1, (m, k)).astype(np.float16)
    a[rng.random(a.shape) < 0.2] = -0.0
    a[:, ::7] *= np.float16(2.0**-14)  # subnormal activations
    w[::5] *= np.float16(2.0**-10)  # subnormal weights
    if k > group:
        w[:group] = 0  # an all-zero group: its draft values are fitted to scale 0
    p = quantize_tensor(w, group)
    for mode, kernel in ((GemmMode.FULL, gemm_full), (GemmMode.DRAFT, gemm_draft)):
        got, _ = simulate_gemm(a, p, mode)
        assert np.array_equal(kernel(a, p).view(np.uint32), got.view(np.uint32))


def test_simulate_rejects_a_wrong_pe_product(monkeypatch):
    rng = np.random.default_rng(63)
    p, a = quantize_tensor(_rand16(rng, (40, 6)), 16), _rand16(rng, (2, 40), 1.0)
    exact = pe.pe_full_mac  # the output is the kernel's; a datapath one ulp off must not pass
    monkeypatch.setattr(pe, "pe_full_mac", lambda x, w: np.nextafter(exact(x, w), np.inf))
    with pytest.raises(RuntimeError, match="full PE products differ"):
        simulate_gemm(a, p, GemmMode.FULL)


def test_simulate_draft_never_reads_remainder(poison_remainder):
    rng = np.random.default_rng(64)
    p, a = quantize_tensor(_rand16(rng, (96, 8)), 32), _rand16(rng, (3, 96), 1.0)
    expect = gemm_draft(a, p)
    poison_remainder(p)
    got, _ = simulate_gemm(a, p, GemmMode.DRAFT)
    assert np.array_equal(expect.view(np.uint32), got.view(np.uint32))


# ── cycle model ──────────────────────────────────────────────────────────


def test_cycle_model_reference_shape():
    cfg = PeConfig()
    full = estimate(GemmSpec(1, 1024, 4096, GemmMode.FULL), cfg)
    assert full.spec.macs == 1024 * 4096
    assert full.mac_cycles == Fraction(4096)
    assert full.cycles == 4096 + cfg.fill_cycles
    draft = estimate(GemmSpec(1, 1024, 4096, GemmMode.DRAFT), cfg)
    assert draft.mac_cycles == Fraction(4096, 3)
    assert draft.mac_cycles * 3 == full.mac_cycles


def test_cycle_model_traffic():
    r = estimate(GemmSpec(2, 16, 256, GemmMode.DRAFT, group_size=128))
    assert r.weight_bits == 4 * 256 * 16
    assert r.scale_bytes == 4 * 2 * 16 + 4
    assert r.activation_bytes == 2 * 2 * 256
    f = estimate(GemmSpec(2, 16, 256, GemmMode.FULL, group_size=128))
    assert f.weight_bits == 16 * 256 * 16
    assert f.scale_bytes == 4


def test_cycle_monotonicity():
    base = estimate(GemmSpec(4, 64, 256, GemmMode.FULL))
    for spec in [
        GemmSpec(5, 64, 256, GemmMode.FULL),
        GemmSpec(4, 65, 256, GemmMode.FULL),
        GemmSpec(4, 64, 257, GemmMode.FULL),
    ]:
        assert estimate(spec).cycles >= base.cycles


def test_throughput_ratio_every_shape():
    rng = np.random.default_rng(62)
    for _ in range(20):
        m, n, k = (int(x) for x in rng.integers(1, 500, 3))
        full = estimate(GemmSpec(m, n, k, GemmMode.FULL))
        draft = estimate(GemmSpec(m, n, k, GemmMode.DRAFT))
        assert draft.mac_cycles * 3 == full.mac_cycles
        assert draft.spec.macs == full.spec.macs == m * n * k
        assert draft.macs_per_pe_per_cycle == 3 * full.macs_per_pe_per_cycle


def test_pe_config_invariant():
    for bad in [
        {"tiles": 0},
        {"pes_per_tile": -4},
        {"frequency_hz": 0.0},
        {"frequency_hz": -5.0},
        {"frequency_hz": float("nan")},
        {"frequency_hz": float("inf")},
        {"fill_cycles": -1},
    ]:
        with pytest.raises(ValueError):
            PeConfig(**bad)
    assert PeConfig().total_pes == 1024
    assert PeConfig(tiles=8, pes_per_tile=100, fill_cycles=0).total_pes == 800


@pytest.mark.parametrize(
    "bad",
    [{"tiles": 2.5}, {"tiles": True}, {"pes_per_tile": 128.0}, {"fill_cycles": 1.5},
     {"frequency_hz": "5e8"}, {"frequency_hz": True}],
)
def test_pe_config_sizes_are_typed(bad):
    # a float count would make fractional cycles, or fail later inside Fraction
    with pytest.raises(ValueError):
        PeConfig(**bad)
    assert PeConfig(tiles=np.int64(2)).total_pes == 256


def test_estimate_rejects_bad_dims():
    with pytest.raises(ValueError):
        estimate(GemmSpec(0, 1, 1, GemmMode.FULL))
    # a float dimension failed inside Fraction, and a float group size gave fractional bytes
    with pytest.raises(ValueError, match="^m must be"):
        estimate(GemmSpec(1.5, 4, 10, GemmMode.FULL))
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="^group_size must be"):
            estimate(GemmSpec(1, 4, 10, GemmMode.DRAFT, group_size=bad))


def test_report_time():
    r = estimate(GemmSpec(1, 1024, 4096, GemmMode.FULL))
    assert r.time_s == r.cycles / 500e6
    assert r.weight_bytes == r.weight_bits / 8


def test_report_holds_spec_and_config():
    # the report holds the spec and config and derives every figure from them
    spec, cfg = GemmSpec(3, 40, 300, GemmMode.DRAFT, group_size=64), PeConfig(tiles=2)
    r = estimate(spec, cfg)
    names = {f.name for f in dataclasses.fields(r)}
    assert names == {"spec", "cfg"}
    assert r.spec is spec and r.cfg is cfg
    assert r.mac_cycles == Fraction(3 * 40 * 300, 2 * 128 * 3)
    assert r.cycles == cfg.fill_cycles + 47
    assert r.scale_bytes == 4 * 40 * 5 + 4  # ceil(300 / 64) groups per column
    assert estimate(GemmSpec(3, 40, 300, GemmMode.DRAFT)).cfg == PeConfig()
    # simulate_gemm reports the packed tensor's group size
    rng = np.random.default_rng(65)
    p = quantize_tensor(_rand16(rng, (100, 3)), 32)
    _, sim = simulate_gemm(_rand16(rng, (2, 100), 1.0), p, GemmMode.DRAFT, cfg)
    assert sim.spec == GemmSpec(2, 3, 100, GemmMode.DRAFT, group_size=32) and sim.cfg is cfg
