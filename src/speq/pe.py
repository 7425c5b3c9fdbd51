"""Functional and cycle model of the reconfigurable PE array.

The array runs in two modes with the same 31-bit PE input width:

* full mode — one FP16 activation x one 15-bit weight (sign, 4-bit
  exponent after the always-zero top bit is dropped, 10-bit mantissa).
  The 11-bit weight significand is split into a high-6/low-5 pair, each
  multiplied by the activation significand in its own Wallace tree, and
  the partial products are summed; that split product is exact, so full
  mode reproduces ``kernels.gemm_full`` bit for bit.
* quantize mode — one FP16 activation x three 5-bit draft weights
  (sign + 4-bit exponent each). The first exponent add uses the PE's
  exponent adder; the other two reuse the Wallace-tree adders with the
  multiplier masked, giving three partial sums per cycle and 3x the MAC
  throughput at the same PE count.

``simulate_gemm`` runs both datapaths, as the ``mul`` of
``_accel.gemm_f32``, in the same fixed accumulation order as the kernels.

Cycle counts are ``ceil(macs / (PEs * throughput)) + fill``; the
pre-ceiling MAC-cycle figure is kept as an exact rational so the 3x
throughput ratio between modes is exact for every shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _accel, bsfp
from .kernels import GemmMode, GemmSpec, _check_activations
from .model import _is_int, _is_real
from .quantize import PackedTensor

__all__ = [
    "PeConfig",
    "CycleReport",
    "ACTIVATION_BITS",
    "FULL_WEIGHT_BITS",
    "QUANT_WEIGHT_BITS",
    "pe_full_mac",
    "pe_quant_mac",
    "decompose_fp16",
    "estimate",
    "simulate_gemm",
]

ACTIVATION_BITS = 16
FULL_WEIGHT_BITS = 1 + 4 + 10  # sign, exponent (top bit dropped), mantissa
QUANT_WEIGHT_BITS = 3 * (1 + 4)  # three (sign, exp4) draft weights


@dataclass(frozen=True)
class PeConfig:
    tiles: int = 8
    pes_per_tile: int = 128
    frequency_hz: float = 500e6
    fill_cycles: int = 32  # pipeline fill/drain, one 32x32 array edge by default

    def __post_init__(self) -> None:
        # cycle counts are integers: a float count would make fractional cycles
        for name in ("tiles", "pes_per_tile", "fill_cycles"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.tiles < 1 or self.pes_per_tile < 1:
            raise ValueError("tiles and pes_per_tile must be positive")
        if not (_is_real(self.frequency_hz) and 0 < self.frequency_hz < math.inf):
            raise ValueError("frequency_hz must be positive and finite")
        if self.fill_cycles < 0:
            raise ValueError("fill_cycles must be >= 0")

    @property
    def total_pes(self) -> int:
        return self.tiles * self.pes_per_tile


@dataclass
class CycleReport:
    mode: GemmMode
    m: int
    n: int
    k: int
    macs: int
    pe_count: int
    macs_per_pe_per_cycle: int
    mac_cycles: Fraction
    fill_cycles: int
    cycles: int
    weight_bits: int
    scale_bytes: int
    activation_bytes: int
    frequency_hz: float

    @property
    def weight_bytes(self) -> float:
        return self.weight_bits / 8

    @property
    def time_s(self) -> float:
        return self.cycles / self.frequency_hz


def decompose_fp16(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split FP16 values into (sign, significand, adjusted exponent).

    value = (-1)^sign * sig * 2^(e - 25), with sig in [1024, 2047] for
    normals and the subnormal/zero row folded in via e = max(exp5, 1).
    """
    bits = np.asarray(a, dtype=np.float16).view(np.uint16)
    sign = (bits >> 15).astype(np.uint8)
    exp5 = ((bits >> 10) & np.uint16(0x1F)).astype(np.int32)
    man = (bits & np.uint16(0x3FF)).astype(np.int32)
    normal = exp5 > 0
    sig = np.where(normal, man + 1024, man).astype(np.int32)
    e = np.maximum(exp5, 1)
    return sign, sig, e


def _signed_ldexp(mag, neg, shift) -> np.ndarray:
    """(-1)^neg * mag * 2^shift in float32; exact for every PE product."""
    mag = np.asarray(mag).astype(np.float32)
    return np.ldexp(np.where(neg, -mag, mag), shift)


def pe_full_mac(a, w) -> np.ndarray:
    """Full-mode MAC operand products via the split-significand datapath.

    Broadcasts over FP16 activations ``a`` and weights ``w``.
    """
    a = np.asarray(a, dtype=np.float16)
    w = np.asarray(w, dtype=np.float16)
    if not (np.isfinite(a).all() and np.isfinite(w).all()):
        raise ValueError("non-finite operand")
    sa, sig_a, ea = decompose_fp16(a)
    sw, sig_w, ew = decompose_fp16(w)
    if np.any(ew > 15):
        raise bsfp.ExponentRangeError("weight exponent above 15")
    prod = sig_a * (sig_w >> 5) * 32 + sig_a * (sig_w & 0x1F)  # two Wallace trees, summed
    return _signed_ldexp(prod, sa != sw, ea + ew - 50)


def pe_quant_mac(a, sign_w, exp4_w) -> np.ndarray:
    """Quantize-mode addends: exact activation x (+/- 2^(exp4-15)).

    Broadcasts over FP16 activations ``a`` and (sign, exp4) weight fields.
    """
    a = np.asarray(a, dtype=np.float16)
    if not np.isfinite(a).all():
        raise ValueError("non-finite activation")
    sa, sig_a, ea = decompose_fp16(a)
    return _signed_ldexp(sig_a, sa != (np.asarray(sign_w) & 1), ea + np.asarray(exp4_w) - 40)


def _pe_quant_mac_wq(a, wq) -> np.ndarray:
    """Quantize-mode addends fed with raw ``wq`` nibbles (sign, qcode)."""
    return pe_quant_mac(a, wq >> 3, bsfp.q_exponent_array(wq))


def estimate(spec: GemmSpec, cfg: PeConfig | None = None, group_size: int = 128) -> CycleReport:
    """Analytic cycle/traffic report for a GEMM shape, no data required."""
    if cfg is None:
        cfg = PeConfig()
    if min(spec.m, spec.n, spec.k) < 1:
        raise ValueError("dimensions must be positive")
    if group_size < 1:
        raise ValueError("group_size must be positive")
    draft = spec.mode is GemmMode.DRAFT
    throughput = 3 if draft else 1
    mac_cycles = Fraction(spec.macs, cfg.total_pes * throughput)
    n_groups = -(-spec.k // group_size)
    return CycleReport(
        mode=spec.mode,
        m=spec.m,
        n=spec.n,
        k=spec.k,
        macs=spec.macs,
        pe_count=cfg.total_pes,
        macs_per_pe_per_cycle=throughput,
        mac_cycles=mac_cycles,
        fill_cycles=cfg.fill_cycles,
        cycles=cfg.fill_cycles + math.ceil(mac_cycles),
        weight_bits=(4 if draft else 16) * spec.k * spec.n,
        scale_bytes=(4 * n_groups * spec.n + 4) if draft else 4,
        activation_bytes=2 * spec.m * spec.k,
        frequency_hz=cfg.frequency_hz,
    )


def simulate_gemm(
    a: np.ndarray,
    p: PackedTensor,
    mode: GemmMode,
    cfg: PeConfig | None = None,
) -> tuple[np.ndarray, CycleReport]:
    """Run a GEMM through the PE datapath model.

    Outputs are bit-identical to ``kernels.gemm_full`` / ``gemm_draft``:
    each PE-level product is exact, and ``_accel.gemm_f32`` accumulates
    them in the kernels' fixed float32 order.
    """
    a = _check_activations(a, p)
    if mode is GemmMode.FULL:
        out = _accel.gemm_f32(a, p.full_values(), p.group_size, mul=pe_full_mac)
    else:
        wq, _ = p.words()
        out = _accel.gemm_f32(a, wq, p.group_size, p.group_scales, mul=_pe_quant_mac_wq)
    out *= p.inv_tensor_scale
    spec = GemmSpec(m=a.shape[0], n=p.cols, k=p.rows, mode=mode)
    return out, estimate(spec, cfg, group_size=p.group_size)
