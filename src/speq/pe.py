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

``simulate_gemm`` takes its output from ``kernels.gemm_full`` /
``gemm_draft`` and checks that the mode's datapath gives the float32
products those kernels sum, bit for bit. The sum is the kernels' own
code, so equal products mean equal outputs.

``estimate`` returns a ``CycleReport`` that holds the ``GemmSpec`` and
the ``PeConfig`` and derives every count from them. Cycles are
``ceil(macs / (PEs * throughput)) + fill``, and the pre-ceiling MAC-cycle
figure is an exact rational, so the 3x throughput ratio between modes is
exact for every shape. Traffic is ``kernels.gemm_traffic`` of the spec,
the same formula the kernels count with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bsfp
from .kernels import GemmMode, GemmSpec, gemm_draft, gemm_full, gemm_traffic
from .quantize import PackedTensor, check_int, check_real

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
        for name in ("tiles", "pes_per_tile"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        object.__setattr__(self, "fill_cycles", check_int("fill_cycles", self.fill_cycles, lo=0))
        object.__setattr__(self, "frequency_hz", check_real("frequency_hz", self.frequency_hz))

    @property
    def total_pes(self) -> int:
        return self.tiles * self.pes_per_tile


@dataclass(frozen=True)
class CycleReport:
    """One GEMM on the array: its spec and the array's config. Every cycle
    and traffic figure is a property over the two.
    """

    spec: GemmSpec
    cfg: PeConfig

    @property
    def _traffic(self) -> tuple[int, int, int]:
        s = self.spec
        return gemm_traffic(s.m, s.n, s.k, s.mode, s.group_size)

    @property
    def weight_bits(self) -> int:
        return self._traffic[0]

    @property
    def weight_bytes(self) -> float:
        return self.weight_bits / 8

    @property
    def scale_bytes(self) -> int:
        return self._traffic[1]

    @property
    def activation_bytes(self) -> int:
        return self._traffic[2]

    @property
    def macs_per_pe_per_cycle(self) -> int:
        return 3 if self.spec.mode is GemmMode.DRAFT else 1

    @property
    def mac_cycles(self) -> Fraction:
        return Fraction(self.spec.macs, self.cfg.total_pes * self.macs_per_pe_per_cycle)

    @property
    def cycles(self) -> int:
        return self.cfg.fill_cycles + math.ceil(self.mac_cycles)

    @property
    def time_s(self) -> float:
        return self.cycles / self.cfg.frequency_hz


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


def estimate(spec: GemmSpec, cfg: PeConfig | None = None) -> CycleReport:
    """Analytic cycle/traffic report for a GEMM shape, no data required."""
    return CycleReport(spec, cfg or PeConfig())


def simulate_gemm(
    a: np.ndarray,
    p: PackedTensor,
    mode: GemmMode,
    cfg: PeConfig | None = None,
) -> tuple[np.ndarray, CycleReport]:
    """``gemm_full`` / ``gemm_draft``'s output, its products checked on the PE datapath.

    Full mode checks ``pe_full_mac`` on the exact FP16 weights, draft mode
    ``pe_quant_mac`` on the draft values' (sign, exp4), never reading the
    remainder. A product that differs in any bit from the kernel's raises
    ``RuntimeError``. A k-slice holds at most 2^16 products, or one k-step.
    """
    full = mode is GemmMode.FULL
    out = (gemm_full if full else gemm_draft)(a, p)
    a = np.asarray(a)
    w = p.full_values_f32() if full else p.draft_values()
    m, k = a.shape
    step = max(1, (1 << 16) // (m * p.cols))  # 256 KiB of float32, as gemm_f32's blocks
    for k0 in range(0, k, step):
        ak, wk = a[:, k0 : k0 + step, None], w[None, k0 : k0 + step]
        if full:
            got = pe_full_mac(ak, wk.astype(np.float16))
        else:
            # every draft value is +/- 2^(exp4 - 15), and frexp gives 2^e as 0.5 * 2^(e + 1)
            got = pe_quant_mac(ak, np.signbit(wk), np.frexp(wk)[1] + 14)
        expect = ak.astype(np.float32) * wk
        if not np.array_equal(got.view(np.uint32), expect.view(np.uint32)):
            raise RuntimeError(f"{mode.value} PE products differ from the kernel's at k >= {k0}")
    return out, estimate(GemmSpec(m, p.cols, k, mode, p.group_size), cfg)
