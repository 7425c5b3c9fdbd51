"""Dual-path reference GEMM over packed weight tensors.

``gemm_full`` multiplies by the exact FP16 weights; ``gemm_draft`` by the
4-bit draft values and the group scales, and never reads the exact values.
Both operands were decoded once, when the ``PackedTensor`` was built; the
draft reads its scales as contiguous rows, ``group_scales.T``. Each hands
its operand (and the draft its scales) to ``_gemm``, the one body: it
checks the activations (FP16 values, held as float16 or as float32; 2-D,
at least one row, as wide as the operand is tall; finite and, if float32,
exactly FP16 unless the caller skips those two checks), runs
``_accel.gemm_weights`` and multiplies by 1/tensor_scale once per output
element unless it is exactly 1. Every product there is exact in float32:
an FP16 x FP16 product has at most 22 significant bits, an FP16 x draft
value (±2^e) at most 11. ``_accel`` gives the fixed accumulation order,
why sgemm keeps it and how a probe admits each call shape, so outputs are
bit-reproducible across runs and thread counts. ``reference_gemm`` runs
the same group code on ``_accel._loop_f32``, the order's definition.

``gemm_traffic`` gives a call's traffic from its shape. Its weight bits and
scale bytes do not depend on the rows, so a forward reads each weight once:
the model sums them over its linears once per mode, at construction, and
adds that to its ``TrafficCounter`` per forward.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _accel
from .quantize import DEFAULT_GROUP_SIZE, PackedTensor, check_int

__all__ = [
    "GemmMode",
    "GemmSpec",
    "TrafficCounter",
    "gemm_traffic",
    "gemm_full",
    "gemm_draft",
]


class GemmMode(enum.Enum):
    DRAFT = "draft"
    FULL = "full"


@dataclass(frozen=True)
class GemmSpec:
    """Shape, mode and weight group size of one GEMM; accumulation order is fixed by contract."""

    m: int
    n: int
    k: int
    mode: GemmMode
    group_size: int = DEFAULT_GROUP_SIZE

    def __post_init__(self) -> None:
        for name in ("m", "n", "k", "group_size"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k


@dataclass
class TrafficCounter:
    """Weight-store reads summed over forwards, as ``gemm_traffic`` counts
    them: weights in logical stream bits, so draft:full weight bits are
    exactly 1:4; container padding is not dataflow.
    """

    weight_bits: int = 0
    scale_bytes: int = 0

    def add(self, weight_bits: int, scale_bytes: int) -> None:
        self.weight_bits += weight_bits
        self.scale_bytes += scale_bytes


def gemm_traffic(m: int, n: int, k: int, mode: GemmMode, group_size: int) -> tuple[int, int, int]:
    """(weight bits, scale bytes, activation bytes) one (M,K) x (K,N) GEMM reads."""
    if mode is GemmMode.DRAFT:
        return 4 * k * n, 4 * n * -(-k // group_size) + 4, 2 * m * k
    return 16 * k * n, 4, 2 * m * k


def reference_gemm(a: np.ndarray, w: np.ndarray, group_size: int = DEFAULT_GROUP_SIZE) -> np.ndarray:
    """GEMM over plain FP16 weights with the same accumulation contract.

    Matches ``gemm_full`` bit for bit when the packed tensor stores ``w``
    exactly and its tensor scale is 1.
    """
    a = np.asarray(a, dtype=np.float16).astype(np.float32)
    w = np.asarray(w, dtype=np.float16).astype(np.float32)
    return _accel.gemm_groups(_accel._loop_f32, a, w, group_size)


def _gemm(a, p: PackedTensor, w: np.ndarray, scales, validate: bool):
    """The one GEMM body over operand ``w`` (and the draft's ``scales``).
    The width check reads ``w``, not ``p``, so the draft reads nothing
    decoded from the remainder stream.

    ``a`` holds FP16 values, as float16 or as float32. With ``validate``,
    it must be finite, and a float32 ``a`` must equal its own
    ``_accel.fp16_values`` bit for bit; without, the caller vouches for both.
    """
    a = np.asarray(a)
    if a.dtype not in (np.float16, np.float32):
        raise ValueError(f"activations must be float16, or float32 holding FP16 values, got {a.dtype}")
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError(f"activations must be 2-D with at least one row, got shape {a.shape}")
    if a.shape[1] != w.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a.shape}, W is {p.rows}x{p.cols}")
    if validate:
        if not np.all(np.isfinite(a)):
            raise ValueError("activations contain NaN or Inf")
        if a.dtype == np.float32:
            with np.errstate(over="ignore"):  # a value past 65504 fails the compare
                fp16 = np.asarray(_accel.fp16_values(a), dtype=np.float32)
            if not np.array_equal(fp16.view(np.uint32), a.view(np.uint32)):
                raise ValueError("float32 activations must hold FP16 values")
    out = _accel.gemm_weights(a, w, p.group_size, scales)
    if p.inv_tensor_scale != 1:  # x * 1 is x, bit for bit
        out *= p.inv_tensor_scale
    return out


def gemm_full(a: np.ndarray, p: PackedTensor, *, validate: bool = True) -> np.ndarray:
    """Full-precision GEMM: A (M,K) FP16 values x exact FP16 weights (K,N) -> f32."""
    return _gemm(a, p, p.full_values_f32(), None, validate)


def gemm_draft(a: np.ndarray, p: PackedTensor, *, validate: bool = True) -> np.ndarray:
    """Draft GEMM from the 4-bit draft values and scales only; never reads the exact values."""
    return _gemm(a, p, p.draft_values(), p.group_scales, validate)
