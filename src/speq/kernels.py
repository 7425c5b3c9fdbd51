"""Dual-path reference GEMM over packed weight tensors.

``gemm_full`` multiplies by the exact FP16 weights; ``gemm_draft`` by the
4-bit draft values and the group scales, and never reads the exact values.
Both operands were decoded once, when the ``PackedTensor`` was built. Both
accumulate in the fixed float32 order of ``_accel.gemm_groups`` (ascending
k within a group, then ascending group), multiply by 1/tensor_scale once
per output element, and are bit-reproducible across runs and thread counts.

They run through ``_accel.gemm_weights``, which needs every product to be
exact in float32. That holds here: an FP16 x FP16 product has at most 22
significant bits (two 11-bit significands), an FP16 x draft value (±2^e)
at most 11, and the exponent range fits comfortably. With exact products
an FMA rounds where ``gemm_f32``'s multiply-then-add does, so a BLAS
micro-kernel that adds each output's products in ascending k gives the
same bits. A one-row call runs as two rows, because numpy's sgemv path
reassociates. No shape is assumed to work: a once-per-process probe
admits each (rows, k, n) group shape to OpenBLAS sgemm, and any other
shape runs ``gemm_f32`` (see ``_accel``). ``reference_gemm`` runs the same
group loop on ``gemm_f32`` only, so the tests that compare the two check
two implementations of each group's sum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _accel
from .quantize import PackedTensor, check_int

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
    group_size: int = 128

    def __post_init__(self) -> None:
        for name in ("m", "n", "k", "group_size"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k


@dataclass
class TrafficCounter:
    """Traffic summed over GEMM calls, as ``gemm_traffic`` counts it: weights in
    logical stream bits, so draft:full is exactly 1:4; container padding is not dataflow.
    """

    weight_bits: int = 0
    scale_bytes: int = 0
    activation_bytes: int = 0

    def add(self, weight_bits: int, scale_bytes: int, activation_bytes: int) -> None:
        self.weight_bits += weight_bits
        self.scale_bytes += scale_bytes
        self.activation_bytes += activation_bytes


def gemm_traffic(m: int, n: int, k: int, mode: GemmMode, group_size: int) -> tuple[int, int, int]:
    """(weight bits, scale bytes, activation bytes) one (M,K) x (K,N) GEMM reads."""
    if mode is GemmMode.DRAFT:
        return 4 * k * n, 4 * n * -(-k // group_size) + 4, 2 * m * k
    return 16 * k * n, 4, 2 * m * k


def reference_gemm(a: np.ndarray, w: np.ndarray, group_size: int = 128) -> np.ndarray:
    """GEMM over plain FP16 weights with the same accumulation contract.

    Matches ``gemm_full`` bit for bit when the packed tensor stores ``w``
    exactly and its tensor scale is 1.
    """
    a = np.asarray(a, dtype=np.float16).astype(np.float32)
    w = np.asarray(w, dtype=np.float16).astype(np.float32)
    return _accel.gemm_groups(_accel.gemm_f32, a, w, group_size)


def _check_activations(a: np.ndarray, p: PackedTensor, validate: bool = True) -> np.ndarray:
    a = np.asarray(a)
    if a.dtype != np.float16:
        raise ValueError(f"activations must be float16, got {a.dtype}")
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError(f"activations must be 2-D with at least one row, got shape {a.shape}")
    if a.shape[1] != p.rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, W is {p.rows}x{p.cols}")
    if validate and not np.all(np.isfinite(a)):
        raise ValueError("activations contain NaN or Inf")
    return a


def _gemm(a, p: PackedTensor, mode: GemmMode, traffic: TrafficCounter | None, validate: bool):
    """The one GEMM body: checks, multiply-accumulate, 1/tensor scale, traffic."""
    a = _check_activations(a, p, validate)
    a32 = a.astype(np.float32)
    if mode is GemmMode.FULL:
        out = _accel.gemm_weights(a32, p.full_values_f32(), p.group_size)
    else:
        out = _accel.gemm_weights(a32, p.draft_values(), p.group_size, p.group_scales)
    out *= p.inv_tensor_scale
    if traffic is not None:
        traffic.add(*gemm_traffic(a.shape[0], p.cols, p.rows, mode, p.group_size))
    return out


def gemm_full(
    a: np.ndarray,
    p: PackedTensor,
    traffic: TrafficCounter | None = None,
    validate: bool = True,
) -> np.ndarray:
    """Full-precision GEMM: A (M,K) fp16 x exact FP16 weights (K,N) -> f32."""
    return _gemm(a, p, GemmMode.FULL, traffic, validate)


def gemm_draft(
    a: np.ndarray,
    p: PackedTensor,
    traffic: TrafficCounter | None = None,
    validate: bool = True,
) -> np.ndarray:
    """Draft GEMM from the 4-bit draft values and scales only; never reads the exact values."""
    return _gemm(a, p, GemmMode.DRAFT, traffic, validate)
