"""Weight-tensor quantization into packed bit-shared form.

Pipeline: per-tensor outlier rescaling (so every biased exponent fits in
[0, 15]), element-wise 4-bit encoding, then one least-squares scale per
contiguous group of ``group_size`` elements along the reduction dimension
of each output column.

Four 4-bit formats are supported. Only ``E3M0_REMAP`` is bit-sharing: its
4-bit stream plus the 12-bit remainder stream reconstruct the stored FP16
tensor exactly. ``E3M0_NAIVE`` (plain middle-exponent-bit extraction) and
the rounded ``E2M1`` / ``E1M2`` grids exist as accuracy baselines.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import bsfp

__all__ = [
    "QuantFormat",
    "PackedTensor",
    "ExpHistogram",
    "FormatMismatchError",
    "handle_outliers",
    "fit_group_scale",
    "quantize_tensor",
    "draft_reconstruction",
    "reconstruction_mse",
    "ingest_bf16",
    "exponent_histogram",
    "pack_nibbles",
    "unpack_nibbles",
    "pack_12bit",
    "unpack_12bit",
]

OUTLIER_THRESHOLD = 2.0
OUTLIER_TARGET = np.float32(1.999)


class FormatMismatchError(ValueError):
    """Operation requires the bit-sharing format but got a baseline format."""


class QuantFormat(enum.Enum):
    E3M0_REMAP = "e3m0-remap"
    E3M0_NAIVE = "e3m0"
    E2M1 = "e2m1"
    E1M2 = "e1m2"


# Magnitude grids for the rounded baselines (exponent bias 1; the fitted
# group scale absorbs any constant factor, so only the grid shape matters).
_E2M1_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
_E1M2_GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75])


# ---------------------------------------------------------------------------
# bit-stream packing (canonical on-disk layout, also the traffic unit)
# ---------------------------------------------------------------------------


def pack_nibbles(vals: np.ndarray) -> bytes:
    """Pack 4-bit records two per byte, low nibble first."""
    v = np.asarray(vals, dtype=np.uint8).ravel()
    if v.size % 2:
        v = np.concatenate([v, np.zeros(1, np.uint8)])
    return (v[0::2] | (v[1::2] << 4)).tobytes()


def unpack_nibbles(data: bytes, count: int) -> np.ndarray:
    b = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(2 * b.size, dtype=np.uint8)
    out[0::2] = b & 0x0F
    out[1::2] = b >> 4
    return out[:count]


def pack_12bit(vals: np.ndarray) -> bytes:
    """Pack 12-bit records two per three bytes, little-endian bit order."""
    v = np.asarray(vals, dtype=np.uint16).ravel()
    pairs = v.size // 2
    out = np.empty(3 * pairs + 2 * (v.size % 2), dtype=np.uint8)
    r0 = v[0 : 2 * pairs : 2].astype(np.uint32)
    r1 = v[1 : 2 * pairs : 2].astype(np.uint32)
    out[0 : 3 * pairs : 3] = r0 & 0xFF
    out[1 : 3 * pairs : 3] = (r0 >> 8) | ((r1 & 0x0F) << 4)
    out[2 : 3 * pairs : 3] = r1 >> 4
    if v.size % 2:
        out[-2] = v[-1] & 0xFF
        out[-1] = v[-1] >> 8
    return out.tobytes()


def unpack_12bit(data: bytes, count: int) -> np.ndarray:
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint16)
    pairs = count // 2
    out = np.empty(count, dtype=np.uint16)
    out[0 : 2 * pairs : 2] = b[0 : 3 * pairs : 3] | ((b[1 : 3 * pairs : 3] & 0x0F) << 8)
    out[1 : 2 * pairs : 2] = (b[1 : 3 * pairs : 3] >> 4) | (b[2 : 3 * pairs : 3] << 4)
    if count % 2:
        out[-1] = b[3 * pairs] | ((b[3 * pairs + 1] & 0x0F) << 8)
    return out


# ---------------------------------------------------------------------------
# packed tensor
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PackedTensor:
    """A quantized weight matrix (rows = reduction dim, cols = outputs).

    ``wq`` holds one 4-bit record (sign, qcode) per element and is the only
    weight data the draft path may read; ``wr`` holds the 12-bit remainder
    (flag, elsb, man10). Access to each stream is counted so tests can
    verify the draft path never touches ``wr``.
    """

    rows: int
    cols: int
    group_size: int
    fmt: QuantFormat
    tensor_scale: float
    group_scales: np.ndarray  # float32, shape (cols, n_groups)
    wq: np.ndarray  # uint8, shape (rows, cols), values 0..15
    wr: np.ndarray  # uint16, shape (rows, cols), values 0..4095

    wq_touches: int = field(default=0, repr=False)
    wr_touches: int = field(default=0, repr=False)
    _qval: np.ndarray | None = field(default=None, repr=False)
    _full32: np.ndarray | None = field(default=None, repr=False)
    _inv_scale: np.float32 | None = field(default=None, repr=False)

    @property
    def inv_tensor_scale(self) -> np.float32:
        if self._inv_scale is None:
            self._inv_scale = np.float32(1.0) / np.float32(self.tensor_scale)
        return self._inv_scale

    @property
    def n_groups(self) -> int:
        return -(-self.rows // self.group_size)

    @property
    def wq_bits(self) -> int:
        return 4 * self.rows * self.cols

    @property
    def wr_bits(self) -> int:
        return 12 * self.rows * self.cols

    def draft_values(self) -> np.ndarray:
        """Per-element 4-bit decoded values (float32, read-only). Reads only ``wq``."""
        self.wq_touches += 1
        if self._qval is None:
            if self.fmt is QuantFormat.E3M0_REMAP:
                q = bsfp.q_value_array(self.wq)
            elif self.fmt is QuantFormat.E3M0_NAIVE:
                exp4 = (self.wq & 7).astype(np.int32) << 1
                mag = np.ldexp(np.float32(1.0), exp4 - 15).astype(np.float32)
                q = np.where((self.wq >> 3).astype(bool), -mag, mag)
            else:
                grid = _E2M1_GRID if self.fmt is QuantFormat.E2M1 else _E1M2_GRID
                mag = grid.astype(np.float32)[self.wq & 7]
                q = np.where((self.wq >> 3).astype(bool), -mag, mag)
            q = q.astype(np.float32)
            q.setflags(write=False)
            self._qval = q
        return self._qval

    def full_values(self) -> np.ndarray:
        """Exact stored FP16 tensor, as a fresh array.

        Reads both streams; E3M0_REMAP only.
        """
        return self.full_values_f32().astype(np.float16)

    def full_values_f32(self) -> np.ndarray:
        """Exact stored tensor widened to float32 (read-only, cached for kernels).

        The one place that decodes both streams; E3M0_REMAP only.
        """
        if self.fmt is not QuantFormat.E3M0_REMAP:
            raise FormatMismatchError(f"{self.fmt.value} is not bit-sharing")
        self.wq_touches += 1
        self.wr_touches += 1
        if self._full32 is None:
            bits = bsfp.decode_full_array(self.wq, self.wr)
            full = bits.view(np.float16).astype(np.float32)
            full.setflags(write=False)
            self._full32 = full
        return self._full32

    def wq_packed(self) -> bytes:
        """Canonical 4-bit stream, column-major group order."""
        return pack_nibbles(self.wq.flatten(order="F"))

    def wr_packed(self) -> bytes:
        """Canonical 12-bit stream, column-major group order."""
        return pack_12bit(self.wr.flatten(order="F"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTensor):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.group_size == other.group_size
            and self.fmt is other.fmt
            and self.tensor_scale == other.tensor_scale
            and np.array_equal(self.group_scales, other.group_scales)
            and np.array_equal(self.wq, other.wq)
            and np.array_equal(self.wr, other.wr)
        )


@dataclass
class ExpHistogram:
    counts: np.ndarray  # int64, shape (32,)
    total: int
    frac_unused: float


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def handle_outliers(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Rescale a tensor so that max |w| < 2, returning (w', tensor_scale).

    The scale is 1.999 / max|w| when any magnitude exceeds 2.0, else 1.0;
    rescaled values are rounded back to FP16 (round-to-nearest-even).
    """
    w = np.asarray(w)
    if w.dtype != np.float16:
        w = w.astype(np.float16)
    if w.size == 0:
        raise ValueError("empty tensor")
    if not np.all(np.isfinite(w)):
        raise ValueError("tensor contains NaN or Inf")
    wmax = np.float32(np.max(np.abs(w.astype(np.float32))))
    if wmax > OUTLIER_THRESHOLD:
        scale = OUTLIER_TARGET / wmax
        return (w.astype(np.float32) * scale).astype(np.float16), float(scale)
    return w, 1.0


def fit_group_scale(w: np.ndarray, q: np.ndarray) -> float:
    """Least-squares scale: argmin_s sum (w_i - s*q_i)^2 = sum(wq)/sum(qq)."""
    w = np.asarray(w, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    denom = float(np.dot(q, q))
    if denom == 0.0:
        raise ValueError("all quantized values are zero")
    return float(np.dot(w, q) / denom)


def _encode_elements(w16: np.ndarray, fmt: QuantFormat) -> tuple[np.ndarray, np.ndarray]:
    """Per-element 4-bit codes and 12-bit remainders for one format."""
    bits = w16.view(np.uint16)
    if fmt is QuantFormat.E3M0_REMAP:
        return bsfp.encode_array(bits)
    exp5 = (bits >> 10) & np.uint16(0x1F)
    if np.any(exp5 > 15):
        raise bsfp.ExponentRangeError("exponent >= 16 present; apply outlier rescaling first")
    sign = (bits >> 15).astype(np.uint8)
    if fmt is QuantFormat.E3M0_NAIVE:
        qcode = (exp5 >> 1).astype(np.uint8)
        wr = ((exp5 & np.uint16(1)) << 10) | (bits & np.uint16(0x3FF))
        return (sign << 3) | qcode, wr.astype(np.uint16)
    # Rounded grids: per-column-group absmax prescale, then round each
    # magnitude to the nearest grid point (ties to the even code).
    grid = _E2M1_GRID if fmt is QuantFormat.E2M1 else _E1M2_GRID
    absw = np.abs(w16.astype(np.float64))
    mids = (grid[:-1] + grid[1:]) / 2.0
    gmax = absw.max(axis=0, keepdims=True)
    prescale = np.where(gmax > 0, gmax / grid[-1], 1.0)
    x = absw / prescale
    lo = np.searchsorted(mids, x, side="left").astype(np.uint8)
    hi = np.searchsorted(mids, x, side="right").astype(np.uint8)
    tie = lo != hi
    codes = np.where(tie & (lo % 2 == 1), hi, lo).astype(np.uint8)
    return (sign << 3) | codes, np.zeros(w16.shape, dtype=np.uint16)


def quantize_tensor(
    w: np.ndarray,
    group_size: int = 128,
    fmt: QuantFormat = QuantFormat.E3M0_REMAP,
) -> PackedTensor:
    """Quantize a 2-D weight tensor; groups run down each column.

    Tail groups shorter than ``group_size`` are fitted over their actual
    length. The returned tensor stores the outlier scale, one float32
    scale per (column, group), and the packed element streams.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D tensor, got shape {w.shape}")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    w16, tensor_scale = handle_outliers(w)
    rows, cols = w16.shape

    if fmt in (QuantFormat.E2M1, QuantFormat.E1M2):
        # Prescale is per (column, group): encode group blocks separately.
        wq = np.empty((rows, cols), dtype=np.uint8)
        wr = np.zeros((rows, cols), dtype=np.uint16)
        for g in range(-(-rows // group_size)):
            sl = slice(g * group_size, min((g + 1) * group_size, rows))
            wq[sl], _ = _encode_elements(w16[sl], fmt)
    else:
        wq, wr = _encode_elements(w16, fmt)

    n_groups = -(-rows // group_size)
    scales = np.zeros((cols, n_groups), dtype=np.float32)
    p = PackedTensor(rows, cols, group_size, fmt, tensor_scale, scales, wq, wr)
    qv = p.draft_values().astype(np.float64)
    wref = w16.astype(np.float64)
    for g in range(n_groups):
        sl = slice(g * group_size, min((g + 1) * group_size, rows))
        num = np.sum(wref[sl] * qv[sl], axis=0)
        den = np.sum(qv[sl] * qv[sl], axis=0)
        scales[:, g] = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    p.wq_touches = 0
    p.wr_touches = 0
    return p


def draft_reconstruction(p: PackedTensor) -> np.ndarray:
    """Group-scaled draft tensor s_g * q (float64), in the scaled domain."""
    qv = p.draft_values().astype(np.float64)
    out = np.empty_like(qv)
    for g in range(p.n_groups):
        sl = slice(g * p.group_size, min((g + 1) * p.group_size, p.rows))
        out[sl] = qv[sl] * p.group_scales[:, g].astype(np.float64)
    return out


def reconstruction_mse(p: PackedTensor, ref: np.ndarray) -> float:
    """Mean squared error of the draft reconstruction against ``ref``."""
    diff = draft_reconstruction(p) - np.asarray(ref, dtype=np.float64)
    return float(np.mean(diff * diff))


def ingest_bf16(bits: np.ndarray) -> np.ndarray:
    """Convert BF16 bit patterns (uint16) to an FP16 tensor.

    Biased exponents below 112 are rounded up to 112; 112 itself lands on
    the FP16 subnormal row with the significand shifted right one place;
    [113, 127] map value-exactly with the 7-bit mantissa padded by three
    zero bits. Exponents above 127 (|x| >= 2 before rescaling, or NaN/Inf)
    are rejected.
    """
    b = np.asarray(bits, dtype=np.uint16)
    sign = b >> 15
    e8 = (b >> 7) & np.uint16(0xFF)
    m7 = b & np.uint16(0x7F)
    if np.any(e8 > 127):
        raise bsfp.ExponentRangeError("BF16 exponent > 127; apply outlier rescaling first")
    e_cl = np.maximum(e8, np.uint16(112))
    sub = e_cl == 112
    exp5 = np.where(sub, np.uint16(0), e_cl - np.uint16(112))
    man10 = np.where(sub, np.uint16(512) | (m7 << 2), m7 << 3)
    return ((sign << 15) | (exp5 << 10) | man10).astype(np.uint16).view(np.float16)


def exponent_histogram(w: np.ndarray) -> ExpHistogram:
    """Count biased FP16 exponents; frac_unused is the share with exp >= 16."""
    w = np.asarray(w)
    if w.dtype != np.float16:
        w = w.astype(np.float16)
    exp5 = (w.view(np.uint16).ravel() >> 10) & np.uint16(0x1F)
    counts = np.bincount(exp5, minlength=32).astype(np.int64)
    total = int(counts.sum())
    frac = float(counts[16:].sum() / total) if total else 0.0
    return ExpHistogram(counts=counts, total=total, frac_unused=frac)
