"""Weight-tensor quantization into packed bit-shared form.

Pipeline: per-tensor outlier rescaling (so every biased exponent fits in
[0, 15]), element-wise 4-bit encoding, then one least-squares scale per
contiguous group of ``group_size`` elements along the reduction dimension
of each output column.

A ``PackedTensor`` is always the bit-sharing ``E3M0_REMAP`` tensor. It
holds only its two float32 kernel operands, each decoded once from the
16-bit words ``bsfp.encode_words`` writes, the one record from encoder to
container: one ``intp`` index of the words serves two gathers, the exact
FP16 weights by ``bsfp.decode_words_f32`` from the float32 table of all
65,536 words, and the draft values from the 16-entry ``bsfp.DRAFT_VALUE``
indexed by ``word >> 12``. It has one door, the constructor, which takes the uint16
words: ``quantize_tensor`` hands it the words it encodes and
``container.from_bytes`` those it unpacks. The constructor is the one
place that decides what a valid tensor is (words, group size, tensor
scale, group scales); the container checks only the byte framing around it.

``E3M0_NAIVE`` (plain middle-exponent-bit extraction) and the rounded
``E2M1`` / ``E1M2`` grids are accuracy baselines only: ``draft_mse``
fits them with the same group scales and reports their draft error. They
are never packed, stored or run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import bsfp

__all__ = [
    "DEFAULT_GROUP_SIZE",
    "QuantFormat",
    "PackedTensor",
    "ExpHistogram",
    "handle_outliers",
    "quantize_tensor",
    "draft_mse",
    "ingest_bf16",
    "exponent_histogram",
]

DEFAULT_GROUP_SIZE = 128  # weights per draft scale along k, where a caller names none
OUTLIER_THRESHOLD = 2.0
OUTLIER_TARGET = np.float32(1.999)


class QuantFormat(enum.Enum):
    E3M0_REMAP = "e3m0-remap"
    E3M0_NAIVE = "e3m0"
    E2M1 = "e2m1"
    E1M2 = "e1m2"


# Magnitude grids for the rounded baselines (exponent bias 1; the fitted
# group scale absorbs any constant factor, so only the grid shape matters).
_GRIDS = {
    QuantFormat.E2M1: np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]),
    QuantFormat.E1M2: np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]),
}


# The one rule for a valid count or rate. It lives here because every module
# that takes one already imports this module, which imports none of them.
def check_int(name: str, v, lo: int = 1, hi: int | None = None) -> int:
    """``v`` as a plain int in ``[lo, hi]`` (``hi=None``: no upper bound), or
    a ``ValueError`` naming ``name``.

    numpy integers pass; a bool, which would pass as 0 or 1, does not.
    """
    if not (isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= lo):
        raise ValueError(f"{name} must be an integer >= {lo}, got {v!r}")
    if hi is not None and v > hi:
        raise ValueError(f"{name} must be <= {hi}, got {v!r}")
    return int(v)


def check_real(name: str, v, lo: float = 0, hi: float | None = None) -> float:
    """``v`` as a plain float, or a ``ValueError`` naming ``name``: a finite
    real > ``lo`` or, given ``hi``, a real in the closed ``[lo, hi]``.

    numpy reals pass; a bool and a numeric string do not.
    """
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    if hi is None:
        if not (real and lo < v < math.inf):
            raise ValueError(f"{name} must be a finite real > {lo}, got {v!r}")
    elif not (real and lo <= v <= hi):
        raise ValueError(f"{name} must be a real in [{lo}, {hi}], got {v!r}")
    return float(v)


# ---------------------------------------------------------------------------
# packed tensor
# ---------------------------------------------------------------------------


_INF_BITS = np.float32(np.inf).view(np.uint32)


@dataclass(eq=False, init=False)
class PackedTensor:
    """A bit-shared weight matrix (rows = reduction dim, cols = outputs).

    Built from the uint16 BSFP words of one 2-D shape, which gives ``rows``
    and ``cols``; keeps neither a stream nor the words: :meth:`words`
    re-derives them. The exact operand is gathered straight to float32 from ``bsfp``'s
    word table, and both operands are C-ordered whatever the order of the
    words. Construction raises ``ValueError`` for any input no GEMM could
    use: words that are not one non-empty 2-D uint16 array (so no wider
    value can wrap onto a valid word), a ``group_size`` that is not an
    integer >= 1, a ``tensor_scale`` that is not a real (a bool or a string
    is not one) whose float32 value is finite and > 0 with a finite
    reciprocal, group scales of the wrong shape, non-finite or with the
    sign bit set, and (as ``bsfp.MalformedWordError``) a word the encoder
    never writes, which the table holds as NaN. It keeps ``tensor_scale``'s
    float32 value and a copy of ``group_scales``, so it equals its
    container round trip.
    """

    group_size: int
    tensor_scale: float
    # float32 copy, shape (cols, n_groups), read-only; held in F order, so
    # ``group_scales.T`` is the (n_groups, cols) C-order array the kernels
    # read one group's row at a time
    group_scales: np.ndarray

    inv_tensor_scale: np.float32 = field(repr=False)
    _qval: np.ndarray = field(repr=False)
    _full32: np.ndarray = field(repr=False)

    # written out, not generated: a generated ``words`` parameter would take
    # the ``words`` method below as its default
    def __init__(
        self, group_size: int, tensor_scale: float, group_scales: np.ndarray, words: np.ndarray
    ) -> None:
        words = np.asarray(words)
        if words.dtype != np.uint16 or words.ndim != 2 or words.size == 0:
            raise ValueError(
                f"the words must be one non-empty 2-D uint16 array, got {words.dtype} {words.shape}"
            )
        rows, cols = words.shape
        self.group_size = check_int("group_size", group_size)
        # casts that overflow to inf are rejected below, not warned about
        with np.errstate(over="ignore", divide="ignore"):
            scale32 = np.float32(check_real("tensor_scale", tensor_scale))
            self.inv_tensor_scale = np.float32(1.0) / scale32
            scales = np.array(group_scales, dtype=np.float32, order="F")
        # a finite real > 0 can still round to float32 0 or inf, and a subnormal
        # scale would make every output of gemm_full / gemm_draft infinite
        if not (0.0 < scale32 < np.inf and np.isfinite(self.inv_tensor_scale)):
            raise ValueError(
                f"tensor_scale {tensor_scale} is not a finite float32 > 0 "
                "with a finite reciprocal"
            )
        self.tensor_scale = float(scale32)
        n_groups = -(-rows // self.group_size)
        if scales.shape != (cols, n_groups):
            raise ValueError(f"group scales must have shape {(cols, n_groups)}, got {scales.shape}")
        # +0.0 is valid: quantize_tensor fits an all-zero group to scale 0.0. It
        # never writes -0.0 (each scale is a w*q product, q taking w's sign), and
        # a -0.0 would compare equal to a tensor whose container has other bytes.
        # one reduction: the float32 bits of every finite value >= +0.0 lie
        # below +inf's, and -0.0, like every negative, has the sign bit set
        if np.maximum.reduce(scales.view(np.uint32), axis=None) >= _INF_BITS:
            raise ValueError("group scales must be finite and >= +0.0")
        scales.flags.writeable = False
        self.group_scales = scales
        # one intp index serves both gathers: a uint16 word indexes the word
        # table, and word >> 12, at most 4 bits, the draft table
        index = words.astype(np.intp, order="C")
        self._full32 = bsfp.decode_words_f32(index)
        self._full32.flags.writeable = False
        self._qval = bsfp.DRAFT_VALUE.take(np.right_shift(index, 12, out=index), mode="wrap")
        self._qval.flags.writeable = False

    # Read from the draft operand, never from _full32, so the draft path
    # provably touches nothing decoded from the remainder stream.
    @property
    def rows(self) -> int:
        return self._qval.shape[0]

    @property
    def cols(self) -> int:
        return self._qval.shape[1]

    @property
    def n_groups(self) -> int:
        return -(-self.rows // self.group_size)

    def draft_values(self) -> np.ndarray:
        """Per-element 4-bit decoded values (float32, read-only), from the words' top 4 bits alone."""
        return self._qval

    def full_values(self) -> np.ndarray:
        """Exact stored FP16 tensor as a fresh array."""
        return self.full_values_f32().astype(np.float16)

    def full_values_f32(self) -> np.ndarray:
        """Exact stored tensor in float32 (read-only)."""
        return self._full32

    def words(self) -> np.ndarray:
        """The uint16 words the tensor was built from, re-encoded from the exact values."""
        return bsfp.encode_words(self.full_values().view(np.uint16))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTensor):
            return NotImplemented
        # The exact bits determine both streams; compared as integers, so +0 != -0.
        return (
            self.group_size == other.group_size
            and self.tensor_scale == other.tensor_scale
            and np.array_equal(self.group_scales, other.group_scales)
            and np.array_equal(self._full32.view(np.uint32), other._full32.view(np.uint32))
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

    The scale is 1.999 / max|w| when any magnitude reaches 2.0, else 1.0;
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
    if wmax >= OUTLIER_THRESHOLD:
        scale = OUTLIER_TARGET / wmax
        return (w.astype(np.float32) * scale).astype(np.float16), float(scale)
    return w, 1.0


def _groups(rows: int, group_size: int) -> list[slice]:
    """Row slices of the groups down each column; the last may be short."""
    return [slice(g, min(g + group_size, rows)) for g in range(0, rows, group_size)]


def _fit_group_scales(w16: np.ndarray, qv: np.ndarray, group_size: int) -> np.ndarray:
    """Least-squares scale per (column, group) of draft values ``qv`` to ``w16``.

    Tail groups are fitted over their actual length; an all-zero draft
    group gets scale 0.0.
    """
    qv = qv.astype(np.float64)
    wref = w16.astype(np.float64)
    groups = _groups(w16.shape[0], group_size)
    scales = np.zeros((w16.shape[1], len(groups)), dtype=np.float32)
    for g, sl in enumerate(groups):
        num = np.sum(wref[sl] * qv[sl], axis=0)
        den = np.sum(qv[sl] * qv[sl], axis=0)
        scales[:, g] = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return scales


def _group_scaled(qv: np.ndarray, scales: np.ndarray, group_size: int) -> np.ndarray:
    """Draft values times their group scales, s_g * q (float64)."""
    s = np.repeat(scales.astype(np.float64), group_size, axis=1)[:, : qv.shape[0]]
    return qv.astype(np.float64) * s.T


def _rescaled(w: np.ndarray, group_size: int) -> tuple[np.ndarray, float]:
    """Check a 2-D tensor and group size; return ``handle_outliers(w)``."""
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D tensor, got shape {w.shape}")
    check_int("group_size", group_size)
    return handle_outliers(w)


def quantize_tensor(w: np.ndarray, group_size: int = DEFAULT_GROUP_SIZE) -> PackedTensor:
    """Quantize a 2-D weight tensor to bit-shared form; groups run down each column.

    The returned tensor stores the outlier scale, one float32 scale per
    (column, group), and the decoded weights.
    """
    w16, tensor_scale = _rescaled(w, group_size)
    words = bsfp.encode_words(w16.view(np.uint16))
    scales = _fit_group_scales(w16, bsfp.DRAFT_VALUE.take(words >> 12), group_size)
    return PackedTensor(group_size, tensor_scale, scales, words)


def _draft_values(w16: np.ndarray, group_size: int, fmt: QuantFormat) -> np.ndarray:
    """Signed 4-bit draft value of each element of ``w16`` in ``fmt``.

    ``w16`` is ``handle_outliers``' output, every magnitude below 2, so
    each biased exponent is at most 15.
    """
    bits = w16.view(np.uint16)
    if fmt is QuantFormat.E3M0_REMAP:
        return bsfp.DRAFT_VALUE.take(bsfp.encode_words(bits) >> 12)
    if fmt is QuantFormat.E3M0_NAIVE:
        exp5 = (bits >> 10) & np.uint16(0x1F)
        mag = np.ldexp(1.0, 2 * (exp5 >> 1).astype(np.int64) - 15)
    else:
        # Per-column-group absmax prescale, then round each magnitude to the
        # nearest grid point (ties to the even code).
        grid = _GRIDS[fmt]
        mids = (grid[:-1] + grid[1:]) / 2.0
        absw = np.abs(w16.astype(np.float64))
        mag = np.empty(w16.shape)
        for sl in _groups(w16.shape[0], group_size):
            gmax = absw[sl].max(axis=0, keepdims=True)
            x = absw[sl] / np.where(gmax > 0, gmax / grid[-1], 1.0)
            lo = np.searchsorted(mids, x, side="left")
            hi = np.searchsorted(mids, x, side="right")
            mag[sl] = grid[np.where((lo != hi) & (lo % 2 == 1), hi, lo)]
    return np.where(bits >> 15 == 1, -mag, mag)


def draft_mse(w: np.ndarray, group_size: int, fmt: QuantFormat) -> float:
    """Mean squared error of the group-scaled 4-bit draft of ``w`` in ``fmt``.

    The error is measured against the outlier-rescaled FP16 tensor, with
    the same least-squares group scales ``quantize_tensor`` fits. For
    ``E3M0_REMAP`` this is the draft error of ``quantize_tensor(w, group_size)``;
    the other formats are the accuracy baselines it is compared with.
    """
    w16, _ = _rescaled(w, group_size)
    qv = _draft_values(w16, group_size, fmt)
    rec = _group_scaled(qv, _fit_group_scales(w16, qv, group_size), group_size)
    diff = rec - w16.astype(np.float64)
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
