"""Bit-sharing floating point (BSFP) word layout and codecs.

A BSFP word re-arranges the 16 bits of an IEEE half-precision value whose
biased exponent fits in [0, 15] (i.e. |x| < 2, which per-tensor outlier
rescaling guarantees):

    FP16 :  [ sign:1 | exp5:5 (bias 15) | man10:10 ]
    BSFP :  [ sign:1 | qcode:3 | flag:1 | elsb:1 | man10:10 ]
            `------wq: 4 bits------'`-------wr: 12 bits-------'

``wq`` (sign + remapped exponent code) is a standalone 4-bit draft weight;
``wq`` and ``wr`` together reconstruct the original FP16 bits exactly.

The 3-bit ``qcode`` is the middle slice of ``exp5`` with two codes remapped
so that exponents 9 and 11 keep unique draft representations:

    exp5   0  1  2  3 | 4  5  6  7 | 8   9   10  11  | 12 13 | 14 15
    qcode  001 (all)  | 011 (all)  | 100 000 101 010 | 110   | 111
    flag   1  1  0  0 | 1  1  0  0 | 0   1   0   1   | 0  0  | 0  0

``flag`` occupies the top exponent bit (always zero for in-range weights)
and marks the six exponents whose code differs from their middle bits;
``elsb`` is the original exponent's least-significant bit.

The codecs are vectorized over numpy arrays. ``encode_array`` is the one
definition of the remap: run over every in-range FP16 pattern at import,
it fills a read-only float32 table from each word ``wq << 12 | wr`` to the
value of its FP16 pattern (a lookup, as in LUT-GEMM, Park et al. 2022).

The 16-bit word is the one decoded record. ``decode_words_f32`` gathers
the exact float32 value of each word from that table in one pass. The
table is also the one validity rule: the 32,768 words the encoder never
writes, whose draft nibble would not quantize the value they restore, hold
NaN (no in-range value is NaN) and raise :class:`MalformedWordError`.
Field widths are checked only where separate fields come in:
``join_words`` refuses a ``wq`` wider than 4 bits or a ``wr`` wider than 12
before it joins them, while a uint16 word cannot hold an out-of-range
field. ``decode_full_f32`` is ``join_words`` then ``decode_words_f32``, and
``decode_full_array``, the encoder's exact inverse, derives the uint16 FP16
bits from it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ExponentRangeError",
    "MalformedWordError",
    "REMAP_QCODE",
    "REMAP_FLAG",
    "DECODE_QEXP",
    "in_range_bits",
    "encode_array",
    "join_words",
    "decode_words_f32",
    "decode_full_f32",
    "decode_full_array",
    "q_exponent_array",
    "q_value_array",
]


class ExponentRangeError(ValueError):
    """Biased exponent outside [0, 15]; outlier rescaling was not applied."""


class MalformedWordError(ValueError):
    """A (wq, wr) word that ``encode_array`` writes for no in-range FP16 value."""


# Truth tables, indexed by biased exponent or by 3-bit code. These are the
# reference vectors for the hardware decoder units.
REMAP_QCODE = (1, 1, 1, 1, 3, 3, 3, 3, 4, 0, 5, 2, 6, 6, 7, 7)
REMAP_FLAG = (1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0)

# qcode -> 4-bit quantized exponent. Codes 000/010 (NOR of bits 0 and 2
# high) are the looked-up values 9/11; every other code appends a zero.
DECODE_QEXP = (9, 2, 11, 6, 8, 10, 12, 14)


_REMAP_QCODE_ARR = np.array(REMAP_QCODE, dtype=np.uint8)
_REMAP_FLAG_ARR = np.array(REMAP_FLAG, dtype=np.uint16)
_DECODE_QEXP_ARR = np.array(DECODE_QEXP, dtype=np.int32)


def encode_array(fp16_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode FP16 bit patterns to (wq uint8, wr uint16) element arrays."""
    bits = np.asarray(fp16_bits, dtype=np.uint16)
    exp5 = (bits >> 10) & np.uint16(0x1F)
    if np.any(exp5 > 15):
        raise ExponentRangeError("exponent >= 16 present; apply outlier rescaling first")
    sign = (bits >> 15).astype(np.uint8)
    qcode = _REMAP_QCODE_ARR[exp5]
    flag = _REMAP_FLAG_ARR[exp5]
    elsb = exp5 & np.uint16(1)
    man10 = bits & np.uint16(0x3FF)
    wq = (sign << 3) | qcode
    wr = (flag << 11) | (elsb << 10) | man10
    return wq, wr.astype(np.uint16)


def in_range_bits() -> np.ndarray:
    """Every FP16 bit pattern a BSFP word holds (biased exponent <= 15), ascending: 32,768."""
    bits = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
    return bits[((bits >> 10) & 0x1F) <= 15]


def _build_word_table() -> np.ndarray:
    """float32 value of each 16-bit BSFP word, from ``encode_array`` alone;
    NaN at each word it never writes."""
    bits = in_range_bits()
    wq, wr = encode_array(bits)
    table = np.full(1 << 16, np.nan, dtype=np.float32)
    table[(wq.astype(np.uint16) << 12) | wr] = bits.view(np.float16)
    assert np.count_nonzero(~np.isnan(table)) == bits.size, "two patterns share a word"
    table.setflags(write=False)
    return table


_F32_OF_WORD = _build_word_table()


def join_words(wq: np.ndarray, wr: np.ndarray) -> np.ndarray:
    """The 16-bit words ``wq << 12 | wr`` (uint16, C order) of separate
    fields; a field wider than its 4 or 12 bits raises :class:`MalformedWordError`."""
    wq, wr = np.asarray(wq), np.asarray(wr)
    # checked before the uint16 cast, which would wrap 0x10000 to 0
    low = min(wq.min(initial=0), wr.min(initial=0))
    if low < 0 or wq.max(initial=0) > 0xF or wr.max(initial=0) > 0xFFF:
        raise MalformedWordError("field out of range: wq has 4 bits and wr 12")
    words = wq.astype(np.uint16, order="C")
    words <<= 12
    words |= wr.astype(np.uint16, copy=False)
    return words


def decode_words_f32(words: np.ndarray) -> np.ndarray:
    """Exact value (float32, C order) of each 16-bit word, by one table
    gather; rejects words :func:`encode_array` never writes.

    ``words`` holds uint16 values: a uint16 array, or an integer array
    converted from one, such as the ``intp`` index ``PackedTensor`` gathers
    both operands with. A wider value wraps modulo 2^16.
    """
    # every uint16 indexes the table, so "wrap" changes no index; it gathers
    # faster than the default "raise"
    vals = _F32_OF_WORD.take(words, mode="wrap")
    # no in-range value is NaN, and one NaN makes the maximum NaN
    if np.isnan(np.maximum.reduce(vals, axis=None)):
        raise MalformedWordError("unreachable word: encode_array writes no such (wq, wr)")
    return vals


def decode_full_f32(wq: np.ndarray, wr: np.ndarray) -> np.ndarray:
    """Exact value (float32, C order) of each (wq, wr) word: :func:`join_words`,
    then :func:`decode_words_f32`."""
    return decode_words_f32(join_words(wq, wr))


def decode_full_array(wq: np.ndarray, wr: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_array` (uint16 FP16 bits), from :func:`decode_full_f32`."""
    return decode_full_f32(wq, wr).astype(np.float16).view(np.uint16)


def q_exponent_array(wq: np.ndarray) -> np.ndarray:
    """Decoded 4-bit quantized exponents (int32) for an array of wq nibbles."""
    wq = np.asarray(wq, dtype=np.uint16)
    return _DECODE_QEXP_ARR[wq & np.uint16(7)]


def q_value_array(wq: np.ndarray) -> np.ndarray:
    """Draft-view values (float32): +/- 2^(exp4 - 15) per element."""
    wq = np.asarray(wq, dtype=np.uint16)
    exp4 = q_exponent_array(wq)
    mag = np.ldexp(np.float32(1.0), exp4 - 15).astype(np.float32)
    return np.where((wq >> 3).astype(bool), -mag, mag)
