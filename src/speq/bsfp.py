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

The codecs are vectorized over numpy arrays. ``encode_words`` is the one
definition of the remap: it keeps an FP16 pattern's sign and mantissa and
replaces its exponent field, bits 10-14, by (qcode, flag, elsb) from a
16-entry table. Run over every in-range FP16 pattern at import, it fills a
read-only float32 table from each word to the value of its FP16 pattern (a
lookup, as in LUT-GEMM, Park et al. 2022).

The 16-bit word is the one record, encoded and decoded. ``decode_words_f32``
gathers the exact float32 value of each word from that table in one pass.
The table is also the one validity rule: the 32,768 words the encoder never
writes, whose draft nibble would not quantize the value they restore, hold
NaN (no in-range value is NaN) and raise :class:`MalformedWordError`. The
draft is a second lookup: ``DRAFT_VALUE`` takes the nibble ``wq = word >> 12``
to its value, +/-2^(exp4 - 15) with ``exp4 = DECODE_QEXP[qcode]``. Only the
container stores ``wq`` and the remainder ``wr = word & 0xFFF`` apart.
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
    "encode_words",
    "decode_words_f32",
    "DRAFT_VALUE",
]


class ExponentRangeError(ValueError):
    """Biased exponent outside [0, 15]; outlier rescaling was not applied."""


class MalformedWordError(ValueError):
    """A 16-bit word that ``encode_words`` writes for no in-range FP16 value."""


# Truth tables, indexed by biased exponent or by 3-bit code. These are the
# reference vectors for the hardware decoder units.
REMAP_QCODE = (1, 1, 1, 1, 3, 3, 3, 3, 4, 0, 5, 2, 6, 6, 7, 7)
REMAP_FLAG = (1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0)

# qcode -> 4-bit quantized exponent. Codes 000/010 (NOR of bits 0 and 2
# high) are the looked-up values 9/11; every other code appends a zero.
DECODE_QEXP = (9, 2, 11, 6, 8, 10, 12, 14)


# exponent field -> the (qcode, flag, elsb) bits that replace it in the word
_EXP_FIELD_BITS = np.array(
    [q << 12 | f << 11 | (e & 1) << 10 for e, q, f in zip(range(16), REMAP_QCODE, REMAP_FLAG)],
    dtype=np.uint16,
)
# draft nibble (sign, qcode) -> draft value (float32, read-only)
DRAFT_VALUE = np.array(
    [(-1) ** (w >> 3) * 2.0 ** (DECODE_QEXP[w & 7] - 15) for w in range(16)], dtype=np.float32
)
DRAFT_VALUE.setflags(write=False)


def encode_words(fp16_bits: np.ndarray) -> np.ndarray:
    """The BSFP words (uint16) of FP16 bit patterns: sign and mantissa kept,
    the exponent field remapped."""
    bits = np.asarray(fp16_bits, dtype=np.uint16)
    exp5 = (bits >> 10) & np.uint16(0x1F)
    if np.any(exp5 > 15):
        raise ExponentRangeError("exponent >= 16 present; apply outlier rescaling first")
    return (bits & np.uint16(0x83FF)) | _EXP_FIELD_BITS[exp5]


def in_range_bits() -> np.ndarray:
    """Every FP16 bit pattern a BSFP word holds (biased exponent <= 15), ascending: 32,768."""
    bits = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
    return bits[((bits >> 10) & 0x1F) <= 15]


def _build_word_table() -> np.ndarray:
    """float32 value of each 16-bit BSFP word, from ``encode_words`` alone;
    NaN at each word it never writes."""
    bits = in_range_bits()
    table = np.full(1 << 16, np.nan, dtype=np.float32)
    table[encode_words(bits)] = bits.view(np.float16)
    assert np.count_nonzero(~np.isnan(table)) == bits.size, "two patterns share a word"
    table.setflags(write=False)
    return table


_F32_OF_WORD = _build_word_table()


def decode_words_f32(words: np.ndarray) -> np.ndarray:
    """Exact value (float32, C order) of each 16-bit word, by one table
    gather; rejects words :func:`encode_words` never writes.

    ``words`` holds uint16 values: a uint16 array, or an integer array
    converted from one. A wider value wraps modulo 2^16, so ``PackedTensor``
    passes it only the ``intp`` index it converts from its uint16 words.
    """
    # every uint16 indexes the table, so "wrap" changes no index; it gathers
    # faster than the default "raise"
    vals = _F32_OF_WORD.take(words, mode="wrap")
    # no in-range value is NaN, and one NaN makes the maximum NaN
    if np.isnan(np.maximum.reduce(vals, axis=None)):
        raise MalformedWordError("unreachable word: encode_words writes no such word")
    return vals

