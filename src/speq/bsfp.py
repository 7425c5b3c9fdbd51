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
it fills a read-only table from each word ``wq << 12 | wr`` back to its
FP16 bits, so ``decode_full_array`` is its exact inverse (a lookup, as in
LUT-GEMM, Park et al. 2022). The table is also the one validity rule: the
32,768 words the encoder never writes, whose draft nibble would not
quantize the value they restore, raise :class:`MalformedWordError`.
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


# Entry of a word the encoder never writes: no in-range FP16 value has exponent 31.
_UNREACHABLE = np.uint16(0xFFFF)


def _build_word_table() -> np.ndarray:
    """FP16 bit pattern of each 16-bit BSFP word, from ``encode_array`` alone."""
    bits = in_range_bits()
    wq, wr = encode_array(bits)
    table = np.full(1 << 16, _UNREACHABLE, dtype=np.uint16)
    table[(wq.astype(np.uint16) << 12) | wr] = bits
    assert np.count_nonzero(table != _UNREACHABLE) == bits.size, "two patterns share a word"
    table.setflags(write=False)
    return table


_FP16_OF_WORD = _build_word_table()


def decode_full_array(wq: np.ndarray, wr: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_array` (uint16 FP16 bits); rejects words it never writes."""
    wq, wr = np.asarray(wq), np.asarray(wr)
    # checked before the uint16 cast, which would wrap 0x10000 to 0
    low = min(wq.min(initial=0), wr.min(initial=0))
    if low < 0 or wq.max(initial=0) > 0xF or wr.max(initial=0) > 0xFFF:
        raise MalformedWordError("field out of range: wq has 4 bits and wr 12")
    words = (wq.astype(np.uint16, copy=False) << 12) | wr.astype(np.uint16, copy=False)
    bits = np.take(_FP16_OF_WORD, words)
    if np.any(bits == _UNREACHABLE):
        raise MalformedWordError("unreachable word: encode_array writes no such (wq, wr)")
    return bits


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
