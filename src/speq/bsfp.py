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
``elsb`` is the original exponent's least-significant bit. A flagged code
is inverted through a 4-entry lookup; an unflagged one decodes by plain
concatenation.

The codecs are vectorized over numpy arrays: ``encode_array`` takes FP16
bit patterns, and the decoders take ``wq`` / ``wr`` element arrays. A word
with the flag set on a code in 100..111 comes from no exponent;
``check_reachable`` rejects it, both on decode and when a container loads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ExponentRangeError",
    "MalformedWordError",
    "REMAP_QCODE",
    "REMAP_FLAG",
    "DECODE_QEXP",
    "MUX_FLAGGED",
    "encode_array",
    "check_reachable",
    "decode_full_array",
    "q_exponent_array",
    "q_value_array",
]


class ExponentRangeError(ValueError):
    """Biased exponent outside [0, 15]; outlier rescaling was not applied."""


class MalformedWordError(ValueError):
    """(qcode, flag) combination not reachable from any in-range exponent."""


# Truth tables, indexed by biased exponent or by 3-bit code. These are the
# reference vectors for the hardware decoder units.
REMAP_QCODE = (1, 1, 1, 1, 3, 3, 3, 3, 4, 0, 5, 2, 6, 6, 7, 7)
REMAP_FLAG = (1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0)

# qcode -> 4-bit quantized exponent. Codes 000/010 (NOR of bits 0 and 2
# high) are the looked-up values 9/11; every other code appends a zero.
DECODE_QEXP = (9, 2, 11, 6, 8, 10, 12, 14)

# Flagged-path MUX: qcode -> top 3 bits of the restored exponent.
MUX_FLAGGED = {1: 0, 3: 2, 0: 4, 2: 5}


_REMAP_QCODE_ARR = np.array(REMAP_QCODE, dtype=np.uint8)
_REMAP_FLAG_ARR = np.array(REMAP_FLAG, dtype=np.uint16)
_DECODE_QEXP_ARR = np.array(DECODE_QEXP, dtype=np.int32)
# Flagged decode table; codes 1xx are rejected by check_reachable first.
_MUX_ARR = np.zeros(8, dtype=np.uint16)
for _code, _top in MUX_FLAGGED.items():
    _MUX_ARR[_code] = _top
del _code, _top


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


def check_reachable(wq: np.ndarray, wr: np.ndarray) -> None:
    """Raise :class:`MalformedWordError` if a word sets the flag on a qcode 1xx.

    ``encode_array`` flags only codes 000..011, and the baseline formats
    never set the flag bit, so no encoder writes such a word.
    """
    flagged = (np.asarray(wr) & 0x800) != 0
    if np.any(flagged & ((np.asarray(wq) & 4) != 0)):
        raise MalformedWordError("flagged qcode in {100,101,110,111} is unreachable")


def decode_full_array(wq: np.ndarray, wr: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_array`: exact FP16 bit patterns (uint16)."""
    wq = np.asarray(wq, dtype=np.uint16)
    wr = np.asarray(wr, dtype=np.uint16)
    check_reachable(wq, wr)
    sign = wq >> 3
    qcode = wq & np.uint16(7)
    flag = (wr >> 11) & np.uint16(1)
    elsb = (wr >> 10) & np.uint16(1)
    man10 = wr & np.uint16(0x3FF)
    top3 = np.where(flag.astype(bool), _MUX_ARR[qcode], qcode)
    exp5 = (top3 << 1) | elsb
    return ((sign << 15) | (exp5 << 10) | man10).astype(np.uint16)


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
