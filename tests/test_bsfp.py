"""Bit-level tests of the BSFP word codecs against hand-derived tables."""

from __future__ import annotations

import numpy as np
import pytest

from speq import bsfp

# Reference remap table: exponent -> (qcode, flag). elsb is always exp & 1.
REMAP_TABLE = {
    0: (0b001, 1),
    1: (0b001, 1),
    2: (0b001, 0),
    3: (0b001, 0),
    4: (0b011, 1),
    5: (0b011, 1),
    6: (0b011, 0),
    7: (0b011, 0),
    8: (0b100, 0),
    9: (0b000, 1),
    10: (0b101, 0),
    11: (0b010, 1),
    12: (0b110, 0),
    13: (0b110, 0),
    14: (0b111, 0),
    15: (0b111, 0),
}

# qcode -> decoded 4-bit quantized exponent.
QEXP_TABLE = {0b000: 9, 0b001: 2, 0b010: 11, 0b011: 6, 0b100: 8, 0b101: 10, 0b110: 12, 0b111: 14}

ALL_EXPS = np.arange(16)


def _fields(exps):
    """(qcode, flag, elsb) per exponent field, read from ``encode_array``'s streams."""
    wq, wr = bsfp.encode_array(np.asarray(exps, dtype=np.uint16) << 10)
    return wq & 7, wr >> 11, (wr >> 10) & 1


def _word(wq, flag, elsb=0):
    """One (wq, wr) word with a zero mantissa."""
    return np.array([wq], np.uint8), np.array([(flag << 11) | (elsb << 10)], np.uint16)


def _restored_exp(wq, wr):
    return (bsfp.decode_full_array(wq, wr) >> 10) & 0x1F


def test_remap_encode_table():
    qcode, flag, elsb = _fields(ALL_EXPS)
    for e, (q, f) in REMAP_TABLE.items():
        assert (qcode[e], flag[e], elsb[e]) == (q, f, e & 1)


def test_remap_encode_key_examples():
    qcode, flag, elsb = _fields([9, 11, 0, 4, 8])
    assert list(zip(qcode, flag, elsb)) == [
        (0b000, 1, 1),
        (0b010, 1, 1),
        (0b001, 1, 0),
        (0b011, 1, 0),
        (0b100, 0, 0),
    ]


@pytest.mark.parametrize("bad", [16, 17, 30, 31])
def test_remap_encode_range(bad):
    with pytest.raises(bsfp.ExponentRangeError):
        _fields([0, bad])
    with pytest.raises(bsfp.ExponentRangeError):
        _fields([bad | 0x20])  # sign bit set


def test_decode_q_exp_table():
    # The sign bit (wq bit 3) does not change the decoded exponent.
    got = bsfp.q_exponent_array(np.arange(16, dtype=np.uint8))
    assert got.tolist() == [QEXP_TABLE[w & 7] for w in range(16)]


def test_decode_q_exp_structure():
    # Codes 000 and 010 are the looked-up values 9 and 11; the rest append a zero.
    exp4 = bsfp.q_exponent_array(np.arange(8, dtype=np.uint8))
    for qcode in range(8):
        if qcode in (0b000, 0b010):
            assert exp4[qcode] in (9, 11)
        else:
            assert exp4[qcode] == qcode << 1


def test_decoder_image_and_buckets():
    image = set(bsfp.q_exponent_array(np.arange(8, dtype=np.uint8)).tolist())
    assert image == {2, 6, 8, 9, 10, 11, 12, 14}
    wq, _ = bsfp.encode_array(ALL_EXPS.astype(np.uint16) << 10)
    decoded = bsfp.q_exponent_array(wq)
    for bucket in ({0, 1, 2, 3}, {4, 5, 6, 7}, {12, 13}, {14, 15}):
        assert len({decoded[e] for e in bucket}) == 1
    assert len({decoded[e] for e in (8, 9, 10, 11)}) == 4  # injective on 8..11


def test_decode_full_exp_examples():
    assert _restored_exp(*_word(0b000, 1, 1)) == 9
    assert _restored_exp(*_word(0b001, 0, 1)) == 3
    # Brute-force inversion oracle for the flagged MUX path.
    inverse = {(q, f, e & 1): e for e, (q, f) in REMAP_TABLE.items()}
    assert inverse[(0b011, 1, 0)] == 4
    assert _restored_exp(*_word(0b011, 1, 0)) == 4


def test_decode_full_exp_roundtrip_all():
    wq, wr = bsfp.encode_array(ALL_EXPS.astype(np.uint16) << 10)
    assert _restored_exp(wq, wr).tolist() == ALL_EXPS.tolist()


@pytest.mark.parametrize("qcode", [0b100, 0b101, 0b110, 0b111])
def test_decode_full_exp_malformed(qcode):
    for wq in (qcode, qcode | 8):  # either sign
        with pytest.raises(bsfp.MalformedWordError):
            bsfp.decode_full_array(*_word(wq, 1))
    assert _restored_exp(*_word(qcode, 0)) == qcode << 1  # unflagged: plain concatenation


def test_flag_population():
    _, flag, _ = _fields(ALL_EXPS)
    assert set(np.flatnonzero(flag).tolist()) == {0, 1, 4, 5, 9, 11}


def test_q_magnitude():
    wq, _ = bsfp.encode_array(np.array([0x3C00, 0xBC00, 0x0000], np.uint16))  # 1.0, -1.0, 0.0
    # 0.0 decodes to 2^-13: the zero-weight artifact.
    assert bsfp.q_value_array(wq).tolist() == [0.5, -0.5, 2.0**-13]


def test_full_value_examples():
    bits = np.array([0x3C00, 0x0000, 0x8000, 0x0001, 0x03FF, 0x7BFF & 0x3FFF], np.uint16)
    assert np.array_equal(bsfp.decode_full_array(*bsfp.encode_array(bits)), bits)


def test_word_bits_roundtrip():
    # (wq << 12) | wr is the [sign | qcode:3 | flag | elsb | man10] word of
    # the module docstring.
    rng = np.random.default_rng(1)
    exp5 = np.tile(ALL_EXPS, 8).astype(np.uint16)
    sign = rng.integers(0, 2, exp5.size).astype(np.uint16)
    man10 = rng.integers(0, 1 << 10, exp5.size).astype(np.uint16)
    wq, wr = bsfp.encode_array((sign << 15) | (exp5 << 10) | man10)
    word = (wq.astype(np.uint16) << 12) | wr
    assert np.array_equal(word >> 15, sign)
    assert [int(q) for q in (word >> 12) & 7] == [REMAP_TABLE[e][0] for e in exp5]
    assert [int(f) for f in (word >> 11) & 1] == [REMAP_TABLE[e][1] for e in exp5]
    assert np.array_equal((word >> 10) & 1, exp5 & 1)
    assert np.array_equal(word & 0x3FF, man10)


def test_in_range_bits_enumerates_exponents_up_to_15():
    want = [b for b in range(1 << 16) if (b >> 10) & 0x1F <= 15]
    bits = bsfp.in_range_bits()
    assert (bits.dtype, bits.tolist()) == (np.uint16, want)


def test_exhaustive_roundtrip_vectorized():
    bits = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
    bits = bits[((bits >> 10) & 0x1F) <= 15]
    wq, wr = bsfp.encode_array(bits)
    assert np.array_equal(bsfp.decode_full_array(wq, wr), bits)


def test_decoder_accepts_exactly_the_encoded_words():
    bits = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
    bits = bits[((bits >> 10) & 0x1F) <= 15]
    wq, wr = bsfp.encode_array(bits)
    written = (wq.astype(np.int64) << 12) | wr
    assert np.unique(written).size == bits.size == 1 << 15
    assert np.array_equal(bsfp.decode_full_array(wq, wr), bits)
    # the float32 word table over all 65,536 words: the value of the pattern
    # encode_array maps to each written word, NaN at exactly the others
    table = bsfp._F32_OF_WORD
    assert (table.dtype, table.shape, table.flags.writeable) == (np.float32, (1 << 16,), False)
    want = bits.view(np.float16).astype(np.float32)
    assert np.array_equal(table[written].view(np.uint32), want.view(np.uint32))
    unwritten = np.setdiff1d(np.arange(1 << 16), written)
    assert np.array_equal(np.flatnonzero(np.isnan(table)), unwritten)
    assert np.array_equal(bsfp.decode_full_f32(wq, wr).view(np.uint32), want.view(np.uint32))
    for word in unwritten.tolist():
        with pytest.raises(bsfp.MalformedWordError):
            bsfp.decode_full_array(np.array([word >> 12]), np.array([word & 0xFFF]))


def test_encode_array_rejects_outliers():
    with pytest.raises(bsfp.ExponentRangeError):
        bsfp.encode_array(np.array([np.float16(2.5).view(np.uint16)]))


def test_decode_full_array_malformed():
    with pytest.raises(bsfp.MalformedWordError):
        bsfp.decode_full_array(np.array([0b0100], np.uint16), np.array([1 << 11], np.uint16))


@pytest.mark.parametrize(
    "wq,wr", [(0, 0x1C00), (0, 0x1000), (0, 0x13C00), (0, -1), (-1, 0), (0x10, 0), (0x13, 0x3FF)]
)
def test_decode_full_array_rejects_wide_fields(wq, wr):
    # (0, 0x1C00) would otherwise OR into the qcode bits and decode to 1024.0
    with pytest.raises(bsfp.MalformedWordError, match="out of range"):
        bsfp.decode_full_array(np.array([wq]), np.array([wr]))


def test_monotone_fidelity_critical_range():
    # Remapped decode is exact on exponents 8..11, so its relative error
    # never exceeds naive truncate-to-even extraction there.
    wq, _ = bsfp.encode_array(np.arange(8, 12, dtype=np.uint16) << 10)
    for e, exp4 in zip(range(8, 12), bsfp.q_exponent_array(wq)):
        remap_err = abs(2.0 ** (int(exp4) - 15) - 2.0 ** (e - 15)) / 2.0 ** (e - 15)
        naive_err = abs(2.0 ** ((e >> 1 << 1) - 15) - 2.0 ** (e - 15)) / 2.0 ** (e - 15)
        assert remap_err <= naive_err
        assert remap_err == 0.0


def test_q_value_array_signs():
    bits = np.array([0x3C00, 0xBC00], np.uint16)  # +1.0, -1.0
    wq, _ = bsfp.encode_array(bits)
    assert np.array_equal(bsfp.q_value_array(wq), np.array([0.5, -0.5], np.float32))
