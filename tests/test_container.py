"""Container format: canonical round trips and corruption detection."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from speq.container import (
    MAGIC,
    BadMagicError,
    ChecksumError,
    ContainerError,
    TruncatedError,
    from_bytes,
    read_container,
    to_bytes,
    write_container,
)
from speq.quantize import QuantFormat, quantize_tensor


def _tensor(seed, shape, fmt=QuantFormat.E3M0_REMAP, group_size=128):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.02, shape).astype(np.float16)
    return quantize_tensor(w, group_size, fmt)


@pytest.mark.parametrize(
    "shape,fmt",
    [
        ((128, 128), QuantFormat.E3M0_REMAP),
        ((200, 3), QuantFormat.E3M0_REMAP),  # tail group
        ((7, 5), QuantFormat.E3M0_REMAP),  # odd element count
        ((64, 2), QuantFormat.E3M0_NAIVE),
        ((64, 2), QuantFormat.E2M1),
        ((64, 2), QuantFormat.E1M2),
    ],
)
def test_round_trip(shape, fmt):
    p = _tensor(1, shape, fmt)
    q = from_bytes(to_bytes(p))
    assert q == p


def test_canonical_rewrite():
    p = _tensor(2, (130, 9))
    data = to_bytes(p)
    assert to_bytes(from_bytes(data)) == data


def test_file_round_trip(tmp_path):
    p = _tensor(3, (128, 4))
    path = tmp_path / "w.speq"
    write_container(path, p)
    assert read_container(path) == p


def test_magic_prefix():
    assert to_bytes(_tensor(4, (8, 2), group_size=8))[:5] == MAGIC


def test_empty_file_is_bad_magic():
    with pytest.raises(BadMagicError):
        from_bytes(b"")


def test_wrong_magic():
    with pytest.raises(BadMagicError):
        from_bytes(b"NOPE!" + b"\x00" * 64)


def test_checksum_detects_flip():
    data = bytearray(to_bytes(_tensor(5, (64, 3))))
    data[len(data) // 2] ^= 0x40
    with pytest.raises(ChecksumError):
        from_bytes(bytes(data))


def _with_tensor_scale(data: bytes, scale: float) -> bytes:
    """Rewrite the header's tensor scale and recompute the CRC."""
    out = bytearray(data)
    struct.pack_into("<f", out, len(MAGIC) + 1 + 16, scale)
    struct.pack_into("<I", out, len(out) - 4, zlib.crc32(out[len(MAGIC) : -4]) & 0xFFFFFFFF)
    return bytes(out)


@pytest.mark.parametrize("scale", [0.0, float("nan"), float("inf"), -1.0])
def test_rejects_bad_tensor_scale(scale):
    data = to_bytes(_tensor(7, (64, 3)))
    assert from_bytes(_with_tensor_scale(data, 4.0)).tensor_scale == 4.0
    with pytest.raises(ContainerError, match="tensor_scale"):
        from_bytes(_with_tensor_scale(data, scale))


def _with_first_group_scale(data: bytes, scale: float) -> bytes:
    """Rewrite the first per-group scale and recompute the CRC."""
    out = bytearray(data)
    struct.pack_into("<f", out, len(MAGIC) + 1 + 16 + 4, scale)
    struct.pack_into("<I", out, len(out) - 4, zlib.crc32(out[len(MAGIC) : -4]) & 0xFFFFFFFF)
    return bytes(out)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0])
def test_rejects_bad_group_scale(scale):
    data = to_bytes(_tensor(7, (64, 3)))
    assert from_bytes(_with_first_group_scale(data, 0.5)).group_scales[0, 0] == 0.5
    with pytest.raises(ContainerError, match="group scales"):
        from_bytes(_with_first_group_scale(data, scale))


def test_zero_group_scale_round_trips():
    w = _tensor(9, (256, 3)).full_values()
    w[128:, 1] = 0.0  # column 1's second group is all zeros: its fitted scale is 0.0
    p = quantize_tensor(w)
    assert p.group_scales[1, 1] == 0.0
    assert from_bytes(to_bytes(p)) == p


@pytest.mark.parametrize("qcode", [0b100, 0b101, 0b110, 0b111])
def test_rejects_unreachable_word(qcode):
    p = _tensor(7, (64, 3))
    p.wq[5, 1] = (p.wq[5, 1] & 8) | qcode
    p.wr[5, 1] &= 0x7FF
    assert from_bytes(to_bytes(p)) == p  # unflagged, the code is valid
    p.wr[5, 1] |= 1 << 11  # to_bytes recomputes the CRC
    with pytest.raises(ContainerError, match="unreachable"):
        from_bytes(to_bytes(p))


def test_truncation():
    data = to_bytes(_tensor(6, (64, 3)))
    with pytest.raises(TruncatedError):
        from_bytes(data[: len(data) - 9])


def test_trailing_garbage():
    data = to_bytes(_tensor(7, (64, 3)))
    with pytest.raises(ContainerError):
        from_bytes(data + b"\x00\x00\x00\x00")


def test_unknown_format_index():
    data = bytearray(to_bytes(_tensor(8, (8, 2), group_size=8)))
    data[5] = 9  # flags byte
    # Checksum is over the payload, so recompute it to isolate the check.
    import struct
    import zlib

    payload = bytes(data[5:-4])
    data[-4:] = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    with pytest.raises(ContainerError):
        from_bytes(bytes(data))


def test_scale_and_stream_preservation():
    w = np.full((4, 1), 4.0, dtype=np.float16)  # forces an outlier scale
    p = quantize_tensor(w, group_size=4)
    q = from_bytes(to_bytes(p))
    assert q.tensor_scale == p.tensor_scale != 1.0
    assert np.array_equal(q.group_scales, p.group_scales)
    assert q.wq_packed() == p.wq_packed()
    assert q.wr_packed() == p.wr_packed()
