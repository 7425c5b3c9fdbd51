"""Container format: canonical round trips and corruption detection."""

from __future__ import annotations

import re
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
    read_npy,
    to_bytes,
    write_container,
)
from speq.quantize import PackedTensor, quantize_tensor


def _tensor(seed, shape, group_size=128):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.02, shape).astype(np.float16)
    return quantize_tensor(w, group_size)


def _with_crc(data: bytearray) -> bytes:
    """``data`` with its trailing CRC-32 recomputed over the payload."""
    data[-4:] = struct.pack("<I", zlib.crc32(data[len(MAGIC) : -4]) & 0xFFFFFFFF)
    return bytes(data)


@pytest.mark.parametrize(
    "shape",
    [
        (128, 128),
        (200, 3),  # tail group
        (7, 5),  # odd element count
        (7, 6),  # odd rows: record pairs span two columns
        (2, 1),
    ],
)
def test_round_trip(shape):
    p = _tensor(1, shape)
    data = to_bytes(p)
    assert data[len(MAGIC)] == 0  # flags byte
    q = from_bytes(data)
    assert q == p
    # both operands bit for bit, in the C order the kernels are probed on
    for got, want in ((q._full32, p._full32), (q._qval, p._qval)):
        assert got.flags.c_contiguous and not got.flags.writeable
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


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


# 1e-45 and 2^-128 are positive float32 subnormals whose reciprocal overflows.
@pytest.mark.parametrize("scale", [0.0, float("nan"), float("inf"), -1.0, 1e-45, 2.0**-128])
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


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0, -0.0])
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


# (qcode, flag, elsb) of the words encode_array never writes that decode
# bit by bit to an in-range FP16 value: each would restore exact weights
# while its draft nibble quantizes some other value.
ALIASES = [(0b000, 0, 0), (0b000, 0, 1), (0b000, 1, 0), (0b010, 0, 0), (0b010, 0, 1),
           (0b010, 1, 0), (0b100, 0, 1), (0b101, 0, 1)]


@pytest.mark.parametrize(
    "qcode,flag,elsb",
    [pytest.param(q, 1, 0, id=str(q)) for q in (0b100, 0b101, 0b110, 0b111)]
    + [pytest.param(q, f, e, id=f"{q:03b}-{f}-{e}") for q, f, e in ALIASES],
)
def test_rejects_unreachable_word(qcode, flag, elsb, patch_word):
    data = to_bytes(_tensor(7, (64, 3)))
    at = 1 * 64 + 5  # element (5, 1)
    if qcode & 4:
        valid = patch_word(data, at, qcode, 0, 0)  # unflagged with elsb 0, the code is valid
        assert to_bytes(from_bytes(valid)) == valid
    with pytest.raises(ContainerError, match="unreachable"):
        from_bytes(patch_word(data, at, qcode, flag, elsb))


@pytest.mark.parametrize("stream", ["wq", "wr"])
def test_rejects_nonzero_padding(stream):
    # 35 records: the top four bits of the last byte of each stream are padding.
    data = to_bytes(_tensor(1, (7, 5)))
    at = len(data) - 5 - (0 if stream == "wr" else (12 * 35 + 7) // 8)
    assert data[at] >> 4 == 0
    for bit in range(4, 8):
        bad = bytearray(data)
        bad[at] |= 1 << bit
        with pytest.raises(ContainerError, match="padding"):
            from_bytes(_with_crc(bad))


def test_truncation():
    data = to_bytes(_tensor(6, (64, 3)))
    with pytest.raises(TruncatedError):
        from_bytes(data[: len(data) - 9])


def test_trailing_garbage():
    data = to_bytes(_tensor(7, (64, 3)))
    with pytest.raises(ContainerError):
        from_bytes(data + b"\x00\x00\x00\x00")


def test_unknown_format_index():
    # Every flags value but 0 fails, the former baseline indices 1-3 too.
    data = bytearray(to_bytes(_tensor(8, (8, 2), group_size=8)))
    for flags in range(1, 256):
        data[len(MAGIC)] = flags
        with pytest.raises(ContainerError, match="flags byte"):
            from_bytes(_with_crc(data))


def test_scale_and_stream_preservation():
    w = np.full((4, 1), 4.0, dtype=np.float16)  # forces an outlier scale
    p = quantize_tensor(w, group_size=4)
    q = from_bytes(to_bytes(p))
    assert q.tensor_scale == p.tensor_scale != 1.0
    assert np.array_equal(q.group_scales, p.group_scales)
    for got, want in zip(q.words(), p.words()):
        assert np.array_equal(got, want)


def test_from_bytes_mutation_fuzz():
    """Seeded byte flips, truncations and extensions, each with a fresh CRC.

    Only ``ContainerError`` may escape, and every container that loads is
    canonical: writing its tensor back gives the same bytes.
    """
    rng = np.random.default_rng(6)
    shapes = [((9, 5), 4), ((1, 1), 1), ((16, 3), 16), ((7, 2), 128)]
    seeds = [to_bytes(_tensor(i, shape, gs)) for i, (shape, gs) in enumerate(shapes)]
    loaded = 0
    for _ in range(10000):
        data = bytearray(seeds[rng.integers(len(seeds))])
        op = rng.integers(3)
        if op == 0:
            for _ in range(rng.integers(1, 5)):
                data[rng.integers(len(data))] ^= 1 << int(rng.integers(8))
        elif op == 1:
            del data[rng.integers(len(data)) :]
        else:
            data += rng.integers(0, 256, rng.integers(1, 9), dtype=np.uint8).tobytes()
        if len(data) >= len(MAGIC) + 4:
            data = _with_crc(data)
        try:
            p = from_bytes(bytes(data))
        except ContainerError:
            continue
        loaded += 1
        assert to_bytes(p) == bytes(data)
    assert loaded > 0


def test_scales_held_as_rows_keep_the_container_bytes():
    # The CRC-32 of this container was pinned while the scales were held
    # (cols, n_groups) in C order; holding them as rows changes no byte.
    p = _tensor(26, (300, 7))
    c_order = np.ascontiguousarray(p.group_scales)
    direct = PackedTensor(p.group_size, p.tensor_scale, c_order, *p.words())
    for q in (p, from_bytes(to_bytes(p)), direct):
        data = to_bytes(q)
        assert len(data) == 4314 and zlib.crc32(data) == 0x43123BEC
        assert q == p and q.group_scales.shape == (7, 3)
        # group g's scale for every column is one contiguous row
        assert all(q.group_scales.T[g].flags.c_contiguous for g in range(q.n_groups))


def test_read_npy_closes_a_refused_archive(tmp_path, monkeypatch):
    # np.load returns an NpzFile that holds the file open until closed or collected
    path = tmp_path / "w.npy"
    with open(path, "wb") as f:
        np.savez(f, w=np.zeros(4, np.float16))
    opened, load = [], np.load

    def recording_load(p):
        opened.append(load(p))
        return opened[-1]

    monkeypatch.setattr(np, "load", recording_load)
    with pytest.raises(ValueError, match=re.escape(f"{path}: expected one .npy array, got an .npz")):
        read_npy(path)
    assert opened[0].fid is None
