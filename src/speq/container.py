"""Bit-exact file container for packed tensors.

Layout (little-endian throughout):

    magic   5 bytes  b"SPEQ1"
    flags   1 byte   always 0: the bit-sharing E3M0_REMAP format
    ndims   u32      always 2
    dims    u32 * 2  rows, cols
    gsize   u32      group size
    tscale  f32      per-tensor outlier scale
    scales  f32 * cols*ceil(rows/gsize)   (per column, then per group)
    wq      4-bit records, two per byte (low nibble first), column-major
    wr      12-bit records, two per three bytes, column-major
    crc     u32      CRC-32 of everything between magic and crc

The padding bits of an odd record count must be zero, so serialization
is canonical: a container loads only if writing it back gives the same
bytes. ``to_bytes`` packs ``PackedTensor.words``.

``from_bytes`` is a byte parser: it checks the framing (magic, flags,
ndims, sizes, truncation, CRC and padding) and leaves every rule on the
values (tensor scale, group scales, words) to the ``PackedTensor``
constructor. Any failure of either fails at load as a ContainerError.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .quantize import PackedTensor

__all__ = [
    "MAGIC",
    "ContainerError",
    "BadMagicError",
    "ChecksumError",
    "TruncatedError",
    "to_bytes",
    "from_bytes",
    "write_container",
    "read_container",
    "read_crc",
    "read_npy",
]

MAGIC = b"SPEQ1"


class ContainerError(ValueError):
    pass


class BadMagicError(ContainerError):
    pass


class ChecksumError(ContainerError):
    pass


class TruncatedError(ContainerError):
    pass


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


def to_bytes(p: PackedTensor) -> bytes:
    for field in ("rows", "cols", "group_size"):
        if not 0 <= getattr(p, field) <= 0xFFFFFFFF:
            raise ValueError(f"{field} {getattr(p, field)} does not fit the u32 header field")
    wq, wr = p.words()
    payload = bytearray()
    payload.append(0)  # flags
    payload += struct.pack("<IIII", 2, p.rows, p.cols, p.group_size)
    payload += struct.pack("<f", p.tensor_scale)
    payload += p.group_scales.astype("<f4").tobytes()
    payload += pack_nibbles(wq.flatten(order="F"))
    payload += pack_12bit(wr.flatten(order="F"))
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return MAGIC + bytes(payload) + struct.pack("<I", crc)


def from_bytes(data: bytes) -> PackedTensor:
    if len(data) < len(MAGIC) or data[: len(MAGIC)] != MAGIC:
        raise BadMagicError("not a SPEQ1 container")
    if len(data) < len(MAGIC) + 4:
        raise TruncatedError("missing checksum")
    payload = data[len(MAGIC) : -4]
    (crc_stored,) = struct.unpack("<I", data[-4:])

    cur = 0

    def take(n: int) -> bytes:
        nonlocal cur
        if cur + n > len(payload):
            raise TruncatedError(f"payload ends at {len(payload)}, needed {cur + n}")
        out = payload[cur : cur + n]
        cur += n
        return out

    flags = take(1)[0]
    if flags != 0:
        raise ContainerError(f"flags byte is {flags}; only 0 (e3m0-remap) is defined")
    (ndims,) = struct.unpack("<I", take(4))
    if ndims != 2:
        raise ContainerError(f"expected 2 dims, got {ndims}")
    rows, cols, group_size = struct.unpack("<III", take(12))
    if rows < 1 or cols < 1 or group_size < 1:
        raise ContainerError("dims and group size must be positive")
    (tensor_scale,) = struct.unpack("<f", take(4))
    n_groups = -(-rows // group_size)
    scales = np.frombuffer(take(4 * cols * n_groups), dtype="<f4").reshape(cols, n_groups)

    count = rows * cols
    wq_data = take((count + 1) // 2)
    wr_data = take((12 * count + 7) // 8)
    if cur != len(payload):
        raise TruncatedError(f"{len(payload) - cur} trailing payload bytes")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise ChecksumError("payload CRC mismatch")
    if count % 2 and (wq_data[-1] >> 4 or wr_data[-1] >> 4):
        raise ContainerError("nonzero padding bits after the last record")
    wq = unpack_nibbles(wq_data, count).reshape((rows, cols), order="F")
    wr = unpack_12bit(wr_data, count).reshape((rows, cols), order="F")
    try:
        return PackedTensor(group_size, tensor_scale, scales, wq, wr)
    except ValueError as e:
        raise ContainerError(str(e)) from e


def write_container(path, p: PackedTensor) -> None:
    data = to_bytes(p)  # before opening: a failed encode leaves an existing file whole
    with open(path, "wb") as f:
        f.write(data)


def read_container(path) -> PackedTensor:
    with open(path, "rb") as f:
        return from_bytes(f.read())


def read_crc(path) -> int:
    """The payload CRC-32 stored at the end of a container file.

    Unverified here: ``read_container`` checks it against the payload.
    """
    with open(path, "rb") as f:
        f.seek(-4, os.SEEK_END)
        (crc,) = struct.unpack("<I", f.read(4))
    return crc


def read_npy(path) -> np.ndarray:
    """The one array in an ``.npy`` file; any other file raises a ``ValueError`` naming it."""
    try:
        arr = np.load(path)
    except (ValueError, EOFError) as e:  # not a .npy file, or truncated or empty
        raise ValueError(f"{path}: not a readable .npy file ({e})") from e
    if not isinstance(arr, np.ndarray):  # an .npz archive, which holds the file open
        arr.close()
        raise ValueError(f"{path}: expected one .npy array, got an .npz archive")
    return arr
