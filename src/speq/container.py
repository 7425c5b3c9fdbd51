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
bytes. ``to_bytes`` packs ``PackedTensor.words``. Any other flags value,
nonzero padding or a word the encoder never writes fails at load as a
ContainerError.
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from . import bsfp
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
    if not 0.0 < tensor_scale < math.inf:
        raise ContainerError(f"tensor_scale must be positive and finite, got {tensor_scale}")
    with np.errstate(over="ignore"):
        # a subnormal scale would make every output of gemm_full / gemm_draft infinite
        if not np.isfinite(np.float32(1.0) / np.float32(tensor_scale)):
            raise ContainerError(f"tensor_scale {tensor_scale} has no finite float32 reciprocal")
    # 0.0 is valid: quantize_tensor fits an all-zero group to scale 0.0.
    if not np.all((scales >= 0.0) & (scales < np.inf)):
        raise ContainerError("group scales must be finite and >= 0")
    if count % 2 and (wq_data[-1] >> 4 or wr_data[-1] >> 4):
        raise ContainerError("nonzero padding bits after the last record")
    try:
        return PackedTensor(
            rows=rows,
            cols=cols,
            group_size=group_size,
            tensor_scale=float(np.float32(tensor_scale)),
            group_scales=np.array(scales, dtype=np.float32),
            wq=unpack_nibbles(wq_data, count).reshape((rows, cols), order="F"),
            wr=unpack_12bit(wr_data, count).reshape((rows, cols), order="F"),
        )
    except bsfp.MalformedWordError as e:
        raise ContainerError(str(e)) from e


def write_container(path, p: PackedTensor) -> None:
    with open(path, "wb") as f:
        f.write(to_bytes(p))


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
