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

Serialization is canonical: write(read(write(p))) is byte-identical.

``from_bytes`` rejects any other flags value, and builds the
``PackedTensor``, which decodes its operands once, so a word the encoder
never writes fails at load as a ContainerError.
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from . import bsfp
from .quantize import (
    PackedTensor,
    pack_12bit,
    pack_nibbles,
    unpack_12bit,
    unpack_nibbles,
)

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


def to_bytes(p: PackedTensor) -> bytes:
    payload = bytearray()
    payload.append(0)  # flags
    payload += struct.pack("<IIII", 2, p.rows, p.cols, p.group_size)
    payload += struct.pack("<f", p.tensor_scale)
    payload += p.group_scales.astype("<f4").tobytes()
    payload += p.wq_packed()
    payload += p.wr_packed()
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
    wq_flat = unpack_nibbles(take((count + 1) // 2), count)
    wr_flat = unpack_12bit(take((12 * count + 7) // 8), count)
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
    try:
        return PackedTensor(
            rows=rows,
            cols=cols,
            group_size=group_size,
            tensor_scale=float(np.float32(tensor_scale)),
            group_scales=np.array(scales, dtype=np.float32),
            wq=wq_flat.reshape((rows, cols), order="F").copy(),
            wr=wr_flat.reshape((rows, cols), order="F").copy(),
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
