"""Bit-exact file container for packed tensors.

Layout (little-endian throughout):

    magic   5 bytes  b"SPEQ1"
    flags   1 byte   always 0: the bit-sharing E3M0_REMAP format
    ndims   u32      always 2
    dims    u32 * 2  rows, cols
    gsize   u32      group size
    tscale  f32      per-tensor outlier scale
    scales  f32 * cols*ceil(rows/gsize)   (per column, then per group)
    wq      u8 * cols*ceil(rows/2)     4-bit records, two per byte (low nibble first)
    wr      u8 * 3*cols*ceil(rows/2)   12-bit records, two per three bytes (low first)
    crc     u32      CRC-32 of everything between magic and crc

Records run column-major, and each column holds whole record pairs: with
an odd row count every column ends with one zero pad record. Padding must
be zero, so serialization is canonical: a container loads only if writing
it back gives the same bytes.

Writer and reader share one header struct, ``_HEADER`` (flags to tscale),
and the header alone fixes where each section ends. ``from_bytes`` is a byte
parser: it checks the magic and the header's fields, then the payload length,
once, before the CRC and before any array is built, so a header that claims
more than the file holds allocates nothing; then the CRC and the padding.
Every rule on the values (tensor scale, group scales, words) is left to
the ``PackedTensor`` constructor; any failure of either is a
ContainerError. The payload is sliced through memoryviews, not copied, and each stream unpacks
through two strided views of its record pairs straight into a C-ordered
(rows, cols) matrix. The 16-bit word is the one record on either side of
the file: ``to_bytes`` splits ``PackedTensor.words`` into its top 4 bits
(the ``wq`` stream) and its low 12 (``wr``), and ``from_bytes`` unpacks
the 12-bit records into the words' matrix, ORs the nibbles in above them
and hands the words to the ``PackedTensor`` constructor.
"""

from __future__ import annotations

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
    "read_npy",
]

MAGIC = b"SPEQ1"
_HEADER = struct.Struct("<BIIIIf")  # flags, ndims, rows, cols, group size, tensor scale
_TWELVE = np.array(12, np.uint16)  # shifts a uint8 nibble in uint16, into a word's top bits


class ContainerError(ValueError):
    pass


class BadMagicError(ContainerError):
    pass


class ChecksumError(ContainerError):
    pass


class TruncatedError(ContainerError):
    pass


# record bits -> (bytes per record pair, element of each pair view, byte offset of the high view)
_PAIR_LAYOUT = {4: (1, "u1", 0), 12: (3, "<u2", 1)}


def _pair_views(
    buf: bytes | bytearray | memoryview, bits: int, rows: int, cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (ceil(rows / 2), cols) views of a column-major stream in ``buf``
    that hold record pair i of column c at [i, c]: the low view has record 2i
    in its low ``bits`` bits, the high view record 2i + 1 from bit 4 up. A
    12-bit pair's views are two unaligned little-endian u16s inside its 3 bytes."""
    h = (rows + 1) // 2
    step, elem, hi_at = _PAIR_LAYOUT[bits]
    strides = (step, step * h)
    return (
        np.ndarray((h, cols), elem, buf, 0, strides),
        np.ndarray((h, cols), elem, buf, hi_at, strides),
    )


def _pack_matrix(m: np.ndarray, bits: int) -> bytes:
    """The column-major stream of the (rows, cols) ``bits``-bit records ``m``
    (uint8 for 4 bits, uint16 for 12): two records per pair, the low record
    first, and with an odd row count a zero pad record ends every column."""
    rows, cols = m.shape
    buf = bytearray(_PAIR_LAYOUT[bits][0] * cols * ((rows + 1) // 2))  # the pad records stay 0
    lo, hi = _pair_views(buf, bits, rows, cols)
    lo[...] = m[0::2]
    hi[: rows // 2] |= m[1::2] << 4
    return bytes(buf)


def _unpack_matrix(data: bytes | memoryview, bits: int, rows: int, cols: int) -> np.ndarray:
    """The (rows, cols) records, in C order, of ``_pack_matrix``'s stream;
    a pad record that is not zero raises ``ContainerError``."""
    lo, hi = _pair_views(data, bits, rows, cols)
    out = np.empty((len(lo), 2, cols), np.uint8 if bits == 4 else np.uint16)
    np.bitwise_and(lo, (1 << bits) - 1, out=out[:, 0])
    np.right_shift(hi, 4, out=out[:, 1])
    out = out.reshape(-1, cols)
    if np.count_nonzero(out[rows:]):
        raise ContainerError("nonzero padding record at the end of a column")
    return out[:rows]


def to_bytes(p: PackedTensor) -> bytes:
    for field in ("rows", "cols", "group_size"):
        if not 0 <= getattr(p, field) <= 0xFFFFFFFF:
            raise ValueError(f"{field} {getattr(p, field)} does not fit the u32 header field")
    words = p.words()
    wq, wr = (words >> 12).astype(np.uint8), words & 0xFFF
    header = _HEADER.pack(0, 2, p.rows, p.cols, p.group_size, p.tensor_scale)
    scales = p.group_scales.astype("<f4").tobytes()
    payload = b"".join((header, scales, _pack_matrix(wq, 4), _pack_matrix(wr, 12)))
    return MAGIC + payload + struct.pack("<I", zlib.crc32(payload))


def from_bytes(data: bytes) -> PackedTensor:
    if data[: len(MAGIC)] != MAGIC:
        raise BadMagicError("not a SPEQ1 container")
    if len(data) < len(MAGIC) + _HEADER.size + 4:
        raise TruncatedError(f"{len(data)} bytes: too short for the header and checksum")
    flags, ndims, rows, cols, group_size, tensor_scale = _HEADER.unpack_from(data, len(MAGIC))
    if flags != 0:
        raise ContainerError(f"flags byte is {flags}; only 0 (e3m0-remap) is defined")
    if ndims != 2:
        raise ContainerError(f"expected 2 dims, got {ndims}")
    if rows < 1 or cols < 1 or group_size < 1:
        raise ContainerError("dims and group size must be positive")
    n_groups = -(-rows // group_size)
    pairs = cols * ((rows + 1) // 2)
    scales_end = _HEADER.size + 4 * cols * n_groups
    wq_end = scales_end + pairs
    wr_end = wq_end + 3 * pairs
    payload = memoryview(data)[len(MAGIC) : -4]
    if len(payload) != wr_end:  # before the CRC and any array: a hostile header allocates nothing
        raise TruncatedError(f"payload is {len(payload)} bytes; the header needs {wr_end}")
    if zlib.crc32(payload) != int.from_bytes(data[-4:], "little"):
        raise ChecksumError("payload CRC mismatch")
    scales = np.frombuffer(payload[_HEADER.size : scales_end], "<f4").reshape(cols, n_groups)
    # no record pair spans two columns, so one unpack per stream fits every shape;
    # the 12-bit records are the words' low bits, the nibbles their top four
    words = _unpack_matrix(payload[wq_end:wr_end], 12, rows, cols)
    words |= np.left_shift(_unpack_matrix(payload[scales_end:wq_end], 4, rows, cols), _TWELVE)
    try:
        return PackedTensor(group_size, tensor_scale, scales, words)
    except ValueError as e:
        raise ContainerError(str(e)) from e


def write_container(path, p: PackedTensor) -> None:
    data = to_bytes(p)  # before opening: a failed encode leaves an existing file whole
    with open(path, "wb") as f:
        f.write(data)


def read_container(path, *, crc: int | None = None) -> PackedTensor:
    """The tensor in the container file at ``path``. With ``crc``, the file
    must also store that payload CRC-32, or ``ChecksumError`` is raised."""
    with open(path, "rb") as f:
        data = f.read()
    p = from_bytes(data)
    if crc is not None and int.from_bytes(data[-4:], "little") != crc:
        raise ChecksumError(f"payload CRC-32 differs from the expected {crc:#010x}")
    return p


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
