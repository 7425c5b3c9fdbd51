"""Shared test fixtures."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from speq import _accel
from speq.cli import main
from speq.container import MAGIC, _pack_matrix, _unpack_matrix

REMAINDER_READ = "poisoned remainder stream read"


class _Poisoned:
    """Stands in for a weight array; any read of it raises."""

    def _read(self, *args, **kwargs):
        raise RuntimeError(REMAINDER_READ)

    __array__ = __getattr__ = __getitem__ = _read


@pytest.fixture
def poison_remainder():
    """Replace a PackedTensor's exact decode, the only copy of its 12-bit
    remainder, with an object that raises on any read, so a pass that
    succeeds provably never read it."""

    def poison(p):
        p._full32 = _Poisoned()

    return poison


@pytest.fixture
def stream_spans():
    """Read a serialised container's header; return (rows, cols, wq span,
    wr span), each span the slice of the container's bytes that holds one
    record stream."""

    def spans(data: bytes) -> tuple[int, int, slice, slice]:
        rows, cols, group_size = struct.unpack_from("<III", data, len(MAGIC) + 5)
        at = len(MAGIC) + 1 + 16 + 4 + 4 * cols * -(-rows // group_size)
        pairs = cols * ((rows + 1) // 2)
        return rows, cols, slice(at, at + pairs), slice(at + pairs, at + 4 * pairs)

    return spans


@pytest.fixture
def reseal():
    """Return a serialised container's bytes with the trailing CRC-32
    recomputed over its payload, so the checks behind the CRC see an edit."""

    def seal(data: bytes | bytearray) -> bytes:
        return bytes(data[:-4]) + struct.pack("<I", zlib.crc32(data[len(MAGIC) : -4]))

    return seal


@pytest.fixture
def patch_word(stream_spans, reseal):
    """Rewrite the record at (row, col) of a serialised container, keeping its
    sign and mantissa, and recompute the CRC, so only the word decides whether it loads."""

    def patch(data: bytes, at: tuple[int, int], qcode: int, flag: int, elsb: int) -> bytes:
        out = bytearray(data)
        rows, cols, wq_span, wr_span = stream_spans(data)
        wq = _unpack_matrix(out[wq_span], 4, rows, cols)
        wr = _unpack_matrix(out[wr_span], 12, rows, cols)
        wq[at] = (wq[at] & 8) | qcode
        wr[at] = (flag << 11) | (elsb << 10) | (wr[at] & 0x3FF)
        out[wq_span.start : wr_span.stop] = _pack_matrix(wq, 4) + _pack_matrix(wr, 12)
        return reseal(out)

    return patch


@pytest.fixture
def fresh_probes():
    """Run every memoised probe of ``_accel`` again for this test, and forget
    them after it. The probes are found by introspection, each function
    there with a ``cache_clear`` (every ``functools.cache``), so a renamed
    or added probe cannot stay warm from one test to the next."""
    probes = [f for f in vars(_accel).values() if callable(getattr(f, "cache_clear", None))]
    assert probes, "no memoised probe found in _accel"
    for probe in probes:
        probe.cache_clear()
    yield
    for probe in probes:
        probe.cache_clear()


@pytest.fixture
def malformed_files(tmp_path):
    """Write into ``tmp_path`` one file of each kind the tensor, container and
    model readers must refuse, beside a good ``good.npy`` and ``good.speq``;
    return the malformed files' names."""
    d = tmp_path
    rng = np.random.default_rng(90)
    arrays = {
        "archive.npz": None,
        "complex.npy": rng.normal(size=(8, 2)) + 1j,
        "structured.npy": np.zeros(4, dtype=[("a", "<f2"), ("b", "<i4")]),
        "datetime.npy": np.arange(4).astype("datetime64[D]"),
        "cube.npy": rng.normal(size=(2, 3, 4)).astype(np.float16),
        # finite, but past FP16's 65504, so a float16 cast gives Inf
        "overflow-int.npy": np.full((4, 16), 70000, dtype=np.int64),
        "overflow-float.npy": np.full((4, 16), 1e6),
        # no values: nothing to quantize, inspect or multiply
        "zero-rows.npy": np.zeros((0, 4), dtype=np.float16),
        "zero-cols.npy": np.zeros((4, 0), dtype=np.float16),
        "zero-length.npy": np.zeros(0, dtype=np.float16),
    }
    for name, arr in arrays.items():
        if arr is None:
            np.savez(d / name, w=rng.normal(size=(8, 2)).astype(np.float16))
        else:
            np.save(d / name, arr)
    (d / "random.bin").write_bytes(rng.integers(0, 256, 300, dtype=np.uint8).tobytes())
    (d / "empty.npy").write_bytes(b"")
    np.save(d / "good.npy", rng.normal(0, 0.02, (16, 4)).astype(np.float16))
    assert main(["quantize", "--in", str(d / "good.npy"), "--out", str(d / "good.speq")]) == 0
    (d / "truncated.speq").write_bytes((d / "good.speq").read_bytes()[:-7])
    return sorted([*arrays, "random.bin", "empty.npy", "truncated.speq"])
