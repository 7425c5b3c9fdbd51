"""Container format: canonical round trips and corruption detection."""

from __future__ import annotations

import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest

from speq import bsfp
from speq.container import (
    MAGIC,
    BadMagicError,
    ChecksumError,
    ContainerError,
    TruncatedError,
    _pack_matrix,
    from_bytes,
    read_container,
    read_npy,
    to_bytes,
    write_container,
)
from speq.model import ModelConfig, _weight_names, init_model
from speq.quantize import PackedTensor, quantize_tensor


def _tensor(seed, shape, group_size=128):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.02, shape).astype(np.float16)
    return quantize_tensor(w, group_size)


@pytest.mark.parametrize(
    "shape",
    [
        (128, 128),
        (200, 3),  # tail group
        (7, 5),  # odd element count
        (7, 6),  # odd rows: each column ends with a zero pad record
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


def _with_tensor_scale(data: bytes, scale: float, reseal) -> bytes:
    """Rewrite the header's tensor scale and recompute the CRC."""
    out = bytearray(data)
    struct.pack_into("<f", out, len(MAGIC) + 1 + 16, scale)
    return reseal(out)


# 1e-45 and 2^-128 are positive float32 subnormals whose reciprocal overflows.
@pytest.mark.parametrize("scale", [0.0, float("nan"), float("inf"), -1.0, 1e-45, 2.0**-128])
def test_rejects_bad_tensor_scale(scale, reseal):
    data = to_bytes(_tensor(7, (64, 3)))
    assert from_bytes(_with_tensor_scale(data, 4.0, reseal)).tensor_scale == 4.0
    with pytest.raises(ContainerError, match="tensor_scale"):
        from_bytes(_with_tensor_scale(data, scale, reseal))


def _with_first_group_scale(data: bytes, scale: float, reseal) -> bytes:
    """Rewrite the first per-group scale and recompute the CRC."""
    out = bytearray(data)
    struct.pack_into("<f", out, len(MAGIC) + 1 + 16 + 4, scale)
    return reseal(out)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0, -0.0])
def test_rejects_bad_group_scale(scale, reseal):
    data = to_bytes(_tensor(7, (64, 3)))
    assert from_bytes(_with_first_group_scale(data, 0.5, reseal)).group_scales[0, 0] == 0.5
    with pytest.raises(ContainerError, match="group scales"):
        from_bytes(_with_first_group_scale(data, scale, reseal))


def test_zero_group_scale_round_trips():
    w = _tensor(9, (256, 3)).full_values()
    w[128:, 1] = 0.0  # column 1's second group is all zeros: its fitted scale is 0.0
    p = quantize_tensor(w)
    assert p.group_scales[1, 1] == 0.0
    assert from_bytes(to_bytes(p)) == p


# (qcode, flag, elsb) of the words encode_words never writes that decode
# bit by bit to an in-range FP16 value: each would restore exact weights
# while its draft nibble quantizes some other value.
ALIASES = [(0b000, 0, 0), (0b000, 0, 1), (0b000, 1, 0), (0b010, 0, 0), (0b010, 0, 1),
           (0b010, 1, 0), (0b100, 0, 1), (0b101, 0, 1)]


@pytest.mark.parametrize("shape", [(64, 3), (7, 5)])  # (7, 5): every column padded
@pytest.mark.parametrize(
    "qcode,flag,elsb",
    [pytest.param(q, 1, 0, id=str(q)) for q in (0b100, 0b101, 0b110, 0b111)]
    + [pytest.param(q, f, e, id=f"{q:03b}-{f}-{e}") for q, f, e in ALIASES],
)
def test_rejects_unreachable_word(qcode, flag, elsb, shape, patch_word):
    data = to_bytes(_tensor(7, shape))
    at = (5, 1)
    if qcode & 4:
        valid = patch_word(data, at, qcode, 0, 0)  # unflagged with elsb 0, the code is valid
        assert to_bytes(from_bytes(valid)) == valid
    with pytest.raises(ContainerError, match="unreachable"):
        from_bytes(patch_word(data, at, qcode, flag, elsb))


@pytest.mark.parametrize("stream", ["wq", "wr"])
def test_rejects_nonzero_padding(stream, stream_spans, reseal):
    # 7 rows: each column's last record pair holds its last record (low)
    # and a zero pad record (high), in bits [bits, 2 * bits) of the pair.
    data = to_bytes(_tensor(1, (7, 5)))
    rows, cols, wq_span, wr_span = stream_spans(data)
    span, bits = (wq_span, 4) if stream == "wq" else (wr_span, 12)
    step, h = bits // 4, (rows + 1) // 2
    for col in (0, cols // 2, cols - 1):
        pad_pair = span.start + step * (col * h + h - 1)
        for bit in range(bits, 2 * bits):
            at, mask = pad_pair + bit // 8, 1 << bit % 8
            assert not data[at] & mask
            bad = bytearray(data)
            bad[at] |= mask
            with pytest.raises(ContainerError, match="padding"):
                from_bytes(reseal(bad))


@pytest.mark.parametrize("shape", [(7, 5), (7, 6), (1, 1), (3, 1)])
def test_rejects_the_unpadded_odd_row_layout(shape, stream_spans, reseal):
    # The layout without column padding: both streams run over all n records
    # as one column, in ceil(n / 2) and ceil(12 n / 8) bytes, shorter than
    # the padded streams, so the container is refused before any record is read.
    p = _tensor(11, shape)
    data = to_bytes(p)
    wq_span = stream_spans(data)[2]
    n = p.rows * p.cols
    words = p.words().reshape(n, 1, order="F")
    old_wq = _pack_matrix((words >> 12).astype(np.uint8), 4)
    # the last record's pad byte is dropped
    old_wr = _pack_matrix(words & 0xFFF, 12)[: (12 * n + 7) // 8]
    assert (len(old_wq), len(old_wr)) == (-(-n // 2), -(-12 * n // 8))
    old = data[: wq_span.start] + old_wq + old_wr + data[-4:]
    assert len(old) < len(data)
    with pytest.raises(TruncatedError):
        from_bytes(reseal(old))


def test_truncation():
    data = to_bytes(_tensor(6, (64, 3)))
    with pytest.raises(TruncatedError):
        from_bytes(data[: len(data) - 9])


def test_every_cut_of_the_header_is_refused():
    # cut after each byte of the magic, the 21-byte header and the CRC
    data = to_bytes(_tensor(6, (64, 3)))
    for n in range(len(MAGIC) + 21 + 4):
        with pytest.raises((BadMagicError, TruncatedError)):
            from_bytes(data[:n])


def test_hostile_header_is_refused_before_allocation(reseal):
    # 2^64 records claimed, with a valid CRC: the length check refuses the
    # container before any array is built or any buffer is copied
    data = bytearray(to_bytes(_tensor(6, (64, 3))))
    struct.pack_into("<III", data, len(MAGIC) + 5, 0xFFFFFFFF, 0xFFFFFFFF, 1)
    data = reseal(data)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedError):
            from_bytes(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_trailing_garbage():
    data = to_bytes(_tensor(7, (64, 3)))
    with pytest.raises(ContainerError):
        from_bytes(data + b"\x00\x00\x00\x00")


def test_unknown_format_index(reseal):
    # Every flags value but 0 fails, the former baseline indices 1-3 too.
    data = bytearray(to_bytes(_tensor(8, (8, 2), group_size=8)))
    for flags in range(1, 256):
        data[len(MAGIC)] = flags
        with pytest.raises(ContainerError, match="flags byte"):
            from_bytes(reseal(data))


def test_scale_and_stream_preservation():
    w = np.full((4, 1), 4.0, dtype=np.float16)  # forces an outlier scale
    p = quantize_tensor(w, group_size=4)
    q = from_bytes(to_bytes(p))
    assert q.tensor_scale == p.tensor_scale != 1.0
    assert np.array_equal(q.group_scales, p.group_scales)
    assert np.array_equal(q.words(), p.words())


def test_from_bytes_mutation_fuzz(reseal):
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
            data = reseal(data)
        try:
            p = from_bytes(bytes(data))
        except ContainerError:
            continue
        loaded += 1
        assert to_bytes(p) == bytes(data)
    assert loaded > 0


def test_scales_held_as_rows_keep_the_container_bytes():
    # The payload CRC-32 of this container was pinned while the scales were
    # held (cols, n_groups) in C order; holding them as rows changes no byte.
    # (The CRC-32 of the whole container, its own CRC included, is the same
    # for every container of one length, so it would pin only the length.)
    p = _tensor(26, (300, 7))
    c_order = np.ascontiguousarray(p.group_scales)
    direct = PackedTensor(p.group_size, p.tensor_scale, c_order, p.words())
    for q in (p, from_bytes(to_bytes(p)), direct):
        data = to_bytes(q)
        assert len(data) == 4314 and int.from_bytes(data[-4:], "little") == 0x74D96C0D
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


# ── one door: the constructor, from the encoder or from a container ──────

# bench/speqbench.py's workload models: chat-short and long-context run the default
_WORKLOAD_MODELS = {"default": {}, "draft-heavy": {"d_model": 128, "d_ff": 512, "n_layers": 4}}
_DOOR_SHAPES = [(1, 1), (7, 5), (300, 7)]


def _door_tensors():
    for name, fields in _WORKLOAD_MODELS.items():
        for layer, p in init_model(ModelConfig(**fields)).weights.items():
            yield f"{name} {layer}", p
    for shape in _DOOR_SHAPES:
        yield str(shape), _tensor(20, shape, group_size=4)


def test_constructor_and_container_decode_the_same_operands():
    for name, p in _door_tensors():
        words = p.words()
        exact = bsfp.decode_words_f32(words)
        draft = bsfp.DRAFT_VALUE[words >> 12]
        built = {
            "constructor": PackedTensor(p.group_size, p.tensor_scale, p.group_scales, words),
            "container": from_bytes(to_bytes(p)),
        }
        for how, q in built.items():
            for got, want in ((q._full32, exact), (q._qval, draft)):
                assert got.flags.c_contiguous and not got.flags.writeable, (name, how)
                assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (name, how)


@pytest.mark.parametrize("shape", _DOOR_SHAPES, ids=str)
def test_constructor_and_container_refuse_an_unwritten_word(shape, stream_spans, reseal):
    p = _tensor(21, shape, group_size=4)
    data = to_bytes(p)
    wq_span = stream_spans(data)[2]
    unwritten = np.flatnonzero(np.isnan(bsfp._F32_OF_WORD))
    for word in unwritten[:: len(unwritten) // 7]:
        words = p.words()
        words[-1, -1] = word
        with pytest.raises(bsfp.MalformedWordError, match="unreachable"):
            PackedTensor(p.group_size, p.tensor_scale, p.group_scales, words)
        streams = _pack_matrix((words >> 12).astype(np.uint8), 4) + _pack_matrix(words & 0xFFF, 12)
        bad = reseal(data[: wq_span.start] + streams + data[-4:])
        with pytest.raises(ContainerError, match="unreachable") as refused:
            from_bytes(bad)
        assert not isinstance(refused.value, bsfp.MalformedWordError)


# sha256 of the concatenated containers of every linear, in load order: the
# workload models, and an odd-row model, whose every column ends with a pad
# record. They guard the writer's split of the words into the two streams.
_MODEL_CONTAINER_SHA256 = {
    "default": ({}, "56dc7da6d15d9f2f33287c091f372e64e31c4463e382d75181c9a52a2a827f5a"),
    "draft-heavy": (
        _WORKLOAD_MODELS["draft-heavy"],
        "7b6c0f09739a0211a424743665eb61894dfb7e0e48b5cc2f0b95aab81e034398",
    ),
    "odd-row": (
        {"d_model": 129, "n_heads": 3},
        "c7a25bb0826aa13e0faae92edf5f69a9ad0d6262f67e02faee2836df574b6c2e",
    ),
}


@pytest.mark.parametrize("model", list(_MODEL_CONTAINER_SHA256))
def test_model_container_bytes_are_pinned(model):
    fields, want = _MODEL_CONTAINER_SHA256[model]
    cfg = ModelConfig(**fields)
    weights = init_model(cfg).weights
    data = b"".join(to_bytes(weights[name]) for name in _weight_names(cfg))
    assert hashlib.sha256(data).hexdigest() == want


def test_read_container_checks_a_given_crc(tmp_path):
    path = tmp_path / "w.speq"
    p = _tensor(22, (7, 5))
    write_container(path, p)
    crc = int.from_bytes(path.read_bytes()[-4:], "little")
    assert read_container(path, crc=crc) == p
    with pytest.raises(ChecksumError, match=f"{crc ^ 1:#010x}"):
        read_container(path, crc=crc ^ 1)
