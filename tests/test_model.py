"""Toy model tests: determinism, bit-sharing round trip, path instrumentation."""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import speq.model as smodel
from speq.container import read_crc, write_container
from speq.kernels import GemmMode, gemm_full
from speq.model import (
    ContextOverflowError,
    KvCache,
    ModelConfig,
    check_token_ids,
    draw_weights,
    forward_draft,
    forward_full,
    forward_reference,
    init_model,
    load_model,
    save_model,
)
from speq.pe import simulate_gemm
from speq.quantize import exponent_histogram, quantize_tensor

SRC = str(Path(smodel.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def model():
    return init_model(ModelConfig(seed=5))


def test_init_deterministic():
    m1 = init_model(ModelConfig(seed=8))
    m2 = init_model(ModelConfig(seed=8))
    assert m1.weights.keys() == m2.weights.keys()
    for name in m1.weights:
        assert m1.weights[name] == m2.weights[name]
    m3 = init_model(ModelConfig(seed=9))
    assert any(m1.weights[n] != m3.weights[n] for n in m1.weights)


def test_weights_have_no_unused_exponents(model):
    for name, p in model.weights.items():
        h = exponent_histogram(p.full_values())
        assert h.frac_unused == 0.0, name
        assert p.tensor_scale == 1.0


def test_bit_sharing_round_trip(model):
    raw = draw_weights(model.cfg)
    raw.pop("embed")
    for name, p in model.weights.items():
        assert np.array_equal(
            p.full_values().view(np.uint16), raw[name].view(np.uint16)
        ), name


def test_forward_shapes(model):
    cache = model.new_cache()
    logits = forward_full(model, [1, 2, 3], cache)
    assert logits.shape == (3, model.cfg.vocab)
    assert logits.dtype == np.float32
    single = forward_draft(model, 4, cache)
    assert single.shape == (model.cfg.vocab,)
    assert cache.len == 4


def test_repeated_prefill_identical(model):
    prompt = [10, 20, 30, 40]
    l1 = forward_full(model, prompt, model.new_cache())
    l2 = forward_full(model, prompt, model.new_cache())
    assert np.array_equal(l1.view(np.uint32), l2.view(np.uint32))


def test_golden_logits():
    # Pins the fixed float32 accumulation order: any kernel rewrite must
    # reproduce these logits bit for bit, not just to within rounding.
    def crc(x):
        return zlib.crc32(np.ascontiguousarray(x, dtype=np.float32).tobytes())

    m = init_model(ModelConfig())
    cache = m.new_cache()
    prompt = [1, 2, 3, 5, 8, 13, 21, 34]
    full = forward_full(m, prompt, cache)
    draft = forward_draft(m, prompt[-1], cache)
    assert crc(full) == 0x7A7BD3DD
    assert crc(draft) == 0xB0DDD3E4


# BLAS is the only threaded code in a forward. OpenBLAS runs the golden
# forward's small GEMMs on one thread whatever it is given; a 384-row
# prefill's it splits between two (143 against 93 us at (384, 64, 256)).
_THREADED_FORWARD = """
import zlib
from speq import _accel
from speq.model import ModelConfig, forward_draft, forward_full, init_model

crc = lambda x: hex(zlib.crc32(x.tobytes()))
m = init_model(ModelConfig())
cache = m.new_cache()
prompt = [1, 2, 3, 5, 8, 13, 21, 34]
print(crc(forward_full(m, prompt, cache)), crc(forward_draft(m, prompt[-1], cache)))
print(crc(forward_full(m, [t % 256 for t in range(384)], m.new_cache())))
print(all(_accel._blas_in_order(384, k, n) for k, n in [(64, 192), (64, 64), (64, 256), (128, 64)]))
"""


def test_golden_logits_do_not_depend_on_blas_threads():
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _THREADED_FORWARD],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        runs.append(out.stdout.split())
    assert runs[0] == runs[1]
    assert runs[1][:2] == ["0x7a7bd3dd", "0xb0ddd3e4"]
    assert runs[1][3] == "True"  # the prefill ran on BLAS, not the fallback


def test_windowed_equals_stepwise(model):
    # Verification windows must reproduce single-token logits bit-exactly;
    # this is what makes speculative decoding lossless.
    tokens = [3, 1, 4, 1, 5, 9, 2, 6]
    win_cache = model.new_cache()
    win = forward_full(model, tokens, win_cache)
    step_cache = model.new_cache()
    rows = [forward_full(model, [t], step_cache)[0] for t in tokens]
    assert np.array_equal(win.view(np.uint32), np.stack(rows).view(np.uint32))


@functools.lru_cache(maxsize=None)
def _layered_model(n_layers):
    return init_model(ModelConfig(n_layers=n_layers, seed=12))


def _assert_last_only_matches(m, tokens, prefix=()):
    """``last_only`` gives the default call's last row and leaves the same cache."""
    runs = []
    for last_only in (False, True):
        cache = m.new_cache()
        if prefix:
            forward_full(m, list(prefix), cache)
        runs.append((cache, forward_full(m, tokens, cache, last_only=last_only)))
    (full_cache, full), (last_cache, last) = runs
    assert last.shape == (1, m.cfg.vocab)
    assert np.array_equal(last.view(np.uint32), full[-1:].view(np.uint32))
    assert last_cache.len == full_cache.len == len(prefix) + len(tokens)
    for name in ("keys", "vals"):
        got, want = getattr(last_cache, name), getattr(full_cache, name)
        assert np.array_equal(got.view(np.uint16), want.view(np.uint16)), name


@pytest.mark.parametrize("n_layers", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 8, 384])
def test_last_only_is_the_last_row(n_layers, n):
    # n_layers=1: the only layer is the one whose outputs are cut to one row
    tokens = np.random.default_rng(n).integers(0, 256, n).tolist()
    _assert_last_only_matches(_layered_model(n_layers), tokens)


def test_last_only_on_a_warm_cache():
    # start > 0: the last query sits at position 12, not at n - 1 = 6
    _assert_last_only_matches(_layered_model(2), [9, 8, 7, 6, 5, 4, 3], prefix=range(40, 46))


def test_last_only_runs_the_last_layer_at_one_row(monkeypatch):
    rows = []

    def recording(a16, p, *args, **kwargs):
        rows.append(a16.shape[0])
        return gemm_full(a16, p, *args, **kwargs)

    monkeypatch.setattr(smodel, "gemm_full", recording)
    m = _layered_model(2)
    forward_full(m, list(range(8)), m.new_cache(), last_only=True)
    # qkv, wo, w1, w2 of layer 0; qkv of layer 1 over every row; then
    # wo, w1, w2 of layer 1 and the head over the last row
    assert rows == [8, 8, 8, 8, 8, 1, 1, 1, 1]


def test_draft_reads_only_draft_stream(poison_remainder):
    # With every remainder stream and exact decode made to raise on any read,
    # draft passes still give the same logits and a full pass fails.
    m = init_model(ModelConfig(seed=6))
    cache = m.new_cache()
    expect = [forward_draft(m, t, cache) for t in (1, 2)]
    cache.rewind(0)
    for p in m.weights.values():
        poison_remainder(p)
    for t, want in zip((1, 2), expect):
        assert np.array_equal(forward_draft(m, t, cache).view(np.uint32), want.view(np.uint32))
    with pytest.raises(RuntimeError, match="poisoned remainder"):
        forward_full(m, [3], cache)


def test_full_path_matches_unquantized_reference(model):
    # End-to-end bit-sharing: packed weights reconstruct exactly, so the
    # full pass equals a forward over the never-quantized FP16 weights.
    raw = draw_weights(model.cfg)
    raw.pop("embed")
    tokens = [11, 22, 33]
    got = forward_full(model, tokens, model.new_cache())
    ref = forward_reference(model, tokens, model.new_cache(), raw)
    assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))


def _forwards(m):
    """Each forward as a function of a token list, on a fresh cache."""
    raw = draw_weights(m.cfg)
    return {
        "full": lambda ids: forward_full(m, ids, m.new_cache()),
        "draft": lambda ids: forward_draft(m, ids[0], m.new_cache()),
        "reference": lambda ids: forward_reference(m, ids, m.new_cache(), raw),
    }


@pytest.mark.parametrize("kind", ["full", "draft", "reference"])
@pytest.mark.parametrize(
    "ids, match",
    [([-1], "lie in"), ([256], "lie in"), ([255.7], "integers"), ([True], "integers")],
)
def test_forwards_reject_bad_token_ids(model, kind, ids, match):
    with pytest.raises(ValueError, match=match):
        _forwards(model)[kind](ids)


@pytest.mark.parametrize(
    "ids",
    [[3, True], [np.True_], [[1, 2]], [], "ab", [2**70], np.array([2**63], dtype=np.uint64)],
)
def test_check_token_ids_rejects(ids):
    # numpy reads an empty list as float64; it must still be "none given"
    match = "^token ids: none given" if isinstance(ids, list) and not ids else "^token ids"
    with pytest.raises(ValueError, match=match):
        check_token_ids(ids, 256)


def test_check_token_ids_accepts():
    want = np.array([0, 7, 255], dtype=np.int64)
    for ids in ([0, 7, 255], (0, np.int64(7), 255), np.array([0, 7, 255], dtype=np.uint8)):
        got = check_token_ids(ids, 256)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(check_token_ids(np.int32(4), 256), [4])  # a scalar is one id


@pytest.mark.parametrize("shape", [(1, 64), (17, 128), (384, 64)])
def test_layernorm_matches_mean_formula(shape):
    for seed in range(4):
        x = np.random.default_rng([seed, *shape]).normal(0.0, 3.0, shape).astype(np.float32)
        x += np.float32(seed)  # a nonzero mean
        mu = x.mean(axis=-1, keepdims=True, dtype=np.float32)
        xc = x - mu
        var = (xc * xc).mean(axis=-1, keepdims=True, dtype=np.float32)
        want = xc / np.sqrt(var + np.float32(1e-5))
        got = smodel._layernorm(x)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_context_overflow_in_forward(model):
    cache = model.new_cache()
    with pytest.raises(ContextOverflowError):
        forward_full(model, list(range(200)) * 3, cache)


def test_kv_cache_semantics():
    cfg = ModelConfig(seed=0)
    assert KvCache(cfg).positions == cfg.context  # default: the whole window
    cache = KvCache(cfg, 7)
    for arr in (cache.keys, cache.vals):
        assert arr.dtype == np.float32 and arr.shape == (cfg.n_layers, 7, cfg.d_model)
    # written values are rounded to FP16 and stored exactly in float32
    k = np.random.default_rng(0).normal(0.0, 1.0, (3, cfg.d_model)).astype(np.float32)
    cache.write(0, 0, k, -k)
    want = k.astype(np.float16).astype(np.float32)
    assert not np.array_equal(want, k)  # the rounding is visible
    cache.len = 3
    cache.rewind(1)
    assert cache.len == 1
    # length is logical: the rows written before the rewind are still stored
    assert np.array_equal(cache.keys[0, :3].view(np.uint32), want.view(np.uint32))
    assert np.array_equal(cache.vals[0, :3].view(np.uint32), (-want).view(np.uint32))
    with pytest.raises(ValueError):
        cache.rewind(5)
    # a float length would fail later as a slice index, and a bool is no length
    for bad in (2.5, True, -1):
        with pytest.raises(ValueError, match="^n must be an integer >= 0"):
            cache.rewind(bad)
    assert cache.len == 1


@pytest.mark.parametrize("positions", [0, -1, 513, 2.5])
def test_kv_cache_rejects_bad_size(positions):
    with pytest.raises(ValueError, match="positions"):
        KvCache(ModelConfig(), positions)


def test_forward_past_cache_capacity(model):
    cache = model.new_cache(5)
    forward_full(model, [1, 2, 3], cache)
    with pytest.raises(ContextOverflowError, match="capacity 5"):
        forward_full(model, [4, 5, 6], cache)
    assert cache.len == 3  # nothing written past the check
    forward_full(model, [4, 5], cache)  # exactly full
    with pytest.raises(ContextOverflowError):
        forward_draft(model, 6, cache)


def test_cache_holds_fp16_values(model):
    # Prefill, a draft round, then a verify pass that overwrites the draft's
    # rows: every stored value is exactly representable in FP16.
    cache = model.new_cache(16)
    forward_full(model, [5, 6, 7, 8], cache, last_only=True)
    for t in (9, 10, 11):
        forward_draft(model, t, cache)
    cache.rewind(4)
    forward_full(model, [9, 10], cache)
    for arr in (cache.keys, cache.vals):
        assert arr.dtype == np.float32
        assert np.any(arr[:, :7] != 0)
        round_trip = arr.astype(np.float16).astype(np.float32)
        assert np.array_equal(arr.view(np.uint32), round_trip.view(np.uint32))


def test_cache_shared_between_paths(model):
    # Draft writes and verification overwrites land in the same arrays.
    cache = model.new_cache()
    forward_full(model, [1, 2], cache)
    keys_obj = cache.keys
    forward_draft(model, 3, cache)
    draft_row = cache.keys[0, 2].copy()
    cache.rewind(2)
    forward_full(model, [3], cache)
    assert cache.keys is keys_obj
    assert not np.array_equal(cache.keys[0, 2], draft_row)  # overwritten


def test_save_load_round_trip(tmp_path, model):
    save_model(model, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    assert loaded.cfg == model.cfg
    assert loaded.weights.keys() == model.weights.keys()
    for name in model.weights:
        assert loaded.weights[name] == model.weights[name]
    assert np.array_equal(loaded.embed, model.embed)
    t = [1, 2, 3]
    a = forward_full(model, t, model.new_cache())
    b = forward_full(loaded, t, loaded.new_cache())
    assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_numpy_scalar_config_round_trip(tmp_path):
    # numpy scalars are stored as plain Python values, so the manifest
    # serialises and the model saves whole
    cfg = ModelConfig(
        d_model=np.int64(32),
        n_layers=np.int32(1),
        seed=np.int64(3),
        logit_scale=np.float32(2.5),
    )
    assert [type(getattr(cfg, f)) for f in ("d_model", "n_layers", "seed")] == [int] * 3
    assert type(cfg.logit_scale) is float
    m = init_model(cfg)
    save_model(m, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    assert loaded.cfg == cfg
    assert loaded.weights == m.weights


def test_manifest_is_config_and_crcs(tmp_path):
    # model.json holds only the config and one CRC per linear. A manifest of
    # the earlier formats, which also lists the layers and sets
    # "quantize_head": true in the config, still loads; any other
    # quantize_head asks for the raw FP16 head, which is gone.
    m = init_model(ModelConfig(seed=5))
    d = tmp_path / "m"
    save_model(m, d)
    manifest = json.loads((d / "model.json").read_text())
    assert sorted(manifest) == ["config", "crc32"]
    assert sorted(manifest["crc32"]) == sorted(m.weights)
    assert "head" in m.weights and not m.raw_weights
    manifest["config"]["quantize_head"] = True
    manifest.update(packed=sorted(m.weights), raw=[])
    (d / "model.json").write_text(json.dumps(manifest))
    loaded = load_model(d)
    assert loaded.cfg == m.cfg
    assert loaded.weights == m.weights
    assert np.array_equal(loaded.embed.view(np.uint16), m.embed.view(np.uint16))
    for bad in (False, 1, "true", None):
        manifest["config"]["quantize_head"] = bad
        (d / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="model.json: a raw FP16 head is no longer supported"):
            load_model(d)


def test_position_table_shared_per_shape():
    a, b = init_model(ModelConfig(seed=1)), init_model(ModelConfig(seed=2))
    assert a.pos is b.pos
    assert not a.pos.flags.writeable
    with pytest.raises(ValueError):
        a.pos[0, 0] = 1.0
    c = init_model(ModelConfig(context=16))
    assert c.pos.shape == (16, 64)
    assert np.array_equal(c.pos, a.pos[:16])


def _drop_l0_qkv_crc(d):
    m = json.loads((d / "model.json").read_text())
    del m["crc32"]["l0.qkv"]
    (d / "model.json").write_text(json.dumps(m))


def _edit_manifest(edit):
    def damage(d):
        m = json.loads((d / "model.json").read_text())
        edit(m)
        (d / "model.json").write_text(json.dumps(m))

    return damage


def _save_old_qkv_layout(d):
    # l0's q, k and v as three valid (d, d) containers, each listed with its
    # CRC: only the config's packed layer set tells the old layout from the new
    qkv = draw_weights(ModelConfig(seed=5))["l0.qkv"]
    m = json.loads((d / "model.json").read_text())
    del m["crc32"]["l0.qkv"]
    (d / "l0.qkv.speq").unlink()
    for name, w in zip(("l0.wq", "l0.wk", "l0.wv"), np.hsplit(qkv, 3)):
        write_container(d / f"{name}.speq", quantize_tensor(w))
        m["crc32"][name] = read_crc(d / f"{name}.speq")
    (d / "model.json").write_text(json.dumps(m))


def _swap_l0_l1_qkv(d):
    q0, q1 = (d / "l0.qkv.speq").read_bytes(), (d / "l1.qkv.speq").read_bytes()
    (d / "l0.qkv.speq").write_bytes(q1)
    (d / "l1.qkv.speq").write_bytes(q0)


def _repack_l0_wo(d, group_size):
    w = np.random.default_rng(0).normal(0.0, 0.02, (64, 64)).astype(np.float16)
    write_container(d / "l0.wo.speq", quantize_tensor(w, group_size))


def _edit_bytes(name, edit):
    def damage(d):
        data = bytearray((d / name).read_bytes())
        edit(data)
        (d / name).write_bytes(bytes(data))

    return damage


def _set_flags_byte_2(data):
    data[5] = 2  # the flags byte; once the e2m1 baseline's index
    data[-4:] = zlib.crc32(data[5:-4]).to_bytes(4, "little")


def _truncate(data):
    del data[-10:]


def _bad_magic(data):
    data[:5] = b"SPEQ0"


def _empty(data):
    data.clear()


def _resave(path, change):
    np.save(path, change(np.load(path)))


def _to_float32(a):
    return a.astype(np.float32)


def _set_first(value):
    def change(a):
        a.flat[0] = value
        return a

    return change


# Each case damages one file of a saved model; the error must name that file.
_LOAD_MISMATCHES = {
    "missing-crc": ("model.json", _drop_l0_qkv_crc),
    "missing-crc32-key": ("model.json", _edit_manifest(lambda m: m.pop("crc32"))),
    "old-qkv-layout": ("model.json", _save_old_qkv_layout),
    "raw-head": ("model.json", _edit_manifest(lambda m: m["config"].update(quantize_head=False))),
    "unknown-config-field": ("model.json", _edit_manifest(lambda m: m["config"].update(extra=1))),
    "config-not-mapping": ("model.json", _edit_manifest(lambda m: m.update(config=[64, 2]))),
    "config-str-size": ("model.json", _edit_manifest(lambda m: m["config"].update(n_heads="4"))),
    "config-float-size": ("model.json", _edit_manifest(lambda m: m["config"].update(d_model=64.0))),
    # fails before any allocation: 2**50 positions would be an 8 PiB position table
    "config-huge-context": (
        "model.json",
        _edit_manifest(lambda m: m["config"].update(context=2**50)),
    ),
    "config-str-logit-scale": (
        "model.json",
        _edit_manifest(lambda m: m["config"].update(logit_scale="abc")),
    ),
    "config-nan-logit-scale": (
        "model.json",
        _edit_manifest(lambda m: m["config"].update(logit_scale=float("nan"))),
    ),
    "crc-not-int": ("model.json", _edit_manifest(lambda m: m["crc32"].update({"l0.qkv": "0"}))),
    "not-json": ("model.json", lambda d: (d / "model.json").write_text("{not json")),
    "not-an-object": ("model.json", lambda d: (d / "model.json").write_text("[]")),
    # same shape, valid containers: only the manifest's CRC tells them apart
    # (layers load in order, so l0.qkv is named)
    "swapped-layers": ("l0.qkv.speq", _swap_l0_l1_qkv),
    "wrong-shape": ("l0.wo.speq", lambda d: shutil.copy(d / "l0.w1.speq", d / "l0.wo.speq")),
    "wrong-group-size": ("l0.wo.speq", lambda d: _repack_l0_wo(d, 32)),
    "baseline-format": ("l0.wo.speq", _edit_bytes("l0.wo.speq", _set_flags_byte_2)),
    "truncated-container": ("l0.wo.speq", _edit_bytes("l0.wo.speq", _truncate)),
    "bad-magic": ("l0.wo.speq", _edit_bytes("l0.wo.speq", _bad_magic)),
    "embed-dtype": ("embed.npy", lambda d: _resave(d / "embed.npy", _to_float32)),
    "embed-shape": ("embed.npy", lambda d: _resave(d / "embed.npy", lambda a: a[1:])),
    # a NaN loaded and decoded to all zeros; an Inf raised mid-forward
    "embed-nonfinite": ("embed.npy", lambda d: _resave(d / "embed.npy", _set_first(np.nan))),
    "embed-inf": ("embed.npy", lambda d: _resave(d / "embed.npy", _set_first(-np.inf))),
    # np.load's own errors: not an .npy file (it would unpickle), short data, no data
    "embed-garbage": ("embed.npy", _edit_bytes("embed.npy", _bad_magic)),
    "embed-truncated": ("embed.npy", _edit_bytes("embed.npy", _truncate)),
    "embed-empty": ("embed.npy", _edit_bytes("embed.npy", _empty)),
}


@pytest.mark.parametrize("case", sorted(_LOAD_MISMATCHES))
def test_load_model_rejects_mismatch(tmp_path, case):
    fname, damage = _LOAD_MISMATCHES[case]
    d = tmp_path / "m"
    save_model(init_model(ModelConfig(seed=5)), d)
    load_model(d)
    damage(d)
    with pytest.raises(ValueError, match=re.escape(fname)):
        load_model(d)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=30, n_heads=4)
    for size in ("vocab", "d_model", "n_layers", "n_heads", "d_ff", "context", "group_size"):
        for bad in (0, -1):
            with pytest.raises(ValueError, match=size):
                ModelConfig(**{size: bad})
        for bad in (2.0, True, "2"):
            with pytest.raises(ValueError, match=f"{size} must be an integer"):
                ModelConfig(**{size: bad})
    assert ModelConfig(n_layers=np.int64(1)).n_layers == 1
    assert ModelConfig(context=smodel.MAX_CONTEXT).context == smodel.MAX_CONTEXT
    for bad in (smodel.MAX_CONTEXT + 1, 2**50):
        with pytest.raises(ValueError, match=f"context must be <= {smodel.MAX_CONTEXT}"):
            ModelConfig(context=bad)
    for bad in ("abc", "48", float("nan"), float("inf"), 0.0, -1.0, True, None):
        with pytest.raises(ValueError, match="logit_scale must be a finite real > 0"):
            ModelConfig(logit_scale=bad)
    for bad in (-1, 1.0, True, "0"):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            ModelConfig(seed=bad)
    cfg = ModelConfig(logit_scale=np.float32(2.5), seed=np.int64(3))
    assert (cfg.logit_scale, cfg.seed) == (2.5, 3)
    with pytest.raises(TypeError, match="quantize_head"):
        ModelConfig(quantize_head=True)  # every linear is packed; no such field
    assert ModelConfig(logit_scale=2).logit_scale == 2


@pytest.mark.parametrize("mode", ["full", "draft"])
def test_joint_qkv_accounting(monkeypatch, mode):
    # One decode or draft forward: q, k and v run as one (1, d, 3d) GEMM per
    # layer through the traced kernel names, every weight is read once, and
    # the PE model replays each GEMM with the kernel's output bits and the
    # traffic the kernel counted.
    m = init_model(ModelConfig(seed=7))
    d, n_layers = m.cfg.d_model, m.cfg.n_layers
    cache = m.new_cache()
    forward_full(m, [1, 2], cache)
    kernel = getattr(smodel, f"gemm_{mode}")
    calls = []

    def counts(t):
        return t.weight_bits, t.scale_bytes, t.activation_bytes

    def spy(a, p, traffic, **kwargs):
        before = counts(traffic)
        out = kernel(a, p, traffic, **kwargs)
        delta = tuple(x - y for x, y in zip(counts(traffic), before))
        calls.append((a, p, out.copy(), delta))  # the forward edits out in place
        return out

    monkeypatch.setattr(smodel, f"gemm_{mode}", spy)
    if mode == "full":
        forward_full(m, [3], cache)
    else:
        forward_draft(m, 3, cache)

    assert [(a.shape[0], p.rows, p.cols) for a, p, _, _ in calls].count((1, d, 3 * d)) == n_layers
    assert sorted(id(p) for _, p, _, _ in calls) == sorted(map(id, m.weights.values()))

    for a, p, out, delta in calls:
        sim, rep = simulate_gemm(a, p, GemmMode(mode))
        assert np.array_equal(sim.view(np.uint32), out.view(np.uint32))
        assert delta == (rep.weight_bits, rep.scale_bytes, rep.activation_bytes)
