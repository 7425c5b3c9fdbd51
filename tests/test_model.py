"""Toy model tests: determinism, bit-sharing round trip, path instrumentation."""

from __future__ import annotations

import builtins
import functools
import io
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
from speq import _accel
from speq.container import write_container
from speq.kernels import GemmMode, gemm_full, gemm_traffic
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
print(all(_accel._blas_admits(384, k, n, 128) for k, n in [(64, 192), (64, 64), (64, 256), (256, 64)]))
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
    assert runs[1][2] == "0xfb7d11d7"  # the 384-row prefill crosses attention tiles
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


_TILE = smodel.TILE


@pytest.mark.parametrize(
    "prefix,n,last_only",
    [
        (7, 2 * _TILE + 5, False),  # more than two tiles, the last one partial
        (3, 2 * _TILE, False),  # the window ends on a tile boundary
        (5, _TILE + 1, True),  # a one-row second tile, then the last layer at one row
    ],
)
def test_tiled_window_equals_stepwise(model, prefix, n, last_only):
    # A window wider than TILE runs attention tile by tile over a warm cache
    # (start > 0); each row and the cache must match one-token forwards.
    tokens = np.random.default_rng(n).integers(0, 256, prefix + n).tolist()
    win_cache, step_cache = model.new_cache(), model.new_cache()
    forward_full(model, tokens[:prefix], win_cache)
    win = forward_full(model, tokens[prefix:], win_cache, last_only=last_only)
    rows = [forward_full(model, [t], step_cache)[0] for t in tokens]
    want = np.stack(rows[prefix:])[-1:] if last_only else np.stack(rows[prefix:])
    assert np.array_equal(win.view(np.uint32), want.view(np.uint32))
    assert win_cache.len == step_cache.len == prefix + n
    for name in ("keys", "vals"):
        got, ref = getattr(win_cache, name), getattr(step_cache, name)
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32)), name


# (n_heads, d_head, n, t): a tile one row wider than d_head, over a cached
# prefix and with none (t = n); a full tile over a long context; a full
# tile at a wide head; and tiles that attend to exactly their own rows.
_KEY_MAJOR_TILES = [
    (4, 16, 17, 137),
    (4, 16, 17, 17),
    (2, 8, 9, 40),
    (1, 32, 33, 33),
    (8, 4, 5, 70),
    (4, 16, _TILE, 384),
    (4, 16, _TILE, _TILE),
    (4, 32, _TILE, 100),
]


@pytest.mark.parametrize("spare", [0, 1, 40])
@pytest.mark.parametrize("n_heads,d_head,n,t", _KEY_MAJOR_TILES)
def test_key_major_tail_matches_row_major_and_loop(n_heads, d_head, n, t, spare):
    # The tile's tail on the key-major copy has the bits of the row-major
    # tail and of the per-k loop: row sums from +0.0 in ascending key order,
    # then each context sum in ascending key order. The values are a view
    # into a cache of t + spare positions, as _forward passes them.
    rng = np.random.default_rng([n_heads, d_head, n, t, spare])
    d = n_heads * d_head
    scores = rng.normal(0, 3, (n_heads, n, t)).astype(np.float32)
    scores[:, np.arange(t) > (t - n + np.arange(n))[:, None]] = -np.inf  # causal tails
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    cache = rng.normal(0, 1, (t + spare, d)).astype(np.float16).astype(np.float32)
    cache[rng.random(cache.shape) < 0.05] = -0.0
    vals = cache[:t]

    sums = smodel._accel._loop_f32(e, np.ones((t, 1), dtype=np.float32))[..., 0]
    probs = e / sums[:, :, None]
    want = np.empty((n, d), dtype=np.float32)
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        want[:, cols] = smodel._accel._loop_f32(probs[h], vals[:, cols])
    probs_rm = e / smodel._accel.rowsum_f32(e)[:, :, None]
    row_major = smodel._accel.attn_ctx_f32(probs_rm, vals, n_heads)
    key_major = smodel._key_major_tail(e, vals, n_heads)
    km_sums = smodel._accel.rowsum_f32(np.ascontiguousarray(e.swapaxes(1, 2)), key_major=True)
    assert np.array_equal(km_sums.view(np.uint32), sums.view(np.uint32))
    assert np.array_equal(row_major.view(np.uint32), want.view(np.uint32))
    assert np.array_equal(key_major.view(np.uint32), want.view(np.uint32))


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
    d_head = cfg.d_model // cfg.n_heads
    assert cache.keys.shape == (cfg.n_layers, d_head, cfg.n_heads, 7)
    assert cache.vals.shape == (cfg.n_layers, 7, cfg.d_model)
    for arr in (cache.keys, cache.vals):
        assert arr.dtype == np.float32
    # written values are rounded to FP16 and stored exactly in float32
    k = np.random.default_rng(0).normal(0.0, 1.0, (3, cfg.d_model)).astype(np.float32)
    cache.write(0, 0, k, -k)
    want = k.astype(np.float16).astype(np.float32)
    assert not np.array_equal(want, k)  # the rounding is visible
    cache.len = 3
    cache.rewind(1)
    assert cache.len == 1
    # length is logical: the rows written before the rewind are still stored
    keys = cache.keys[0, ..., :3].T.reshape(3, cfg.d_model)  # back to (positions, d_model)
    assert np.array_equal(keys.view(np.uint32), want.view(np.uint32))
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
    for arr in (cache.keys, cache.vals.swapaxes(-1, -2)):  # positions last
        assert arr.dtype == np.float32
        assert np.any(arr[..., :7] != 0)
        round_trip = arr.astype(np.float16).astype(np.float32)
        assert np.array_equal(arr.view(np.uint32), round_trip.view(np.uint32))


def test_cache_shared_between_paths(model):
    # Draft writes and verification overwrites land in the same arrays.
    cache = model.new_cache()
    forward_full(model, [1, 2], cache)
    keys_obj = cache.keys
    forward_draft(model, 3, cache)
    draft_row = cache.keys[0, ..., 2].copy()
    cache.rewind(2)
    forward_full(model, [3], cache)
    assert cache.keys is keys_obj
    assert not np.array_equal(cache.keys[0, ..., 2], draft_row)  # overwritten


def test_save_load_round_trip(tmp_path, model):
    # the default model, then the draft-heavy bench model, whose w2 has k = 512
    # and so four groups down each column
    heavy = init_model(ModelConfig(d_model=128, d_ff=512, n_layers=4))
    assert heavy.weights["l0.w2"].group_scales.shape == (128, 4)
    for i, m in enumerate((model, heavy)):
        save_model(m, tmp_path / f"m{i}")
        loaded = load_model(tmp_path / f"m{i}")
        assert loaded.cfg == m.cfg
        assert loaded.weights.keys() == m.weights.keys()
        for name, p in m.weights.items():
            q = loaded.weights[name]
            assert q == p
            for attr in ("_full32", "_qval", "group_scales"):
                got, want = getattr(q, attr), getattr(p, attr)
                assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(loaded.embed, m.embed)
        t = [1, 2, 3]
        a = forward_full(m, t, m.new_cache())
        b = forward_full(loaded, t, loaded.new_cache())
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_load_reads_each_linear_through_read_container_once(tmp_path, model, monkeypatch):
    # bench/spans.py times container.read_container as the load's read span
    save_model(model, tmp_path / "m")
    seen = []
    read = smodel.container.read_container

    def counted(path, **kwargs):
        seen.append(Path(path).name)
        return read(path, **kwargs)

    monkeypatch.setattr(smodel.container, "read_container", counted)
    load_model(tmp_path / "m")
    assert sorted(seen) == sorted(f"{n}.speq" for n in model.weights)


def test_load_model_opens_each_container_once(tmp_path, model, monkeypatch):
    # the manifest's CRC is checked against the bytes read_container read
    save_model(model, tmp_path / "m")
    opened, real_open = [], io.open

    def recording_open(file, *args, **kwargs):
        opened.append(os.path.basename(os.fsdecode(file)))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    load_model(tmp_path / "m")
    containers = sorted(n for n in opened if n.endswith(".speq"))
    assert containers == sorted(f"{n}.speq" for n in model.weights)


def test_one_token_forward_runs_no_per_k_loop(model, monkeypatch):
    # one cached key: the scores have one column, which runs on _column_f32
    want = forward_full(model, [7], model.new_cache())  # every probe has run
    loop, calls = _accel._loop_f32, []

    def recording_loop(a, w):
        calls.append(w.shape)
        return loop(a, w)

    monkeypatch.setattr(_accel, "_loop_f32", recording_loop)
    got = forward_full(model, [7], model.new_cache())
    assert calls == []
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("d_model, n_heads", [(15, 3), (9, 1)])
def test_odd_width_model_runs_and_round_trips(tmp_path, d_model, n_heads):
    # the position table of an odd width has one more sine than cosines,
    # so its last column is a sine
    m = init_model(ModelConfig(d_model=d_model, n_heads=n_heads, seed=3))
    angle = np.arange(m.cfg.context) / 10000.0 ** ((d_model - 1) / d_model)
    assert np.array_equal(m.pos[:, -1], np.sin(angle).astype(np.float32))
    t = [1, 2, 3]
    a = forward_full(m, t, m.new_cache())
    assert a.shape == (3, 256) and np.all(np.isfinite(a))
    save_model(m, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
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
    # model.json holds only the config and one CRC per linear. Other
    # top-level keys, such as the layer lists of earlier formats, are
    # ignored; a config that sets the retired "quantize_head" field is a
    # bad config, whatever its value.
    m = init_model(ModelConfig(seed=5))
    d = tmp_path / "m"
    save_model(m, d)
    manifest = json.loads((d / "model.json").read_text())
    assert sorted(manifest) == ["config", "crc32"]
    assert sorted(manifest["crc32"]) == sorted(m.weights)
    assert "head" in m.weights and not m.raw_weights
    manifest.update(packed=sorted(m.weights), raw=[])
    (d / "model.json").write_text(json.dumps(manifest))
    loaded = load_model(d)
    assert loaded.cfg == m.cfg
    assert loaded.weights == m.weights
    assert np.array_equal(loaded.embed.view(np.uint16), m.embed.view(np.uint16))
    for bad in (True, False, 1, "true", None):
        manifest["config"]["quantize_head"] = bad
        (d / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="model.json: bad config .*quantize_head"):
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
        m["crc32"][name] = int.from_bytes((d / f"{name}.speq").read_bytes()[-4:], "little")
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


def _npz_as_embed(d):
    embed = np.load(d / "embed.npy")
    with open(d / "embed.npy", "wb") as f:  # a file object: savez adds no .npz suffix
        np.savez(f, embed=embed)


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
    # np.load returns an open NpzFile, not an array
    "embed-npz": ("embed.npy", _npz_as_embed),
}


@pytest.mark.parametrize("case", sorted(_LOAD_MISMATCHES))
def test_load_model_rejects_mismatch(tmp_path, case, reseal):
    fname, damage = _LOAD_MISMATCHES[case]
    d = tmp_path / "m"
    save_model(init_model(ModelConfig(seed=5)), d)
    load_model(d)
    damage(d)
    if case == "baseline-format":  # a fresh CRC, so the flags byte is what refuses it
        (d / fname).write_bytes(reseal((d / fname).read_bytes()))
    with pytest.raises(ValueError, match=re.escape(fname)):
        load_model(d)


def test_load_model_rejects_malformed_embed(tmp_path, malformed_files):
    # every file the CLI's tensor reader refuses, saved as the embedding
    d = tmp_path / "m"
    save_model(init_model(ModelConfig(seed=5)), d)
    embed = d / "embed.npy"
    for name in malformed_files:
        if name.endswith(".speq"):
            continue
        shutil.copy(tmp_path / name, embed)
        with pytest.raises(ValueError, match=re.escape(str(embed))):
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
    # layer through the traced kernel names, every weight is read once, the
    # PE model replays each GEMM with the kernel's output bits, and the
    # weight bits the model counted over the forward are the sum of the PE
    # reports'.
    m = init_model(ModelConfig(seed=7))
    d, n_layers = m.cfg.d_model, m.cfg.n_layers
    cache = m.new_cache()
    forward_full(m, [1, 2], cache)
    kernel = getattr(smodel, f"gemm_{mode}")
    counter = getattr(m, f"{mode}_traffic")
    calls = []

    def spy(a, p, **kwargs):
        out = kernel(a, p, **kwargs)
        calls.append((a, p, out.copy()))  # the forward edits out in place
        return out

    monkeypatch.setattr(smodel, f"gemm_{mode}", spy)
    before = counter.weight_bits
    if mode == "full":
        forward_full(m, [3], cache)
    else:
        forward_draft(m, 3, cache)
    delta = counter.weight_bits - before

    assert [(a.shape[0], p.rows, p.cols) for a, p, _ in calls].count((1, d, 3 * d)) == n_layers
    assert sorted(id(p) for _, p, _ in calls) == sorted(map(id, m.weights.values()))

    reported = 0
    for a, p, out in calls:
        sim, rep = simulate_gemm(a, p, GemmMode(mode))
        assert np.array_equal(sim.view(np.uint32), out.view(np.uint32))
        reported += rep.weight_bits
    assert delta == reported


@pytest.mark.parametrize("n, last_only", [(1, False), (5, False), (5, True), (70, True)])
def test_forward_traffic_is_the_sum_of_its_gemms(monkeypatch, n, last_only):
    # The counters take one weight-bit count per forward: what gemm_traffic
    # gives for the GEMMs the forward ran, at the rows each ran
    # (a last_only prefill runs the last layer's wo, w1, w2 and head on one).
    # Each weight is read once, so all four cases read the same, and the
    # draft reads a quarter of the full pass's weight bits.
    m = init_model(ModelConfig(n_layers=3, seed=9))
    shapes = []

    def spy(kernel):
        def run(a, p, **kwargs):
            shapes.append((a.shape[0], p.cols, p.rows, p.group_size))
            return kernel(a, p, **kwargs)

        return run

    monkeypatch.setattr(smodel, "gemm_full", spy(smodel.gemm_full))
    monkeypatch.setattr(smodel, "gemm_draft", spy(smodel.gemm_draft))
    cache = m.new_cache()
    forward_full(m, list(range(n)), cache, last_only=last_only)
    full = m.full_traffic
    assert full.weight_bits == sum(gemm_traffic(*s[:3], GemmMode.FULL, s[3])[0] for s in shapes)
    assert sorted({s[0] for s in shapes}) == sorted({1, n} if last_only else {n})
    params = sum(p.rows * p.cols for p in m.weights.values())
    assert full.weight_bits == 16 * params

    shapes.clear()
    forward_draft(m, 3, cache)
    draft = m.draft_traffic
    assert draft.weight_bits == sum(gemm_traffic(*s[:3], GemmMode.DRAFT, s[3])[0] for s in shapes)
    assert 4 * draft.weight_bits == full.weight_bits


@pytest.mark.parametrize("d", [64, 128])
def test_one_row_layernorm_is_its_row_of_the_window(d):
    rng = np.random.default_rng([d, 26])
    x = (rng.normal(0.0, 3.0, (40, d)) + 1.5).astype(np.float32)
    x[1] = 0.75  # a constant row: variance 0
    x[2] = 0.1  # a constant row whose mean rounds
    x[3:14] *= np.float32(1e-3)
    x[14:26] *= np.float32(1e3)
    window = smodel._layernorm(x)
    for i in range(len(x)):
        row = smodel._layernorm(x[i : i + 1])
        assert row.shape == (1, d) and row.dtype == np.float32
        assert np.array_equal(row.view(np.uint32), window[i : i + 1].view(np.uint32)), i
