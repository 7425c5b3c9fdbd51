"""Toy model tests: determinism, bit-sharing round trip, path instrumentation."""

from __future__ import annotations

import json
import re
import shutil
import zlib

import numpy as np
import pytest

from speq.container import write_container
from speq.model import (
    ContextOverflowError,
    KvCache,
    ModelConfig,
    draw_weights,
    forward_draft,
    forward_full,
    forward_reference,
    init_model,
    load_model,
    save_model,
)
from speq.quantize import QuantFormat, exponent_histogram, quantize_tensor


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


def test_windowed_equals_stepwise(model):
    # Verification windows must reproduce single-token logits bit-exactly;
    # this is what makes speculative decoding lossless.
    tokens = [3, 1, 4, 1, 5, 9, 2, 6]
    win_cache = model.new_cache()
    win = forward_full(model, tokens, win_cache)
    step_cache = model.new_cache()
    rows = [forward_full(model, [t], step_cache)[0] for t in tokens]
    assert np.array_equal(win.view(np.uint32), np.stack(rows).view(np.uint32))


def test_draft_reads_only_draft_stream():
    m = init_model(ModelConfig(seed=6))
    cache = m.new_cache()
    forward_draft(m, 1, cache)
    forward_draft(m, 2, cache)
    for name, p in m.weights.items():
        assert p.wr_touches == 0, name
        assert p.wq_touches > 0, name
    forward_full(m, [3], cache)
    assert all(p.wr_touches > 0 for p in m.weights.values())


def test_full_path_matches_unquantized_reference(model):
    # End-to-end bit-sharing: packed weights reconstruct exactly, so the
    # full pass equals a forward over the never-quantized FP16 weights.
    raw = draw_weights(model.cfg)
    raw.pop("embed")
    tokens = [11, 22, 33]
    got = forward_full(model, tokens, model.new_cache())
    ref = forward_reference(model, tokens, model.new_cache(), raw)
    assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))


def test_quantize_head_flag():
    m = init_model(ModelConfig(seed=5, quantize_head=False))
    assert "head" not in m.weights
    assert "head" in m.raw_weights
    logits = forward_full(m, [1, 2], m.new_cache())
    assert logits.shape == (2, 256)


def test_context_overflow_in_forward(model):
    cache = model.new_cache()
    with pytest.raises(ContextOverflowError):
        forward_full(model, list(range(200)) * 3, cache)


def test_kv_cache_semantics():
    cfg = ModelConfig(seed=0)
    cache = KvCache(cfg)
    assert cache.capacity_bytes == 2 * cfg.n_layers * cfg.context * cfg.d_model * 2
    k = np.ones((3, cfg.d_model), dtype=np.float16)
    cache.write(0, 0, k, k)
    cache.len = 3
    assert cache.high_water == 3
    cache.rewind(1)
    assert cache.len == 1
    assert cache.high_water == 3  # storage was touched, length is logical
    with pytest.raises(ValueError):
        cache.rewind(5)


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


def _drop_l1_w2(d):
    m = json.loads((d / "model.json").read_text())
    m["packed"].remove("l1.w2")
    (d / "model.json").write_text(json.dumps(m))


def _list_l0_wq_as_raw_too(d):
    m = json.loads((d / "model.json").read_text())
    m["raw"].append("l0.wq")
    (d / "model.json").write_text(json.dumps(m))


def _repack_l0_wq(d, group_size, fmt=QuantFormat.E3M0_REMAP):
    w = np.random.default_rng(0).normal(0.0, 0.02, (64, 64)).astype(np.float16)
    write_container(d / "l0.wq.speq", quantize_tensor(w, group_size, fmt))


def _resave(path, change):
    np.save(path, change(np.load(path)))


def _to_float32(a):
    return a.astype(np.float32)


# Each case damages one file of a saved model (head kept as a raw FP16
# array); the error must name that file.
_LOAD_MISMATCHES = {
    "missing-layer": ("model.json", _drop_l1_w2),
    "layer-packed-and-raw": ("model.json", _list_l0_wq_as_raw_too),
    "wrong-shape": ("l0.wq.speq", lambda d: shutil.copy(d / "l0.w1.speq", d / "l0.wq.speq")),
    "wrong-group-size": ("l0.wq.speq", lambda d: _repack_l0_wq(d, 32)),
    "baseline-format": ("l0.wq.speq", lambda d: _repack_l0_wq(d, 128, QuantFormat.E2M1)),
    "embed-dtype": ("embed.npy", lambda d: _resave(d / "embed.npy", _to_float32)),
    "embed-shape": ("embed.npy", lambda d: _resave(d / "embed.npy", lambda a: a[1:])),
    "raw-dtype": ("head.npy", lambda d: _resave(d / "head.npy", _to_float32)),
    "raw-shape": ("head.npy", lambda d: _resave(d / "head.npy", lambda a: a.T)),
}


@pytest.mark.parametrize("case", sorted(_LOAD_MISMATCHES))
def test_load_model_rejects_mismatch(tmp_path, case):
    fname, damage = _LOAD_MISMATCHES[case]
    d = tmp_path / "m"
    save_model(init_model(ModelConfig(seed=5, quantize_head=False)), d)
    load_model(d)
    damage(d)
    with pytest.raises(ValueError, match=re.escape(fname)):
        load_model(d)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=30, n_heads=4)
