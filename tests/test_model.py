"""Toy model tests: determinism, bit-sharing round trip, path instrumentation."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

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
from speq.quantize import dequantize_full, exponent_histogram


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
        h = exponent_histogram(dequantize_full(p))
        assert h.frac_unused == 0.0, name
        assert p.tensor_scale == 1.0


def test_bit_sharing_round_trip(model):
    raw = draw_weights(model.cfg)
    raw.pop("embed")
    for name, p in model.weights.items():
        assert np.array_equal(
            dequantize_full(p).view(np.uint16), raw[name].view(np.uint16)
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


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=30, n_heads=4)
