"""The model's contracts, checked over seeded random configs."""

from __future__ import annotations

import numpy as np

from speq import _accel
from speq.model import (
    TILE,
    ModelConfig,
    draw_weights,
    forward_full,
    forward_reference,
    init_model,
    load_model,
    save_model,
)
from speq.specdec import SpecDecConfig, greedy_generate, speculative_generate

N_CONFIGS = 40


def _bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.uint32)


def _draw_case(rng):
    """(model config, decoder config, prompt, gen_len): odd and even widths,
    group sizes below and above k, and one prompt in four longer than ``TILE``."""
    n_heads, d_head = int(rng.integers(1, 9)), int(rng.integers(2, 25))
    small_groups = rng.random() < 0.5
    group_size = int(rng.integers(1, 33 if small_groups else 1001))
    gen_len = int(rng.integers(1, 13))
    n_prompt = int(rng.integers(TILE + 1, 140) if rng.random() < 0.25 else rng.integers(1, 21))
    cfg = ModelConfig(
        vocab=int(rng.integers(2, 300)),
        d_model=n_heads * d_head,
        n_layers=int(rng.integers(1, 4)),
        n_heads=n_heads,
        d_ff=int(rng.integers(1, 300)),
        context=int(rng.integers(n_prompt + gen_len, 200)),
        seed=int(rng.integers(0, 2**31)),
        group_size=group_size,
    )
    spec = SpecDecConfig(int(rng.integers(1, 20)), float(rng.choice([0.0, 0.3, 0.6, 0.9])))
    prompt = rng.integers(0, cfg.vocab, n_prompt).tolist()
    return cfg, spec, prompt, gen_len


def test_contracts_hold_across_configs(tmp_path, monkeypatch):
    # counts the multi-row tiles of each layout: the sweep must run both
    ctx, layouts = _accel.attn_ctx_f32, {True: 0, False: 0}

    def counting_ctx(probs, v, n_heads, key_major=False):
        if (probs.shape[-1] if key_major else probs.shape[1]) > 1:
            layouts[key_major] += 1
        return ctx(probs, v, n_heads, key_major=key_major)

    monkeypatch.setattr(_accel, "attn_ctx_f32", counting_ctx)
    # counts the FP16 rounding's calls by route (its result's dtype): both must run
    fp16, routes = _accel.fp16_values, {np.dtype(np.float16): 0, np.dtype(np.float32): 0}

    def counting_fp16(x):
        out = fp16(x)
        routes[out.dtype] += 1
        return out

    monkeypatch.setattr(_accel, "fp16_values", counting_fp16)
    rng = np.random.default_rng(2031)
    cases = [_draw_case(rng) for _ in range(N_CONFIGS)]
    # the draw covers what the contracts are most likely to break on
    cfgs = [c[0] for c in cases]
    assert any(c.d_model % 2 for c in cfgs)
    assert any(c.group_size < min(c.d_model, c.d_ff) for c in cfgs)
    assert any(c.group_size > max(c.d_model, c.d_ff) for c in cfgs)
    assert any(c.d_ff % c.group_size and c.group_size < c.d_ff for c in cfgs)
    assert any(len(c[2]) > TILE for c in cases)

    for i, (cfg, spec, prompt, gen_len) in enumerate(cases):
        m = init_model(cfg)
        full = forward_full(m, prompt, m.new_cache())
        raw = draw_weights(cfg)
        ref = forward_reference(m, prompt, m.new_cache(), raw)
        assert np.array_equal(_bits(full), _bits(ref)), cfg
        last = forward_full(m, prompt, m.new_cache(), last_only=True)
        assert np.array_equal(_bits(last), _bits(full[-1:])), cfg
        out, _ = speculative_generate(m, prompt, spec, gen_len)
        assert out == greedy_generate(m, prompt, gen_len), (cfg, spec)
        save_model(m, tmp_path / str(i))
        loaded = load_model(tmp_path / str(i))
        assert np.array_equal(_bits(forward_full(loaded, prompt, loaded.new_cache())), _bits(full))
    assert layouts[True] and layouts[False], layouts
    assert all(routes.values()), routes
