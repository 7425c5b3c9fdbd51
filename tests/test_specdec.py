"""Controller tests: accept-length formulas, Monte-Carlo, lossless decoding."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from speq import specdec
from speq.model import ContextOverflowError, ModelConfig, ToyModel, init_model
from speq.quantize import quantize_tensor
from speq.specdec import (
    PerfParams,
    SpecDecConfig,
    expected_accept_length,
    expected_speedup,
    greedy_generate,
    monte_carlo_accept_length,
    speculative_generate,
)

# ── analytic model ───────────────────────────────────────────────────────


def test_accept_length_formula():
    assert expected_accept_length(0.0, 7) == 1.0
    assert expected_accept_length(0.5, 1) == 1.5
    assert expected_accept_length(1.0, 16) == 17.0


def test_accept_length_domain():
    with pytest.raises(ValueError):
        expected_accept_length(1.1, 4)
    with pytest.raises(ValueError):
        expected_accept_length(-0.1, 4)
    with pytest.raises(ValueError):
        expected_accept_length(0.5, 0)


def test_speedup_reference_point():
    # r=1, L=16, T_d = T_ar/4, T_v = T_ar: 17/5 exactly; only the ratios matter.
    assert expected_speedup(1.0, 16, PerfParams(t_draft=0.25, t_verify=1.0, t_ar=1.0)) == 3.4
    assert expected_speedup(1.0, 16, PerfParams(t_draft=0.5, t_verify=2.0, t_ar=2.0)) == 3.4


def test_speedup_full_cost_draft():
    # Drafting at full cost with nothing accepted: 1/(L+1).
    for L in (4, 8, 16):
        s = expected_speedup(0.0, L, PerfParams(1.0, 1.0, 1.0))
        assert s == pytest.approx(1.0 / (L + 1), rel=1e-12)


def test_speedup_rejects_nonpositive_times():
    nan, inf = float("nan"), float("inf")
    for times in [
        (0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -1.0),
        (nan, 1.0, 1.0), (1.0, nan, 1.0), (1.0, 1.0, nan),
        (inf, 1.0, 1.0), (1.0, inf, 1.0), (1.0, 1.0, -inf),
    ]:
        with pytest.raises(ValueError):
            PerfParams(*times)


def test_speedup_monotone_in_r():
    prev = -1.0
    for r in np.linspace(0.0, 1.0, 21):
        s = expected_speedup(float(r), 16, PerfParams(0.25, 1.0, 1.0))
        assert s >= prev
        prev = s


def test_monte_carlo_three_sigma():
    rounds = 200_000
    for r, L in [(0.5, 4), (0.9, 8), (0.977, 16)]:
        la = expected_accept_length(r, L)
        mc = monte_carlo_accept_length(r, L, rounds, seed=9)
        # Worst-case std of (1 + truncated geometric) is < L; 3 sigma bound.
        assert abs(mc - la) < 3 * L / np.sqrt(rounds)


def test_monte_carlo_extremes():
    assert monte_carlo_accept_length(0.0, 8, 1000, 0) == 1.0
    assert monte_carlo_accept_length(1.0, 8, 1000, 0) == 9.0


def test_monte_carlo_domain():
    for L, rounds in [(0, 10), (8, 0)]:
        with pytest.raises(ValueError):
            monte_carlo_accept_length(0.5, L, rounds, 0)


def _one_draw_accept_length(r, L, rounds, seed):
    acc = np.random.default_rng(seed).random((rounds, L)) < r
    rejected = ~acc
    run = np.where(rejected.any(axis=1), rejected.argmax(axis=1), L)
    return float(np.mean(run + 1))


def test_monte_carlo_chunks_equal_one_draw(monkeypatch):
    # Same stream, same mean, bit for bit, over several chunks (last one short).
    rounds = 2 * (specdec.MC_CHUNK_VALUES // 16) + 999
    got = monte_carlo_accept_length(0.9, 16, rounds, 4)
    assert got == _one_draw_accept_length(0.9, 16, rounds, 4)
    monkeypatch.setattr(specdec, "MC_CHUNK_VALUES", 1000)
    for r, L, rounds in [(0.5, 4, 2501), (0.977, 16, 1000), (0.3, 1, 3000), (0.7, 2000, 5)]:
        got = monte_carlo_accept_length(r, L, rounds, 3)
        assert got == _one_draw_accept_length(r, L, rounds, 3), (r, L, rounds)


def test_monte_carlo_memory_bounded():
    # speq perf's defaults: 1,000,000 rounds at L=16 (one draw took 143 MiB)
    tracemalloc.start()
    try:
        monte_carlo_accept_length(0.8, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ── decoding loops ───────────────────────────────────────────────────────


@pytest.fixture(scope="module")
def model():
    return init_model(ModelConfig(seed=3))


def test_gamma_one_never_drafts():
    # With unscaled logits the top softmax probability is ~1/vocab << 1.
    m = init_model(ModelConfig(seed=3, logit_scale=1.0))
    prompt = [5, 17, 200]
    out, stats = speculative_generate(m, prompt, SpecDecConfig(gamma=1.0), 32)
    assert stats.proposed == 0
    assert stats.accept_rate == 0.0
    assert stats.rounds == 32
    assert out == greedy_generate(m, prompt, 32)


def test_lossless_on_seeded_prompts(model):
    rng = np.random.default_rng(77)
    cfg = SpecDecConfig()
    for _ in range(20):
        prompt = rng.integers(0, 256, size=int(rng.integers(1, 12))).tolist()
        out, stats = speculative_generate(model, prompt, cfg, 48)
        assert out == greedy_generate(model, prompt, 48)
        assert len(out) == 48
        assert 0.0 <= stats.accept_rate <= 1.0
        assert stats.mean_accept_len <= stats.mean_draft_len + 1.0


def _pow2_model(seed: int) -> ToyModel:
    """Model whose weight groups share one power-of-two magnitude, so the
    draft GEMM is exact and draft logits equal full logits bit for bit."""
    from speq.model import draw_weights

    cfg = ModelConfig(seed=seed)
    raw = draw_weights(cfg)
    embed = raw.pop("embed")
    packed = {}
    rng = np.random.default_rng(seed + 1)
    for name, w in raw.items():
        sign = rng.integers(0, 2, w.shape).astype(np.uint16)
        exp = np.uint16(11)  # all weights +/- 2^-4
        bits = (sign << 15) | (exp << 10)
        packed[name] = quantize_tensor(bits.view(np.float16), cfg.group_size)
    return ToyModel(cfg, embed, packed)


def test_exact_draft_accepts_everything():
    m = _pow2_model(4)
    cfg = SpecDecConfig(max_draft_len=4, gamma=0.0)
    out, stats = speculative_generate(m, [1, 2, 3], cfg, 40)
    assert stats.accept_rate == 1.0
    assert stats.mean_draft_len == 4.0
    assert stats.mean_accept_len == 5.0  # L + 1 per round
    assert out == greedy_generate(m, [1, 2, 3], 40)


def test_no_extra_cache_allocated(model, monkeypatch):
    import speq.model as mm

    counts = {"n": 0}
    orig = mm.ToyModel.new_cache

    def counting(self):
        counts["n"] += 1
        return orig(self)

    monkeypatch.setattr(mm.ToyModel, "new_cache", counting)
    speculative_generate(model, [1, 2], SpecDecConfig(), 16)
    spec_caches = counts["n"]
    counts["n"] = 0
    greedy_generate(model, [1, 2], 16)
    assert spec_caches == counts["n"] == 1  # one shared cache per run, no draft copy


def test_context_overflow(model):
    with pytest.raises(ContextOverflowError):
        speculative_generate(model, [1] * 500, SpecDecConfig(), 64)
    with pytest.raises(ContextOverflowError):
        greedy_generate(model, [1] * 500, 64)


def test_bad_args(model):
    with pytest.raises(ValueError):
        speculative_generate(model, [], SpecDecConfig(), 4)
    with pytest.raises(ValueError):
        speculative_generate(model, [1], SpecDecConfig(), 0)
    with pytest.raises(ValueError):
        SpecDecConfig(gamma=1.5)
    with pytest.raises(ValueError):
        SpecDecConfig(max_draft_len=0)


def test_near_context_boundary(model):
    # prompt + gen_len == context exactly: drafting clamps, output stays lossless.
    ctx = model.cfg.context
    prompt = [7] * (ctx - 24)
    out, _ = speculative_generate(model, prompt, SpecDecConfig(), 24)
    assert out == greedy_generate(model, prompt, 24)


def test_determinism(model):
    cfg = SpecDecConfig()
    a1, s1 = speculative_generate(model, [9, 9, 9], cfg, 40)
    a2, s2 = speculative_generate(model, [9, 9, 9], cfg, 40)
    assert a1 == a2
    assert s1 == s2
