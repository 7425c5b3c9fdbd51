"""Controller tests: accept-length formulas, exact oracle, lossless decoding."""

from __future__ import annotations

import itertools
from fractions import Fraction

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
    # a fractional length gave 1.82 tokens per round, and r=True gave L + 1
    with pytest.raises(ValueError, match="max_draft_len"):
        expected_accept_length(0.5, 2.5)
    with pytest.raises(ValueError, match="^r must be"):
        expected_accept_length(True, 4)


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
        (True, 1, 1), (1, "1", 1),
    ]:
        with pytest.raises(ValueError):
            PerfParams(*times)


def test_speedup_monotone_in_r():
    prev = -1.0
    for r in np.linspace(0.0, 1.0, 21):
        s = expected_speedup(float(r), 16, PerfParams(0.25, 1.0, 1.0))
        assert s >= prev
        prev = s


def _enumerated_accept_length(r: Fraction, L: int) -> Fraction:
    """Exact tokens per round: every one of the 2^L accept/reject patterns,
    weighted by its probability; a round emits its leading accepts plus one."""
    total = Fraction(0)
    for pattern in itertools.product((True, False), repeat=L):
        n_ok = next((i for i, ok in enumerate(pattern) if not ok), L)
        accepts = sum(pattern)
        total += (n_ok + 1) * r**accepts * (1 - r) ** (L - accepts)
    return total


@pytest.mark.parametrize("L", [1, 2, 5, 12])
def test_accept_length_matches_enumeration(L):
    for r in (0.0, 1 / 3, 0.5, 0.9, 1.0):
        exact = _enumerated_accept_length(Fraction(r), L)  # the float r, exactly
        assert expected_accept_length(r, L) == pytest.approx(float(exact), rel=4e-16), r


# ── decoding loops ───────────────────────────────────────────────────────


@pytest.fixture(scope="module")
def model():
    return init_model(ModelConfig(seed=3))


def test_gamma_one_never_drafts():
    # With unscaled logits the top softmax probability is ~1/vocab << 1.
    # The prefill gives the first token, then each round emits one.
    m = init_model(ModelConfig(seed=3, logit_scale=1.0))
    prompt = [5, 17, 200]
    out, stats = speculative_generate(m, prompt, SpecDecConfig(gamma=1.0), 33)
    assert stats.proposed == 0
    assert stats.accept_rate == 0.0
    assert stats.rounds == 32
    assert out == greedy_generate(m, prompt, 33)


_GAMMA0_TOKENS = [233, 37, 172, 172, 72, 168, 62, 62, 62, 62, 62, 62, 240, 242, 249, 249, 249, 249]
_GAMMA0_TOKENS += [249, 106, 212, 212, 242, 177, 17, 233, 233, 172, 236, 236, 108, 108, 152, 152]
_GAMMA0_TOKENS += [152, 152, 72, 72, 17, 17]


@pytest.mark.parametrize("max_draft_len,stats", [(4, (14, 49, 25)), (16, (10, 134, 29))])
def test_gamma_zero_skips_the_draft_softmax(model, monkeypatch, max_draft_len, stats):
    # No top probability is below 0, so gamma = 0 drafts to the length cap
    # without a softmax; the tokens and counts are those of the run that
    # computed it every time.
    def no_softmax(logits):
        raise AssertionError("the draft's softmax ran at gamma = 0")

    monkeypatch.setattr(specdec, "_max_softmax_prob", no_softmax)
    cfg = SpecDecConfig(max_draft_len=max_draft_len, gamma=0.0)
    out, got = speculative_generate(model, [7, 1, 250, 33], cfg, 40)
    assert out == _GAMMA0_TOKENS
    assert (got.rounds, got.proposed, got.accepted) == stats


def test_lossless_on_seeded_prompts(model):
    rng = np.random.default_rng(77)
    cfg = SpecDecConfig()
    for _ in range(20):
        prompt = rng.integers(0, 256, size=int(rng.integers(1, 12))).tolist()
        out, stats = speculative_generate(model, prompt, cfg, 48)
        assert out == greedy_generate(model, prompt, 48)
        assert len(out) == 48
        # every token but the prefill's comes from a round
        assert stats.tokens_generated == stats.accepted + stats.rounds == 47
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
    # 41 = the prefill's token + 8 rounds of L + 1, so no round is capped
    m = _pow2_model(4)
    cfg = SpecDecConfig(max_draft_len=4, gamma=0.0)
    out, stats = speculative_generate(m, [1, 2, 3], cfg, 41)
    assert stats.accept_rate == 1.0
    assert stats.mean_draft_len == 4.0
    assert stats.mean_accept_len == 5.0  # L + 1 per round
    assert out == greedy_generate(m, [1, 2, 3], 41)


def test_last_round_drafts_only_what_can_be_emitted():
    m = _pow2_model(4)
    out, stats = speculative_generate(m, [1, 2, 3], SpecDecConfig(max_draft_len=16, gamma=0.0), 5)
    assert stats == specdec.SpecDecStats(rounds=1, proposed=3, accepted=3)
    assert stats.tokens_generated == 4
    assert out == greedy_generate(m, [1, 2, 3], 5)


class _Forwards(dict):
    """Forward counts by pass, plus the keyword arguments of each full forward."""

    def __init__(self):
        super().__init__(full=0, draft=0)
        self.full_kwargs: list[dict] = []


@pytest.fixture
def forwards(monkeypatch):
    """Count the forwards the decoding loops make, by pass, and record the
    keyword arguments of each full forward."""
    counts = _Forwards()

    def counting(kind, fn):
        def wrapped(*args, **kwargs):
            counts[kind] += 1
            if kind == "full":
                counts.full_kwargs.append(kwargs)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(specdec, "forward_full", counting("full", specdec.forward_full))
    monkeypatch.setattr(specdec, "forward_draft", counting("draft", specdec.forward_draft))
    return counts


def test_first_token_is_one_prefill(model, forwards):
    out, stats = speculative_generate(model, [4, 8, 15, 16], SpecDecConfig(gamma=0.0), 1)
    assert forwards == {"full": 1, "draft": 0}
    assert stats == specdec.SpecDecStats(0, 0, 0)
    assert stats.tokens_generated == 0
    assert out == greedy_generate(model, [4, 8, 15, 16], 1)


def test_greedy_makes_one_forward_per_token(model, forwards):
    for gen_len in (1, 2, 9):
        forwards["full"] = 0
        greedy_generate(model, [4, 8, 15, 16], gen_len)
        assert forwards == {"full": gen_len, "draft": 0}


@pytest.mark.parametrize("decoder", ["greedy", "speculative"])
def test_only_the_prefill_is_last_only(model, forwards, decoder):
    prompt = [4, 8, 15, 16]
    if decoder == "greedy":
        greedy_generate(model, prompt, 9)
    else:
        speculative_generate(model, prompt, SpecDecConfig(max_draft_len=3, gamma=0.0), 9)
    flags = [kw.get("last_only", False) for kw in forwards.full_kwargs]
    assert len(flags) > 1
    assert flags == [True] + [False] * (len(flags) - 1)


def test_greedy_pinned_tokens():
    # pinned from a decoder that ran the last prompt token as its own M=1 forward
    out = greedy_generate(init_model(ModelConfig()), [1, 2, 3, 5, 8, 13, 21, 34], 16)
    assert out == [88, 88, 146, 146, 146, 7, 7, 37, 65, 65, 65, 65, 197, 197, 37, 37]


def test_no_extra_cache_allocated(model, monkeypatch):
    import speq.model as mm

    sizes = []
    orig = mm.ToyModel.new_cache

    def counting(self, *args, **kwargs):
        cache = orig(self, *args, **kwargs)
        sizes.append(cache.positions)
        return cache

    monkeypatch.setattr(mm.ToyModel, "new_cache", counting)
    speculative_generate(model, [1, 2], SpecDecConfig(), 16)
    spec_sizes = sizes.copy()
    sizes.clear()
    greedy_generate(model, [1, 2], 16)
    # one shared cache per run, no draft copy, sized to prompt + gen_len
    assert spec_sizes == sizes == [2 + 16]


def test_context_overflow(model):
    with pytest.raises(ContextOverflowError):
        speculative_generate(model, [1] * 500, SpecDecConfig(), 64)
    with pytest.raises(ContextOverflowError):
        greedy_generate(model, [1] * 500, 64)


def test_bad_args(model):
    with pytest.raises(ValueError):
        speculative_generate(model, [], SpecDecConfig(), 4)
    for gen_len in (0, 2.5, True):
        with pytest.raises(ValueError, match="gen_len"):
            speculative_generate(model, [1], SpecDecConfig(), gen_len)
        with pytest.raises(ValueError, match="gen_len"):
            greedy_generate(model, [1], gen_len)
    with pytest.raises(ValueError):
        SpecDecConfig(gamma=1.5)
    with pytest.raises(ValueError):
        SpecDecConfig(max_draft_len=0)


@pytest.mark.parametrize(
    "bad", [{"max_draft_len": 2.5}, {"max_draft_len": True}, {"gamma": "0.5"}, {"gamma": True}]
)
def test_spec_dec_config_is_typed(bad):
    # max_draft_len=2.5 would draft 3 tokens per round, and True pass as 1
    with pytest.raises(ValueError):
        SpecDecConfig(**bad)
    assert SpecDecConfig(max_draft_len=np.int64(2), gamma=np.float32(0.5)).max_draft_len == 2


@pytest.mark.parametrize("prompt", [[-1], [256], [1.5], [True], [3, True], [[1, 2]], "ab"])
def test_prompt_ids_checked_before_any_forward(model, forwards, prompt):
    with pytest.raises(ValueError, match="prompt token id"):
        greedy_generate(model, prompt, 3)
    with pytest.raises(ValueError, match="prompt token id"):
        speculative_generate(model, prompt, SpecDecConfig(), 3)
    assert forwards == {"full": 0, "draft": 0}


def test_prompt_id_types_accepted(model):
    want = greedy_generate(model, [0, 7, 255], 4)
    for prompt in (b"\x00\x07\xff", np.array([0, 7, 255], dtype=np.uint8), (0, np.int64(7), 255)):
        assert greedy_generate(model, prompt, 4) == want
        assert speculative_generate(model, prompt, SpecDecConfig(), 4)[0] == want


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
