"""Self-speculative decoding controller and its analytic speedup model.

One weight store, two passes, one KV cache. Each decoder allocates a
cache of ``len(prompt) + gen_len`` positions, the most a request can
write, and both passes share it. Both decoders run the full-precision pass
over the whole prompt and take the first token from its last row; that
prefill caches every row's keys and values but computes logits for the
last row only (``forward_full(..., last_only=True)``). Each
round the controller then drafts greedily with the 4-bit view (stopping
early when the draft's top softmax probability drops below gamma, after
``max_draft_len`` tokens, or when no further draft could be emitted within
``gen_len``) and verifies all drafted positions in one full-precision pass.
The longest draft prefix that matches the full model's greedy choices is
kept, plus one token from the verifier (the correction at the first
mismatch, or the bonus token when everything matched). Verification
overwrites the draft's KV entries with full-precision values and the cache
is truncated at the accepted point. A row's logits do not depend on how
many rows share its forward, so the output is exactly greedy decoding's.

The analytic side: with accept rate r and draft length L, the expected
tokens per round is L_a = (1 - r^(L+1)) / (1 - r), and the speedup over plain
autoregressive decoding is L_a * T_ar / (L * T_d + T_v). L_a assumes
each draft is accepted independently with the same r (Leviathan et al.
2023, arXiv:2211.17192).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .model import (
    ContextOverflowError,
    ToyModel,
    check_token_ids,
    forward_draft,
    forward_full,
)
from .quantize import check_int, check_real

__all__ = [
    "SpecDecConfig",
    "SpecDecStats",
    "PerfParams",
    "expected_accept_length",
    "expected_speedup",
    "greedy_generate",
    "speculative_generate",
]


@dataclass(frozen=True)
class SpecDecConfig:
    max_draft_len: int = 16
    gamma: float = 0.6

    def __post_init__(self) -> None:
        # a float length would draft past it (2.5 drafts 3), and True would pass as 1
        object.__setattr__(self, "max_draft_len", check_int("max_draft_len", self.max_draft_len))
        object.__setattr__(self, "gamma", check_real("gamma", self.gamma, 0, 1))


@dataclass
class SpecDecStats:
    rounds: int
    proposed: int
    accepted: int

    @property
    def tokens_generated(self) -> int:
        """Tokens the draft/verify rounds emitted: each round's accepted drafts
        plus its verifier token. The first token comes from the prefill and
        belongs to no round."""
        return self.accepted + self.rounds

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    @property
    def mean_draft_len(self) -> float:
        return self.proposed / self.rounds if self.rounds else 0.0

    @property
    def mean_accept_len(self) -> float:
        """Average tokens emitted per round (accepted drafts + 1)."""
        return self.tokens_generated / self.rounds if self.rounds else 0.0

    def __add__(self, other: SpecDecStats) -> SpecDecStats:
        return SpecDecStats(*(x + y for x, y in zip(astuple(self), astuple(other))))


@dataclass(frozen=True)
class PerfParams:
    t_draft: float
    t_verify: float
    t_ar: float

    def __post_init__(self) -> None:
        for name in ("t_draft", "t_verify", "t_ar"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))


def expected_accept_length(r: float, max_draft_len: int) -> float:
    """Expected tokens per round: sum_{i=0}^{L} r^i, i.e. (1-r^(L+1))/(1-r)."""
    r = check_real("r", r, 0, 1)
    max_draft_len = check_int("max_draft_len", max_draft_len)
    if r == 1.0:
        return float(max_draft_len + 1)
    return (1.0 - r ** (max_draft_len + 1)) / (1.0 - r)


def expected_speedup(r: float, max_draft_len: int, perf: PerfParams) -> float:
    """Speedup over plain autoregressive decoding: L_a*T_ar / (L*T_d + T_v)."""
    la = expected_accept_length(r, max_draft_len)
    return la * perf.t_ar / (max_draft_len * perf.t_draft + perf.t_verify)


# ---------------------------------------------------------------------------
# decoding loops
# ---------------------------------------------------------------------------


def _argmax(logits: np.ndarray) -> int:
    # Ties break to the lowest token index in both paths.
    return int(np.argmax(logits))


def _max_softmax_prob(logits: np.ndarray) -> float:
    m = logits.max()
    e = np.exp(logits - m)
    return float(e.max() / e.sum(dtype=np.float32))


def _check_request(model: ToyModel, prompt, gen_len: int) -> np.ndarray:
    """The prompt's ids as an int64 array, checked before any forward."""
    check_int("gen_len", gen_len)  # a float gen_len would size the cache with a float
    # list() turns bytes into ids and a string into characters, which fail
    ids = check_token_ids(list(prompt), model.cfg.vocab, "prompt token ids")
    if len(ids) + gen_len > model.cfg.context:
        raise ContextOverflowError(
            f"prompt {len(ids)} + gen_len {gen_len} exceeds context {model.cfg.context}"
        )
    return ids


def greedy_generate(model: ToyModel, prompt, gen_len: int) -> list[int]:
    """Plain greedy decoding with the full-precision pass only: the prefill
    gives the first token, then one M=1 forward per further token."""
    ids = _check_request(model, prompt, gen_len)
    cache = model.new_cache(len(ids) + gen_len)
    out = [_argmax(forward_full(model, ids, cache, last_only=True)[0])]
    while len(out) < gen_len:
        out.append(_argmax(forward_full(model, [out[-1]], cache)[0]))
    return out


def speculative_generate(
    model: ToyModel, prompt, cfg: SpecDecConfig, gen_len: int
) -> tuple[list[int], SpecDecStats]:
    """Draft/verify loop; output is identical to :func:`greedy_generate`.
    No round drafts more tokens than ``gen_len`` still leaves room for."""
    ids = _check_request(model, prompt, gen_len)
    cache = model.new_cache(len(ids) + gen_len)
    pending = _argmax(forward_full(model, ids, cache, last_only=True)[0])
    generated = [pending]
    rounds = proposed = accepted = 0

    while len(generated) < gen_len:
        base = cache.len

        # Draft phase: propose while confidence stays at/above gamma. The
        # candidate whose top probability falls below gamma is discarded.
        # No probability is below a gamma of 0, so that softmax is skipped.
        drafts: list[int] = []
        x = pending
        limit = min(cfg.max_draft_len, gen_len - len(generated) - 1)
        while len(drafts) < limit:
            logits = forward_draft(model, x, cache)
            if cfg.gamma and _max_softmax_prob(logits) < cfg.gamma:
                break
            x = _argmax(logits)
            drafts.append(x)

        # Verify phase: one full pass over pending + drafts. Draft-written
        # KV entries are overwritten with full-precision values.
        cache.rewind(base)
        targets = forward_full(model, [pending] + drafts, cache).argmax(axis=1)

        n_ok = 0
        while n_ok < len(drafts) and drafts[n_ok] == int(targets[n_ok]):
            n_ok += 1
        pending = int(targets[n_ok])
        generated += drafts[:n_ok] + [pending]
        cache.rewind(base + n_ok + 1)  # drop rejected positions
        rounds += 1
        proposed += len(drafts)
        accepted += n_ok

    return generated, SpecDecStats(rounds=rounds, proposed=proposed, accepted=accepted)
