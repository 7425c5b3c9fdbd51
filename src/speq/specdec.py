"""Self-speculative decoding controller and its analytic speedup model.

One weight store, two passes: the controller drafts greedily with the
4-bit view (stopping early when the draft's top softmax probability drops
below gamma or after ``max_draft_len`` tokens), then verifies all drafted
positions in a single full-precision pass. The longest draft prefix that
matches the full model's greedy choices is kept, plus one token from the
verifier (the correction at the first mismatch, or the bonus token when
everything matched). Verification overwrites the draft's KV entries with
full-precision values and the cache is truncated at the accepted point, so
the emitted sequence is exactly what plain greedy decoding would produce.

The analytic side: with accept rate r and draft length L, the expected
tokens per round is (1 - r^(L+1)) / (1 - r), and the speedup over plain
autoregressive decoding is L_a * T_ar / (L * T_d + T_v). A Bernoulli
Monte-Carlo cross-checks the closed form.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .model import ContextOverflowError, ToyModel, forward_draft, forward_full

__all__ = [
    "SpecDecConfig",
    "SpecDecStats",
    "PerfParams",
    "expected_accept_length",
    "expected_speedup",
    "monte_carlo_accept_length",
    "greedy_generate",
    "speculative_generate",
]


@dataclass(frozen=True)
class SpecDecConfig:
    max_draft_len: int = 16
    gamma: float = 0.6

    def __post_init__(self) -> None:
        if self.max_draft_len < 1:
            raise ValueError("max_draft_len must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")


@dataclass
class SpecDecStats:
    rounds: int
    proposed: int
    accepted: int
    tokens_generated: int

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
        if min(self.t_draft, self.t_verify, self.t_ar) <= 0:
            raise ValueError("times must be positive")


def expected_accept_length(r: float, max_draft_len: int) -> float:
    """Expected tokens per round: sum_{i=0}^{L} r^i, i.e. (1-r^(L+1))/(1-r)."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("accept rate must be in [0, 1]")
    if max_draft_len < 1:
        raise ValueError("max_draft_len must be >= 1")
    if r == 1.0:
        return float(max_draft_len + 1)
    return (1.0 - r ** (max_draft_len + 1)) / (1.0 - r)


def expected_speedup(r: float, max_draft_len: int, perf: PerfParams) -> float:
    """Speedup over plain autoregressive decoding: L_a*T_ar / (L*T_d + T_v)."""
    la = expected_accept_length(r, max_draft_len)
    return la * perf.t_ar / (max_draft_len * perf.t_draft + perf.t_verify)


def monte_carlo_accept_length(
    r: float, max_draft_len: int, rounds: int = 1_000_000, seed: int = 0
) -> float:
    """Mean tokens per round under i.i.d. Bernoulli(r) acceptance with cutoff L."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("accept rate must be in [0, 1]")
    rng = np.random.default_rng(seed)
    acc = rng.random((rounds, max_draft_len)) < r
    rejected = ~acc
    run = np.where(rejected.any(axis=1), rejected.argmax(axis=1), max_draft_len)
    return float(np.mean(run + 1))


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


def _check_budget(model: ToyModel, prompt, gen_len: int) -> None:
    if not len(prompt):
        raise ValueError("prompt must be nonempty")
    if gen_len < 1:
        raise ValueError("gen_len must be >= 1")
    if len(prompt) + gen_len > model.cfg.context:
        raise ContextOverflowError(
            f"prompt {len(prompt)} + gen_len {gen_len} exceeds context {model.cfg.context}"
        )


def greedy_generate(model: ToyModel, prompt, gen_len: int) -> list[int]:
    """Plain greedy decoding with the full-precision pass only."""
    _check_budget(model, prompt, gen_len)
    cache = model.new_cache()
    if len(prompt) > 1:
        forward_full(model, list(prompt)[:-1], cache)
    pending = int(prompt[-1])
    out: list[int] = []
    for _ in range(gen_len):
        logits = forward_full(model, [pending], cache)[0]
        pending = _argmax(logits)
        out.append(pending)
    return out


def speculative_generate(
    model: ToyModel, prompt, cfg: SpecDecConfig, gen_len: int
) -> tuple[list[int], SpecDecStats]:
    """Draft/verify loop; output is identical to :func:`greedy_generate`."""
    _check_budget(model, prompt, gen_len)
    cache = model.new_cache()
    if len(prompt) > 1:
        forward_full(model, list(prompt)[:-1], cache)
    pending = int(prompt[-1])
    committed = len(prompt)
    generated: list[int] = []
    rounds = proposed = accepted = 0

    while len(generated) < gen_len:
        base = cache.len  # == committed - 1

        # Draft phase: propose while confidence stays at/above gamma. The
        # candidate whose top probability falls below gamma is discarded.
        drafts: list[int] = []
        x = pending
        limit = min(cfg.max_draft_len, model.cfg.context - committed)
        while len(drafts) < limit:
            logits = forward_draft(model, x, cache)
            if _max_softmax_prob(logits) < cfg.gamma:
                break
            x = _argmax(logits)
            drafts.append(x)

        # Verify phase: one full pass over pending + drafts. Draft-written
        # KV entries are overwritten with full-precision values.
        cache.rewind(base)
        window = [pending] + drafts
        targets = forward_full(model, window, cache).argmax(axis=1)

        n_ok = 0
        while n_ok < len(drafts) and drafts[n_ok] == int(targets[n_ok]):
            n_ok += 1
        emitted = drafts[:n_ok] + [int(targets[n_ok])]
        cache.rewind(base + n_ok + 1)  # drop rejected positions

        pending = emitted[-1]
        committed += len(emitted)
        generated.extend(emitted)
        rounds += 1
        proposed += len(drafts)
        accepted += n_ok

    stats = SpecDecStats(
        rounds=rounds,
        proposed=proposed,
        accepted=accepted,
        tokens_generated=len(generated),
    )
    return generated[:gen_len], stats
