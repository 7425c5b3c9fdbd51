"""Tiny deterministic autoregressive transformer over packed weights.

Persistence: ``save_model`` writes one ``.speq`` container per packed
linear layer plus a JSON manifest and the FP16 embedding table;
``load_model`` restores a bit-identical model and rejects, with a
``ValueError`` naming the file, any file whose layer set, shape, group
size, format or dtype does not match the manifest's ``ModelConfig``.

Every linear layer is stored as a :class:`PackedTensor`, so the same
weight object serves two forward passes: ``forward_draft`` routes matmuls
through the 4-bit stream (``gemm_draft``) and ``forward_full`` through the
exact reconstruction (``gemm_full``). Keys/values from both passes land in
one shared, preallocated FP16 cache.

Determinism contract: weights are drawn from a seeded generator, norms and
softmax run in float32 with fixed reduction order, activations are rounded
to FP16 at every GEMM boundary, and the FFN nonlinearity is ReLU — the hot
path contains no transcendentals outside the shared softmax helper, so
logits are bit-reproducible across runs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _accel, container
from .kernels import TrafficCounter, gemm_draft, gemm_full, reference_gemm
from .quantize import PackedTensor, QuantFormat, quantize_tensor

__all__ = [
    "ModelConfig",
    "KvCache",
    "ToyModel",
    "ContextOverflowError",
    "init_model",
    "draw_weights",
    "forward_full",
    "forward_draft",
    "forward_reference",
    "save_model",
    "load_model",
]


class ContextOverflowError(RuntimeError):
    """Requested positions exceed the model's context window."""


@dataclass(frozen=True)
class ModelConfig:
    vocab: int = 256
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    context: int = 512
    seed: int = 0
    group_size: int = 128
    quantize_head: bool = True
    # Confidence knob for untrained weights: logits are multiplied by this
    # constant in both passes, so argmax (and thus the greedy output) is
    # unchanged; only softmax peakedness — what the early-exit threshold
    # sees — depends on it.
    logit_scale: float = 48.0

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")


class KvCache:
    """Shared key/value store, preallocated to the full context window.

    Both the draft and verification passes write into the same buffers;
    there is no second cache for the draft model. ``rewind`` truncates the
    logical length without touching storage.
    """

    def __init__(self, cfg: ModelConfig):
        self.keys = np.zeros((cfg.n_layers, cfg.context, cfg.d_model), dtype=np.float16)
        self.vals = np.zeros_like(self.keys)
        self.len = 0
        self.high_water = 0

    @property
    def capacity_bytes(self) -> int:
        return self.keys.nbytes + self.vals.nbytes

    def rewind(self, n: int) -> None:
        if not 0 <= n <= self.len:
            raise ValueError(f"cannot rewind to {n} (len={self.len})")
        self.len = n

    def write(self, layer: int, start: int, k16: np.ndarray, v16: np.ndarray) -> None:
        end = start + k16.shape[0]
        self.keys[layer, start:end] = k16
        self.vals[layer, start:end] = v16
        self.high_water = max(self.high_water, end)


_LAYER_PARTS = ("wq", "wk", "wv", "wo", "w1", "w2")


def _weight_names(cfg: ModelConfig) -> list[str]:
    names = [f"l{i}.{p}" for i in range(cfg.n_layers) for p in _LAYER_PARTS]
    names.append("head")
    return names


def _weight_shape(cfg: ModelConfig, name: str) -> tuple[int, int]:
    part = name.split(".")[-1]
    d = cfg.d_model
    return {
        "wq": (d, d),
        "wk": (d, d),
        "wv": (d, d),
        "wo": (d, d),
        "w1": (d, cfg.d_ff),
        "w2": (cfg.d_ff, d),
        "head": (d, cfg.vocab),
    }[part]


def draw_weights(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """Seeded FP16 parameter draw: embedding plus every linear, in order."""
    rng = np.random.default_rng(cfg.seed)
    out = {"embed": rng.normal(0.0, 0.02, (cfg.vocab, cfg.d_model)).astype(np.float16)}
    for name in _weight_names(cfg):
        out[name] = rng.normal(0.0, 0.02, _weight_shape(cfg, name)).astype(np.float16)
    return out


def _sinusoidal_positions(context: int, d_model: int) -> np.ndarray:
    pos = np.arange(context, dtype=np.float64)[:, None]
    dim = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * dim / d_model)
    enc = np.zeros((context, d_model), dtype=np.float64)
    enc[:, 0::2] = np.sin(angle)
    enc[:, 1::2] = np.cos(angle)
    return enc.astype(np.float32)


class ToyModel:
    def __init__(
        self,
        cfg: ModelConfig,
        embed: np.ndarray,
        weights: dict[str, PackedTensor],
        raw_weights: dict[str, np.ndarray] | None = None,
    ):
        self.cfg = cfg
        self.embed = embed
        self.weights = weights
        self.raw_weights = raw_weights or {}
        self.pos = _sinusoidal_positions(cfg.context, cfg.d_model)
        self.full_traffic = TrafficCounter()
        self.draft_traffic = TrafficCounter()

    def new_cache(self) -> KvCache:
        return KvCache(self.cfg)

    def _lin_full(self, name: str, a16: np.ndarray) -> np.ndarray:
        w = self.weights.get(name)
        if w is None:
            return reference_gemm(a16, self.raw_weights[name], self.cfg.group_size)
        # Internal activations are finite by construction; skip the check.
        return gemm_full(a16, w, self.full_traffic, validate=False)

    def _lin_draft(self, name: str, a16: np.ndarray) -> np.ndarray:
        w = self.weights.get(name)
        if w is None:
            return reference_gemm(a16, self.raw_weights[name], self.cfg.group_size)
        return gemm_draft(a16, w, self.draft_traffic, validate=False)


def init_model(cfg: ModelConfig) -> ToyModel:
    """Build a model with every linear layer quantized to packed form."""
    raw = draw_weights(cfg)
    embed = raw.pop("embed")
    packed: dict[str, PackedTensor] = {}
    raw_kept: dict[str, np.ndarray] = {}
    for name, w16 in raw.items():
        if name == "head" and not cfg.quantize_head:
            raw_kept[name] = w16
        else:
            packed[name] = quantize_tensor(w16, cfg.group_size, QuantFormat.E3M0_REMAP)
    return ToyModel(cfg, embed, packed, raw_kept)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _layernorm(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True, dtype=np.float32)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True, dtype=np.float32)
    return xc / np.sqrt(var + np.float32(1e-5))


def _f16(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float16)


def _forward(model: ToyModel, tokens: np.ndarray, cache: KvCache, lin) -> np.ndarray:
    cfg = model.cfg
    n = tokens.shape[0]
    start = cache.len
    if start + n > cfg.context:
        raise ContextOverflowError(f"{start + n} positions > context {cfg.context}")
    d_head = cfg.d_model // cfg.n_heads
    att_scale = np.float32(1.0 / np.sqrt(d_head))

    x = model.embed[tokens].astype(np.float32) + model.pos[start : start + n]
    for i in range(cfg.n_layers):
        h16 = _f16(_layernorm(x))
        q = lin(f"l{i}.wq", h16)
        k = lin(f"l{i}.wk", h16)
        v = lin(f"l{i}.wv", h16)
        cache.write(i, start, _f16(k), _f16(v))
        t = start + n
        k_all = cache.keys[i, :t].astype(np.float32)
        v_all = cache.vals[i, :t].astype(np.float32)

        # Causal: query at absolute position start+r sees keys [0, start+r].
        # The softmax denominator is summed sequentially over the key axis
        # (masked tails contribute exact zeros), so a row's probabilities
        # are bit-identical whether it runs alone or inside a wider window.
        mask = np.arange(t)[None, :] > (start + np.arange(n))[:, None]
        scores = _accel.attn_scores_f32(q, k_all, cfg.n_heads)
        scores *= att_scale
        scores[:, mask] = -np.inf
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / _accel.rowsum_f32(e)[:, :, None]
        ctx = _accel.attn_ctx_f32(probs, v_all, cfg.n_heads)
        x = x + lin(f"l{i}.wo", _f16(ctx))

        h16 = _f16(_layernorm(x))
        f = lin(f"l{i}.w1", h16)
        np.maximum(f, np.float32(0.0), out=f)
        x = x + lin(f"l{i}.w2", _f16(f))

    cache.len = start + n
    logits = lin("head", _f16(_layernorm(x)))
    logits *= np.float32(cfg.logit_scale)
    return logits


def forward_full(model: ToyModel, tokens, cache: KvCache) -> np.ndarray:
    """Exact-weights pass over one or more tokens; returns (n, vocab) logits."""
    tokens = np.atleast_1d(np.asarray(tokens, dtype=np.int64))
    return _forward(model, tokens, cache, model._lin_full)


def forward_draft(model: ToyModel, token: int, cache: KvCache) -> np.ndarray:
    """4-bit-weights pass over a single token; returns (vocab,) logits."""
    tokens = np.asarray([token], dtype=np.int64)
    return _forward(model, tokens, cache, model._lin_draft)[0]


def forward_reference(
    model: ToyModel, tokens, cache: KvCache, raw_weights: dict[str, np.ndarray]
) -> np.ndarray:
    """Forward pass over plain FP16 weight arrays (no packed storage)."""
    tokens = np.atleast_1d(np.asarray(tokens, dtype=np.int64))
    gs = model.cfg.group_size
    return _forward(
        model, tokens, cache, lambda name, a16: reference_gemm(a16, raw_weights[name], gs)
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_model(model: ToyModel, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": dataclasses.asdict(model.cfg),
        "packed": sorted(model.weights),
        "raw": sorted(model.raw_weights),
    }
    (d / "model.json").write_text(json.dumps(manifest, indent=2))
    np.save(d / "embed.npy", model.embed)
    for name, p in model.weights.items():
        container.write_container(d / f"{name}.speq", p)
    for name, w in model.raw_weights.items():
        np.save(d / f"{name}.npy", w)


def _load_fp16(path: Path, shape: tuple[int, int]) -> np.ndarray:
    arr = np.load(path)
    if arr.dtype != np.float16 or arr.shape != shape:
        raise ValueError(f"{path}: expected float16 {shape}, got {arr.dtype} {arr.shape}")
    return arr


def _load_packed(path: Path, cfg: ModelConfig, name: str) -> PackedTensor:
    p = container.read_container(path)
    got = ((p.rows, p.cols), p.group_size, p.fmt.value)
    want = (_weight_shape(cfg, name), cfg.group_size, QuantFormat.E3M0_REMAP.value)
    if got != want:
        raise ValueError(f"{path}: (shape, group size, format) is {got}, the manifest needs {want}")
    return p


def load_model(directory) -> ToyModel:
    """Restore a saved model; every file is checked against the manifest's config."""
    d = Path(directory)
    manifest = json.loads((d / "model.json").read_text())
    cfg = ModelConfig(**manifest["config"])
    names = _weight_names(cfg)
    if sorted(manifest["packed"] + manifest["raw"]) != sorted(names):
        raise ValueError(f"{d / 'model.json'}: packed and raw layers must partition {names}")
    embed = _load_fp16(d / "embed.npy", (cfg.vocab, cfg.d_model))
    weights = {name: _load_packed(d / f"{name}.speq", cfg, name) for name in manifest["packed"]}
    raw = {n: _load_fp16(d / f"{n}.npy", _weight_shape(cfg, n)) for n in manifest["raw"]}
    return ToyModel(cfg, embed, weights, raw)
