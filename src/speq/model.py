"""Tiny deterministic autoregressive transformer over packed weights.

Persistence: ``save_model`` writes one ``.speq`` container per linear,
the embedding as an FP16 ``embed.npy`` and ``model.json``: the
``ModelConfig`` and one payload CRC-32 per linear. The layer names and
shapes follow from the config alone. ``load_model`` restores a
bit-identical model and rejects, with a ``ValueError`` naming the file, a
manifest that is not valid JSON, lacks a well-formed config or has CRC
keys other than the config's layer names, any ``.speq`` file that is not
a valid container, an unreadable ``embed.npy``, and any file whose shape,
group size, dtype or CRC-32 does not match.

Every linear layer is stored as a :class:`PackedTensor`, so the same
weight object serves two forward passes: ``forward_draft`` routes matmuls
through the 4-bit draft values (``gemm_draft``) and ``forward_full``
through the exact weights (``gemm_full``). Keys/values from both passes
land in one shared, preallocated cache: float32 arrays that hold
FP16-rounded values, so attention reads them without a cast and sees the
same bits an FP16 store would give. The decoders size it to the request.

``forward_full(..., last_only=True)`` is the prefill the decoders run:
every layer computes q, k and v for every row and caches the keys and
values, since later forwards attend to all of them, but the last layer's
attention, ``wo``, MLP, final layernorm and ``head`` run for the last row
alone, the only row whose logits are read. A row's outputs do not depend
on how many rows share its forward, so that row is bit-identical to the
last row of the default call.

Each layer's q, k and v projections are one (d, 3d) weight, ``l{i}.qkv``
(as GPT-2 stores ``c_attn``), so they run as one GEMM and are quantized,
saved and held once.

Determinism contract: weights are drawn from a seeded generator, norms and
softmax run in float32 with fixed reduction order, activations are rounded
to FP16 at every GEMM boundary, and the FFN nonlinearity is ReLU — the hot
path contains no transcendentals outside the shared softmax helper, so
logits are bit-reproducible across runs.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _accel, container
from .kernels import TrafficCounter, gemm_draft, gemm_full, reference_gemm
from .quantize import PackedTensor, quantize_tensor

__all__ = [
    "ModelConfig",
    "KvCache",
    "ToyModel",
    "ContextOverflowError",
    "init_model",
    "draw_weights",
    "check_token_ids",
    "forward_full",
    "forward_draft",
    "forward_reference",
    "save_model",
    "load_model",
]


class ContextOverflowError(RuntimeError):
    """Requested positions exceed the model's context window."""


def _is_int(v) -> bool:
    """An integer, numpy's too; not a bool, which would pass as 0 or 1."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A real number, numpy's too; not a bool."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


# No file's shape depends on ``context``, so this bound is what keeps a
# manifest from asking for a position table and KV cache of any size.
MAX_CONTEXT = 65536


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
    # Confidence knob for untrained weights: logits are multiplied by this
    # finite constant > 0 in both passes, so argmax (and thus the greedy
    # output) is unchanged; only softmax peakedness — what the early-exit
    # threshold sees — depends on it.
    logit_scale: float = 48.0

    def __post_init__(self) -> None:
        sizes = ("vocab", "d_model", "n_layers", "n_heads", "d_ff", "context", "group_size")
        for name in sizes:
            # a float size (say, from a hand-edited model.json) would fail
            # only later, where arrays are allocated
            v = getattr(self, name)
            if not _is_int(v):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        small = [name for name in sizes if getattr(self, name) < 1]
        if small:
            raise ValueError(f"{', '.join(small)} must be >= 1")
        if self.context > MAX_CONTEXT:
            raise ValueError(f"context must be <= {MAX_CONTEXT}, got {self.context}")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        seed = self.seed
        if not _is_int(seed) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        ls = self.logit_scale
        if not (_is_real(ls) and math.isfinite(ls) and ls > 0):
            raise ValueError(f"logit_scale must be a finite real > 0, got {ls!r}")
        # numpy scalars become plain Python values, so the config serialises as JSON
        for name in (*sizes, "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "logit_scale", float(ls))


class KvCache:
    """Shared key/value store for ``positions`` tokens (default: the whole
    context window), allocated once.

    Both the draft and verification passes write into the same buffers;
    there is no second cache for the draft model. Storage is float32, but
    every value written is first rounded to FP16: FP16 -> float32 is exact,
    so the cache holds FP16 values that attention reads without a cast.
    ``rewind`` truncates the logical length without touching storage.
    """

    def __init__(self, cfg: ModelConfig, positions: int | None = None):
        if positions is None:
            positions = cfg.context
        # more positions than the context would outrun the position table
        if not 1 <= positions <= cfg.context:
            raise ValueError(f"positions must be in [1, {cfg.context}], got {positions}")
        self.keys = np.zeros((cfg.n_layers, positions, cfg.d_model), dtype=np.float32)
        self.vals = np.zeros_like(self.keys)
        self.len = 0

    @property
    def positions(self) -> int:
        return self.keys.shape[1]

    def rewind(self, n: int) -> None:
        if not 0 <= n <= self.len:
            raise ValueError(f"cannot rewind to {n} (len={self.len})")
        self.len = n

    def write(self, layer: int, start: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store rows ``start:`` of ``layer``, each value rounded to FP16."""
        end = start + k.shape[0]
        self.keys[layer, start:end] = _f16(k)
        self.vals[layer, start:end] = _f16(v)


_LAYER_PARTS = ("qkv", "wo", "w1", "w2")


def _weight_names(cfg: ModelConfig) -> list[str]:
    names = [f"l{i}.{p}" for i in range(cfg.n_layers) for p in _LAYER_PARTS]
    names.append("head")
    return names


def _weight_shape(cfg: ModelConfig, name: str) -> tuple[int, int]:
    part = name.split(".")[-1]
    d = cfg.d_model
    return {
        "qkv": (d, 3 * d),
        "wo": (d, d),
        "w1": (d, cfg.d_ff),
        "w2": (cfg.d_ff, d),
        "head": (d, cfg.vocab),
    }[part]


def draw_weights(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """Seeded FP16 parameter draw: embedding plus every linear, in order.

    ``qkv`` is drawn as three (d, d) blocks, q then k then v, joined
    column-wise.
    """
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d_model
    out = {"embed": rng.normal(0.0, 0.02, (cfg.vocab, d)).astype(np.float16)}
    for name in _weight_names(cfg):
        blocks = [(d, d)] * 3 if name.endswith(".qkv") else [_weight_shape(cfg, name)]
        out[name] = np.hstack([rng.normal(0.0, 0.02, b).astype(np.float16) for b in blocks])
    return out


@functools.lru_cache(maxsize=8)
def _sinusoidal_positions(context: int, d_model: int) -> np.ndarray:
    """Position table, computed once per shape and shared (read-only)."""
    pos = np.arange(context, dtype=np.float64)[:, None]
    dim = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * dim / d_model)
    enc = np.zeros((context, d_model), dtype=np.float64)
    enc[:, 0::2] = np.sin(angle)
    enc[:, 1::2] = np.cos(angle)
    out = enc.astype(np.float32)
    out.flags.writeable = False
    return out


class ToyModel:
    def __init__(self, cfg: ModelConfig, embed: np.ndarray, weights: dict[str, PackedTensor]):
        self.cfg = cfg
        self.embed = embed
        self.weights = weights
        # always empty: every linear is packed; bench/speqbench.py::resident_bytes reads it
        self.raw_weights: dict[str, np.ndarray] = {}
        self.pos = _sinusoidal_positions(cfg.context, cfg.d_model)
        self.full_traffic = TrafficCounter()
        self.draft_traffic = TrafficCounter()

    def new_cache(self, positions: int | None = None) -> KvCache:
        return KvCache(self.cfg, positions)

    # gemm_full / gemm_draft are looked up in this module at call time, so a
    # tracer that replaces them here sees every linear.
    def _lin_full(self, name: str, a16: np.ndarray) -> np.ndarray:
        # Internal activations are finite by construction; skip the check.
        return gemm_full(a16, self.weights[name], self.full_traffic, validate=False)

    def _lin_draft(self, name: str, a16: np.ndarray) -> np.ndarray:
        return gemm_draft(a16, self.weights[name], self.draft_traffic, validate=False)


def init_model(cfg: ModelConfig) -> ToyModel:
    """Build a model with every linear layer quantized to packed form."""
    raw = draw_weights(cfg)
    packed = {name: quantize_tensor(raw[name], cfg.group_size) for name in _weight_names(cfg)}
    return ToyModel(cfg, raw["embed"], packed)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _layernorm(x: np.ndarray) -> np.ndarray:
    # add.reduce / n is what float32 ``mean`` computes, without its wrapper
    n = np.float32(x.shape[-1])
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    return xc / np.sqrt(var + np.float32(1e-5))


def _f16(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float16)


_BOOL_TYPES = frozenset((bool, np.bool_))


def check_token_ids(tokens, vocab: int, what: str = "token ids") -> np.ndarray:
    """``tokens`` as a 1-D int64 array, or a ``ValueError`` naming ``what``.

    A scalar is one id. Each id must be an integer, not a bool, in
    ``[0, vocab)``: otherwise a float would be truncated, a negative id
    would index the embedding from its end and a too-large one would fail
    mid-forward. The checks are array-wide, so a long prompt runs no
    Python loop over its ids.
    """
    ids = np.asarray(tokens)
    # a bool among ints converts to an int array, so a list's element types
    # are checked too (by a C-level map, not a Python loop)
    if (
        ids.ndim > 1
        or ids.dtype.kind not in "iu"
        or (isinstance(tokens, (list, tuple)) and not _BOOL_TYPES.isdisjoint(map(type, tokens)))
    ):
        raise ValueError(f"{what} must be a flat sequence of integers, got {tokens!r}")
    ids = np.atleast_1d(ids)
    if not ids.size:
        raise ValueError(f"{what}: none given")
    ids64 = ids.astype(np.int64, copy=False)
    # as unsigned, a negative id (and a uint64 id past int64) is >= 2**63
    if np.maximum.reduce(ids64.view(np.uint64)) >= vocab:
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise ValueError(f"{what} must lie in [0, {vocab}), got {bad}")
    return ids64


def _forward(
    model: ToyModel, tokens: np.ndarray, cache: KvCache, lin, last_only: bool = False
) -> np.ndarray:
    cfg = model.cfg
    n = tokens.shape[0]
    start = cache.len
    t = start + n
    if t > cache.positions:
        raise ContextOverflowError(f"{t} positions > cache capacity {cache.positions}")
    d = cfg.d_model
    d_head = d // cfg.n_heads
    att_scale = np.float32(1.0 / np.sqrt(d_head))
    # Causal: query at absolute position start+r sees keys [0, start+r].
    # A single query row is the last position, t-1, and sees every key,
    # so only a wider window builds and applies the mask.
    mask = np.arange(t)[None, :] > np.arange(start, t)[:, None] if n > 1 else None

    x = model.embed[tokens].astype(np.float32) + model.pos[start:t]
    for i in range(cfg.n_layers):
        h16 = _f16(_layernorm(x))
        qkv = lin(f"l{i}.qkv", h16)
        q, k, v = qkv[:, :d], qkv[:, d : 2 * d], qkv[:, 2 * d :]
        cache.write(i, start, k, v)
        if last_only and i == cfg.n_layers - 1:
            # Every row's keys and values are cached; nothing reads the
            # other rows' outputs of the last layer.
            # The kept row is position t-1, which needs no mask.
            q, x, mask = q[-1:], x[-1:], None

        scores = _accel.attn_scores_f32(q, cache.keys[i, :t], cfg.n_heads)
        scores *= att_scale
        # The softmax denominator is summed sequentially over the key axis
        # (masked tails contribute exact zeros), so a row's probabilities
        # are bit-identical whether it runs alone or inside a wider window.
        if mask is not None:
            scores[:, mask] = -np.inf
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / _accel.rowsum_f32(e)[:, :, None]
        ctx = _accel.attn_ctx_f32(probs, cache.vals[i, :t], cfg.n_heads)
        x = x + lin(f"l{i}.wo", _f16(ctx))

        h16 = _f16(_layernorm(x))
        f = lin(f"l{i}.w1", h16)
        np.maximum(f, np.float32(0.0), out=f)
        x = x + lin(f"l{i}.w2", _f16(f))

    cache.len = t
    logits = lin("head", _f16(_layernorm(x)))
    logits *= np.float32(cfg.logit_scale)
    return logits


def forward_full(model: ToyModel, tokens, cache: KvCache, *, last_only: bool = False) -> np.ndarray:
    """Exact-weights pass over one or more tokens; returns (n, vocab) logits.

    With ``last_only`` it returns the last row's logits alone, as (1, vocab),
    bit-identical to the last row of the default call. Every layer still
    writes every row's keys and values into the cache, so later forwards
    see the same cache either way; the last layer then runs attention,
    ``wo``, the MLP, the final layernorm and ``head`` for the last row only.
    """
    tokens = check_token_ids(tokens, model.cfg.vocab)
    return _forward(model, tokens, cache, model._lin_full, last_only)


def forward_draft(model: ToyModel, token: int, cache: KvCache) -> np.ndarray:
    """4-bit-weights pass over a single token; returns (vocab,) logits."""
    tokens = check_token_ids([token], model.cfg.vocab)
    return _forward(model, tokens, cache, model._lin_draft)[0]


def forward_reference(
    model: ToyModel, tokens, cache: KvCache, raw_weights: dict[str, np.ndarray]
) -> np.ndarray:
    """Forward pass over plain FP16 weight arrays (no packed storage)."""
    tokens = check_token_ids(tokens, model.cfg.vocab)
    gs = model.cfg.group_size
    return _forward(
        model, tokens, cache, lambda name, a16: reference_gemm(a16, raw_weights[name], gs)
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_model(model: ToyModel, directory) -> None:
    """Write a model directory; the manifest is serialised before any file is written."""
    d = Path(directory)
    blobs = {name: container.to_bytes(model.weights[name]) for name in _weight_names(model.cfg)}
    # a container ends with its payload CRC-32
    crcs = {name: int.from_bytes(blobs[name][-4:], "little") for name in sorted(blobs)}
    manifest = json.dumps({"config": dataclasses.asdict(model.cfg), "crc32": crcs}, indent=2)
    d.mkdir(parents=True, exist_ok=True)
    for name, blob in blobs.items():
        (d / f"{name}.speq").write_bytes(blob)
    np.save(d / "embed.npy", model.embed)
    (d / "model.json").write_text(manifest)


def _load_fp16(path: Path, shape: tuple[int, int]) -> np.ndarray:
    try:
        arr = np.load(path)
    except (ValueError, EOFError) as e:  # not a .npy file, or truncated or empty
        raise ValueError(f"{path}: not a readable .npy file ({e})") from e
    if arr.dtype != np.float16 or arr.shape != shape:
        raise ValueError(f"{path}: expected float16 {shape}, got {arr.dtype} {arr.shape}")
    return arr


def _load_packed(path: Path, cfg: ModelConfig, name: str, crc: int) -> PackedTensor:
    try:
        p = container.read_container(path)
    except container.ContainerError as e:
        raise container.ContainerError(f"{path}: {e}") from e
    got = ((p.rows, p.cols), p.group_size)
    want = (_weight_shape(cfg, name), cfg.group_size)
    if got != want:
        raise ValueError(f"{path}: (shape, group size) is {got}, the manifest needs {want}")
    # read_container checked the stored CRC against the payload; this catches
    # a valid container of the same shape saved under another layer's name.
    if container.read_crc(path) != crc:
        raise ValueError(f"{path}: payload CRC-32 differs from the manifest's {crc:#010x}")
    return p


def _read_manifest(path: Path) -> tuple[ModelConfig, dict]:
    """(config, CRC of each linear) from ``model.json``; any malformed part
    raises a ``ValueError`` naming the file. Other top-level keys are ignored.

    Manifests from before the raw head was removed carry
    ``"quantize_head": true`` in the config; that key is dropped, and any
    other value of it is rejected."""
    try:
        manifest = json.loads(path.read_text())
    except ValueError as e:  # bad JSON or bad UTF-8
        raise ValueError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: expected a JSON object")
    missing = [key for key in ("config", "crc32") if key not in manifest]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    if not isinstance(manifest["config"], dict):
        raise ValueError(f"{path}: config must be an object")
    config = dict(manifest["config"])
    if "quantize_head" in config and config.pop("quantize_head") is not True:
        raise ValueError(f"{path}: a raw FP16 head is no longer supported (quantize_head)")
    try:
        cfg = ModelConfig(**config)
    except (TypeError, ValueError) as e:  # unknown field, wrong type, bad size
        raise ValueError(f"{path}: bad config ({e})") from e
    crcs, names = manifest["crc32"], _weight_names(cfg)
    if (
        not isinstance(crcs, dict)
        or sorted(crcs) != sorted(names)
        or not all(type(c) is int for c in crcs.values())
    ):
        raise ValueError(f"{path}: crc32 must map exactly the layers {names} to CRCs")
    return cfg, crcs


def load_model(directory) -> ToyModel:
    """Restore a saved model; every file is checked against the manifest's config."""
    d = Path(directory)
    cfg, crcs = _read_manifest(d / "model.json")
    embed = _load_fp16(d / "embed.npy", (cfg.vocab, cfg.d_model))
    weights = {n: _load_packed(d / f"{n}.speq", cfg, n, crcs[n]) for n in _weight_names(cfg)}
    return ToyModel(cfg, embed, weights)
