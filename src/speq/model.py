"""Tiny deterministic autoregressive transformer over packed weights.

Persistence: ``save_model`` writes one ``.speq`` container per linear,
the embedding as an FP16 ``embed.npy`` and ``model.json``: the
``ModelConfig`` and one payload CRC-32 per linear. The layer names and
shapes follow from the config alone. ``load_model`` restores a
bit-identical model and rejects, with a ``ValueError`` naming the file, a
manifest that is not valid JSON, lacks a well-formed config or has CRC
keys other than the config's layer names, any ``.speq`` file that is not
a valid container, an ``embed.npy`` that is unreadable or an ``.npz``
archive, and any file whose shape, group size, dtype or CRC-32 does not match.

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

Attention is causal and runs in query tiles: a window of more than
``TILE`` rows runs tile by tile, and tile rows [r0, r1) attend only to
keys [0, start + r1), where ``start`` is the cache length before the
call. A dropped key is masked for every row of its tile, so skipping it
leaves every bit as one call over all keys would give (``_attend``). The
cache stores keys in score order, (d_head, n_heads, positions) per layer,
so the score kernel reads them in place (``KvCache``).

Each layer's q, k and v projections are one (d, 3d) weight, ``l{i}.qkv``
(as GPT-2 stores ``c_attn``), so they run as one GEMM and are quantized,
saved and held once.

Determinism contract: weights are drawn from a seeded generator, norms and
softmax run in float32 with fixed reduction order, activations are rounded
to FP16 at every GEMM boundary and every key and value cached
(``_accel.fp16_values``, ``astype(np.float16)``'s bits), and the FFN
nonlinearity is ReLU. An FP16 activation is held as float16 or as float32,
by the array's size; a GEMM and the cache take either with the same bits.
The one transcendental on the hot path is the softmax's float32
``np.exp``, called in ``_attend_tile`` and in ``specdec._max_softmax_prob``,
so logits are bit-reproducible across runs.
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
from .kernels import GemmMode, TrafficCounter, gemm_draft, gemm_full, gemm_traffic, reference_gemm
from .quantize import DEFAULT_GROUP_SIZE, PackedTensor, check_int, check_real, quantize_tensor

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
    group_size: int = DEFAULT_GROUP_SIZE
    # Confidence knob for untrained weights: logits are multiplied by this
    # finite constant > 0 in both passes, so argmax (and thus the greedy
    # output) is unchanged; only softmax peakedness — what the early-exit
    # threshold sees — depends on it.
    logit_scale: float = 48.0

    def __post_init__(self) -> None:
        # a float size (say, from a hand-edited model.json) would fail only
        # later, where arrays are allocated; the checks return plain Python
        # numbers, so the config serialises as JSON
        for name in ("vocab", "d_model", "n_layers", "n_heads", "d_ff", "group_size"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        object.__setattr__(self, "context", check_int("context", self.context, hi=MAX_CONTEXT))
        object.__setattr__(self, "seed", check_int("seed", self.seed, lo=0))
        object.__setattr__(self, "logit_scale", check_real("logit_scale", self.logit_scale))
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")


class KvCache:
    """Shared key/value store for ``positions`` tokens (default: the whole
    context window), allocated once.

    Both the draft and verification passes write into the same buffers;
    there is no second cache for the draft model. Storage is float32, but
    every value written is first rounded to FP16, held as float16 or as
    float32; either stores exactly, so the cache holds FP16 values that
    attention reads without a cast.
    ``rewind`` truncates the logical length without touching storage.

    Keys are stored in score order, ``(n_layers, d_head, n_heads,
    positions)``: ``keys[i, j, h, p]`` is column h * d_head + j of position
    p's key, so ``keys[i, ..., :t]`` is the (d_head, n_heads, t) operand
    ``_accel.attn_scores_f32`` reduces over, read in place. Values are
    ``(n_layers, positions, d_model)``, already the context's order.
    """

    def __init__(self, cfg: ModelConfig, positions: int | None = None):
        if positions is None:
            positions = cfg.context
        # more positions than the context would outrun the position table
        positions = check_int("positions", positions, hi=cfg.context)
        d_head = cfg.d_model // cfg.n_heads
        self.keys = np.zeros((cfg.n_layers, d_head, cfg.n_heads, positions), dtype=np.float32)
        self.vals = np.zeros((cfg.n_layers, positions, cfg.d_model), dtype=np.float32)
        self.len = 0

    @property
    def positions(self) -> int:
        return self.vals.shape[1]

    def rewind(self, n: int) -> None:
        self.len = check_int("n", n, lo=0, hi=self.len)

    def write(self, layer: int, start: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store rows ``start:`` of ``layer``, each value rounded to FP16 by
        ``_accel.fp16_values``; its float16 or float32 result stores exactly."""
        end = start + k.shape[0]
        d_head, n_heads = self.keys.shape[1:3]
        self.keys[layer, ..., start:end] = _accel.fp16_values(k).reshape(-1, n_heads, d_head).T
        self.vals[layer, start:end] = _accel.fp16_values(v)


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
    """Position table, computed once per shape and shared (read-only).

    Even columns hold sines and odd columns cosines, so an odd width has
    one more sine than cosines.
    """
    pos = np.arange(context, dtype=np.float64)[:, None]
    dim = np.arange((d_model + 1) // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * dim / d_model)
    enc = np.zeros((context, d_model), dtype=np.float64)
    enc[:, 0::2] = np.sin(angle)
    enc[:, 1::2] = np.cos(angle[:, : d_model // 2])
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
        # A forward reads each linear's weights and scales once, however many
        # rows it runs, so forward_full / forward_draft add to their counter
        # the same (weight bits, scale bytes) every time.
        self.full_traffic = TrafficCounter()
        self.draft_traffic = TrafficCounter()
        held = [weights[name] for name in _weight_names(cfg)]
        self._forward_reads: dict[GemmMode, tuple[int, int]] = {}
        for mode in GemmMode:
            reads = [gemm_traffic(1, p.cols, p.rows, mode, p.group_size)[:2] for p in held]
            self._forward_reads[mode] = tuple(map(sum, zip(*reads)))

    def new_cache(self, positions: int | None = None) -> KvCache:
        return KvCache(self.cfg, positions)


def init_model(cfg: ModelConfig) -> ToyModel:
    """Build a model with every linear layer quantized to packed form."""
    raw = draw_weights(cfg)
    packed = {name: quantize_tensor(raw[name], cfg.group_size) for name in _weight_names(cfg)}
    return ToyModel(cfg, raw["embed"], packed)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


_LN_EPS = np.float32(1e-5)


def _layernorm(x: np.ndarray) -> np.ndarray:
    # add.reduce / n is what float32 ``mean`` computes, without its wrapper
    n = np.float32(x.shape[-1])
    if x.shape[0] == 1:
        # One row: the same reductions over the contiguous 1-D row, and the
        # mean, variance, eps and sqrt on float32 scalars, with the same bits.
        row = x[0]
        xc = row - np.add.reduce(row) / n
        var = np.add.reduce(xc * xc) / n
        xc /= np.sqrt(var + _LN_EPS)
        return xc[None]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    return xc / np.sqrt(var + _LN_EPS)


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
    # checked before the dtype: an empty list converts to a float64 array
    if not ids.size:
        raise ValueError(f"{what}: none given")
    # a bool among ints converts to an int array, so a list's element types
    # are checked too (by a C-level map, not a Python loop)
    if (
        ids.ndim > 1
        or ids.dtype.kind not in "iu"
        or (isinstance(tokens, (list, tuple)) and not _BOOL_TYPES.isdisjoint(map(type, tokens)))
    ):
        raise ValueError(f"{what} must be a flat sequence of integers, got {tokens!r}")
    ids = np.atleast_1d(ids)
    ids64 = ids.astype(np.int64, copy=False)
    # as unsigned, a negative id (and a uint64 id past int64) is >= 2**63
    if np.maximum.reduce(ids64.view(np.uint64)) >= vocab:
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise ValueError(f"{what} must lie in [0, {vocab}), got {bad}")
    return ids64


# Query rows per attention tile: a wider window runs attention tile by
# tile (``_attend``). At 64 rows a 384-row prefill of the default model took
# about two thirds of its untiled time; 32 and 128 rows tied with 64, and 16
# rows, no more than its d_head, run the slower row-major tail (on a 2-vCPU
# host).
TILE = 64


@functools.lru_cache(maxsize=TILE)
def _future_mask(n: int) -> np.ndarray:
    """(n, n), True where row r meets key column c > r: among the last n
    keys, those an n-row window's row r may not see."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _attend_tile(q, keys, vals, n_heads, scale):
    """Causal attention of ``q``'s n rows over the t keys given, the last
    row at position t - 1: row r sees keys [0, t - n + r]. Returns the
    (n, d) context."""
    n = q.shape[0]
    scores = _accel.attn_scores_f32(q, keys, n_heads)
    scores *= scale
    # A single row sees every key and needs no mask.
    if n > 1:
        np.copyto(scores[..., keys.shape[-1] - n :], np.float32(-np.inf), where=_future_mask(n))
    # The softmax overwrites the scores step by step: each step is the op it
    # would be on a fresh array, so the bits are the same. Its denominator
    # is summed sequentially over the key axis (masked tails contribute
    # exact zeros), so a row's probabilities are bit-identical whether it
    # runs alone or inside a wider window.
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    if n > keys.shape[0]:  # keys: (d_head, n_heads, t)
        return _key_major_tail(scores, vals, n_heads)
    scores /= _accel.rowsum_f32(scores)[:, :, None]
    return _accel.attn_ctx_f32(scores, vals, n_heads)


def _key_major_tail(e, vals, n_heads):
    """The rest of a tile of more rows than d_head, from its (n_heads, n, t)
    exponentials ``e``: the (n, d) context.

    Both sums over the keys run on one C-contiguous (n_heads, t, n) copy of
    ``e``, with the rows as einsum's inner loop: the row sum as a ones row
    times it, the context as the values times it. They give the row-major
    sums' bits (``_accel.rowsum_f32``, ``attn_ctx_f32``). Narrower tiles keep
    the row-major layout, where a short inner loop of rows is the slower one.
    """
    e = np.ascontiguousarray(e.swapaxes(1, 2))
    e /= _accel.rowsum_f32(e, key_major=True)[:, None, :]
    return _accel.attn_ctx_f32(e, vals, n_heads, key_major=True)


def _attend(q, keys, vals, n_heads, scale):
    """``_attend_tile``'s (n, d) context, ``TILE`` query rows at a time.

    Tile rows [r0, r1) attend to keys [0, t - n + r1) only. The keys a tile
    leaves out are masked for each of its rows, so they would add only
    exp(-inf) = +0.0 to the row sums and +-0.0 products to the context
    sums; neither changes a nonzero sum, and a zero one still lands in a
    +0.0 output. Every row's bits are those of one call over all keys.
    """
    n, t = q.shape[0], keys.shape[-1]
    if n <= TILE:
        return _attend_tile(q, keys, vals, n_heads, scale)
    ctx = np.empty(q.shape, dtype=np.float32)
    for r0 in range(0, n, TILE):
        end = t - n + min(r0 + TILE, n)
        ctx[r0 : r0 + TILE] = _attend_tile(
            q[r0 : r0 + TILE], keys[..., :end], vals[:end], n_heads, scale
        )
    return ctx


def _forward(
    model: ToyModel, tokens: np.ndarray, cache: KvCache, gemm, weights, last_only: bool = False
) -> np.ndarray:
    """Logits of ``tokens``, each linear ``name`` run as ``gemm(a16,
    weights[name], validate=False)``. ``a16`` holds FP16 values, from
    ``_accel.fp16_values``: float16 for a narrow array, float32 for a wide
    one. With ``validate=False`` the forward vouches for them: they are
    exactly FP16, and finite by construction, so the GEMM skips both checks."""
    cfg = model.cfg
    n = tokens.shape[0]
    start = cache.len
    t = start + n
    if t > cache.positions:
        raise ContextOverflowError(f"{t} positions > cache capacity {cache.positions}")
    d = cfg.d_model
    # math.sqrt and np.sqrt both round the float64 root correctly: the same bits
    att_scale = np.float32(1.0 / math.sqrt(d // cfg.n_heads))

    x = model.embed[tokens].astype(np.float32) + model.pos[start:t]
    for i in range(cfg.n_layers):
        h16 = _accel.fp16_values(_layernorm(x))
        qkv = gemm(h16, weights[f"l{i}.qkv"], validate=False)
        q, k, v = qkv[:, :d], qkv[:, d : 2 * d], qkv[:, 2 * d :]
        cache.write(i, start, k, v)
        if last_only and i == cfg.n_layers - 1:
            # Every row's keys and values are cached; nothing reads the
            # other rows' outputs of the last layer.
            q, x = q[-1:], x[-1:]

        # Causal: the query at position start + r sees keys [0, start + r].
        ctx = _attend(q, cache.keys[i, ..., :t], cache.vals[i, :t], cfg.n_heads, att_scale)
        x = x + gemm(_accel.fp16_values(ctx), weights[f"l{i}.wo"], validate=False)

        h16 = _accel.fp16_values(_layernorm(x))
        f = gemm(h16, weights[f"l{i}.w1"], validate=False)
        np.maximum(f, np.float32(0.0), out=f)
        x = x + gemm(_accel.fp16_values(f), weights[f"l{i}.w2"], validate=False)

    cache.len = t
    logits = gemm(_accel.fp16_values(_layernorm(x)), weights["head"], validate=False)
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
    # gemm_full / gemm_draft are looked up in this module at call time, so a
    # tracer that replaces them here sees every linear.
    logits = _forward(model, tokens, cache, gemm_full, model.weights, last_only)
    model.full_traffic.add(*model._forward_reads[GemmMode.FULL])
    return logits


def forward_draft(model: ToyModel, token: int, cache: KvCache) -> np.ndarray:
    """4-bit-weights pass over a single token; returns (vocab,) logits."""
    tokens = check_token_ids([token], model.cfg.vocab)
    logits = _forward(model, tokens, cache, gemm_draft, model.weights)
    model.draft_traffic.add(*model._forward_reads[GemmMode.DRAFT])
    return logits[0]


def forward_reference(
    model: ToyModel, tokens, cache: KvCache, raw_weights: dict[str, np.ndarray]
) -> np.ndarray:
    """Forward pass over plain FP16 weight arrays (no packed storage)."""
    tokens = check_token_ids(tokens, model.cfg.vocab)
    gs = model.cfg.group_size

    def gemm(a16, w, validate):
        return reference_gemm(a16, w, gs)

    return _forward(model, tokens, cache, gemm, raw_weights)


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
    arr = container.read_npy(path)
    if arr.dtype != np.float16 or arr.shape != shape:
        raise ValueError(f"{path}: expected float16 {shape}, got {arr.dtype} {arr.shape}")
    if not np.isfinite(arr).all():  # a NaN or Inf row would poison every forward that reads it
        raise ValueError(f"{path}: holds a NaN or Inf")
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
    raises a ``ValueError`` naming the file. Other top-level keys are ignored."""
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
    try:
        cfg = ModelConfig(**manifest["config"])
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
