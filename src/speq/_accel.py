"""Hot numeric kernels: one fixed accumulation order, three ways to run it.

The order is part of the kernel contract: outputs are bit-reproducible
across runs and thread counts, so no sum may be split along k or
reassociated. Each output is one float32 sum of float32 products, added
in ascending k into a +0.0 output, each multiply and each add rounded on
its own. ``_loop_f32`` is its definition: a Python loop over k,
vectorized over the outputs, each leading batch slice summed on its own.
``gemm_groups`` extends it to the weight GEMMs: sum each group of
consecutive k in that order, multiply the group sums by the draft's
scales, and add the groups in ascending order; one final ``+= 0.0`` gives
the bits of starting from +0.0, since the two differ only in the sign of
a zero. Two faster kernels run the same order where a memoised probe,
checking them against ``_loop_f32``, shows that they keep it. Elsewhere
``_loop_f32`` runs: slower, with the same bits. It is also
``kernels.reference_gemm``'s kernel, so no weight GEMM depends on einsum.

* ``_sgemm``, OpenBLAS sgemm through one ``np.matmul`` over a stack of
  groups, for the weight GEMMs (``gemm_weights``). Every product there is
  exact in float32: FP16 x FP16 has at most 22 significant bits, FP16 x a
  draft value (±2^e) at most 11. An FMA's one rounding of s + x*y is then
  the fixed order's multiply-then-add, and a GEMM micro-kernel adds each
  output's products into a register in ascending k (Goto and van de Geijn,
  *ACM TOMS* 34(3), 2008). A one-row call runs as two copies of the row:
  numpy sends one row to sgemv, which reassociates. Nothing in the BLAS
  interface fixes the order, so ``_blas_admits`` runs the hot path's own
  stacked calls once per (rows, k, n, group size) and process, on seeded
  FP16 operands spanning the normal range, with random power-of-two group
  scales so that groups returned out of order show. A shape it rejects
  runs on ``_loop_f32``.
* ``np.einsum("...mk,...kn->...mn", optimize=False)`` (``_einsum``), for
  attention only (``gemm_f32``): its products are float32 and inexact, so
  an FMA would round them differently, and they stay off sgemm. numpy's
  sum-of-products loop adds each output's products in ascending k into a
  zeroed output. The layout rule (``_einsum_admits``) refuses a ``w`` with
  one column, or unit or zero stride along k, where einsum takes a
  dot-product loop that reassociates. A one-column ``w`` (the scores of a
  one-key attention) runs as one multiply and one sequential
  ``np.add.accumulate`` along k (``_column_f32``), as ``rowsum_f32`` sums.
  The probe (``_einsum_in_order``) runs once per process on seeded
  full-mantissa float32 operands in every layout attention uses: the scores
  against a strided key-cache view, the row-major context against a value
  view, and the key-major context and row sum (below) at 17 and 64 rows. If
  any case differs, every call with more than one column takes ``_loop_f32``.

``fp16_values`` gives the FP16 values of float32 activations with
``astype(np.float16)``'s bits: below ``FP16_WIDE`` elements by that cast,
at or above it as float32, by rounding the float32 bits in uint32
arithmetic: add 0x0FFF plus bit 13, the lowest bit kept, then clear the
low 13 bits. That rounds to nearest, ties to even, at FP16's 10 fraction
bits wherever FP16 shares float32's exponent. The other lanes (a nonzero
magnitude below 2^-14, one from 65520 on, a non-finite value) are patched
from ``astype``. ``gemm_weights`` takes either dtype.

Attention runs once per query tile of at most ``model.TILE`` rows, over
the keys its last row sees (``model._attend``), reading the cached
(d_head, n_heads, t) keys in place. The scores, the mask, the max and the
``exp`` run (n_heads, rows, t). The two sums over the keys run in one of
two layouts, chosen by the tile's shape (``model._attend_tile``):

* Row-major, for tiles of at most d_head rows: ``rowsum_f32`` runs one
  sequential ``np.add.accumulate`` along each row, and ``attn_ctx_f32``
  runs (n_heads, rows, t) x (n_heads, t, d_head).
* Key-major, for tiles of more rows than d_head: one C-contiguous
  (n_heads, t, rows) copy of the exponentials feeds both sums, each a
  ``gemm_f32`` call with the rows as einsum's inner loop. The row sum is a
  ones row times the copy, whose products 1.0 * e are exact; the context
  is a (n_heads, d_head, t) copy of the values times it. Both are the
  row-major sums in the same ascending-key order, with the same bits.

A sum whose every product is -0.0 gives +0.0 on every path.
"""

from __future__ import annotations

import functools

import numpy as np


def active_backend() -> str:
    """numpy's version, the BLAS that runs the weight GEMMs, as numpy's build
    names it, and where attention's sums run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 takes no mode; a build may omit a key
        name = "an unnamed BLAS"
    sums = "numpy einsum, order-checked" if _einsum_in_order() else "the per-k loop"
    return (
        f"numpy {np.__version__}; weight GEMMs on {name} sgemm where order-checked,"
        f" else the per-k loop; attention on {sums}"
    )


# Arrays of at least this many elements are rounded to FP16 on their float32
# bits (``fp16_values``); smaller ones take one float16 cast, whose fixed cost
# is lower. Measured on a 2-vCPU host: the cast wins at 17 x 128 (draft-heavy's
# verify windows, and their key / value column views) and at 33 x 64, the wide
# route from 64 x 64 up.
FP16_WIDE = 4096


def _constant(value, dtype=np.uint32):
    """A read-only 0-d array, not a scalar: numpy converts a scalar operand
    on every call."""
    out = np.array(value, dtype=dtype)
    out.flags.writeable = False
    return out


_ONE, _THIRTEEN = _constant(1), _constant(13)
_ROUND_UP = _constant(0x0FFF)  # plus the lowest bit kept: rounds half to even
_KEEP = _constant(0xFFFFE000)  # sign, exponent and FP16's 10 fraction bits
# FP16's limits as float32 bits shifted left by one, which drops the sign:
# below 2^-14 a value is an FP16 subnormal, and from 65520 on it rounds past
# 65504 to Inf. Less one, a zero wraps to the top, above every limit.
_NORMAL2_LESS1 = _constant((0x38800000 << 1) - 1)
_OVERFLOW2 = _constant(0x477FF000 << 1)


def fp16_values(x):
    """The FP16 values of float32 ``x``, with ``x.astype(np.float16)``'s bits:
    that float16 array below ``FP16_WIDE`` elements, else a float32 array
    holding them.

    The wide route rounds the bits (see the module docstring) with two
    uint32 temporaries of ``x``'s size, and patches from ``astype`` only the
    lanes it would get wrong: FP16 subnormals, overflows and non-finite
    values. A zero is exact and no such lane.
    """
    if x.size < FP16_WIDE:
        return x.astype(np.float16)
    bits = x.view(np.uint32)
    out = np.right_shift(bits, _THIRTEEN)
    np.bitwise_and(out, _ONE, out=out)
    np.add(out, bits, out=out)
    np.add(out, _ROUND_UP, out=out)
    np.bitwise_and(out, _KEEP, out=out)
    out = out.view(np.float32)
    mag = np.left_shift(bits, _ONE)
    over = np.maximum.reduce(mag, None) >= _OVERFLOW2
    np.subtract(mag, _ONE, out=mag)
    if over or np.minimum.reduce(mag, None) < _NORMAL2_LESS1:
        patch = np.less(mag, _NORMAL2_LESS1)
        if over:
            np.add(mag, _ONE, out=mag)
            patch |= mag >= _OVERFLOW2
        out[patch] = x[patch].astype(np.float16)
    return out


def _sgemm(a, w):
    """``a @ w`` for a float32 stack of groups, (G, rows, gs) x (G, gs, n) ->
    (G, rows, n), through sgemm, in one ``np.matmul`` call.

    numpy runs one sgemm per slice, reading each slice of ``a`` in place (a
    column block of the activations, strided by their row length). Every
    call has at least two rows: numpy sends a one-row slice to sgemv, which
    reassociates the sum, so ``gemm_weights`` doubles a one-row call first.
    """
    return np.matmul(a, w)


def _probe_operand(rng, shape):
    """Random FP16 values as float32: any sign, any normal exponent, any significand."""
    bits = rng.integers(0x0400, 0x7C00, shape, dtype=np.uint16)
    bits |= rng.integers(0, 2, shape, dtype=np.uint16) << 15
    return bits.view(np.float16).astype(np.float32)


@functools.cache
def _blas_admits(m: int, k: int, n: int, group_size: int) -> bool:
    """Whether ``gemm_groups`` on ``_sgemm`` gave ``_loop_f32``'s bits for an
    (m, k) x (k, n) call on the probe operands.

    It runs the hot path's own calls: the same stacks, with a one-row call
    at two rows as ``gemm_weights`` runs it. The group scales are random
    powers of two, exact in every product, so a kernel that returns its
    groups out of order fails even where adding them would commute.
    """
    rng = np.random.default_rng([m, k, n, group_size])
    a, w = _probe_operand(rng, (max(m, 2), k)), _probe_operand(rng, (k, n))
    exps = rng.integers(-8, 9, (-(-k // group_size), n), dtype=np.int32)
    # (n, G) with contiguous rows per group, as PackedTensor holds its scales
    scales = np.ldexp(np.float32(1.0), exps).T
    got = gemm_groups(_sgemm, a, w, group_size, scales)
    want = gemm_groups(_loop_f32, a, w, group_size, scales)
    return np.array_equal(got.view(np.uint32), want.view(np.uint32))


def gemm_weights(a_in, w, group_size, scales=None):
    """``gemm_groups`` over FP16 activations ``a_in`` (float16, or float32
    holding FP16 values) and a C-contiguous float32 weight operand whose
    every product with them is exact in float32.

    The activations are copied into one float32 buffer, a cast for float16;
    a one-row call is doubled in that same copy and its first row returned,
    so ``_sgemm`` never meets sgemv. The groups run on ``_sgemm`` when
    ``_blas_admits`` the call's shape (one lookup per call), otherwise on
    ``_loop_f32``.
    """
    m, k = a_in.shape
    a = np.empty((max(m, 2), k), dtype=np.float32)
    a[...] = a_in  # one row fills both
    kernel = _sgemm if _blas_admits(m, k, w.shape[1], group_size) else _loop_f32
    return gemm_groups(kernel, a, w, group_size, scales)[:m]


_PLUS_ZERO = _constant(0.0, np.float32)


def gemm_groups(kernel, a, w, group_size, scales=None):
    """(M,K) x (K,N) -> float32 (M,N) in the fixed accumulation order.

    ``kernel`` sums a stack of groups, (G, M, gs) x (G, gs, N) ->
    (G, M, N), each group's ``gs`` consecutive k in ascending order. The
    stacks are views of ``a`` and ``w``: one call covers every full group,
    and a shorter last group, where K leaves one, takes a second call.
    ``scales`` (shape (N, n_groups)) multiplies group g's sums by
    ``scales[:, g]``, read as the row ``scales.T[g]``, in one multiply; the
    groups are added in ascending g into the first group's sums, and one
    final ``+= 0.0`` gives the bits of adding every group into a +0.0
    output: the two differ only in the sign of a zero, and that add turns
    -0.0 into +0.0.
    """
    m, k = a.shape
    if k <= group_size:
        sums = kernel(a[None], w[None])
    else:
        whole = k - k % group_size
        stack = a[:, :whole].reshape(m, -1, group_size).swapaxes(0, 1)
        sums = kernel(stack, w[:whole].reshape(-1, group_size, w.shape[1]))
        if whole < k:
            sums = np.concatenate((sums, kernel(a[None, :, whole:], w[None, whole:])))
    if scales is not None:
        sums *= scales.T[:, None, :]
    out = sums[0]
    for g in range(1, len(sums)):
        out += sums[g]
    out += _PLUS_ZERO
    return out


def _loop_f32(a, w):
    """The fixed order itself: (..., M, K) x (..., K, N), one step per k, each
    step's products added into a +0.0 float32 output."""
    out = np.zeros((*a.shape[:-1], w.shape[-1]), dtype=np.float32)
    for i in range(a.shape[-1]):
        out += np.multiply(a[..., i : i + 1], w[..., i : i + 1, :])
    return out


def _einsum(a, w):
    """numpy's sum-of-products loop over (..., M, K) x (..., K, N)."""
    return np.einsum("...mk,...kn->...mn", a, w, optimize=False)


def _einsum_admits(w) -> bool:
    """The layout rule: einsum reassociates for a ``w`` with one column, or
    unit-stride or stride-0 along k."""
    return w.shape[-1] > 1 and w.strides[-2] not in (0, w.itemsize)


@functools.cache
def _einsum_in_order() -> bool:
    """Whether ``_einsum`` gave ``_loop_f32``'s bits in each of attention's
    layouts on seeded full-mantissa float32 operands."""
    rng = np.random.default_rng(0)
    heads, dh, n, t, capacity = 4, 16, 5, 37, 41
    qkv = rng.standard_normal((n, 3 * heads * dh), dtype=np.float32)
    q = qkv[:, : heads * dh].reshape(n, heads, dh).swapaxes(0, 1)
    keys = rng.standard_normal((dh, heads, capacity), dtype=np.float32)[..., :t]
    probs = rng.standard_normal((heads, n, t), dtype=np.float32)
    vals = rng.standard_normal((capacity, heads * dh), dtype=np.float32)[:t]
    cases = [
        (q, keys.swapaxes(0, 1)),  # as ``attn_scores_f32`` reads the key cache
        (probs, vals.reshape(t, heads, dh).swapaxes(0, 1)),  # as ``attn_ctx_f32``
    ]
    # the key-major context and row sum, rows inner: a 17-row window and a full tile
    for rows in (17, 64):
        probs_km = rng.standard_normal((heads, t, rows), dtype=np.float32)
        cases.append((_values_by_head(vals, heads), probs_km))
        cases.append((np.ones((heads, 1, t), dtype=np.float32), probs_km))
    return all(
        np.array_equal(_einsum(a, w).view(np.uint32), _loop_f32(a, w).view(np.uint32))
        for a, w in cases
    )


def gemm_f32(a, w):
    """(..., M, K) x (..., K, N) -> float32 (..., M, N), each output one sum
    in ascending k from +0.0: attention's scores and context.

    Leading batch axes are optional; each slice has the bits of its own
    call. A ``w`` of one column runs on ``_column_f32``; otherwise runs
    ``_einsum`` where ``_einsum_admits`` ``w``'s layout and
    ``_einsum_in_order`` held, else ``_loop_f32``.
    """
    if w.shape[-1] == 1 and w.shape[-2]:
        return _column_f32(a, w)
    if _einsum_admits(w) and _einsum_in_order():
        return _einsum(a, w)
    return _loop_f32(a, w)


def _column_f32(a, w):
    """The fixed order for a ``w`` of one column and k >= 1: every product in
    one multiply, then one sequential ``np.add.accumulate`` along k, whose
    last column plus +0.0 is the sum from +0.0, as in ``rowsum_f32``."""
    prods = np.multiply(a, w.swapaxes(-1, -2))
    return np.add.accumulate(prods, axis=-1)[..., -1:] + _PLUS_ZERO


def attn_scores_f32(q, k, n_heads):
    """Per-head q·k^T, (n, d) x (d_head, n_heads, t) -> (n_heads, n, t), heads
    as the batch axis.

    ``k`` holds the keys in score order, ``k[j, h, p]`` = key p's column
    h * d_head + j: the (d_head, n_heads, t) layout ``KvCache`` stores, read
    in place as a view into the cache.
    """
    dh = k.shape[0]
    qh = q.reshape(q.shape[0], n_heads, dh).swapaxes(0, 1)  # (H, n, dh)
    return gemm_f32(qh, k.swapaxes(0, 1))


def rowsum_f32(x, key_major=False):
    """Sum over the keys of (h, n, t), j ascending from +0.0, in float32: (h, n).

    One ``np.add.accumulate`` along j, which is sequential; adding its last
    column to +0.0 turns an all-(-0.0) row's -0.0 into the +0.0 a loop
    started at +0.0 gives. With ``key_major``, ``x`` is the (h, t, n)
    C-contiguous copy instead, summed as a ones row times it on
    ``gemm_f32``: each product is exact, so the bits are the same.
    """
    if key_major:
        h, t, _ = x.shape
        return gemm_f32(np.ones((h, 1, t), dtype=np.float32), x)[:, 0]
    return np.add.accumulate(x, axis=-1)[..., -1] + np.float32(0.0)


def _values_by_head(v, n_heads):
    """(t, d) values as a C-contiguous (n_heads, d_head, t) copy."""
    t, d = v.shape
    return np.ascontiguousarray(v.reshape(t, n_heads, d // n_heads).transpose(1, 2, 0))


def attn_ctx_f32(probs, v, n_heads, key_major=False):
    """Per-head probs·v, (n_heads, n, t) x (t, d) -> (n, d), heads as the batch axis.

    With ``key_major``, ``probs`` is the (n_heads, t, n) C-contiguous copy,
    and the same products run in the same ascending-key order as
    (n_heads, d_head, t) x (n_heads, t, n): the rows are einsum's inner loop.
    """
    t, d = v.shape
    if key_major:
        ctx = gemm_f32(_values_by_head(v, n_heads), probs)  # (H, dh, n)
        return ctx.transpose(2, 0, 1).reshape(probs.shape[-1], d)
    ctx = gemm_f32(probs, v.reshape(t, n_heads, d // n_heads).swapaxes(0, 1))
    return ctx.swapaxes(0, 1).reshape(probs.shape[1], d)
