"""Hot numeric kernels: one fixed accumulation order, three ways to run it.

The order is part of the kernel contract: outputs are bit-reproducible
across runs and thread counts, so no sum may be split along k or
reassociated. Each output is one float32 sum of float32 products, added
in ascending k into a +0.0 output, each multiply and each add rounded on
its own. ``_loop_f32`` is its definition: a Python loop over k,
vectorized over the outputs, that adds each step's products into the
output. It takes leading batch axes, each slice summed on its own.
``gemm_groups`` extends it to the weight GEMMs: sum each group of
consecutive k in that order, multiply the group's sums by its scales (the
draft GEMM's; the full GEMM has none), and add the groups in ascending
order into a +0.0 output. Its kernel sums a stack of groups in one call,
(G, rows, gs) x (G, gs, n) -> (G, rows, n), over views of the operands;
a shorter last group, where k leaves one, takes a second call. The
scales multiply the whole stack at once. It allocates no zeroed output:
the groups are added into the first group's sums, and one final
``+= 0.0`` gives the bits of starting from +0.0, since the two can differ
only in the sign of a zero and that add turns -0.0 into +0.0. The draft's
scales are read as rows: ``PackedTensor`` holds them so that
``group_scales.T``, each group's scale for every column, is C-contiguous.
Two faster kernels run the same order where a probe, checking them
against ``_loop_f32``, shows that they keep it. Each has one consumer:

* ``_sgemm``, OpenBLAS sgemm through one ``np.matmul`` over a stack of
  groups, for the weight GEMMs (``gemm_weights``).
* ``np.einsum``, for attention's scores and context only (``gemm_f32``),
  in a row-major and a key-major layout (below).

Where neither is admitted, ``_loop_f32`` runs: slower, with the same bits.
It is also the weight GEMMs' fallback, the sgemm probe's reference and
``kernels.reference_gemm``'s kernel, so nothing on the weight side depends
on einsum.

``gemm_weights``, which ``kernels.gemm_full`` / ``gemm_draft`` and through
them the PE-array model call, runs ``gemm_groups`` on ``_sgemm`` where
that gives the fixed order's bits, and on ``_loop_f32`` otherwise: one
float32 copy of the activations, one stacked sgemm call (two with a
shorter last group), one scale multiply for the draft, and the group adds:

* Precondition: every product is exact in float32. An FP16 x FP16 product
  has at most 22 significant bits, an FP16 x draft value (±2^e) at most
  11, and their exponents fit. Attention does not meet it: ``q`` and the
  softmax probabilities are float32, their products inexact, and an FMA
  rounds those differently, so attention stays on ``gemm_f32``.
* Why an FMA keeps the bits: a GEMM micro-kernel keeps each output's
  accumulator in a register and adds the products into it in ascending k
  (Goto and van de Geijn, *ACM TOMS* 34(3), 2008). An FMA rounds
  s + x*y once; when x*y is exact, that is the rounding of
  s + round(x*y), the fixed order's multiply-then-add.
* A one-row call runs as two copies of the row. numpy sends a one-row
  product to sgemv, whose dot products reassociate: OpenBLAS 0.3.31
  differed on 197 of 256 outputs at (m, k, n) = (1, 64, 256), FP16
  activations drawn from N(0, 1) and weights from N(0, 0.02).
  ``gemm_weights`` copies the FP16 activations to float32 once per call
  and doubles a one-row call in that same copy, so each stacked slice has
  two rows; it returns the first.
* The probe, not an assumption, admits each call shape, and it runs the
  call it admits. Nothing in the BLAS interface fixes the order: a
  library may split k into blocks or across threads, or switch kernels
  for a narrow shape (OpenBLAS 0.3.31 differed at N = 1, and at N <= 8
  with K >= 64). So ``_blas_admits`` runs ``gemm_groups`` on ``_sgemm``
  once per (rows, k, n, group size) and process, on seeded FP16 operands
  whose exponents span the whole normal range, a one-row call at two rows
  as the hot path runs it: the same stacked calls on the same operand
  shapes. It compares the bits with ``gemm_groups`` on ``_loop_f32``, and
  a call it rejects runs there. The probe's group scales are random powers
  of two, exact in every product, so a kernel that hands back its groups
  out of order fails even at two groups, where their sum alone would
  commute. A stacked kernel that sums each slice in reverse k, pairwise
  or split in two, or runs sgemv row by row, differs from the fixed order
  on at least 46% of a probe's outputs at every call shape of the
  benchmark's workloads, and one that returns its groups last first on at
  least 81% wherever a call has more than one group; a probe has at
  least 128 outputs there. Each call shape is probed once per process.
* A group sum of -0.0, which a kernel that starts from the first product
  would give where every product is -0.0, and a negative group sum times
  a +0.0 draft scale, become +0.0 in the final ``+= 0.0``, so the kernels
  agree there too.

The activations reach ``gemm_weights`` as float16, or as float32 arrays
that hold FP16 values; its copy into the float32 buffer takes either.
``fp16_values`` gives them from float32: an array of fewer than
``FP16_WIDE`` elements by one ``astype(np.float16)``, a wider one by
rounding its float32 bits in uint32 arithmetic: add 0x0FFF plus bit 13, the
lowest bit kept, then clear the low 13 bits. That rounds to nearest, ties
to even, at FP16's 10 fraction bits, which IEEE fixes, and integer
operations have no SIMD variant that could round another way. It is
``astype``'s result wherever FP16 shares float32's exponent. The lanes
where it does not are patched from ``astype``: a nonzero magnitude below
2^-14 (an FP16 subnormal, with fewer fraction bits), one at or above 65520
(which FP16 rounds to Inf) and a non-finite value. A zero rounds exactly
and is not patched.

``gemm_f32``, which only attention calls (``attn_scores_f32``,
``attn_ctx_f32``), runs ``np.einsum("...mk,...kn->...mn", a, w,
optimize=False)`` (``_einsum``). On numpy 2.4.6 its sum-of-products loop
adds each output's products in ascending k into a zeroed output, each
multiply and each add rounded on its own: the fixed order, batch axes
included. A rule and a probe decide where it runs:

* The layout rule (``_einsum_admits``). For a ``w`` that is unit-stride or
  stride-0 along k, or that has one column, einsum takes a dot-product
  loop, which reassociates; those calls take ``_loop_f32``. Evidence from
  sweeps of full-mantissa float32 operands against the loop: of 3,000
  random layouts (m and n 1-19, k 1-299, up to 4 batch slices; C and F
  order, padded, transposed, negative-stride and stride-0 views of either
  operand), none of the 1,637 the rule admits differed, and 586 of the
  1,363 it refuses did. In 1,000 attention layouts (2-8 heads, d_head
  8-32, 1-64 rows, up to 480 keys, cache capacity t, t + 1 or t + 40)
  neither the scores nor the context differed, nor at 20,000 and 50,000
  keys. Every attention call of the benchmark's workloads is admitted:
  the key-cache view strides by n_heads * capacity along k and the value
  view by d_model.
* The probe (``_einsum_in_order``), once per process. Nothing in numpy's
  interface fixes the order: a build may fuse a multiply-add or sum
  another way. The probe compares ``_einsum`` with ``_loop_f32`` on
  seeded full-mantissa float32 operands in attention's three layouts:
  batched heads against a strided key-cache view, against a value view,
  and the key-major context below (at 17 and 64 rows), each with at least
  64 outputs. FP16 operands such as ``_probe_operand``'s have exact
  products and could not show an FMA. If any case differs, every call
  takes ``_loop_f32``.

A sum whose every product is -0.0 gives +0.0 on both paths, since both
add into a zeroed output.

Attention calls these kernels once per query tile of at most
``model.TILE`` = 64 rows, each over only the keys its last row sees
(``model._attend``). ``KvCache`` stores keys as (d_head, n_heads,
positions), so ``attn_scores_f32`` reads them in place. The scores, the
mask, the max and the ``exp`` run row-major, (n_heads, rows, t). The two
sums over the keys that follow run in one of two layouts, chosen by the
tile's shape (``model._attend_tile``):

* Row-major, for tiles of at most d_head rows: ``rowsum_f32`` accumulates
  along each row, and ``attn_ctx_f32`` runs (n_heads, rows, t) x
  (n_heads, t, d_head), einsum's inner loop over d_head.
* Key-major, for tiles of more rows than d_head: one C-contiguous
  (n_heads, t, rows) copy of the exponentials feeds both sums.
  ``rowsum_f32(key_major=True)`` adds whole key rows in ascending order
  (``_key_sum``, ``np.add.reduce`` over axis -2), and
  ``attn_ctx_f32(key_major=True)`` runs a contiguous (n_heads, d_head, t)
  copy of the values times the (n_heads, t, rows) probabilities, so the
  rows are einsum's inner loop. These are the same products added in the
  same ascending-key order as the row-major sums, so the bits are the
  same; the layout rule admits the probabilities, whose stride along k is
  the row count, wherever a tile has more than one row. A short inner
  loop is the slower one, hence the rows-versus-d_head rule.
* The key-major row sum has its own probe (``key_sum_in_order``), once per
  process: it compares ``rowsum_f32`` in both layouts on seeded softmax
  numerators with causal zero tails, an all-(-0.0) row and 150 keys, so
  that a pairwise or reordered reduction differs. Where it fails, every
  tile runs row-major.
"""

from __future__ import annotations

import functools

import numpy as np


def active_backend() -> str:
    """numpy's version, the BLAS that runs the weight GEMMs, as numpy's build
    names it, where attention's sums run, and whether tiles of more rows than
    d_head sum over the keys on a key-major copy."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 takes no mode; a build may omit a key
        name = "an unnamed BLAS"
    sums = "numpy einsum, order-checked" if _einsum_in_order() else "the per-k loop"
    if key_sum_in_order():
        wide = "a key-major copy (add.reduce row sum, order-checked)"
    else:
        wide = "the row-major layout (the key-major row sum failed its probe)"
    return (
        f"numpy {np.__version__}; weight GEMMs on {name} sgemm where order-checked,"
        f" else the per-k loop; attention on {sums}; tiles of more rows than d_head"
        f" sum over keys on {wide}"
    )


# Arrays of at least this many elements are rounded to FP16 on their float32
# bits (``fp16_values``); smaller ones take one float16 cast, whose fixed cost
# is lower.
FP16_WIDE = 2048


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
    three layouts on seeded full-mantissa float32 operands."""
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
    # the key-major context, rows inner: a 17-row window and a full tile
    for rows in (17, 64):
        probs_km = rng.standard_normal((heads, t, rows), dtype=np.float32)
        cases.append((_values_by_head(vals, heads), probs_km))
    return all(
        np.array_equal(_einsum(a, w).view(np.uint32), _loop_f32(a, w).view(np.uint32))
        for a, w in cases
    )


def gemm_f32(a, w):
    """(..., M, K) x (..., K, N) -> float32 (..., M, N), each output one sum
    in ascending k from +0.0: attention's scores and context.

    Leading batch axes are optional; each slice has the bits of its own
    call. Runs ``_einsum`` where ``_einsum_admits`` ``w``'s layout and
    ``_einsum_in_order`` held, otherwise ``_loop_f32``.
    """
    if _einsum_admits(w) and _einsum_in_order():
        return _einsum(a, w)
    return _loop_f32(a, w)


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


def _key_sum(x):
    """Sum over axis -2 of a C-contiguous (h, t, n): whole key rows added
    into the output in ascending order."""
    return np.add.reduce(x, axis=-2)


def rowsum_f32(x, key_major=False):
    """Sum over the keys of (h, n, t), j ascending from +0.0, in float32: (h, n).

    One ``np.add.accumulate`` along j, which is sequential; adding its last
    column to +0.0 turns an all-(-0.0) row's -0.0 into the +0.0 a loop
    started at +0.0 gives. With ``key_major``, ``x`` is the (h, t, n)
    C-contiguous copy instead, summed by ``_key_sum``, for the same bits
    where ``key_sum_in_order`` held. numpy 2.4.6 starts that reduction from
    +0.0; the ``+= 0.0`` gives the same bits where a build starts it from
    the first key row instead.
    """
    if key_major:
        out = _key_sum(x)
        out += _PLUS_ZERO
        return out
    return np.add.accumulate(x, axis=-1)[..., -1] + np.float32(0.0)


@functools.cache
def key_sum_in_order() -> bool:
    """Whether the key-major row sum gave the row-major one's bits on seeded
    softmax numerators: masked tails of +0.0, an all-(-0.0) row, and 150
    keys, so that a pairwise or reordered sum differs."""
    rng = np.random.default_rng(1)
    heads, n, t = 4, 24, 150
    x = rng.random((heads, n, t), dtype=np.float32)
    x[:, np.arange(t) > (t - n + np.arange(n))[:, None]] = 0.0
    x[0, 0] = -0.0
    got = rowsum_f32(np.ascontiguousarray(x.swapaxes(1, 2)), key_major=True)
    return np.array_equal(got.view(np.uint32), rowsum_f32(x).view(np.uint32))


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
