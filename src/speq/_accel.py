"""Hot numeric kernels: one fixed accumulation order, three ways to run it.

``gemm_f32`` is the reference for the accumulation order. The attention
reductions below call it, and so does ``kernels.reference_gemm``; the
weight GEMMs (``kernels.gemm_full`` / ``gemm_draft``) call ``gemm_weights``,
which gives ``gemm_f32``'s bits; the PE-array model reuses the GEMMs. The
order, in float32: ascending k within a group starting from +0.0, one
scale per group, then ascending group index. That order is part of the
kernel contract — outputs are bit-reproducible across runs and thread
counts — so it may not be split along k or reassociated.

``gemm_weights`` runs each group as one OpenBLAS sgemm where that gives
the same bits:

* Precondition: every product is exact in float32. An FP16 x FP16 product
  has at most 22 significant bits, an FP16 x draft value (±2^e) at most
  11, and their exponents fit. Attention does not meet it: ``q`` and the
  softmax probabilities are float32, their products inexact, and an FMA
  rounds those differently, so attention stays on ``gemm_f32``.
* Why an FMA keeps the bits: a GEMM micro-kernel keeps each output's
  accumulator in a register and adds the products into it in ascending k
  (Goto and van de Geijn, *ACM TOMS* 34(3), 2008). An FMA rounds
  s + x*y once; when x*y is exact, that is the rounding of
  s + round(x*y), which is ``gemm_f32``'s multiply-then-add.
* A one-row call runs as two copies of the row (``_sgemm``). numpy sends
  a one-row product to sgemv, whose dot products reassociate: OpenBLAS
  0.3.31 differed on 197 of 256 outputs at (m, k, n) = (1, 64, 256),
  FP16 activations drawn from N(0, 1) and weights from N(0, 0.02).
* The probe, not an assumption, admits each shape. Nothing in the BLAS
  interface fixes the order: a library may split k into blocks or across
  threads, or switch kernels for a narrow shape (OpenBLAS 0.3.31 differed
  at N = 1, and at N <= 8 with K >= 64). So ``_blas_in_order`` runs ``_sgemm`` once per
  (rows, k, n) group shape and process, on seeded FP16 operands whose
  exponents span the whole normal range, and compares its bits with
  ``gemm_f32``'s. A call runs on BLAS only when every group shape
  matched; otherwise the whole call runs ``gemm_f32``. A reversed,
  pairwise or k-split sum, or sgemv, differs from the fixed order on at
  least 40% of a probe's outputs at every weight shape of the benchmark's
  workloads, and a probe has at least 64 outputs there. A probe costs
  about one ``gemm_f32`` call at its shape, so the first call at a new
  shape costs about what every call at it cost before.
* Each group's sum is scaled and added into a +0.0-initialised output, as
  in ``gemm_f32``, so a -0.0 group sum gives +0.0 either way.

Measured on the 2-vCPU host, OpenBLAS 0.3.31 on one thread, means of 50
calls, ``gemm_f32`` against ``_sgemm``: 195 against 9 us at
(17, 64, 256), 967 against 45 us at (17, 128, 512), 32 against 6 us at
(1, 64, 256), and 4.7 against 0.12 ms at (384, 64, 192).

``gemm_f32`` evaluates the order with two strategies, chosen by output size:

* block path, 2 <= m*n <= ``REDUCE_MAX_OUTPUTS`` (attention at decode,
  and the weight GEMMs of decode steps and verify windows when they fall
  back): build each group's
  (k, m, n) product block and sum it with ``np.add.reduce(..., axis=0)``.
  On a C-contiguous block that axis is the outer loop of the reduction,
  so each output is summed in ascending k, vectorized over the m*n
  outputs. A group is cut along k into chunks of at most ``BLOCK_MAX``
  products; the running sum is added into row 0 of the next chunk, which
  keeps the order sequential and bounds the memory a block takes.
* loop path, every other output (a single output, a 384-row prefill's
  weight GEMMs when they fall back):
  loop in Python over k, vectorized over the outputs, from one (m, n)
  buffer per group.

``gemm_f32`` also takes a batch axis, (B, m, k) x (B, k, n), which the
attention reductions use with the heads as B. Every output is still one
independent sum in the same order, so each slice has the bits of its own
call. When 2 <= B*m*n <= ``REDUCE_MAX_OUTPUTS`` the whole batch is one
C-contiguous (k, B, m, n) block per group, one call for all heads;
otherwise each slice runs as its own call and picks its own path. That
keeps the per-head loop at the (4, 384, 384) prefill attention of every
layer but the last, where one block for all heads no longer fits in L2
(long-context TTFT went from 77-90 to 116-123 ms when tried at
(4, 383, 383)). A prefill's last layer computes attention for the last
prompt row only, (4, 1, 384), which takes the block path.

Two rules keep the block path sequential. ``np.add.reduce`` sums
pairwise whenever the reduced axis is the inner, contiguous loop, and
from k = 8 on that changes the bits:

* the block must be C-contiguous. ``a`` is transposed once per call into
  a contiguous (k, m) array and ``w`` made contiguous, so the product of
  the broadcast operands is a C-contiguous block. A block built from the
  strided view ``a[:, k0:k1].T`` keeps k contiguous and, with n = 1,
  differed from the loop on nearly every shape tried.
* m*n = 1 stays on the loop: its (k, 1, 1) block collapses to a 1-D
  array, which ``reduce`` also sums pairwise. The batched rule is
  B*m*n >= 2, so a (k, B, 1, 1) block with B >= 2 reduces along its
  outer axis and stays sequential.

``reduce`` starts from the first product where the loop starts from
+0.0; they differ only when every product is -0.0 (-0.0 against +0.0).
Adding the group sum into the +0.0-initialised output gives +0.0 either
way.

Measured costs (2-vCPU host, medians of interleaved repeats): a block
product costs about 1 ns, a loop k-step 2-5 us plus its outputs. The block
path took 15 us at (m, k, n) = (1, 64, 256), where ``np.add.accumulate``
took 93 us, and 0.2 ms at the verify shape (17, 64, 256), where the loop
took 0.37 ms. The block path wins up to about 12k outputs and the two
break even near 16k. Medians of 40 calls, block against loop, from two
passes of 4 interleaved repeats: 0.8 / 1.1 against 1.0 / 1.3 ms at
(17, 128, 512), 8,704 outputs; 1.25 / 1.57 against 1.32 / 1.74 ms at
(24, 128, 512) and 0.63 / 0.77 against 0.66 / 0.88 ms at (12, 64, 1024),
12,288 outputs; 1.00 against 1.02 ms at (56, 64, 256), 14,336 outputs;
0.76 / 1.09 against 0.72 / 1.11 ms at (64, 64, 256), 16,384 outputs. For
attention at 12k-15k outputs, (4, 7-9, 16, 400-480), one block for all
heads tied with a block per head. The loop wins at the (383, 64, 64)
prefill, 1.4 against 2.4 ms; hence ``REDUCE_MAX_OUTPUTS`` = 12288.
Chunks of 2^16 values (256 KiB) took 0.79 ms at (17, 128, 256) where 2^18
took 1.37 ms, and in three 10 s pairs of the draft-heavy benchmark 2^16
beat 2^18 on speculative tok/s each time with 0.4 MiB less peak RSS;
hence ``BLOCK_MAX`` = 2^16.
"""

from __future__ import annotations

import functools

import numpy as np

# Largest output (B * m * n) summed by ``np.add.reduce`` over product blocks,
# and the most float32 values one block may hold; see the module docstring
# for the measured costs that set them.
REDUCE_MAX_OUTPUTS = 12288
BLOCK_MAX = 1 << 16


def active_backend() -> str:
    """numpy's version and the BLAS that runs the weight GEMMs, as numpy's build names it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 takes no mode; a build may omit a key
        name = "an unnamed BLAS"
    return f"numpy {np.__version__}; weight GEMMs on {name} sgemm where order-checked"


def _sgemm(a, w):
    """``a @ w`` for C-contiguous float32 (m, k) and (k, n), through sgemm.

    A one-row product runs as two copies of the row: numpy sends one row
    to sgemv, which reassociates the sum.
    """
    if a.shape[0] == 1:
        return np.matmul(np.concatenate((a, a)), w)[:1]
    return np.matmul(a, w)


def _probe_operand(rng, shape):
    """Random FP16 values as float32: any sign, any normal exponent, any significand."""
    bits = rng.integers(0x0400, 0x7C00, shape, dtype=np.uint16)
    bits |= rng.integers(0, 2, shape, dtype=np.uint16) << 15
    return bits.view(np.float16).astype(np.float32)


@functools.cache
def _blas_in_order(rows: int, k: int, n: int) -> bool:
    """Whether ``_sgemm`` at (rows, k) x (k, n) gave ``gemm_f32``'s bits on the probe operands."""
    rng = np.random.default_rng([rows, k, n])
    a, w = _probe_operand(rng, (rows, k)), _probe_operand(rng, (k, n))
    return np.array_equal(_sgemm(a, w).view(np.uint32), gemm_f32(a, w, k).view(np.uint32))


def gemm_weights(a, w, group_size, scales=None):
    """``gemm_f32(a, w, group_size, scales)``'s bits, for 2-D operands whose
    every product is exact in float32.

    Each group ``a[:, k0:k1] @ w[k0:k1]`` runs on ``_sgemm`` from
    C-contiguous operands, is scaled and added into a +0.0 output, when
    ``_blas_in_order`` admitted every group's shape; otherwise the whole
    call runs ``gemm_f32``.
    """
    m, k = a.shape
    n = w.shape[1]
    if not all(_blas_in_order(m, min(group_size, k - k0), n) for k0 in range(0, k, group_size)):
        return gemm_f32(a, w, group_size, scales)
    out = np.zeros((m, n), dtype=np.float32)
    for g, k0 in enumerate(range(0, k, group_size)):
        k1 = k0 + group_size
        gacc = _sgemm(np.ascontiguousarray(a[:, k0:k1]), np.ascontiguousarray(w[k0:k1]))
        if scales is not None:
            gacc *= scales[:, g]
        out += gacc
    return out


def gemm_f32(a, w, group_size, scales=None):
    """(M,K) x (K,N) -> float32 (M,N) in the fixed accumulation order.

    A batch axis is optional: (B,M,K) x (B,K,N) -> (B,M,N), slice by slice
    the same bits as B separate calls. Products are ``np.multiply`` of
    float32 operands: a (k, [B,] m, 1) x (k, [B,] 1, n) block on the block
    path (2 <= B*M*N <= ``REDUCE_MAX_OUTPUTS``), one ``a[:, i:i+1]`` x
    ``w[i:i+1, :]`` step on the loop path. A larger batch runs each
    slice as its own call. ``scales`` (shape (N, n_groups)) multiplies
    each group's partial sum before it is added to the output. Both paths
    add in ascending k.
    """
    *batch, m, k = a.shape
    out = np.zeros((*batch, m, w.shape[-1]), dtype=np.float32)
    block = 2 <= out.size <= REDUCE_MAX_OUTPUTS
    if batch and not block:
        for b in range(batch[0]):
            out[b] = gemm_f32(a[b], w[b], group_size, scales)
        return out
    if block:
        # C-contiguous (k, [B,] m) and (k, [B,] n) operands make C-contiguous
        # (k, [B,] m, n) blocks, whose axis-0 reduce runs k in the outer loop.
        at = np.ascontiguousarray(a.transpose(a.ndim - 1, *range(a.ndim - 1)))
        w = np.ascontiguousarray(w.swapaxes(0, -2))
        chunk = max(1, BLOCK_MAX // out.size)
    for g, k0 in enumerate(range(0, k, group_size)):
        k1 = min(k0 + group_size, k)
        if block:
            gacc = None
            for c0 in range(k0, k1, chunk):
                c1 = min(c0 + chunk, k1)
                prods = np.multiply(at[c0:c1, ..., None], w[c0:c1, ..., None, :])
                if gacc is not None:
                    prods[0] += gacc
                gacc = np.add.reduce(prods, axis=0)
        else:
            gacc = np.zeros_like(out)
            for i in range(k0, k1):
                gacc += np.multiply(a[:, i : i + 1], w[i : i + 1, :])
        if scales is not None:
            gacc *= scales[:, g]
        out += gacc
    return out


def attn_scores_f32(q, k, n_heads):
    """Per-head q·k^T, (n, d) x (t, d) -> (n_heads, n, t), heads as the batch axis."""
    n, d = q.shape
    dh = d // n_heads
    qh = q.reshape(n, n_heads, dh).swapaxes(0, 1)  # (H, n, dh)
    kh = k.reshape(k.shape[0], n_heads, dh).transpose(1, 2, 0)  # (H, dh, t)
    return gemm_f32(qh, kh, dh)


def rowsum_f32(x):
    """Sum over the last axis of (h, n, t), j ascending from +0.0, in float32.

    One ``np.add.accumulate`` along j, which is sequential; adding its last
    column to +0.0 turns an all-(-0.0) row's -0.0 into the +0.0 a loop
    started at +0.0 gives. Against a per-j loop (2-vCPU host) it takes
    7 us instead of 314 us at decode shape (4, 1, 136), and 2.1 ms instead
    of 1.3 ms at (4, 383, 383). A prefill sums the (4, 384, 384) shape in
    every layer but the last, whose one query row is (4, 1, 384).
    """
    return np.add.accumulate(x, axis=-1)[..., -1] + np.float32(0.0)


def attn_ctx_f32(probs, v, n_heads):
    """Per-head probs·v, (n_heads, n, t) x (t, d) -> (n, d), heads as the batch axis."""
    t, d = v.shape
    ctx = gemm_f32(probs, v.reshape(t, n_heads, d // n_heads).swapaxes(0, 1), t)
    return ctx.swapaxes(0, 1).reshape(probs.shape[1], d)
