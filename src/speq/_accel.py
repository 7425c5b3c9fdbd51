"""Hot numeric kernels: one fixed accumulation order, two ways to run it.

``gemm_f32`` is the one place the accumulation order lives. The GEMMs
(``kernels.gemm_full`` / ``gemm_draft`` / ``reference_gemm``), the
attention reductions below and the PE-array model (``pe.simulate_gemm``)
all call it. The order, in float32: ascending k within a group starting
from +0.0, one scale per group, then ascending group index. That order is
part of the kernel contract — outputs are bit-reproducible across runs and
thread counts — so it may not be parallelized or reassociated.

Two strategies evaluate that same order, chosen by output size:

* block path, 2 <= m*n <= ``REDUCE_MAX_OUTPUTS`` (the M=1 decode GEMMs,
  the M=L+1 verify windows, attention at decode): build each group's
  (k, m, n) product block and sum it with ``np.add.reduce(..., axis=0)``.
  On a C-contiguous block that axis is the outer loop of the reduction,
  so each output is summed in ascending k, vectorized over the m*n
  outputs. A group is cut along k into chunks of at most ``BLOCK_MAX``
  products; the running sum is added into row 0 of the next chunk, which
  keeps the order sequential and bounds the memory a block takes.
* loop path, every other output (a single output, the GEMMs of a
  384-row prefill):
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
  a contiguous (k, m) array and ``w`` made contiguous, so ``mul`` of the
  broadcast operands yields a C-contiguous block. A block built from the
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

import numpy as np

# Largest output (B * m * n) summed by ``np.add.reduce`` over product blocks,
# and the most float32 values one block may hold; see the module docstring
# for the measured costs that set them.
REDUCE_MAX_OUTPUTS = 12288
BLOCK_MAX = 1 << 16


def active_backend() -> str:
    """Name of the implementation dispatching the hot kernels."""
    return "numpy"


def gemm_f32(a, w, group_size, scales=None, mul=np.multiply):
    """(M,K) x (K,N) -> float32 (M,N) in the fixed accumulation order.

    A batch axis is optional: (B,M,K) x (B,K,N) -> (B,M,N), slice by slice
    the same bits as B separate calls. ``mul`` gives the float32 products
    of broadcast operands: a (k, [B,] m, 1) x (k, [B,] 1, n) block on the
    block path (2 <= B*M*N <= ``REDUCE_MAX_OUTPUTS``), one ``a[:, i:i+1]``
    x ``w[i:i+1, :]`` step on the loop path. A larger batch runs each
    slice as its own call. ``scales`` (shape (N, n_groups)) multiplies
    each group's partial sum before it is added to the output. Both paths
    add in ascending k.
    """
    *batch, m, k = a.shape
    out = np.zeros((*batch, m, w.shape[-1]), dtype=np.float32)
    block = 2 <= out.size <= REDUCE_MAX_OUTPUTS
    if batch and not block:
        for b in range(batch[0]):
            out[b] = gemm_f32(a[b], w[b], group_size, scales, mul)
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
                prods = mul(at[c0:c1, ..., None], w[c0:c1, ..., None, :])
                if gacc is not None:
                    prods[0] += gacc
                gacc = np.add.reduce(prods, axis=0)
        else:
            gacc = np.zeros_like(out)
            for i in range(k0, k1):
                gacc += mul(a[:, i : i + 1], w[i : i + 1, :])
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
