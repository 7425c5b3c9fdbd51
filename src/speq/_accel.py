"""Hot numeric kernels: one fixed-order accumulation loop.

``gemm_f32`` is the one place the accumulation order lives. The GEMMs
(``kernels.gemm_full`` / ``gemm_draft`` / ``reference_gemm``), the
attention reductions below and the PE-array model (``pe.simulate_gemm``)
all call it; only the softmax denominator, ``rowsum_f32``, keeps its own
sequential loop. ``gemm_f32`` is vectorized over output elements and
loops in Python over the reduction index, accumulating in float32:
ascending k within a group, one scale per group, then ascending group
index. That order is part of the kernel contract — outputs are
bit-reproducible across runs and thread counts — so the loop may not be
parallelized or reassociated.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the implementation dispatching the hot kernels."""
    return "numpy"


def gemm_f32(a, w, group_size, scales=None, mul=np.multiply):
    """(M,K) x (K,N) -> float32 (M,N) in the fixed accumulation order.

    ``mul(a[:, i:i+1], w[i:i+1, :])`` gives the float32 products of one
    reduction step; ``scales`` (shape (N, n_groups)) multiplies each
    group's partial sum before it is added to the output.
    """
    m, k = a.shape
    out = np.zeros((m, w.shape[1]), dtype=np.float32)
    for g, k0 in enumerate(range(0, k, group_size)):
        gacc = np.zeros_like(out)
        for i in range(k0, min(k0 + group_size, k)):
            gacc += mul(a[:, i : i + 1], w[i : i + 1, :])
        if scales is not None:
            gacc *= scales[:, g]
        out += gacc
    return out


def attn_scores_f32(q, k, n_heads):
    """Per-head q·k^T, (n, d) x (t, d) -> (n_heads, n, t)."""
    dh = q.shape[1] // n_heads
    heads = range(0, q.shape[1], dh)
    return np.stack([gemm_f32(q[:, c : c + dh], k[:, c : c + dh].T, dh) for c in heads])


def rowsum_f32(x):
    """Sum over the last axis of (h, n, t), j ascending, in float32.

    A sum, not a product: as a GEMM against a ones vector it ran 1.4-3x
    slower at decode shapes (n <= 17 rows), so it keeps its own loop.
    """
    h, n, t = x.shape
    out = np.zeros((h, n), dtype=np.float32)
    for j in range(t):
        out += x[:, :, j]
    return out


def attn_ctx_f32(probs, v, n_heads):
    """Per-head probs·v, (n_heads, n, t) x (t, d) -> (n, d)."""
    t, d = v.shape
    dh = d // n_heads
    ctx = [gemm_f32(probs[h], v[:, h * dh : (h + 1) * dh], t) for h in range(n_heads)]
    return np.concatenate(ctx, axis=1)
