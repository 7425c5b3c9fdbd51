"""Hot numeric kernels: one numpy implementation each.

Each kernel is vectorized over output elements and loops in Python over
the reduction index, so every output element sees one fixed sequence of
float32 operations.

All kernels accumulate in float32, sequentially over the reduction
index (ascending k within a group, ascending group index). That order
is part of the kernel contract — outputs are bit-reproducible across
runs and thread counts — so none of the loops may be parallelized or
reassociated.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the implementation dispatching the hot kernels."""
    return "numpy"


def gemm_full_f32(a, w, group_size):
    m, k = a.shape
    n = w.shape[1]
    out = np.zeros((m, n), dtype=np.float32)
    for k0 in range(0, k, group_size):
        k1 = min(k0 + group_size, k)
        gacc = np.zeros((m, n), dtype=np.float32)
        for i in range(k0, k1):
            gacc += a[:, i : i + 1] * w[i : i + 1, :]
        out += gacc
    return out


def gemm_draft_f32(a, q, scales, group_size):
    m, k = a.shape
    n = q.shape[1]
    n_groups = scales.shape[1]
    out = np.zeros((m, n), dtype=np.float32)
    for g in range(n_groups):
        k0 = g * group_size
        k1 = min(k0 + group_size, k)
        gacc = np.zeros((m, n), dtype=np.float32)
        for i in range(k0, k1):
            gacc += a[:, i : i + 1] * q[i : i + 1, :]
        out += gacc * scales[:, g][np.newaxis, :]
    return out


def pe_gemm_full_f32(sign_a, sig_a, exp_a, sign_w, sig_w, exp_w, group_size):
    m, k = sig_a.shape
    n = sig_w.shape[1]
    out = np.zeros((m, n), dtype=np.float32)
    hi = sig_w >> 5
    lo = sig_w & 0x1F
    for k0 in range(0, k, group_size):
        k1 = min(k0 + group_size, k)
        gacc = np.zeros((m, n), dtype=np.float32)
        for i in range(k0, k1):
            sa = sig_a[:, i : i + 1]
            prod = sa * hi[i : i + 1, :] * 32 + sa * lo[i : i + 1, :]
            neg = sign_a[:, i : i + 1] != sign_w[i : i + 1, :]
            mag = prod.astype(np.float32)
            signed = np.where(neg, -mag, mag)
            shift = exp_a[:, i : i + 1] + exp_w[i : i + 1, :] - 50
            gacc += np.ldexp(signed, shift)
        out += gacc
    return out


def pe_gemm_draft_f32(sign_a, sig_a, exp_a, sign_w, exp4_w, scales, group_size):
    m, k = sig_a.shape
    n = exp4_w.shape[1]
    n_groups = scales.shape[1]
    out = np.zeros((m, n), dtype=np.float32)
    for g in range(n_groups):
        k0 = g * group_size
        k1 = min(k0 + group_size, k)
        gacc = np.zeros((m, n), dtype=np.float32)
        for i in range(k0, k1):
            neg = sign_a[:, i : i + 1] != sign_w[i : i + 1, :]
            mag = sig_a[:, i : i + 1].astype(np.float32)
            signed = np.where(neg, -mag, mag)
            shift = exp_a[:, i : i + 1] + exp4_w[i : i + 1, :] - 40
            gacc += np.ldexp(signed, shift)
        out += gacc * scales[:, g][np.newaxis, :]
    return out


def attn_scores_f32(q, k, n_heads):
    n, d = q.shape
    t = k.shape[0]
    dh = d // n_heads
    out = np.zeros((n_heads, n, t), dtype=np.float32)
    for h in range(n_heads):
        for dd in range(dh):
            c = h * dh + dd
            out[h] += q[:, c : c + 1] * k[:, c][np.newaxis, :]
    return out


def rowsum_f32(x):
    h, n, t = x.shape
    out = np.zeros((h, n), dtype=np.float32)
    for j in range(t):
        out += x[:, :, j]
    return out


def attn_ctx_f32(probs, v, n_heads):
    t, d = v.shape
    n = probs.shape[1]
    dh = d // n_heads
    out = np.zeros((n, d), dtype=np.float32)
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        for j in range(t):
            out[:, sl] += probs[h, :, j : j + 1] * v[j : j + 1, sl]
    return out
