"""Hot numeric kernels: one fixed accumulation order, two ways to run it.

``gemm_f32`` is the one place the accumulation order lives. The GEMMs
(``kernels.gemm_full`` / ``gemm_draft`` / ``reference_gemm``), the
attention reductions below and the PE-array model (``pe.simulate_gemm``)
all call it. The order, in float32: ascending k within a group starting
from +0.0, one scale per group, then ascending group index. That order is
part of the kernel contract — outputs are bit-reproducible across runs and
thread counts — so it may not be parallelized or reassociated.

Two strategies evaluate that same order, chosen by output size:

* small outputs (at most ``ACCUMULATE_MAX_OUTPUTS`` elements, the M=1
  decode GEMMs and per-head attention) build each group's (k, m, n)
  product block and sum it with one ``np.add.accumulate`` along k, which
  is sequential by definition. It costs about 4.5 ns per product.
* larger outputs (verify windows, prefill) loop in Python over k,
  vectorized over the outputs. A k-step costs about 2-3 us whatever the
  output size, so this wins above ~512 outputs: at M=17 x N=256 the
  accumulate path took 1.3 ms against 0.37 ms, at the M=383 prefill 29 ms
  against 5.4 ms (2-vCPU host). It never builds a product block, so memory
  stays at one (m, n) buffer per group.

``accumulate`` starts from the first product where the loop starts from
+0.0; they differ only when every product is -0.0 (-0.0 against +0.0).
Adding the group sum into the +0.0-initialised output gives +0.0 either
way. ``np.add.reduce`` / ``np.sum`` are not used: along a contiguous axis
they sum pairwise, which changes the bits.
"""

from __future__ import annotations

import numpy as np

# Largest output (m * n) summed by ``np.add.accumulate``; see the module
# docstring for the measured costs that set it.
ACCUMULATE_MAX_OUTPUTS = 512


def active_backend() -> str:
    """Name of the implementation dispatching the hot kernels."""
    return "numpy"


def gemm_f32(a, w, group_size, scales=None, mul=np.multiply):
    """(M,K) x (K,N) -> float32 (M,N) in the fixed accumulation order.

    ``mul`` gives the float32 products of broadcast operands: a (k, m, 1)
    x (k, 1, n) block on the accumulate path (M*N at most
    ``ACCUMULATE_MAX_OUTPUTS``), one ``a[:, i:i+1]`` x ``w[i:i+1, :]``
    step on the loop path. ``scales`` (shape (N, n_groups)) multiplies
    each group's partial sum before it is added to the output. Both paths
    add in ascending k from +0.0.
    """
    m, k = a.shape
    out = np.zeros((m, w.shape[1]), dtype=np.float32)
    block = out.size <= ACCUMULATE_MAX_OUTPUTS
    for g, k0 in enumerate(range(0, k, group_size)):
        k1 = min(k0 + group_size, k)
        if block:
            prods = mul(a[:, k0:k1].T[:, :, None], w[k0:k1, None, :])
            gacc = np.add.accumulate(prods, axis=0)[-1]
        else:
            gacc = np.zeros_like(out)
            for i in range(k0, k1):
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
    """Sum over the last axis of (h, n, t), j ascending from +0.0, in float32.

    One ``np.add.accumulate`` along j, which is sequential; adding its last
    column to +0.0 turns an all-(-0.0) row's -0.0 into the +0.0 a loop
    started at +0.0 gives. Against a per-j loop (2-vCPU host) it takes
    7 us instead of 314 us at decode shape (4, 1, 136), and 2.1 ms instead
    of 1.3 ms at the (4, 383, 383) prefill, once per layer.
    """
    return np.add.accumulate(x, axis=-1)[..., -1] + np.float32(0.0)


def attn_ctx_f32(probs, v, n_heads):
    """Per-head probs·v, (n_heads, n, t) x (t, d) -> (n, d)."""
    t, d = v.shape
    dh = d // n_heads
    ctx = [gemm_f32(probs[h], v[:, h * dh : (h + 1) * dh], t) for h in range(n_heads)]
    return np.concatenate(ctx, axis=1)
