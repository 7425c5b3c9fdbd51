"""FP16 rounding of activations (``_accel.fp16_values``): exact on both
routes, the GEMMs' float32 input contract, and which route each forward takes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from speq import _accel, pe
from speq.kernels import GemmMode, gemm_draft, gemm_full
from speq.model import ModelConfig, forward_draft, forward_full, init_model
from speq.quantize import quantize_tensor

SRC = str(Path(_accel.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)
D = 64  # the column block width of the strided layout


def sweep_values() -> np.ndarray:
    """float32, both signs: every finite FP16 value, the midpoint between
    each two neighbours (65520, past 65504, the last), one float32 ulp either
    side of each midpoint, and the edge cases. Zero-padded to a multiple of ``D``."""
    fp16 = np.arange(0x7C00, dtype=np.uint16).view(np.float16).astype(np.float64)
    edges = np.append(fp16, 2.0**16)
    mids = ((edges[:-1] + edges[1:]) / 2).astype(np.float32)  # exact: 12 bits at most
    mags = [fp16.astype(np.float32), mids]
    mags += [np.nextafter(mids, np.float32(lim)) for lim in (0.0, np.inf)]
    edge = [2.0**-25, 2.0**-24, 2.0**-14, 65504.0, 65519.996, 65520.0, 1e6, np.inf, np.nan]
    mags.append(np.array(edge, dtype=np.float32))
    mags.append(np.array([1, 0x007FFFFF], dtype=np.uint32).view(np.float32))  # float32 subnormals
    x = np.concatenate(mags)
    x = np.concatenate([x, -x])
    # NaN payloads; adding 0x0FFF carries 0x7FFFFFFF into the sign bit and wraps 0xFFFFFFFF
    nans = np.array([0x7F800001, 0x7FBFFFFF, 0x7FFFFFFF, 0xFFFFFFFF, 0xFFC00001], dtype=np.uint32)
    x = np.concatenate([x, nans.view(np.float32)])
    return np.concatenate([x, np.zeros(-x.size % D, dtype=np.float32)])


def layouts(x: np.ndarray) -> dict[str, np.ndarray]:
    """``x`` as a C-contiguous (rows, D) array and as the middle column block
    of a (rows, 3 * D) one, as ``qkv[:, d : 2 * d]`` is."""
    rows = x.reshape(-1, D)
    qkv = np.zeros((rows.shape[0], 3 * D), dtype=np.float32)
    qkv[:, D : 2 * D] = rows
    return {"contiguous": rows, "column view": qkv[:, D : 2 * D]}


# the route is picked by size alone: a threshold of 0 sends every array wide
_ROUTES = {"narrow": (np.iinfo(np.int64).max, np.float16), "wide": (0, np.float32)}


@pytest.mark.parametrize("route", list(_ROUTES))
def test_fp16_values_has_astypes_bits(monkeypatch, route):
    threshold, dtype = _ROUTES[route]
    monkeypatch.setattr(_accel, "FP16_WIDE", threshold)
    for name, x in layouts(sweep_values()).items():
        with np.errstate(over="ignore"):  # astype warns on each finite overflow
            want = x.astype(np.float16)
            got = _accel.fp16_values(x)
        assert got.dtype == dtype and got.shape == x.shape, name
        # float16 -> float32 is exact and one to one, NaN payloads included
        same = got.astype(np.float32).view(np.uint32) == want.astype(np.float32).view(np.uint32)
        assert same.all(), (name, x[~same][:8])


class _CountsPatches(np.ndarray):
    """An array that counts the lanes each boolean-mask assignment into it,
    or into a result computed from it, writes: the wide route's patch."""

    lanes = 0

    def __setitem__(self, key, value):
        if getattr(key, "dtype", None) == bool:
            _CountsPatches.lanes += int(np.count_nonzero(key))
        super().__setitem__(key, value)


def test_fp16_values_wide_route_patches_only_what_it_must(monkeypatch):
    # A ReLU output, about half zeros, alone and with one lane or two that
    # FP16 cannot hold at float32's exponent; each also as a transposed
    # (F-order) and a negative-stride view. Only those lanes are patched.
    monkeypatch.setattr(_accel, "FP16_WIDE", 0)
    rng = np.random.default_rng(33)
    relu = np.maximum(rng.normal(0.0, 1.0, (48, 96)).astype(np.float32), 0.0)
    relu[relu < 2.0**-14] = 0.0
    relu[7, 7] = -0.0
    cases = [relu]
    for special in (3e-6, -7e4, np.inf, np.nan):
        cases.append(relu.copy())
        cases[-1][41, 91] = special
    cases.append(relu.copy())
    cases[-1][3, 4], cases[-1][41, 91] = 3e-6, 7e4
    for x in cases:
        for arr in (x, x.T, x[::-2, 1::3]):
            mag = np.abs(arr)
            held = (mag >= 2.0**-14) & (mag < 65520)
            _CountsPatches.lanes = 0
            with np.errstate(over="ignore"):
                got = _accel.fp16_values(arr.view(_CountsPatches))
                want = arr.astype(np.float16).astype(np.float32)
            assert np.array_equal(np.asarray(got).view(np.uint32), want.view(np.uint32))
            assert _CountsPatches.lanes == np.count_nonzero((arr != 0) & ~held)


_SWEEP_CRCS = """
import zlib
import numpy as np
from speq import _accel
from test_fp16_values import _found_dispatched_features, layouts, sweep_values

print(" ".join(_found_dispatched_features()))
for threshold in (np.iinfo(np.int64).max, 0):
    _accel.FP16_WIDE = threshold
    for x in layouts(sweep_values()).values():
        with np.errstate(over="ignore"):
            out = _accel.fp16_values(x)
        print(out.dtype, hex(zlib.crc32(np.ascontiguousarray(out).tobytes())))
"""


def _found_dispatched_features() -> list[str]:
    """The SIMD targets numpy dispatches to that this CPU has, as
    ``np.show_runtime`` lists them under "found"."""
    umath = np._core._multiarray_umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def _sweep_crcs(disabled: str) -> list[str]:
    """``_SWEEP_CRCS``'s lines, run in a fresh process with ``disabled`` as
    ``NPY_DISABLE_CPU_FEATURES``."""
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, TESTS, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SWEEP_CRCS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return out.stdout.split("\n")


def test_fp16_values_do_not_depend_on_simd_dispatch():
    default = _sweep_crcs("")
    # every dispatched feature the default run found: numpy's baseline loops
    baseline = _sweep_crcs(default[0])
    assert baseline[0] == ""
    assert default[1:] == baseline[1:]
    dtypes = [line.split()[0] for line in default[1:] if line]
    assert dtypes == ["float16"] * 2 + ["float32"] * 2


# ── the GEMMs' float32 input ─────────────────────────────────────────────


# k = 64: one group; 256: two, as w2 spans; 300: two and a shorter tail
@pytest.mark.parametrize("k", [64, 256, 300])
@pytest.mark.parametrize("m", [1, 17, 384])
def test_gemms_take_fp16_values_held_as_float32(m, k):
    rng = np.random.default_rng([m, k])
    a16 = rng.normal(0.0, 1.0, (m, k)).astype(np.float16)
    a16[:, ::7] = (rng.normal(0.0, 1.0, a16[:, ::7].shape) * 2.0**-20).astype(np.float16)
    a16[0, 0] = -0.0
    p = quantize_tensor(rng.normal(0.0, 0.02, (k, 32)).astype(np.float16))
    a32 = a16.astype(np.float32)
    for gemm in (gemm_full, gemm_draft):
        want = gemm(a16, p).view(np.uint32)
        for a in (a32, np.asfortranarray(a32)):
            for validate in (True, False):
                assert np.array_equal(gemm(a, p, validate=validate).view(np.uint32), want)
    for mode in GemmMode:
        want = pe.simulate_gemm(a16, p, mode)[0].view(np.uint32)
        assert np.array_equal(pe.simulate_gemm(a32, p, mode)[0].view(np.uint32), want)


@pytest.mark.parametrize("m", [1, 384])  # each route of the exactness check
def test_validate_refuses_float32_that_is_not_fp16(m):
    p = quantize_tensor(np.full((8, 4), 0.5, dtype=np.float16))
    for bad, match in [
        (1.0 + 2.0**-12, "must hold FP16 values"),  # between two FP16 values
        (3e-7, "must hold FP16 values"),  # below FP16's subnormal spacing
        (7e4, "must hold FP16 values"),  # finite, past 65504
        (np.nan, "NaN or Inf"),
        (np.inf, "NaN or Inf"),
    ]:
        a = np.ones((m, 8), dtype=np.float32)
        a[-1, 3] = bad
        for gemm in (gemm_full, gemm_draft):
            with pytest.raises(ValueError, match=match):
                gemm(a, p)
    with pytest.raises(ValueError, match="float16, or float32 holding FP16 values, got float64"):
        gemm_full(np.ones((m, 8)), p)


# ── the route each forward takes ─────────────────────────────────────────


def _count_routes(monkeypatch) -> list[tuple[int, str]]:
    """(rows, route) of each ``fp16_values`` call from here on."""
    calls, real = [], _accel.fp16_values

    def counting(x):
        out = real(x)
        calls.append((x.shape[0], "wide" if out.dtype == np.float32 else "narrow"))
        return out

    monkeypatch.setattr(_accel, "fp16_values", counting)
    return calls


def test_prefill_rounds_wide_and_one_row_forwards_narrow(monkeypatch):
    m = init_model(ModelConfig())
    cache = m.new_cache()
    calls = _count_routes(monkeypatch)
    forward_full(m, [t % 256 for t in range(384)], cache, last_only=True)
    # Per layer: the qkv input, the key and value writes, then the wo, w1 and
    # w2 inputs; the last layer runs those three, and head's input, for the
    # last row alone.
    assert sorted(calls) == sorted([(1, "narrow")] * 4 + [(384, "wide")] * 9)
    calls.clear()
    forward_full(m, [7], cache)
    forward_draft(m, 8, cache)
    assert calls == [(1, "narrow")] * 2 * 13
