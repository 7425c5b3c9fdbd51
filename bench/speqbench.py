"""speq decode benchmark: workloads, the untraced end-to-end run and the traced run.

``run.py`` is the command; this module holds everything it runs, so the
self-tests can drive the same code in-process. See ``README.md`` for what
each metric means, which layer should move it, and why each workload
exists.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import speq
from speq import model as smodel
from speq import specdec

from spans import Tracer
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"

N_PROMPTS = 64  # distinct prompts per workload seed; requests cycle through them
PROMPT_STREAM = 0x5EED  # second seed word, so prompt draws never reuse the weight stream
SETUP_REPS = 7  # set-ups per run; setup_s is their median
TTFT_SHARE = 0.25  # TTFT requests get this share of the decode requests' time
MICRO_SECONDS = 0.4  # per GEMM micro-benchmark shape
MICRO_SHAPES = (  # (kernel, label, M) at K=64, N=256
    ("gemm_draft", "m1", 1),
    ("gemm_full", "m1", 1),
    ("gemm_full", "m17", 17),
    ("gemm_full", "m383", 383),
)

# Fixed-input digest: CRC32 of the float32 logits of default ModelConfig()
# on DIGEST_PROMPT (forward_full over the prompt, then forward_draft of the
# next position on the same cache). Accumulation order is fixed by the
# kernel contract, so these bits must never change.
DIGEST_PROMPT = (1, 2, 3, 5, 8, 13, 21, 34)
DIGEST = {"full": 0x7A7BD3DD, "draft": 0xB0DDD3E4}


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict  # ModelConfig fields besides the seed
    prompt_len: int
    gen_len: int
    spec: dict  # SpecDecConfig fields
    trace_pairs: int  # fixed request count of the traced run, so its counts repeat


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chat-short", {}, 8, 128, {}, trace_pairs=4),
        Workload("long-context", {}, 384, 96, {}, trace_pairs=2),
        Workload(
            "draft-heavy",
            {"d_model": 128, "d_ff": 512, "n_layers": 4},
            8,
            64,
            {"max_draft_len": 16, "gamma": 0.0},
            trace_pairs=2,
        ),
    )
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)


@dataclass
class Result:
    tally: Tally
    metrics: dict  # name -> number, or None when absent
    notes: dict = field(default_factory=dict)  # printed, not part of the JSON metrics


# ---------------------------------------------------------------------------
# inputs, set-up and checks
# ---------------------------------------------------------------------------


def make_inputs(wl: Workload, seed: int):
    """The workload's model (packed weights) and prompts drawn uniformly from the vocabulary.

    The weights come from the workload's own fixed ``ModelConfig.seed``;
    ``seed`` draws the prompts. The accept rate, and with it the speculative
    throughput, is a property of the random weights (README: "Seeds").
    """
    cfg = smodel.ModelConfig(**wl.model)
    rng = np.random.default_rng([seed, PROMPT_STREAM])
    prompts = rng.integers(0, cfg.vocab, (N_PROMPTS, wl.prompt_len)).tolist()
    return smodel.init_model(cfg), prompts


def set_up(model_dir: Path, token: int):
    """Load the containers and run one full and one draft forward, so lazy decoding ends here."""
    model = smodel.load_model(model_dir)
    cache = model.new_cache()
    smodel.forward_full(model, [token], cache)
    smodel.forward_draft(model, token, cache)
    return model


def _crc(x) -> int:
    return zlib.crc32(np.ascontiguousarray(x, dtype=np.float32).tobytes()) & 0xFFFFFFFF


def logits_digest() -> dict:
    model = smodel.init_model(smodel.ModelConfig())
    cache = model.new_cache()
    full = smodel.forward_full(model, list(DIGEST_PROMPT), cache)
    draft = smodel.forward_draft(model, DIGEST_PROMPT[-1], cache)
    return {"full": _crc(full), "draft": _crc(draft)}


def check_digest(tally: Tally) -> None:
    tally.attempted += 1
    try:
        got = logits_digest()
    except Exception:
        tally.fail(f"fixed-input digest raised\n{traceback.format_exc()}")
        return
    if got != DIGEST:
        tally.fail(f"fixed-input digest {got} != {DIGEST}")


def resident_bytes(model) -> tuple[dict, int]:
    """Bytes of every ndarray held by each PackedTensor, plus raw weights; and the weight count."""
    out = {"wq": 0, "wr": 0, "scales": 0, "cache": 0, "raw": 0}
    kind = {"wq": "wq", "wr": "wr", "group_scales": "scales"}
    params = 0
    for p in model.weights.values():
        params += p.rows * p.cols
        for name, v in getattr(p, "__dict__", {}).items():
            if isinstance(v, np.ndarray):
                out[kind.get(name, "cache")] += v.nbytes
    for w in model.raw_weights.values():
        params += w.size
        out["raw"] += w.nbytes
    return out, params


def _traffic_bits(model) -> tuple[int, int] | None:
    try:
        return model.draft_traffic.weight_bits, model.full_traffic.weight_bits
    except AttributeError:
        return None


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def _request(tally: Tally, probe: SpeedProbe, what: str, fn, *args):
    """One closed-loop request: (output or None on failure, wall s, reference-speed s)."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        return probe.measure(fn, *args)
    except Exception:
        tally.fail(f"{what} raised\n{traceback.format_exc()}")
        dt = time.perf_counter() - t0
        return None, dt, dt


@dataclass
class Decoded:
    spec_tokens: int = 0
    spec_s: float = 0.0
    spec_ref_s: float = 0.0
    greedy_tokens: int = 0
    greedy_s: float = 0.0
    greedy_ref_s: float = 0.0
    rounds: int = 0
    proposed: int = 0
    accepted: int = 0
    emitted: int = 0  # SpecDecStats.tokens_generated, which counts a last round's overshoot
    spec_traffic: list = field(default_factory=lambda: [0, 0])  # draft, full weight bits
    greedy_traffic: int = 0
    outputs: list = field(default_factory=list)  # (spec tokens, greedy tokens) per prompt


def decode_pair(
    model, prompt, wl: Workload, sd, order: int, tally: Tally, probe: SpeedProbe, acc: Decoded, tracer=None
):
    """Speculative and greedy decode of one prompt, in alternating order; checks they agree."""
    outs = {}
    for kind in ("spec", "greedy") if order % 2 == 0 else ("greedy", "spec"):
        if tracer is not None:
            tracer.request = kind
        before = _traffic_bits(model)
        if kind == "spec":
            res, dt, ref = _request(
                tally, probe, "speculative_generate", specdec.speculative_generate, model, prompt, sd, wl.gen_len
            )
            out = None if res is None else res[0]
        else:
            out, dt, ref = _request(
                tally, probe, "greedy_generate", specdec.greedy_generate, model, prompt, wl.gen_len
            )
        after = _traffic_bits(model)
        if tracer is not None:
            tracer.request = None
        outs[kind] = out
        if out is None:
            continue
        if kind == "spec":
            stats = res[1]
            acc.spec_tokens += len(out)
            acc.spec_s += dt
            acc.spec_ref_s += ref
            acc.rounds += stats.rounds
            acc.proposed += stats.proposed
            acc.accepted += stats.accepted
            acc.emitted += stats.tokens_generated
            if before and after:
                acc.spec_traffic[0] += after[0] - before[0]
                acc.spec_traffic[1] += after[1] - before[1]
        else:
            acc.greedy_tokens += len(out)
            acc.greedy_s += dt
            acc.greedy_ref_s += ref
            if before and after:
                acc.greedy_traffic += after[1] - before[1]
    spec_out, greedy_out = outs.get("spec"), outs.get("greedy")
    if spec_out is not None and greedy_out is not None and spec_out != greedy_out:
        tally.fail(f"speculative output differs from greedy on prompt {prompt[:8]}...")
    acc.outputs.append((spec_out, greedy_out))


# ---------------------------------------------------------------------------
# untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------


def _div(a, b):
    return a / b if a is not None and b else None


def _median_ms(xs) -> float:
    return statistics.median(xs) * 1e3


def run_end_to_end(wl: Workload, seed: int, seconds: float, workdir: Path) -> Result:
    tally = Tally()
    model, prompts = make_inputs(wl, seed)
    model_dir = workdir / "model"
    smodel.save_model(model, model_dir)
    model = None
    check_digest(tally)

    # The probe runs through set-up and decoding only.
    with SpeedProbe() as probe:
        setup_s, setup_ref_s = [], []
        for _ in range(SETUP_REPS):
            model = None
            gc.collect()
            model, dt, ref = probe.measure(set_up, model_dir, prompts[0][0])
            setup_s.append(dt)
            setup_ref_s.append(ref)
        resident, params = resident_bytes(model)

        sd = specdec.SpecDecConfig(**wl.spec)
        acc = Decoded()
        ttft_s: list[float] = []
        ttft_ref_s: list[float] = []
        ttft_busy = 0.0
        t_end = time.perf_counter() + seconds
        i = 0
        while True:
            decode_pair(model, prompts[i % N_PROMPTS], wl, sd, i, tally, probe, acc)
            i += 1
            # TTFT requests are interleaved with the decode pairs, so all three
            # timings sample the same stretch of the run.
            while ttft_busy < TTFT_SHARE * (acc.spec_s + acc.greedy_s) or not ttft_busy:
                j = len(ttft_s) % i
                prompt = prompts[j % N_PROMPTS]
                res, dt, ref = _request(
                    tally, probe, "ttft request", specdec.speculative_generate, model, prompt, sd, 1
                )
                ttft_busy += dt
                if res is None:
                    continue
                ttft_s.append(dt)
                ttft_ref_s.append(ref)
                expect = acc.outputs[j][1]
                if expect is not None and res[0] != expect[:1]:
                    tally.fail("gen_len=1 speculative token differs from greedy")
            if time.perf_counter() >= t_end:
                break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fail_frac = tally.failed / tally.attempted
    metrics = {
        "spec_tok_s": _div(acc.spec_tokens, acc.spec_ref_s),
        "greedy_tok_s": _div(acc.greedy_tokens, acc.greedy_ref_s),
        "ttft_ms": _median_ms(ttft_ref_s) if ttft_ref_s else None,
        "setup_s": statistics.median(setup_ref_s),
        "weight_bytes_per_param": sum(resident.values()) / params,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - fail_frac,
    }
    notes = {
        "pairs": i,
        "fail_frac": fail_frac,
        "ttft_samples": len(ttft_ref_s),
        "ttft_p90_ms": (
            statistics.quantiles(ttft_ref_s, n=10)[-1] * 1e3 if len(ttft_ref_s) >= 100 else None
        ),
        "wall.spec_tok_s": _div(acc.spec_tokens, acc.spec_s),
        "wall.greedy_tok_s": _div(acc.greedy_tokens, acc.greedy_s),
        "wall.ttft_ms": _median_ms(ttft_s) if ttft_s else None,
        "wall.setup_s": statistics.median(setup_s),
        "setup_samples_s": [round(x, 6) for x in setup_s],
        "resident_bytes": resident,
        "linear_weights": params,
    }
    return Result(tally, metrics, notes)


# ---------------------------------------------------------------------------
# traced run: the per-layer metrics
# ---------------------------------------------------------------------------


def micro_benchmarks() -> dict:
    """Median µs per call of the public GEMMs at K=64, N=256, on fixed seeded data."""
    from speq import kernels, quantize

    rng = np.random.default_rng(0)
    p = quantize.quantize_tensor(rng.normal(0.0, 0.02, (64, 256)).astype(np.float16))
    out = {}
    for fn_name, label, m in MICRO_SHAPES:
        fn = getattr(kernels, fn_name, None)
        key = f"kernels.micro.{fn_name}.{label}"
        if fn is None:
            out[key] = None
            continue
        a = rng.normal(0.0, 1.0, (m, 64)).astype(np.float16)
        fn(a, p)  # first call decodes the weights
        samples = []
        t_end = time.perf_counter() + MICRO_SECONDS
        while time.perf_counter() < t_end or len(samples) < 5:
            t0 = time.perf_counter()
            fn(a, p)
            samples.append(time.perf_counter() - t0)
        out[key] = statistics.median(samples) * 1e6
    return out


def _pe_cycles(tracer: Tracer, keep) -> int | None:
    try:
        from speq.kernels import GemmMode, GemmSpec
        from speq.pe import estimate
    except ImportError:
        return None
    total = 0
    for (request, ftag, mode, m, k, n), calls in tracer.shapes.items():
        if keep(request, ftag):
            spec = GemmSpec(m=m, n=n, k=k, mode=GemmMode(mode))
            total += estimate(spec).cycles * calls
    return total


def run_traced(wl: Workload, seed: int, seconds: float, workdir: Path) -> Result:
    """Fixed request set, once untraced and once traced; tokens must agree.

    The request count is fixed (``wl.trace_pairs``) so that the counts
    repeat exactly for a seed; ``seconds`` does not apply here.
    """
    tally = Tally()
    model, prompts = make_inputs(wl, seed)
    model_dir = workdir / "model"
    smodel.save_model(model, model_dir)
    model = None
    check_digest(tally)
    prompts = prompts[: wl.trace_pairs]
    sd = specdec.SpecDecConfig(**wl.spec)

    probe = SpeedProbe()  # never started: traced timings are plain wall time
    base = Decoded()
    model = set_up(model_dir, prompts[0][0])
    for i, prompt in enumerate(prompts):
        decode_pair(model, prompt, wl, sd, i, tally, probe, base)

    tracer = Tracer()
    traced = Decoded()
    with tracer.installed():
        tracer.phase = "build"
        make_inputs(wl, seed)
        tracer.phase = "setup"
        model = set_up(model_dir, prompts[0][0])
        tracer.phase = "decode"
        for i, prompt in enumerate(prompts):
            decode_pair(model, prompt, wl, sd, i, tally, probe, traced, tracer)
    tally.attempted += 1
    if traced.outputs != base.outputs:
        tally.fail("traced run produced different tokens from the untraced run")

    m: dict = {}
    dec = "decode"
    has = tracer.present

    def stat(layer, **kw):
        return tracer.total(layer, **kw) if has(layer) else None

    fd = stat("model.forward_draft", phase=dec, request="spec")
    ff_dec = stat("model.forward_full", phase=dec, request="greedy", tag="decode")
    ff_ver = stat("model.forward_full", phase=dec, request="spec", tag="verify")
    ff_pre = stat("model.forward_full", phase=dec, tag="prefill")
    draft_fwd = fd.calls if fd else None

    # specdec
    m["specdec.rounds"] = traced.rounds
    m["specdec.proposed"] = traced.proposed
    m["specdec.accepted"] = traced.accepted
    m["specdec.draft_forwards"] = draft_fwd
    m["specdec.accept_rate"] = _div(traced.accepted, traced.proposed)
    m["specdec.draft_yield"] = _div(traced.accepted, draft_fwd)
    m["specdec.mean_draft_len"] = _div(traced.proposed, traced.rounds)
    m["specdec.mean_accept_len"] = _div(traced.emitted, traced.rounds)
    t_d = _div(fd.busy, fd.calls) if fd else None
    t_ar = _div(ff_dec.busy, ff_dec.calls) if ff_dec else None
    t_v = _div(ff_ver.busy, ff_ver.calls) if ff_ver else None
    per_round = _div(draft_fwd, traced.rounds)
    la = m["specdec.mean_accept_len"]

    def formula(td, tv, tar):
        if None in (la, per_round, td, tv, tar):
            return None
        return la * tar / (per_round * td + tv)

    m["specdec.predicted_speedup"] = formula(t_d, t_v, t_ar)
    measured = _div(_div(base.spec_tokens, base.spec_s), _div(base.greedy_tokens, base.greedy_s))
    m["specdec.measured_speedup"] = measured
    pred = m["specdec.predicted_speedup"]
    m["specdec.prediction_error"] = abs(pred / measured - 1.0) if pred and measured else None

    # model
    m["model.forward_draft.ms"] = t_d * 1e3 if t_d else None
    m["model.forward_full.decode_ms"] = t_ar * 1e3 if t_ar else None
    m["model.forward_full.verify_ms"] = t_v * 1e3 if t_v else None
    m["model.prefill_ms"] = _div(ff_pre.busy, ff_pre.calls) * 1e3 if ff_pre and ff_pre.calls else None
    fwd_self = [stat(layer, phase=dec) for layer in ("model.forward_full", "model.forward_draft")]
    m["model.self_s"] = sum(s.self_s for s in fwd_self) if all(fwd_self) else None

    # kernels
    gemms = {
        "kernels.gemm_draft": stat("kernels.gemm_draft", phase=dec),
        "kernels.gemm_full.m1": stat("kernels.gemm_full", phase=dec, tag="m1"),
        "kernels.gemm_full.mN": stat("kernels.gemm_full", phase=dec, tag="mN"),
    }
    for name, s in gemms.items():
        m[f"{name}.calls"] = s.calls if s else None
        m[f"{name}.busy_s"] = s.busy if s else None
        m[f"{name}.us_per_call"] = _div(s.busy, s.calls) * 1e6 if s and s.calls else None
    have_traffic = _traffic_bits(model) is not None
    m["kernels.weight_bytes_per_token.draft"] = (
        traced.spec_traffic[0] / 8 / traced.spec_tokens if have_traffic else None
    )
    m["kernels.weight_bytes_per_token.full"] = (
        traced.spec_traffic[1] / 8 / traced.spec_tokens if have_traffic else None
    )
    m["kernels.weight_bytes_per_token.greedy"] = (
        traced.greedy_traffic / 8 / traced.greedy_tokens if have_traffic else None
    )
    m.update(micro_benchmarks())

    # attention
    attn_busy = 0.0
    for op in ("attn_scores", "rowsum", "attn_ctx"):
        s = stat(f"accel.{op}", phase=dec)
        m[f"accel.{op}.calls"] = s.calls if s else None
        m[f"accel.{op}.busy_s"] = s.busy if s else None
        attn_busy += s.busy if s else 0.0

    # quantize and container
    dq = stat("quantize.decode", phase=("setup", dec))
    m["quantize.decode.calls"] = dq.calls if dq else None
    m["quantize.decode.busy_s"] = dq.self_s if dq else None
    resident, _ = resident_bytes(model)
    m["quantize.resident.wq_bytes"] = resident["wq"]
    m["quantize.resident.wr_bytes"] = resident["wr"]
    m["quantize.resident.scale_bytes"] = resident["scales"]
    m["quantize.resident.cache_bytes"] = resident["cache"]
    qt = stat("quantize.quantize_tensor", phase="build")
    m["quantize.quantize_s"] = qt.busy if qt else None
    rd = stat("container.read", phase="setup")
    m["container.read.busy_s"] = rd.busy if rd else None
    m["container.read.bytes"] = tracer.read_bytes if rd else None
    m["container.read.mb_s"] = _div(tracer.read_bytes / 2**20, rd.busy) if rd else None

    # PE model, over the GEMM shapes this run issued
    if has("kernels.gemm_full") and has("kernels.gemm_draft") and fd and ff_dec:
        draft_c = _pe_cycles(tracer, lambda r, t: r == "spec" and t == "draft")
        verify_c = _pe_cycles(tracer, lambda r, t: r == "spec" and t == "verify")
        ar_c = _pe_cycles(tracer, lambda r, t: r == "greedy" and t == "decode")
        spec_c = _pe_cycles(tracer, lambda r, t: r == "spec")
        greedy_c = _pe_cycles(tracer, lambda r, t: r == "greedy")
    else:
        draft_c = verify_c = ar_c = spec_c = greedy_c = None
    m["pe.draft_cycles_per_forward"] = _div(draft_c, draft_fwd)
    m["pe.verify_cycles_per_round"] = _div(verify_c, traced.rounds)
    m["pe.ar_cycles_per_token"] = _div(ar_c, ff_dec.calls if ff_dec else None)
    m["pe.spec_cycles_per_token"] = _div(spec_c, traced.spec_tokens)
    m["pe.greedy_cycles_per_token"] = _div(greedy_c, traced.greedy_tokens)
    m["specdec.pe_predicted_speedup"] = formula(
        m["pe.draft_cycles_per_forward"], m["pe.verify_cycles_per_round"], m["pe.ar_cycles_per_token"]
    )

    # trace
    traced_wall = traced.spec_s + traced.greedy_s
    gemm_busy = sum(s.busy for s in gemms.values() if s)
    m["trace.overhead_frac"] = traced.spec_s / base.spec_s - 1.0 if base.spec_s else None
    m["trace.gemm_share"] = _div(gemm_busy, traced_wall)
    m["trace.attn_share"] = _div(attn_busy, traced_wall)

    notes = {
        "fail_frac": tally.failed / tally.attempted,
        "trace_pairs": len(prompts),
        "absent_targets": tracer.absent,
        "T_d_ms": m["model.forward_draft.ms"],
        "T_v_ms": m["model.forward_full.verify_ms"],
        "T_ar_ms": m["model.forward_full.decode_ms"],
    }
    return Result(tally, m, notes)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def git_commit(root: Path = ROOT) -> str:
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (git / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_stamp(wl: Workload, seed: int) -> dict:
    backend = getattr(speq, "active_backend", None)
    return {
        "workload": wl.name,
        "seed": seed,
        "backend": backend() if backend else "unknown (speq.active_backend missing)",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")
        },
        "commit": git_commit(),
    }


def _number(v):
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def result_line(result: Result, section: str) -> dict:
    """The result's JSON line: every metric of ``section`` in BENCHMARK.json, absent ones marked."""
    spec = json.loads(BENCHMARK.read_text())[section]
    metrics = {}
    for entry in spec:
        v = result.metrics.get(entry["name"])
        if v is None:
            metrics[entry["name"]] = {"value": None, "unit": entry["unit"], "absent": True}
        else:
            metrics[entry["name"]] = {"value": _number(v), "unit": entry["unit"]}
    return {
        "correct": result.tally.failed == 0,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "metrics": metrics,
    }


def report(stamp: dict, result: Result, line: dict) -> str:
    """Human-readable lines printed before the JSON line."""
    out = [f"stamp.{k}={v}" for k, v in stamp.items()]
    out += [f"note.{k}={v}" for k, v in result.notes.items()]
    for name, entry in line["metrics"].items():
        value = "absent" if entry.get("absent") else repr(entry["value"])
        out.append(f"{name}={value} {entry['unit']}")
    out += [f"{k}={v}" for k, v in result.metrics.items() if k not in line["metrics"]]
    return "\n".join(out)
