"""Command-line surface tying the modules together.

Exit codes: 0 ok, 1 verification failure (bit-exactness or losslessness
check did not hold), 2 usage or I/O error.

Outputs do not depend on OpenBLAS's thread count, but speed does: on a
shared host, set OPENBLAS_NUM_THREADS=1, as bench/run.py does.
"""

from __future__ import annotations

import argparse
import sys
import time
import zlib

import numpy as np

from . import bsfp, container, pe, quantize, specdec
from ._accel import active_backend
from .kernels import GemmMode, GemmSpec, gemm_draft, gemm_full, gemm_traffic
from .model import ContextOverflowError, ModelConfig, init_model
from .quantize import DEFAULT_GROUP_SIZE, QuantFormat, check_int
from .report import RunReport


def _load_tensor(path: str, bf16: bool = False) -> np.ndarray:
    arr = container.read_npy(path)
    if arr.dtype.kind not in "biuf":  # complex, structured, datetime, string ...
        raise ValueError(f"{path}: expected a bool, integer or float array, got {arr.dtype}")
    if bf16:
        if arr.dtype != np.uint16:
            raise ValueError(f"{path}: --bf16 expects a uint16 array of BF16 bit patterns")
        arr = quantize.ingest_bf16(arr)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{path}: expected a 1-D or 2-D tensor, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{path}: empty tensor, shape {arr.shape}")
    with np.errstate(over="ignore"):  # an overflow is reported below, with the file's name
        w = arr.astype(np.float16)
    overflow = int(np.count_nonzero(np.isinf(w) & np.isfinite(arr)))
    if overflow:
        raise ValueError(f"{path}: {overflow} finite values overflow FP16 (largest finite 65504)")
    return w


def _new_report(args) -> RunReport:
    rep = RunReport()
    if not args.no_timestamp:
        rep.add("run", timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"))
    rep.add("run", command=args.command, backend=active_backend())
    return rep


def _emit(rep: RunReport) -> None:
    sys.stdout.write(rep.render())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_quantize(args) -> int:
    w = _load_tensor(args.infile, args.bf16)
    p = quantize.quantize_tensor(w, args.group_size)
    container.write_container(args.outfile, p)
    mse = {f: quantize.draft_mse(w, args.group_size, f) for f in QuantFormat}
    n = p.rows * p.cols
    full_bits = gemm_traffic(1, p.cols, p.rows, GemmMode.FULL, p.group_size)[0]
    draft_bits, scale_bytes, _ = gemm_traffic(1, p.cols, p.rows, GemmMode.DRAFT, p.group_size)
    rep = _new_report(args)
    rep.add(
        "quantize",
        rows=p.rows,
        cols=p.cols,
        format=QuantFormat.E3M0_REMAP.value,
        group_size=p.group_size,
        tensor_scale=p.tensor_scale,
        mse=mse[QuantFormat.E3M0_REMAP],
        mse_e3m0=mse[QuantFormat.E3M0_NAIVE],  # the accuracy baselines
        mse_e2m1=mse[QuantFormat.E2M1],
        mse_e1m2=mse[QuantFormat.E1M2],
        payload_bits_per_weight=full_bits / n,
        draft_bits_per_weight=draft_bits / n,
        scale_overhead_bits_per_weight=8 * scale_bytes / n,
        out=args.outfile,
    )
    _emit(rep)
    return 0


def _cmd_inspect(args) -> int:
    if args.infile.endswith(".speq"):
        w = container.read_container(args.infile).full_values()
    else:
        w = _load_tensor(args.infile, args.bf16)
    hist = quantize.exponent_histogram(w)
    rep = _new_report(args)
    rep.add("hist", total=hist.total, frac_unused=hist.frac_unused)
    for i in range(32):
        rep.add("hist", **{f"exp{i:02d}": int(hist.counts[i])})
    _emit(rep)
    return 0


def _cmd_roundtrip(args) -> int:
    rep = _new_report(args)
    if args.exhaustive:
        bits = bsfp.in_range_bits()
        back = bsfp.decode_full_array(*bsfp.encode_array(bits))
        mismatches = int(np.count_nonzero(back != bits))
        rep.add("roundtrip", mode="exhaustive", patterns=len(bits), mismatches=mismatches)
    elif args.infile is None:
        raise ValueError("roundtrip needs a file or --exhaustive")
    elif args.infile.endswith(".speq"):
        with open(args.infile, "rb") as f:
            data = f.read()
        rewritten = container.to_bytes(container.from_bytes(data))
        mismatches = int(rewritten != data)
        rep.add("roundtrip", mode="container", bytes=len(data), mismatches=mismatches)
    else:
        w = _load_tensor(args.infile, args.bf16)
        scaled, _ = quantize.handle_outliers(w)
        back = quantize.quantize_tensor(w).full_values()
        mismatches = int(np.count_nonzero(back.view(np.uint16) != scaled.view(np.uint16)))
        rep.add("roundtrip", mode="tensor", elements=scaled.size, mismatches=mismatches)
    rep.add("roundtrip", ok=mismatches == 0)
    _emit(rep)
    return 0 if mismatches == 0 else 1


def _cmd_gemm(args) -> int:
    a = _load_tensor(args.a)
    p = container.read_container(args.w)
    if a.shape[1] == 1 and p.rows != 1:
        a = a.T  # a vector activation is one row, unless the weight has one row
    mode = GemmMode(args.mode)
    out = (gemm_draft if mode is GemmMode.DRAFT else gemm_full)(a, p)
    if args.out:
        np.save(args.out, out)
    m, n = out.shape
    weight_bits, scale_bytes, activation_bytes = gemm_traffic(m, n, p.rows, mode, p.group_size)
    rep = _new_report(args)
    rep.add(
        "gemm",
        mode=args.mode,
        m=m,
        n=n,
        k=p.rows,
        weight_bits=weight_bits,
        weight_bytes=weight_bits / 8,
        scale_bytes=scale_bytes,
        activation_bytes=activation_bytes,
        output_crc32=zlib.crc32(out.tobytes()) & 0xFFFFFFFF,
    )
    _emit(rep)
    return 0


def _cmd_specdec(args) -> int:
    check_int("prompts", args.prompts)  # zero prompts would check nothing
    check_int("prompt_len", args.prompt_len)
    cfg = ModelConfig(seed=args.seed)
    sd = specdec.SpecDecConfig(max_draft_len=args.max_draft_len, gamma=args.gamma)
    model = init_model(cfg)
    rng = np.random.default_rng(args.seed)
    rep = _new_report(args)
    total = specdec.SpecDecStats(rounds=0, proposed=0, accepted=0)
    mismatched = 0
    for i in range(args.prompts):
        if args.prompt is not None:
            prompt = list(args.prompt.encode("utf-8"))
        else:
            prompt = rng.integers(0, cfg.vocab, size=args.prompt_len).tolist()
        out, stats = specdec.speculative_generate(model, prompt, sd, args.gen_len)
        ref = specdec.greedy_generate(model, prompt, args.gen_len)
        mismatched += int(out != ref)
        total += stats
    rep.add(
        "specdec",
        prompts=args.prompts,
        gen_len=args.gen_len,
        gamma=args.gamma,
        max_draft_len=args.max_draft_len,
        rounds=total.rounds,
        proposed=total.proposed,
        accepted=total.accepted,
        accept_rate=total.accept_rate,
        mean_draft_len=total.mean_draft_len,
        mean_accept_len=total.mean_accept_len,
        lossless=mismatched == 0,
        mismatched_prompts=mismatched,
    )
    _emit(rep)
    return 0 if mismatched == 0 else 1


def _cmd_perf(args) -> int:
    perf = specdec.PerfParams(t_draft=args.td_ratio, t_verify=args.tv_ratio, t_ar=1.0)
    rep = _new_report(args)
    rep.add(
        "perf",
        r=args.r,
        max_draft_len=args.max_draft_len,
        td_ratio=args.td_ratio,
        tv_ratio=args.tv_ratio,
        accept_len=specdec.expected_accept_length(args.r, args.max_draft_len),
        speedup=specdec.expected_speedup(args.r, args.max_draft_len, perf),
    )
    _emit(rep)
    return 0


def _cmd_simulate(args) -> int:
    cfg = pe.PeConfig(args.tiles, args.pes_per_tile, args.frequency, args.fill_cycles)
    spec = GemmSpec(args.m, args.n, args.k, GemmMode(args.mode), args.group_size)
    r = pe.estimate(spec, cfg)
    rep = _new_report(args)
    rep.add(
        "cycles",
        mode=spec.mode.value,
        m=spec.m,
        n=spec.n,
        k=spec.k,
        macs=spec.macs,
        pe_count=cfg.total_pes,
        macs_per_pe_per_cycle=r.macs_per_pe_per_cycle,
        mac_cycles=r.mac_cycles,
        fill_cycles=cfg.fill_cycles,
        cycles=r.cycles,
        weight_bits=r.weight_bits,
        weight_bytes=r.weight_bytes,
        scale_bytes=r.scale_bytes,
        activation_bytes=r.activation_bytes,
        time_s=r.time_s,
    )
    _emit(rep)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="speq", description=__doc__)
    ap.add_argument("--no-timestamp", action="store_true", help="omit run.timestamp line")
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="pack an FP16/BF16 tensor")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", dest="outfile", required=True)
    q.add_argument("--group-size", type=int, default=DEFAULT_GROUP_SIZE)
    q.add_argument("--bf16", action="store_true", help="input npy holds BF16 bit patterns")
    q.set_defaults(fn=_cmd_quantize)

    i = sub.add_parser("inspect", help="exponent histogram of a tensor")
    i.add_argument("infile")
    i.add_argument("--bf16", action="store_true")
    i.set_defaults(fn=_cmd_inspect)

    r = sub.add_parser("roundtrip", help="bit-exactness check")
    r.add_argument("infile", nargs="?")
    r.add_argument("--exhaustive", action="store_true", help="sweep all in-range FP16 patterns")
    r.add_argument("--bf16", action="store_true")
    r.set_defaults(fn=_cmd_roundtrip)

    g = sub.add_parser("gemm", help="run a draft or full GEMM")
    g.add_argument("--mode", choices=["draft", "full"], required=True)
    g.add_argument("--a", required=True, help="activations (.npy)")
    g.add_argument("--w", required=True, help="weights (.speq)")
    g.add_argument("--out", help="save outputs (.npy)")
    g.set_defaults(fn=_cmd_gemm)

    s = sub.add_parser("specdec", help="speculative decode on the toy model")
    s.add_argument("--seed", type=int, default=ModelConfig.seed)
    s.add_argument("--gamma", type=float, default=specdec.SpecDecConfig.gamma)
    s.add_argument("--max-draft-len", type=int, default=specdec.SpecDecConfig.max_draft_len)
    s.add_argument("--gen-len", type=int, default=256)
    s.add_argument("--prompts", type=int, default=1)
    s.add_argument("--prompt-len", type=int, default=8)
    s.add_argument("--prompt", help="UTF-8 text used as byte-level tokens")
    s.set_defaults(fn=_cmd_specdec)

    p = sub.add_parser("perf", help="accept-length and speedup model")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--L", dest="max_draft_len", type=int, required=True)
    p.add_argument("--td-ratio", type=float, default=0.25)
    p.add_argument("--tv-ratio", type=float, default=1.0)
    p.set_defaults(fn=_cmd_perf)

    m = sub.add_parser("simulate", help="PE-array cycle report for a GEMM shape")
    m.add_argument("--m", type=int, required=True)
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--mode", choices=["draft", "full"], required=True)
    m.add_argument("--group-size", type=int, default=DEFAULT_GROUP_SIZE)
    m.add_argument("--tiles", type=int, default=pe.PeConfig.tiles)
    m.add_argument("--pes-per-tile", type=int, default=pe.PeConfig.pes_per_tile)
    m.add_argument("--frequency", type=float, default=pe.PeConfig.frequency_hz)
    m.add_argument("--fill-cycles", type=int, default=pe.PeConfig.fill_cycles)
    m.set_defaults(fn=_cmd_simulate)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (OSError, ValueError, ContextOverflowError) as e:
        print(f"speq: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
