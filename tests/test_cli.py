"""CLI surface: subcommands, report lines, exit codes, determinism."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from speq.cli import build_parser, main
from speq.model import ModelConfig
from speq.pe import PeConfig
from speq.quantize import DEFAULT_GROUP_SIZE, QuantFormat, draft_mse
from speq.report import parse
from speq.specdec import SpecDecConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, parse(out.out), out.out


@pytest.fixture()
def tensor_npy(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "w.npy"
    np.save(path, rng.normal(0, 0.02, (256, 8)).astype(np.float16))
    return str(path)


def test_perf_r_zero(capsys):
    code, rep, _ = run(
        capsys, "--no-timestamp", "perf", "--r", "0", "--L", "16",
        "--td-ratio", "0.25", "--tv-ratio", "1",
    )
    assert code == 0
    assert rep["perf.accept_len"] == "1.0"
    assert rep["perf.speedup"] == "0.2"  # one token per 16 quarter-cost drafts and a verify


def test_perf_reference_speedup(capsys):
    code, rep, _ = run(capsys, "--no-timestamp", "perf", "--r", "1", "--L", "16")
    assert code == 0
    assert rep["perf.speedup"] == "3.4"
    assert rep["perf.accept_len"] == "17.0"
    # the analytic model only: no sampling path and no second speedup line
    perf = {k.removeprefix("perf.") for k in rep if k.startswith("perf.")}
    assert perf == {"r", "max_draft_len", "td_ratio", "tv_ratio", "accept_len", "speedup"}
    for removed in (["--mc-rounds", "10"], ["--seed", "1"]):
        assert main(["perf", "--r", "0.5", "--L", "4", *removed]) == 2


@pytest.mark.parametrize("flag,value", [("--td-ratio", "nan"), ("--tv-ratio", "inf")])
def test_perf_rejects_nonfinite_time(capsys, flag, value):
    code, _, _ = run(capsys, "perf", "--r", "0.5", "--L", "4", flag, value)
    assert code == 2


def test_quantize_then_roundtrip(capsys, tensor_npy, tmp_path):
    out = str(tmp_path / "w.speq")
    code, rep, _ = run(capsys, "quantize", "--in", tensor_npy, "--out", out)
    assert code == 0
    assert rep["quantize.format"] == "e3m0-remap"
    assert rep["quantize.payload_bits_per_weight"] == "16.0"
    assert rep["quantize.draft_bits_per_weight"] == "4.0"

    code, rep, _ = run(capsys, "roundtrip", tensor_npy)
    assert code == 0
    assert rep["roundtrip.mismatches"] == "0"
    assert rep["roundtrip.ok"] == "true"

    code, rep, _ = run(capsys, "roundtrip", out)
    assert code == 0
    assert rep["roundtrip.mode"] == "container"


# ``speq quantize --format X`` on the pinned tensor below, when every format
# could still be packed: the ``quantize.mse`` line of each run.
PINNED_MSE = {
    QuantFormat.E3M0_REMAP: ("mse", "0.00010775579027443938"),
    QuantFormat.E3M0_NAIVE: ("mse_e3m0", "8.139005159735339e-05"),
    QuantFormat.E2M1: ("mse_e2m1", "3.250189642021999e-05"),
    QuantFormat.E1M2: ("mse_e1m2", "3.268613234816513e-05"),
}


def test_quantize_mse_lines_pinned(capsys, tmp_path):
    # a 72-row tail group, and one outlier, so tensor_scale != 1
    w = np.random.default_rng(41).normal(0.0, 0.02, (200, 6)).astype(np.float16)
    w[17, 3] = np.float16(-2.4062)
    np.save(tmp_path / "w.npy", w)
    code, rep, _ = run(
        capsys, "quantize", "--in", str(tmp_path / "w.npy"), "--out", str(tmp_path / "w.speq")
    )
    assert code == 0
    assert rep["quantize.format"] == "e3m0-remap"
    assert rep["quantize.tensor_scale"] != "1.0"
    for fmt, (key, value) in PINNED_MSE.items():
        assert rep[f"quantize.{key}"] == value
        assert draft_mse(w, 128, fmt) == float(value)


def test_quantize_has_no_format_option(capsys, tensor_npy, tmp_path):
    out = str(tmp_path / "w.speq")
    code, _, _ = run(capsys, "quantize", "--in", tensor_npy, "--out", out, "--format", "e2m1")
    assert code == 2


def test_quantize_group_size_too_wide_for_header(capsys, tensor_npy, tmp_path):
    # the container stores the group size as a u32: a wider one is a usage
    # error, raised before --out is opened, so an existing file keeps its bytes
    out = tmp_path / "w.speq"
    out.write_bytes(b"keep me")
    code = main(["quantize", "--in", tensor_npy, "--out", str(out), "--group-size", str(2**33)])
    assert code == 2
    assert "group_size 8589934592 does not fit" in capsys.readouterr().err
    assert out.read_bytes() == b"keep me"


def test_nonzero_flags_byte_is_io_error(capsys, tensor_npy, tmp_path, reseal):
    wout = tmp_path / "w.speq"
    run(capsys, "quantize", "--in", tensor_npy, "--out", str(wout))
    data = bytearray(wout.read_bytes())
    # a well-formed e2m1 container of the old format: flags byte 2, no remainder
    data[5] = 2
    n_wr = 12 * 256 * 8 // 8
    data[-4 - n_wr : -4] = bytes(n_wr)
    wout.write_bytes(reseal(data))
    a = str(tmp_path / "a.npy")
    np.save(a, np.ones((1, 256), dtype=np.float16))
    for argv in (
        ("gemm", "--mode", "full", "--a", a, "--w", str(wout)),
        ("gemm", "--mode", "draft", "--a", a, "--w", str(wout)),
        ("inspect", str(wout)),
        ("roundtrip", str(wout)),
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 2, argv


def test_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    sim = parse(["simulate", "--m", "1", "--n", "1", "--k", "1", "--mode", "full"])
    got = PeConfig(
        tiles=sim.tiles,
        pes_per_tile=sim.pes_per_tile,
        frequency_hz=sim.frequency,
        fill_cycles=sim.fill_cycles,
    )
    assert got == PeConfig()
    assert sim.group_size == DEFAULT_GROUP_SIZE
    spec = parse(["specdec"])
    assert SpecDecConfig(max_draft_len=spec.max_draft_len, gamma=spec.gamma) == SpecDecConfig()
    assert spec.seed == ModelConfig().seed
    assert parse(["quantize", "--in", "w.npy", "--out", "w.speq"]).group_size == DEFAULT_GROUP_SIZE


def test_roundtrip_takes_no_group_size(capsys, tensor_npy):
    # the full bits do not depend on the group size, so the flag would change nothing
    assert main(["roundtrip", tensor_npy, "--group-size", "64"]) == 2
    assert "unrecognized arguments: --group-size" in capsys.readouterr().err


def test_roundtrip_exhaustive(capsys):
    code, rep, _ = run(capsys, "roundtrip", "--exhaustive")
    assert code == 0
    assert rep["roundtrip.patterns"] == "32768"
    assert rep["roundtrip.mismatches"] == "0"


def test_gemm_modes(capsys, tensor_npy, tmp_path):
    wout = str(tmp_path / "w.speq")
    run(capsys, "quantize", "--in", tensor_npy, "--out", wout, "--group-size", "64")
    a = str(tmp_path / "a.npy")
    np.save(a, np.random.default_rng(1).normal(0, 1, (2, 256)).astype(np.float16))

    code, rep_d, _ = run(capsys, "gemm", "--mode", "draft", "--a", a, "--w", wout)
    assert code == 0
    code, rep_f, _ = run(capsys, "gemm", "--mode", "full", "--a", a, "--w", wout)
    assert code == 0
    assert 4 * int(rep_d["gemm.weight_bits"]) == int(rep_f["gemm.weight_bits"])
    # the traffic lines are the PE model's for the same GEMM
    for mode, rep in (("draft", rep_d), ("full", rep_f)):
        shape = ["--m", "2", "--n", "8", "--k", "256", "--group-size", "64"]
        code, sim, _ = run(capsys, "simulate", *shape, "--mode", mode)
        assert code == 0
        for key in ("weight_bits", "weight_bytes", "scale_bytes", "activation_bytes"):
            assert rep[f"gemm.{key}"] == sim[f"cycles.{key}"], (mode, key)


def test_gemm_output_file(capsys, tensor_npy, tmp_path):
    wout = str(tmp_path / "w.speq")
    run(capsys, "quantize", "--in", tensor_npy, "--out", wout)
    a = str(tmp_path / "a.npy")
    np.save(a, np.ones((1, 256), dtype=np.float16))
    res = str(tmp_path / "out.npy")
    code, _, _ = run(capsys, "gemm", "--mode", "full", "--a", a, "--w", wout, "--out", res)
    assert code == 0
    assert np.load(res).shape == (1, 8)


def test_gemm_bad_tensor_scale_is_io_error(capsys, tensor_npy, tmp_path, reseal):
    wout = tmp_path / "w.speq"
    run(capsys, "quantize", "--in", tensor_npy, "--out", str(wout))
    good = wout.read_bytes()
    a = str(tmp_path / "a.npy")
    np.save(a, np.ones((1, 256), dtype=np.float16))
    for scale in (0.0, 1e-45):  # 1e-45 is a subnormal whose reciprocal overflows
        data = bytearray(good)
        struct.pack_into("<f", data, 22, scale)  # tensor scale, after magic, flags and 4 u32
        wout.write_bytes(reseal(data))
        code, _, _ = run(capsys, "gemm", "--mode", "full", "--a", a, "--w", str(wout))
        assert code == 2, scale


def test_gemm_bad_group_scale_is_io_error(capsys, tensor_npy, tmp_path, reseal):
    wout = tmp_path / "w.speq"
    run(capsys, "quantize", "--in", tensor_npy, "--out", str(wout))
    data = bytearray(wout.read_bytes())
    struct.pack_into("<f", data, 26, float("nan"))  # first group scale, after the tensor scale
    wout.write_bytes(reseal(data))
    a = str(tmp_path / "a.npy")
    np.save(a, np.ones((1, 256), dtype=np.float16))
    code, _, _ = run(capsys, "gemm", "--mode", "draft", "--a", a, "--w", str(wout))
    assert code == 2


def test_unreachable_word_is_io_error(capsys, tensor_npy, tmp_path, patch_word):
    wout = tmp_path / "w.speq"
    run(capsys, "quantize", "--in", tensor_npy, "--out", str(wout))
    a = str(tmp_path / "a.npy")
    np.save(a, np.ones((1, 256), dtype=np.float16))
    # Flagged qcode 100, which only an unflagged word may carry, then the
    # eight (qcode, flag, elsb) aliases that decode bit by bit to an
    # in-range value the encoder writes under another word.
    words = [(0b100, 1, 1), (0b000, 0, 0), (0b000, 0, 1), (0b000, 1, 0), (0b010, 0, 0),
             (0b010, 0, 1), (0b010, 1, 0), (0b100, 0, 1), (0b101, 0, 1)]
    good = wout.read_bytes()
    for qcode, flag, elsb in words:
        bad = tmp_path / "bad.speq"
        bad.write_bytes(patch_word(good, (0, 0), qcode, flag, elsb))
        code, _, _ = run(capsys, "gemm", "--mode", "draft", "--a", a, "--w", str(bad))
        assert code == 2, (qcode, flag, elsb)
        code, _, _ = run(capsys, "roundtrip", str(bad))
        assert code == 2, (qcode, flag, elsb)


def test_nonzero_padding_is_io_error(capsys, tmp_path, reseal):
    w, wout = str(tmp_path / "w.npy"), tmp_path / "w.speq"
    np.save(w, np.random.default_rng(5).normal(0, 0.02, (7, 5)).astype(np.float16))
    run(capsys, "quantize", "--in", w, "--out", str(wout))
    a = str(tmp_path / "a.npy")
    np.save(a, np.ones((1, 7), dtype=np.float16))
    data = bytearray(wout.read_bytes())
    data[-5] |= 0x10  # in the zero record that pads the last column's 7 records
    wout.write_bytes(reseal(data))
    code, _, _ = run(capsys, "gemm", "--mode", "full", "--a", a, "--w", str(wout))
    assert code == 2
    code, _, _ = run(capsys, "roundtrip", str(wout))
    assert code == 2


def test_gemm_column_activation(capsys, tmp_path):
    # A (3, 1) activation against a (1, 6) weight is three rows of K=1,
    # not one row of K=3; against a (3, 2) weight a column is one row.
    rng = np.random.default_rng(6)
    a = str(tmp_path / "a.npy")
    for shape, m in (((1, 6), 3), ((3, 2), 1)):
        w, wout = str(tmp_path / "w.npy"), str(tmp_path / "w.speq")
        np.save(w, rng.normal(0, 0.02, shape).astype(np.float16))
        run(capsys, "quantize", "--in", w, "--out", wout)
        np.save(a, rng.normal(0, 1, (3, 1)).astype(np.float16))
        code, rep, _ = run(capsys, "gemm", "--mode", "full", "--a", a, "--w", wout)
        assert code == 0, shape
        assert (rep["gemm.m"], rep["gemm.n"], rep["gemm.k"]) == (str(m), str(shape[1]), str(shape[0]))


def test_gemm_rejects_zero_row_activation(capsys, tmp_path):
    w, wout, a = str(tmp_path / "w.npy"), str(tmp_path / "w.speq"), str(tmp_path / "a.npy")
    np.save(w, np.random.default_rng(7).normal(0, 0.02, (4, 3)).astype(np.float16))
    run(capsys, "quantize", "--in", w, "--out", wout)
    np.save(a, np.ones((0, 4), dtype=np.float16))
    for mode in ("full", "draft"):
        code, rep, _ = run(capsys, "gemm", "--mode", mode, "--a", a, "--w", wout)
        assert (code, rep) == (2, {}), mode


def test_inspect(capsys, tensor_npy):
    code, rep, _ = run(capsys, "inspect", tensor_npy)
    assert code == 0
    assert rep["hist.total"] == "2048"
    assert rep["hist.frac_unused"] == "0.0"
    assert sum(int(rep[f"hist.exp{i:02d}"]) for i in range(32)) == 2048


def test_specdec_gamma_one(capsys):
    code, rep, _ = run(
        capsys, "specdec", "--gamma", "1.0", "--gen-len", "12", "--prompts", "2",
    )
    assert code == 0
    assert rep["specdec.proposed"] == "0"
    assert rep["specdec.lossless"] == "true"


def test_specdec_default_gamma(capsys):
    code, rep, _ = run(
        capsys, "specdec", "--gen-len", "24", "--prompts", "2", "--seed", "3",
    )
    assert code == 0
    assert rep["specdec.lossless"] == "true"
    assert int(rep["specdec.proposed"]) > 0


def test_specdec_text_prompt(capsys):
    code, rep, _ = run(
        capsys, "specdec", "--prompt", "hello", "--gen-len", "8", "--prompts", "1",
    )
    assert code == 0
    assert rep["specdec.lossless"] == "true"


@pytest.mark.parametrize(
    "flag,value",
    [
        pytest.param("--prompts", "0", id="0"),
        pytest.param("--prompts", "-1", id="-1"),
        pytest.param("--prompt-len", "-1", id="prompt-len--1"),
    ],
)
def test_specdec_rejects_no_prompts(capsys, flag, value):
    assert main(["specdec", flag, value, "--gen-len", "4"]) == 2
    captured = capsys.readouterr()
    name = flag.removeprefix("--").replace("-", "_")
    assert f"speq: error: {name} must be" in captured.err
    assert "lossless" not in captured.out


def test_simulate(capsys):
    code, rep, _ = run(
        capsys, "simulate", "--m", "1", "--n", "1024", "--k", "4096", "--mode", "full",
    )
    assert code == 0
    assert rep["cycles.mac_cycles"] == "4096"
    assert rep["cycles.cycles"] == str(4096 + 32)
    code, rep, _ = run(
        capsys, "simulate", "--m", "1", "--n", "1024", "--k", "4096", "--mode", "draft",
    )
    assert rep["cycles.mac_cycles"] == "4096/3"


@pytest.mark.parametrize(
    "bad",
    [
        (["--tiles", "0", "--pes-per-tile", "4"], "tiles"),
        (["--frequency", "-5"], "frequency_hz"),
        (["--group-size", "0"], "group_size"),
    ],
)
def test_simulate_rejects_bad_config(capsys, bad):
    flags, name = bad
    argv = ["simulate", "--m", "1", "--n", "64", "--k", "64", "--mode", "full", *flags]
    assert main(argv) == 2
    assert f"speq: error: {name} must be" in capsys.readouterr().err


def test_deterministic_reports(capsys, tensor_npy):
    _, _, out1 = run(capsys, "--no-timestamp", "inspect", tensor_npy)
    _, _, out2 = run(capsys, "--no-timestamp", "inspect", tensor_npy)
    assert out1 == out2


def test_timestamp_excluded_mode(capsys, tensor_npy):
    _, _, out1 = run(capsys, "inspect", tensor_npy)
    _, _, out2 = run(capsys, "inspect", tensor_npy)
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("run.timestamp=")]
    assert strip(out1) == strip(out2)


def test_missing_file_is_io_error(capsys):
    code, _, _ = run(capsys, "inspect", "/nonexistent/file.npy")
    assert code == 2


def test_corrupt_container_is_io_error(capsys, tensor_npy, tmp_path):
    wout = tmp_path / "w.speq"
    run(capsys, "quantize", "--in", tensor_npy, "--out", str(wout))
    data = bytearray(wout.read_bytes())
    data[20] ^= 0xFF
    wout.write_bytes(bytes(data))
    code, _, _ = run(capsys, "roundtrip", str(wout))
    assert code == 2


def test_usage_error(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_roundtrip_needs_target(capsys):
    code, _, _ = run(capsys, "roundtrip")
    assert code == 2


_MALFORMED_USES = {
    "quantize": lambda d, f: ["quantize", "--in", f, "--out", str(d / "out.speq")],
    "inspect": lambda d, f: ["inspect", f],
    "roundtrip": lambda d, f: ["roundtrip", f],
    "gemm-a": lambda d, f: ["gemm", "--mode", "full", "--a", f, "--w", str(d / "good.speq")],
    "gemm-w": lambda d, f: ["gemm", "--mode", "draft", "--a", str(d / "good.npy"), "--w", f],
}


@pytest.mark.parametrize("use", sorted(_MALFORMED_USES))
def test_malformed_input_files_exit_2(capsys, tmp_path, malformed_files, use):
    # every malformed file is a usage error (exit 2), never a traceback or exit 0/1
    for name in malformed_files:
        capsys.readouterr()
        path = str(tmp_path / name)
        code = main(_MALFORMED_USES[use](tmp_path, path))
        err = capsys.readouterr().err
        assert (code, err.startswith("speq: error:")) == (2, True), (name, err)
        if use != "gemm-w" and not name.endswith(".speq"):  # read by np.load
            assert path in err, (name, err)
