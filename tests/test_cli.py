"""CLI surface: subcommands, report lines, exit codes, determinism."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from speq.cli import main
from speq.quantize import QuantFormat, draft_mse
from speq.report import parse


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
        "--td-ratio", "0.25", "--tv-ratio", "1", "--mc-rounds", "1000",
    )
    assert code == 0
    assert rep["perf.accept_len"] == "1.0"
    assert float(rep["perf.mc_accept_len"]) == 1.0


def test_perf_reference_speedup(capsys):
    code, rep, _ = run(
        capsys, "--no-timestamp", "perf", "--r", "1", "--L", "16", "--mc-rounds", "0",
    )
    assert code == 0
    assert rep["perf.speedup_approx"] == "3.4"
    assert rep["perf.accept_len"] == "17.0"


@pytest.mark.parametrize("flag,value", [("--td-ratio", "nan"), ("--tv-ratio", "inf")])
def test_perf_rejects_nonfinite_time(capsys, flag, value):
    code, _, _ = run(capsys, "perf", "--r", "0.5", "--L", "4", "--mc-rounds", "0", flag, value)
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


def test_nonzero_flags_byte_is_io_error(capsys, tensor_npy, tmp_path):
    wout = tmp_path / "w.speq"
    run(capsys, "quantize", "--in", tensor_npy, "--out", str(wout))
    data = bytearray(wout.read_bytes())
    # a well-formed e2m1 container of the old format: flags byte 2, no remainder
    data[5] = 2
    n_wr = 12 * 256 * 8 // 8
    data[-4 - n_wr : -4] = bytes(n_wr)
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[5:-4]) & 0xFFFFFFFF)
    wout.write_bytes(bytes(data))
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


def test_roundtrip_exhaustive(capsys):
    code, rep, _ = run(capsys, "roundtrip", "--exhaustive")
    assert code == 0
    assert rep["roundtrip.patterns"] == "32768"
    assert rep["roundtrip.mismatches"] == "0"


def test_gemm_modes(capsys, tensor_npy, tmp_path):
    wout = str(tmp_path / "w.speq")
    run(capsys, "quantize", "--in", tensor_npy, "--out", wout)
    a = str(tmp_path / "a.npy")
    np.save(a, np.random.default_rng(1).normal(0, 1, (2, 256)).astype(np.float16))

    code, rep_d, _ = run(capsys, "gemm", "--mode", "draft", "--a", a, "--w", wout)
    assert code == 0
    code, rep_f, _ = run(capsys, "gemm", "--mode", "full", "--a", a, "--w", wout)
    assert code == 0
    assert 4 * int(rep_d["gemm.weight_bits"]) == int(rep_f["gemm.weight_bits"])


def test_gemm_output_file(capsys, tensor_npy, tmp_path):
    wout = str(tmp_path / "w.speq")
    run(capsys, "quantize", "--in", tensor_npy, "--out", wout)
    a = str(tmp_path / "a.npy")
    np.save(a, np.ones((1, 256), dtype=np.float16))
    res = str(tmp_path / "out.npy")
    code, _, _ = run(capsys, "gemm", "--mode", "full", "--a", a, "--w", wout, "--out", res)
    assert code == 0
    assert np.load(res).shape == (1, 8)


def test_gemm_bad_tensor_scale_is_io_error(capsys, tensor_npy, tmp_path):
    wout = tmp_path / "w.speq"
    run(capsys, "quantize", "--in", tensor_npy, "--out", str(wout))
    good = wout.read_bytes()
    a = str(tmp_path / "a.npy")
    np.save(a, np.ones((1, 256), dtype=np.float16))
    for scale in (0.0, 1e-45):  # 1e-45 is a subnormal whose reciprocal overflows
        data = bytearray(good)
        struct.pack_into("<f", data, 22, scale)  # tensor scale, after magic, flags and 4 u32
        struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[5:-4]) & 0xFFFFFFFF)
        wout.write_bytes(bytes(data))
        code, _, _ = run(capsys, "gemm", "--mode", "full", "--a", a, "--w", str(wout))
        assert code == 2, scale


def test_gemm_bad_group_scale_is_io_error(capsys, tensor_npy, tmp_path):
    wout = tmp_path / "w.speq"
    run(capsys, "quantize", "--in", tensor_npy, "--out", str(wout))
    data = bytearray(wout.read_bytes())
    struct.pack_into("<f", data, 26, float("nan"))  # first group scale, after the tensor scale
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[5:-4]) & 0xFFFFFFFF)
    wout.write_bytes(bytes(data))
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
        bad.write_bytes(patch_word(good, 0, qcode, flag, elsb))
        code, _, _ = run(capsys, "gemm", "--mode", "draft", "--a", a, "--w", str(bad))
        assert code == 2, (qcode, flag, elsb)
        code, _, _ = run(capsys, "roundtrip", str(bad))
        assert code == 2, (qcode, flag, elsb)


def test_nonzero_padding_is_io_error(capsys, tmp_path):
    w, wout = str(tmp_path / "w.npy"), tmp_path / "w.speq"
    np.save(w, np.random.default_rng(5).normal(0, 0.02, (7, 5)).astype(np.float16))
    run(capsys, "quantize", "--in", w, "--out", str(wout))
    a = str(tmp_path / "a.npy")
    np.save(a, np.ones((1, 7), dtype=np.float16))
    data = bytearray(wout.read_bytes())
    data[-5] |= 0x10  # above the last 12-bit record of 35
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[5:-4]) & 0xFFFFFFFF)
    wout.write_bytes(bytes(data))
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


@pytest.mark.parametrize("prompts", ["0", "-1"])
def test_specdec_rejects_no_prompts(capsys, prompts):
    assert main(["specdec", "--prompts", prompts, "--gen-len", "4"]) == 2
    captured = capsys.readouterr()
    assert "--prompts must be >= 1" in captured.err
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
    [["--tiles", "0", "--pes-per-tile", "4"], ["--frequency", "-5"], ["--group-size", "0"]],
)
def test_simulate_rejects_bad_config(capsys, bad):
    argv = ["simulate", "--m", "1", "--n", "64", "--k", "64", "--mode", "full", *bad]
    assert main(argv) == 2
    assert "must be positive" in capsys.readouterr().err


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
