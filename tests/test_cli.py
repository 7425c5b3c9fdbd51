"""CLI surface: subcommands, report lines, exit codes, determinism."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from speq.cli import main
from speq.container import read_container, to_bytes
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
    data = bytearray(wout.read_bytes())
    struct.pack_into("<f", data, 22, 0.0)  # tensor scale, after magic, flags and 4 u32
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[5:-4]) & 0xFFFFFFFF)
    wout.write_bytes(bytes(data))
    a = str(tmp_path / "a.npy")
    np.save(a, np.ones((1, 256), dtype=np.float16))
    code, _, _ = run(capsys, "gemm", "--mode", "full", "--a", a, "--w", str(wout))
    assert code == 2


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


def test_unreachable_word_is_io_error(capsys, tensor_npy, tmp_path):
    wout = tmp_path / "w.speq"
    run(capsys, "quantize", "--in", tensor_npy, "--out", str(wout))
    p = read_container(wout)
    p.wq[0, 0] = 0b0100  # qcode 100, which only an unflagged word may carry
    p.wr[0, 0] |= 1 << 11
    wout.write_bytes(to_bytes(p))
    a = str(tmp_path / "a.npy")
    np.save(a, np.ones((1, 256), dtype=np.float16))
    code, _, _ = run(capsys, "gemm", "--mode", "draft", "--a", a, "--w", str(wout))
    assert code == 2
    code, _, _ = run(capsys, "roundtrip", str(wout))
    assert code == 2


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
