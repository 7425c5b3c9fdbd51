"""Self-tests of the decode benchmark.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the package's own test collection: these
tests run tiny versions of the workloads and patch ``speq`` functions.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import signal  # noqa: E402
import time  # noqa: E402

import spans  # noqa: E402
import speqbench  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from speq import model as smodel  # noqa: E402

SPEC = json.loads(speqbench.BENCHMARK.read_text())


def tiny(name: str) -> speqbench.Workload:
    wl = speqbench.WORKLOADS[name]
    prompt_len = 24 if name == "long-context" else 4
    return dataclasses.replace(wl, prompt_len=prompt_len, gen_len=6, trace_pairs=1)


def test_benchmark_json_shape():
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(SPEC) == keys
    assert [w["name"] for w in SPEC["workloads"]] == list(speqbench.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", list(speqbench.WORKLOADS))
def test_inputs_deterministic_per_seed(name):
    wl = tiny(name)
    m1, p1 = speqbench.make_inputs(wl, 3)
    m2, p2 = speqbench.make_inputs(wl, 3)
    m3, p3 = speqbench.make_inputs(wl, 4)
    assert p1 == p2 and m1.weights == m2.weights
    assert np.array_equal(m1.embed, m2.embed)
    assert p1 != p3
    # The weights belong to the workload, not to the seed (README: "Seeds").
    assert m1.weights == m3.weights


@pytest.mark.parametrize("name", list(speqbench.WORKLOADS))
def test_smoke_end_to_end(name, tmp_path):
    result = speqbench.run_end_to_end(tiny(name), 1, 0.01, tmp_path)
    line = speqbench.result_line(result, "end_to_end")
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert not any(e.get("absent") for e in line["metrics"].values())
    assert result.notes["fail_frac"] == 0
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 4


@pytest.mark.parametrize("name", list(speqbench.WORKLOADS))
def test_smoke_traced(name, tmp_path, monkeypatch):
    monkeypatch.setattr(speqbench, "MICRO_SECONDS", 0.01)
    result = speqbench.run_traced(tiny(name), 1, 0.01, tmp_path)
    line = speqbench.result_line(result, "per_layer")
    absent = [k for k, e in line["metrics"].items() if e.get("absent")]
    assert absent == []
    assert line["correct"], result.notes
    # Wrappers are gone once the traced run returns.
    assert smodel.gemm_full.__module__ == "speq.kernels"


def test_fault_injection_counts_as_failure(tmp_path, monkeypatch):
    """A GEMM whose output is off by 1 ulp in one element must fail the run."""
    exact = smodel.gemm_full

    def off_by_one_ulp(*args, **kwargs):
        out = exact(*args, **kwargs)
        out.flat[0] = np.nextafter(out.flat[0], np.float32(np.inf))
        return out

    monkeypatch.setattr(smodel, "gemm_full", off_by_one_ulp)
    result = speqbench.run_end_to_end(tiny("chat-short"), 1, 0.01, tmp_path)
    assert result.notes["fail_frac"] > 0
    assert not speqbench.result_line(result, "end_to_end")["correct"]


def test_missing_target_is_absent_and_originals_restored():
    targets = spans.TARGETS + (spans.Target("ghost", "speq.model", "no_such_function"),)
    originals = (smodel.gemm_full, smodel.quantize_tensor)
    tracer = spans.Tracer(targets)
    with tracer.installed():
        assert smodel.gemm_full is not originals[0]
    assert (smodel.gemm_full, smodel.quantize_tensor) == originals
    assert tracer.absent == ["speq.model.no_such_function"]
    assert not tracer.present("ghost") and tracer.present("kernels.gemm_full")


def test_speed_probe_samples_and_restores_the_handler():
    def busy(seconds):
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            pass

    idle = SpeedProbe()
    _, dt, ref = idle.measure(busy, 0.01)
    assert ref == dt  # a probe that never started leaves timings as wall time
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.005) as probe:
        _, dt, ref = probe.measure(busy, 0.1)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 5 and 0 < dt < 0.1 and ref > 0
