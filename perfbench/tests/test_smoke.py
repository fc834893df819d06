"""Minimal-length runs of every workload, untraced and traced.

The traced runs assert that each per-layer metric is non-zero on the
workloads that exercise its layer (and zero where the layer is bypassed),
which catches a wrapper patched on the wrong import site.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure
from perfbench.spans import SpanRecorder
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NUMERIC = ["numeric_fp16_zero2", "zero3_dp4_tiny"]
META = ["meta_100b_c4", "meta_infinity_10b"]

#: per-layer metric -> the workloads that must report it non-zero.
EXERCISED = {
    "data.batch_s": NUMERIC,
    "tensor.kernel_s": ["numeric_fp16_zero2"],
    "tensor.kernel_calls": list(WORKLOADS),
    "tensor.tensors_created": ["meta_100b_c4"],
    "nn.forward_s": ["meta_100b_c4"],
    "nn.backward_s": ["meta_100b_c4"],
    "optim.adam_s": NUMERIC,
    "optim.adam_elems": NUMERIC,
    "comm.collective_calls": ["zero3_dp4_tiny", "meta_100b_c4"],
    "comm.collective_s": ["zero3_dp4_tiny"],
    "comm.wait_s": ["zero3_dp4_tiny"],
    "comm.bytes": ["meta_100b_c4"],
    "memsim.alloc_calls": ["meta_100b_c4"],
    "memsim.alloc_s": ["meta_100b_c4"],
    "memsim.free_s": ["meta_100b_c4"],
    "memsim.peak_reserved_gb": ["meta_100b_c4"],
    "memsim.cached_gap_gb": ["meta_100b_c4"],
    "zero.self_s": ["zero3_dp4_tiny", "meta_infinity_10b"],
    "infinity.copy_calls": ["meta_infinity_10b"],
    "infinity.copy_s": ["meta_infinity_10b"],
    "infinity.engine_s": ["meta_infinity_10b"],
    "infinity.model_gather_stall_s": ["meta_infinity_10b"],
    "infinity.model_cpu_adam_s": ["meta_infinity_10b"],
    "runtime.rank_skew_s": ["zero3_dp4_tiny"],
    "model.compute_s": list(WORKLOADS),
    "model.collective_s": ["zero3_dp4_tiny", "meta_100b_c4"],
    "model.pcie_s": ["meta_infinity_10b"],
    "trace.step_s_p50": list(WORKLOADS),
}

#: per-layer metric -> the workloads that bypass the layer (must be 0).
BYPASSED = {
    "data.batch_s": META,
    "optim.adam_s": META,
    "comm.wait_s": META,
    "comm.retries": list(WORKLOADS),
    "runtime.rank_skew_s": META,
    **{
        name: [w for w in WORKLOADS if w != "meta_infinity_10b"]
        for name, _ in measure.PER_LAYER if name.startswith("infinity.")
    },
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_is_correct_and_reports_every_metric(name):
    result = measure.run_untraced(WORKLOADS[name], seed=0, seconds=0.0, root=ROOT)
    assert result.problems == []
    assert result.correct and result.failed == 0
    assert result.attempted == measure.SETUPS + measure.MIN_TIMED_STEPS
    assert [m for m in result.metrics] == [n for n, _ in measure.END_TO_END]
    for metric, (value, _unit) in result.metrics.items():
        assert value > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_exercises_the_layers_the_workload_runs(name, tmp_path):
    trace_path = tmp_path / "trace.json"
    result = measure.run_traced(WORKLOADS[name], seed=1, seconds=0.0, root=ROOT,
                                trace_path=trace_path)
    assert result.problems == [] and result.correct
    assert [m for m in result.metrics] == [n for n, _ in measure.PER_LAYER]
    values = {m: v for m, (v, _unit) in result.metrics.items()}
    for metric, workloads in EXERCISED.items():
        if name in workloads:
            assert values[metric] > 0, metric
    for metric, workloads in BYPASSED.items():
        if name in workloads:
            assert values[metric] == 0, metric
    trace = json.loads(trace_path.read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_recorder_restores_every_entry_point():
    from repro.parallel.engine import BaseEngine
    from repro.tensor import functional
    from repro.zero import stage12

    originals = (BaseEngine.train_step, functional.matmul, stage12.adam_step_inplace)
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert BaseEngine.train_step is not originals[0]
        assert functional.matmul is not originals[1]
        assert stage12.adam_step_inplace is not originals[2]
    finally:
        recorder.uninstall()
    assert (BaseEngine.train_step, functional.matmul, stage12.adam_step_inplace) == originals


def test_benchmark_json_matches_the_metrics_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(measure.PER_LAYER)


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meta_100b_c4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
