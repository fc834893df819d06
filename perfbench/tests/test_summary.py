"""Self time, percentiles and the Chrome trace on synthetic inputs."""

import math

import pytest

from repro.telemetry.export import validate_chrome_trace

from perfbench import summary
from perfbench.summary import Span


def _tree() -> list[Span]:
    """One rank's step: train_step [0, 10] holding nn.forward [1, 7],
    which holds kernel [2, 5] holding a nested kernel [3, 4], and an
    alloc [5.5, 6]; then a collective [8, 9.5] holding a wait [8.5, 9]."""
    return [
        Span(3, 2, "tensor.kernel", "gelu", 0, 1, 3.0, 4.0),
        Span(2, 1, "tensor.kernel", "layernorm", 0, 1, 2.0, 5.0),
        Span(4, 1, "memsim.alloc", "Device.alloc", 0, 1, 5.5, 6.0),
        Span(1, 0, "nn.forward", "GPT2Model.forward", 0, 1, 1.0, 7.0),
        Span(6, 5, "comm.wait", "_Rendezvous._wait", 0, 1, 8.5, 9.0),
        Span(5, 0, "comm.collective", "ProcessGroup.reduce", 0, 1, 8.0, 9.5),
        Span(0, -1, "zero.train_step", "BaseEngine.train_step", 0, 1, 0.0, 10.0),
    ]


def test_self_time_subtracts_direct_children_including_same_layer():
    selfs = summary.self_times(_tree())
    assert selfs[3] == pytest.approx(1.0)  # nested kernel keeps its own time
    assert selfs[2] == pytest.approx(2.0)  # outer kernel: 3 - 1
    assert selfs[1] == pytest.approx(6.0 - 3.0 - 0.5)
    assert selfs[5] == pytest.approx(1.5 - 0.5)
    assert selfs[0] == pytest.approx(10.0 - 6.0 - 1.5)


def test_step_table_sums_self_time_per_layer_and_counts_calls():
    table = summary.step_table(_tree(), {(0, 1, "comm.bytes"): 4096.0})
    row = table[(0, 1)]
    # Both kernels count as calls; their self times add up to the outer
    # kernel's duration, with no double counting of the nested one.
    assert row["tensor.kernel_calls"] == 2
    assert row["tensor.kernel_s"] == pytest.approx(3.0)
    assert row["nn.forward_s"] == pytest.approx(2.5)
    assert row["memsim.alloc_calls"] == 1
    assert row["comm.collective_s"] == pytest.approx(1.0)
    assert row["comm.wait_s"] == pytest.approx(0.5)
    assert row["zero.self_s"] == pytest.approx(2.5)
    assert row["comm.bytes"] == 4096.0
    layered = sum(v for k, v in row.items() if k.endswith("_s"))
    assert layered == pytest.approx(10.0)


def test_balance_holds_for_a_well_formed_tree():
    assert summary.root_spans_balance(_tree()) == []


def test_balance_flags_a_child_that_outlasts_its_parent():
    spans = _tree() + [Span(7, 4, "tensor.kernel", "cast", 0, 1, 5.5, 6.5)]
    problems = summary.root_spans_balance(spans)
    assert any("negative self time" in p for p in problems)


def test_per_step_medians_average_ranks_then_take_the_median_over_steps():
    table = {
        (0, 1): {"x": 1.0}, (1, 1): {"x": 3.0},  # step 1 mean 2
        (0, 2): {"x": 4.0}, (1, 2): {"x": 6.0},  # step 2 mean 5
        (0, 3): {"x": 10.0}, (1, 3): {},  # step 3 mean 5 (rank 1 did none)
    }
    assert summary.per_step_medians(table, ["x", "absent"]) == {"x": 5.0, "absent": 0.0}


def test_per_step_medians_scale_only_time_metrics():
    table = {(0, 1): {"a_s": 2.0, "a_calls": 3.0}, (0, 2): {"a_s": 4.0, "a_calls": 3.0}}
    out = summary.per_step_medians(table, ["a_s", "a_calls"], {1: 0.5, 2: 1.0})
    assert out == {"a_s": pytest.approx(2.5), "a_calls": 3.0}


def test_percentiles_interpolate_and_report_the_sample_count():
    values = [float(v) for v in range(10, 0, -1)]  # 10..1, unsorted
    t = summary.timing(values)
    assert t.n == 10
    assert t.p50 == pytest.approx(5.5)
    assert t.p90 == pytest.approx(9.1)
    assert summary.timing([2.0]) == summary.Timing(2.0, 2.0, 1)
    with pytest.raises(ValueError):
        summary.percentile([], 0.5)
    with pytest.raises(ValueError):
        summary.percentile([1.0], 1.5)


def test_rank_skew_is_slowest_minus_fastest_train_step():
    spans = [
        Span(0, -1, "zero.train_step", "t", 0, 1, 0.0, 1.0),
        Span(1, -1, "zero.train_step", "t", 1, 1, 0.1, 1.4),
        Span(2, -1, "zero.train_step", "t", 0, 2, 2.0, 2.5),
        Span(3, -1, "zero.train_step", "t", 1, 2, 2.0, 2.5),
    ]
    skew = summary.rank_skew(spans)
    assert skew[1] == pytest.approx(0.3)
    assert skew[2] == 0.0


def test_chrome_trace_validates_and_keeps_the_first_steps():
    spans = _tree() + [
        Span(10 + s.sid, -1 if s.parent < 0 else 10 + s.parent, s.kind, s.label,
             1, 2, s.t0 + 20, s.t1 + 20)
        for s in _tree()
    ]
    full = summary.chrome_trace(spans)
    validate_chrome_trace(full)
    assert sum(e["ph"] == "X" for e in full["traceEvents"]) == len(spans)
    first = summary.chrome_trace(spans, max_steps=1)
    validate_chrome_trace(first)
    steps = {e["args"]["step"] for e in first["traceEvents"] if e["ph"] == "X"}
    assert steps == {1}
    assert all(math.isfinite(e["ts"]) for e in first["traceEvents"] if e["ph"] == "X")
