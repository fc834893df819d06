"""Statistics shared by the untraced and the traced run.

Pure functions over plain values, so the tests can feed them synthetic
inputs: percentiles with their sample count, span self time, and the
per-step, per-layer table the traced run reports.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple):
    """One call into a layer, recorded by ``spans.SpanRecorder``."""

    sid: int
    parent: int  # sid of the enclosing span on the same thread, -1 at the root
    kind: str  # "<layer>.<entry>", the key of SPAN_METRICS
    label: str  # the wrapped function, e.g. "ProcessGroup.all_reduce"
    rank: int
    step: int
    t0: float
    t1: float

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


#: span kind -> (self-time metric, call-count metric or None). The root of
#: every step is ``zero.train_step``; its self time is the part of the step
#: no wrapped layer covers, reported as ``zero.self_s``.
SPAN_METRICS: dict[str, tuple[str, str | None]] = {
    "data.sample_batch": ("data.batch_s", None),
    "tensor.kernel": ("tensor.kernel_s", "tensor.kernel_calls"),
    "nn.forward": ("nn.forward_s", None),
    "nn.backward": ("nn.backward_s", None),
    "optim.adam": ("optim.adam_s", None),
    "comm.collective": ("comm.collective_s", "comm.collective_calls"),
    "comm.wait": ("comm.wait_s", None),
    "memsim.alloc": ("memsim.alloc_s", "memsim.alloc_calls"),
    "memsim.free": ("memsim.free_s", None),
    "zero.train_step": ("zero.self_s", None),
    "infinity.copy": ("infinity.copy_s", "infinity.copy_calls"),
    "infinity.engine": ("infinity.engine_s", None),
}

ROOT_KIND = "zero.train_step"


@dataclass(frozen=True)
class Timing:
    """A timing reported as its median and 90th percentile, with the
    number of samples both were taken over."""

    p50: float
    p90: float
    n: int


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) by linear interpolation between
    the closest ranks, as NumPy's default method computes it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timing(values: list[float]) -> Timing:
    return Timing(percentile(values, 0.5), percentile(values, 0.9), len(values))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover.

    Children of one span run on the parent's thread, one after another,
    so their durations never overlap and a plain sum is the covered part.
    A child of the same layer (a kernel calling a kernel) is subtracted
    like any other child and keeps its own self time.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.dur
    return {s.sid: s.dur - covered[s.sid] for s in spans}


def step_table(
    spans: list[Span],
    counters: dict[tuple[int, int, str], float],
) -> dict[tuple[int, int], dict[str, float]]:
    """Per (rank, step): summed self time and call count of every span
    kind (under its SPAN_METRICS names) plus every counter."""
    selfs = self_times(spans)
    table: dict[tuple[int, int], dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        time_metric, calls_metric = SPAN_METRICS[s.kind]
        row = table[(s.rank, s.step)]
        row[time_metric] += selfs[s.sid]
        if calls_metric is not None:
            row[calls_metric] += 1
    for (rank, step, name), amount in counters.items():
        table[(rank, step)][name] += amount
    return table


def per_step_medians(
    table: dict[tuple[int, int], dict[str, float]],
    names: list[str],
    time_scale: dict[int, float] | None = None,
) -> dict[str, float]:
    """Each metric's median over steps of its mean over ranks (a metric
    absent from a row counts as 0 there: that layer did no work). With
    ``time_scale``, each step's time metrics (names ending in ``_s``) are
    multiplied by that step's factor first."""
    by_step: dict[int, list[dict[str, float]]] = defaultdict(list)
    for (_rank, step), row in table.items():
        by_step[step].append(row)
    out = {}
    for name in names:
        per_step = [
            sum(row.get(name, 0.0) for row in rows) / len(rows)
            * (time_scale[step] if time_scale and name.endswith("_s") else 1.0)
            for step, rows in by_step.items()
        ]
        out[name] = statistics.median(per_step) if per_step else 0.0
    return out


def root_spans_balance(spans: list[Span], tol_s: float = 1e-9) -> list[str]:
    """Check that, for every ``train_step`` span, the self times of the
    spans under it plus the uncovered remainder sum to its duration, and
    that no span's children cover more than the span itself. Returns one
    message per violation (empty when every step balances)."""
    selfs = self_times(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    problems = []
    for root in (s for s in spans if s.kind == ROOT_KIND):
        layered = 0.0
        stack = list(children[root.sid])
        while stack:
            s = stack.pop()
            if selfs[s.sid] < -tol_s:
                problems.append(f"span {s.label} (step {s.step}) has negative self time")
            layered += selfs[s.sid]
            stack.extend(children[s.sid])
        remainder = selfs[root.sid]
        if remainder < -tol_s or abs(layered + remainder - root.dur) > tol_s + 1e-9 * root.dur:
            problems.append(
                f"rank {root.rank} step {root.step}: layer self times {layered:.9f} s "
                f"+ remainder {remainder:.9f} s != train_step {root.dur:.9f} s"
            )
    return problems


def rank_skew(spans: list[Span]) -> dict[int, float]:
    """Per step: slowest minus fastest rank's ``train_step`` duration."""
    durs: dict[int, list[float]] = defaultdict(list)
    for s in spans:
        if s.kind == ROOT_KIND:
            durs[s.step].append(s.dur)
    return {step: max(d) - min(d) for step, d in durs.items()}


def chrome_trace(spans: list[Span], max_steps: int | None = None) -> dict:
    """Spans as Chrome trace complete ("X") events, one track per rank.

    ``max_steps`` keeps only the first that many distinct steps, which
    bounds the file for workloads with tens of thousands of spans a step.
    """
    if max_steps is not None:
        keep = set(sorted({s.step for s in spans})[:max_steps])
        spans = [s for s in spans if s.step in keep]
    t_base = min((s.t0 for s in spans), default=0.0)
    events: list[dict] = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": rank,
         "args": {"name": f"rank {rank}"}}
        for rank in sorted({s.rank for s in spans})
    ]
    # Per track, parents start no later than their children; ordering
    # equal starts by longest first keeps the nesting readable.
    for s in sorted(spans, key=lambda s: (s.rank, s.t0, -s.dur)):
        events.append({
            "name": s.label, "cat": s.kind, "ph": "X", "pid": 0, "tid": s.rank,
            "ts": (s.t0 - t_base) * 1e6, "dur": s.dur * 1e6,
            "args": {"step": s.step, "sid": s.sid, "parent": s.parent},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
