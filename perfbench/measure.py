"""The untraced run (end-to-end metrics) and the traced run (per layer).

Both drive one workload from a single thread in a closed loop: the next
step starts only when every rank has finished the previous one. The
untraced run times steps on its first set-up, then sets the workload up
again several times and reports the median set-up time. The traced run times
half its window untraced, then up to TRACE_MAX_STEPS steps with a
``SpanRecorder`` installed; the per-layer metrics come from the traced
steps and the gap between the two medians is the tracing overhead.

Host times of the one-thread workloads are reported at the reference host
speed: each is scaled by ``PROBE_REF_S / probe_s()`` with the probe timed
right after it (see ``probe.py``). The notes printed with each run give
the unscaled medians.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.sim_time import LedgerTimeEstimator, SimStepTime
from repro.telemetry.export import validate_chrome_trace
from repro.utils.units import GB, TFLOP

from perfbench import summary
from perfbench.checks import Checker, warmups_differ
from perfbench.driver import Session, StepOutcome
from perfbench.probe import PROBE_REF_S, probe_s
from perfbench.spans import SpanRecorder
from perfbench.workloads import Workload

#: set-ups per untraced run; ``setup_s`` is their median. The first one
#: is the session the timed steps run on.
SETUPS = 5
#: timed steps a run makes even when ``seconds`` is shorter.
MIN_TIMED_STEPS = 2
#: timed steps after which the untraced run reads the peak RSS. The
#: simulator keeps every ledger event, so RSS grows with the step count; a
#: fixed count keeps ``host_peak_rss_mb`` independent of the host's speed.
RSS_STEPS = 10
#: most steps the traced half records: a 100B meta step makes ~38k spans,
#: and every span stays in memory until the run ends.
TRACE_MAX_STEPS = 5
#: steps written to the Chrome trace file (the metrics use every step).
TRACE_FILE_STEPS = 1

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("step_s_p50", "s"),
    ("step_s_p90", "s"),
    ("tokens_per_s", "tokens/s"),
    ("model_tflops_per_gpu", "TFLOP/s"),
    ("peak_device_gb", "GB"),
    ("host_peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric of the traced run. Times and
#: counts are per step and per rank (median over steps of the mean over
#: ranks); the GB and model.* values are those of the simulated device
#: and the modeled clock.
PER_LAYER = (
    ("data.batch_s", "s"),
    ("tensor.kernel_s", "s"),
    ("tensor.kernel_calls", "count"),
    ("tensor.tensors_created", "count"),
    ("nn.forward_s", "s"),
    ("nn.backward_s", "s"),
    ("optim.adam_s", "s"),
    ("optim.adam_elems", "count"),
    ("comm.collective_calls", "count"),
    ("comm.collective_s", "s"),
    ("comm.wait_s", "s"),
    ("comm.bytes", "B"),
    ("comm.retries", "count"),
    ("memsim.alloc_calls", "count"),
    ("memsim.alloc_s", "s"),
    ("memsim.free_s", "s"),
    ("memsim.peak_reserved_gb", "GB"),
    ("memsim.cached_gap_gb", "GB"),
    ("zero.self_s", "s"),
    ("infinity.copy_calls", "count"),
    ("infinity.copy_s", "s"),
    ("infinity.engine_s", "s"),
    ("infinity.model_gather_stall_s", "s"),
    ("infinity.model_cpu_adam_s", "s"),
    ("runtime.rank_skew_s", "s"),
    ("model.compute_s", "s"),
    ("model.collective_s", "s"),
    ("model.pcie_s", "s"),
    ("trace.step_s_p50", "s"),
    ("trace.overhead_pct", "%"),
)


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    #: human-readable detail printed above the metrics (sample counts...).
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _speed_scale(w: Workload) -> float:
    """Factor that brings a host time just measured to the reference speed.

    Only the meta workloads, which run alone in the driver thread, are
    scaled. A multi-rank step's time hangs on how the rank threads share
    the cores, which the one-thread probe does not see: scaling widened
    numeric_fp16_zero2's run-to-run spread of step_s_p50 from 4% to 14%,
    and a probe run on as many threads as ranks tracked it no better.
    """
    return PROBE_REF_S / probe_s() if w.meta else 1.0


@dataclass(frozen=True)
class Timed:
    """One driver iteration of a timing window."""

    outcome: StepOutcome
    loop_s: float  # wall seconds of the iteration: batches, step, hand-offs
    scale: float  # _speed_scale right after the step
    rss_mb: float  # the process's peak RSS so far

    @property
    def step_s(self) -> float:
        return self.outcome.host_s * self.scale


def _window(session: Session, seconds: float, max_steps: int | None = None) -> list[Timed]:
    """Steps until ``seconds`` have passed (at least MIN_TIMED_STEPS),
    ``max_steps`` were made or one fails."""
    timed: list[Timed] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome = session.step()
        loop_s = time.perf_counter() - t0
        timed.append(Timed(
            outcome, loop_s, _speed_scale(session.workload),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ))
        if outcome.error is not None:
            break
        if len(timed) >= MIN_TIMED_STEPS and time.perf_counter() - t_start >= seconds:
            break
        if max_steps is not None and len(timed) >= max_steps:
            break
    return timed


def modeled_step(w: Workload, session: Session, outcome: StepOutcome) -> SimStepTime:
    """The modeled V100 clock for rank 0's step: its recorded collectives
    and PCIe copies priced by ``LedgerTimeEstimator``, plus GEMM time.
    NVMe lane copies have no alpha-beta price there; the infinity engine's
    own step clock covers them."""
    ctx = session.contexts[0]
    events = [e for e in outcome.ranks[0].events if not e.op.startswith("nvme")]
    return LedgerTimeEstimator(ctx.topology, ctx.device.spec).estimate(
        events, flops_per_gpu=w.flops_per_gpu, hidden=w.model.hidden,
    )


def model_tflops(w: Workload, session: Session, outcome: StepOutcome) -> float:
    if w.zero.infinity is not None:
        return w.flops_per_gpu / outcome.ranks[0].model_step_s / TFLOP
    return modeled_step(w, session, outcome).tflops_per_gpu


def _judge(
    checker: Checker, outcomes: list[StepOutcome], result: RunResult,
) -> None:
    for o in outcomes:
        problems = checker.step_problems(o)
        result.attempted += 1
        if problems:
            result.failed += 1
            result.problems.extend(problems)


def _ok(timed: list[Timed]) -> list[Timed]:
    ok = [t for t in timed if t.outcome.error is None]
    if not ok:
        raise RuntimeError("no step of the timed window completed")
    return ok


def _raw_p50(timed: list[Timed]) -> float:
    return statistics.median(t.outcome.host_s for t in timed)


def _set_up(w: Workload, seed: int) -> tuple[Session, float, float, StepOutcome]:
    """A started session, its set-up seconds scaled to the reference speed
    and unscaled, and its warm-up step."""
    session = Session(w, seed)
    took, warmup = session.start()
    if warmup.error is not None:
        session.close()
        raise RuntimeError(f"set-up failed: {warmup.error!r}") from warmup.error
    return session, took * _speed_scale(w), took, warmup


def run_untraced(w: Workload, seed: int, seconds: float, root: Path) -> RunResult:
    # The first set-up is timed, then closed before the others run, so the
    # RSS read during its window owes nothing to later set-ups.
    session, first_s, first_raw_s, first_warmup = _set_up(w, seed)
    try:
        timed = _window(session, seconds)
    finally:
        session.close()
    setup_s, raw_setup_s, warmups = [first_s], [first_raw_s], [first_warmup]
    for _ in range(SETUPS - 1):
        other, took, raw, warmup = _set_up(w, seed)
        other.close()
        setup_s.append(took)
        raw_setup_s.append(raw)
        warmups.append(warmup)
    checker = Checker(w, seed, root)
    checker.predict(session)
    result = RunResult(metrics={}, attempted=0, failed=0)
    _judge(checker, warmups + [t.outcome for t in timed], result)
    for i in warmups_differ(warmups):
        result.failed += 1
        result.problems.append(f"set-up {i + 1}'s warm-up step differs from set-up 1's")
    ok = _ok(timed)
    step = summary.timing([t.step_s for t in ok])
    rss_at = min(RSS_STEPS, len(timed))
    values = {
        "setup_s": statistics.median(setup_s),
        "step_s_p50": step.p50,
        "step_s_p90": step.p90,
        "tokens_per_s": len(ok) * w.tokens_per_step / sum(t.loop_s * t.scale for t in ok),
        "model_tflops_per_gpu": model_tflops(w, session, ok[-1].outcome),
        "peak_device_gb": max(t.outcome.peak_bytes for t in ok) / GB,
        "host_peak_rss_mb": timed[rss_at - 1].rss_mb,
    }
    result.metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    result.notes = [
        f"setup_s is the median of {SETUPS} set-ups; unscaled "
        + ", ".join(f"{s:.4f}" for s in raw_setup_s) + " s",
        f"step_s_p50 and step_s_p90 are over n={step.n} timed steps; "
        f"unscaled p50 {_raw_p50(ok):.4f} s, median host speed "
        f"{statistics.median(t.scale for t in ok):.3f}x the reference",
        f"tokens_per_s counts {w.tokens_per_step} simulated tokens a step",
        f"host_peak_rss_mb is read after the first set-up and {rss_at} timed steps",
    ]
    return result


def run_traced(
    w: Workload, seed: int, seconds: float, root: Path, trace_path: Path,
) -> RunResult:
    session, _, _, warmup = _set_up(w, seed)
    recorder = SpanRecorder()
    try:
        plain = _window(session, seconds / 2)
        session.recorder = recorder
        recorder.install()
        try:
            traced = _window(session, seconds / 2, TRACE_MAX_STEPS)
        finally:
            recorder.uninstall()
    finally:
        session.close()
    checker = Checker(w, seed, root)
    checker.predict(session)
    result = RunResult(metrics={}, attempted=0, failed=0)
    _judge(checker, [warmup] + [t.outcome for t in plain + traced], result)

    spans = recorder.spans
    if recorder.open_spans():
        result.problems.append(f"{recorder.open_spans()} spans were never closed")
    result.problems.extend(summary.root_spans_balance(spans))
    scale = {t.outcome.step: t.scale for t in traced}
    devices = [ctx.device for ctx in session.contexts]
    reports = getattr(session.engines[0].infinity, "reports", None)
    sim = modeled_step(w, session, _ok(traced)[-1].outcome)
    untraced_p50 = summary.timing([t.step_s for t in _ok(plain)]).p50
    traced_p50 = summary.timing([t.step_s for t in _ok(traced)]).p50
    values = {
        "memsim.peak_reserved_gb": max(d.max_reserved_bytes for d in devices) / GB,
        "memsim.cached_gap_gb": max(
            d.max_reserved_bytes - d.max_allocated_bytes for d in devices
        ) / GB,
        "infinity.model_gather_stall_s": reports[-1].gather_stall_s if reports else 0.0,
        "infinity.model_cpu_adam_s": reports[-1].cpu_adam_s if reports else 0.0,
        "runtime.rank_skew_s": statistics.median(
            skew * scale[step] for step, skew in summary.rank_skew(spans).items()
        ),
        "model.compute_s": sim.compute_s,
        "model.collective_s": sim.collective_s,
        "model.pcie_s": sim.pcie_s,
        "trace.step_s_p50": traced_p50,
        "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
    }
    # Everything else is a per-step span or counter total.
    table = summary.step_table(spans, recorder.counters)
    values.update(summary.per_step_medians(
        table, [name for name, _ in PER_LAYER if name not in values], scale,
    ))
    result.metrics = {name: (values[name], unit) for name, unit in PER_LAYER}

    chrome = summary.chrome_trace(spans, max_steps=TRACE_FILE_STEPS)
    validate_chrome_trace(chrome)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(chrome))
    result.notes = [
        f"traced {len(_ok(traced))} steps after {len(_ok(plain))} untraced ones; "
        f"{len(spans)} spans; layer times are per step and rank, at reference speed",
        f"tracing overhead: unscaled step p50 {_raw_p50(_ok(plain)):.4f} s untraced, "
        f"{_raw_p50(_ok(traced)):.4f} s traced",
        f"Chrome trace of the first {TRACE_FILE_STEPS} traced steps: {trace_path}",
    ]
    return result
