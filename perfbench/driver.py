"""One training session driven step by step from a single driver thread.

``Session.start()`` builds the cluster (or virtual rank), model and engine
and runs the warm-up step; each ``Session.step()`` then runs one more
``train_step`` on every rank and returns when all ranks have finished it
(a closed loop with one client). A multi-rank workload's rank threads are
the simulator's own SPMD ranks: they build their engine once, then wait
on a barrier for the driver's next command.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import Cluster
from repro.comm.ledger import CommEvent
from repro.data import SyntheticCorpus
from repro.experiments.common import virtual_groups
from repro.runtime import RankContext, virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.zero.factory import build_model_and_engine

from perfbench.workloads import Workload

#: bound on any one wait for the rank threads (the run itself is shorter).
BARRIER_TIMEOUT_S = 120.0


@dataclass
class RankStep:
    t0: float
    t1: float
    loss: float | None
    model_step_s: float
    peak_bytes: int
    events: list[CommEvent] = field(default_factory=list)


@dataclass
class StepOutcome:
    """One step over all ranks; ``error`` is set when any rank raised."""

    step: int
    ranks: list[RankStep]
    error: BaseException | None = None

    @property
    def host_s(self) -> float:
        """Host seconds of the step: first rank entering ``train_step`` to
        the last rank leaving it."""
        return max(r.t1 for r in self.ranks) - min(r.t0 for r in self.ranks)

    @property
    def losses(self) -> list[float | None]:
        return [r.loss for r in self.ranks]

    @property
    def peak_bytes(self) -> int:
        return max(r.peak_bytes for r in self.ranks)

    @property
    def ledger_bytes(self) -> int:
        """Bytes rank 0's ledger recorded during the step."""
        return sum(e.message_bytes for e in self.ranks[0].events)


class Session:
    """Builds one workload for one seed and runs its steps."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        #: a ``spans.SpanRecorder`` to tag with (rank, step), or None.
        self.recorder = None
        self.contexts: list[RankContext] = []
        self.engines: list = []
        self._next_step = 0
        self._results: list[RankStep | None] = []
        self._corpus = (
            None if workload.meta
            else SyntheticCorpus(workload.model.vocab_size, seed=seed)
        )
        self._meta_batch: tuple[Tensor, Tensor] | None = None
        # Rank-thread plumbing (multi-rank workloads only).
        self._launcher: threading.Thread | None = None
        self._go: threading.Barrier | None = None
        self._done: threading.Barrier | None = None
        self._stop = False
        self._error: BaseException | None = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> tuple[float, StepOutcome]:
        """Build everything and run the warm-up step (step 0); returns the
        set-up seconds and the warm-up outcome."""
        t0 = time.perf_counter()
        w = self.workload
        if w.meta:
            self._build_virtual()
        else:
            n = w.threads
            self.contexts = [None] * n  # type: ignore[list-item]
            self.engines = [None] * n
            self._go = threading.Barrier(n + 1)
            self._done = threading.Barrier(n + 1)
            cluster = Cluster(n, timeout_s=BARRIER_TIMEOUT_S)
            self._launcher = threading.Thread(
                target=self._launch, args=(cluster,), name="perfbench-launcher",
            )
            self._launcher.start()
        warmup = self.step()
        return time.perf_counter() - t0, warmup

    def close(self) -> None:
        """Release the rank threads and wait until they have ended."""
        if self._launcher is None:
            return
        self._stop = True
        try:
            self._go.wait(BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            pass  # a rank already failed and broke the barrier
        self._launcher.join(BARRIER_TIMEOUT_S)
        if self._launcher.is_alive():
            raise RuntimeError("rank threads did not stop")
        self._launcher = None

    # -- building -------------------------------------------------------------------

    def _build(self, ctx: RankContext, dp_group, mp_group=None):
        w = self.workload
        return build_model_and_engine(
            ctx, w.model, w.zero, dp_group=dp_group, mp_group=mp_group,
            dtype=w.dtype, seed=self.seed, meta=w.meta,
            md_region_bytes=w.md_region_bytes,
            defer_param_allocation=w.defer_param_allocation,
        )[1]

    def _build_virtual(self) -> None:
        w = self.workload
        ctx = virtual_rank_context(w.job_gpus)
        if w.mp > 1:
            dp_group, mp_group = virtual_groups(ctx, w.job_gpus, w.mp)
        else:
            dp_group, mp_group = ctx.world, None
        self.contexts = [ctx]
        self.engines = [self._build(ctx, dp_group, mp_group)]
        self._meta_batch = (
            Tensor.meta((w.batch, w.seq), np.int64, device=ctx.device),
            Tensor.meta((w.batch, w.seq), np.int64, device=ctx.device),
        )

    def _launch(self, cluster: Cluster) -> None:
        try:
            cluster.run(self._rank_main)
        except BaseException as exc:  # noqa: BLE001 - reported by step()
            self._error = exc
            self._go.abort()
            self._done.abort()

    def _rank_main(self, ctx: RankContext) -> None:
        try:
            self.contexts[ctx.rank] = ctx
            self.engines[ctx.rank] = self._build(ctx, ctx.world)
            while True:
                self._go.wait(BARRIER_TIMEOUT_S)
                if self._stop:
                    return
                self._rank_step(ctx.rank, self._next_step)
                self._done.wait(BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            if self._stop:
                return
            raise
        except BaseException:
            self._go.abort()
            self._done.abort()
            raise

    # -- stepping ---------------------------------------------------------------------

    def _rank_step(self, rank: int, step: int) -> None:
        if self.recorder is not None:
            self.recorder.set_context(rank, step)
        w = self.workload
        if w.meta:
            ids, targets = self._meta_batch
        else:
            # Every rank draws the same batch: data-parallel replicas then
            # must report bitwise-equal losses, which checks that they stay
            # in sync. The host work per rank is that of distinct batches.
            ids, targets = self._corpus.sample_batch(w.batch, w.seq, rank=0, step=step)
        ctx = self.contexts[rank]
        n_events = len(ctx.ledger.events)
        t0 = time.perf_counter()
        result = self.engines[rank].train_step(ids, targets)
        t1 = time.perf_counter()
        self._results[rank] = RankStep(
            t0=t0, t1=t1, loss=result.loss, model_step_s=result.step_time_model_s,
            peak_bytes=ctx.device.max_allocated_bytes,
            events=ctx.ledger.events[n_events:] if rank == 0 else [],
        )

    def step(self) -> StepOutcome:
        """Run the next step on every rank and wait for all of them."""
        step = self._next_step
        n = len(self.contexts)
        self._results = [None] * n
        error = None
        if self._launcher is None:
            try:
                self._rank_step(0, step)
            except Exception as exc:  # noqa: BLE001 - counted as a failed step
                error = exc
        else:
            try:
                self._go.wait(BARRIER_TIMEOUT_S)
                self._done.wait(BARRIER_TIMEOUT_S)
            except threading.BrokenBarrierError:
                self._launcher.join(BARRIER_TIMEOUT_S)
                error = self._error or RuntimeError("rank threads stopped")
        self._next_step += 1
        ranks = [r for r in self._results if r is not None]
        if error is None and len(ranks) != n:
            error = RuntimeError(f"only {len(ranks)} of {n} ranks finished step {step}")
        return StepOutcome(step=step, ranks=ranks, error=error)
