"""InfinityEngine: overlap-centric data movement over the tier hierarchy.

The per-engine companion that turns byte-level events from a ZeRO stage
engine into a multi-tier transfer timeline on the simulated within-step
clock (t = 0 at forward begin). ZeRO-Offload is its host-only placement
(os@host, g@device|host, p@device): ``ZeROConfig``'s ``offload_*`` flags
compile to that ``InfinityConfig``, so one engine, one report and one
schedule serve both. It drives three overlap mechanisms:

- **Prefetched parameter gathers** (stage 3, ``param_tier != "device"``):
  each unit's parameter shard piece is paged in ``prefetch_depth`` units
  ahead of its compute, so tier reads ride the links while earlier units
  compute. A unit split into tiles (memory-centric tiling) pages tile by
  tile, bounding device residency to one tile.
- **Streamed gradients**: reduced gradient pieces cross PCIe while
  backward still runs (and are forwarded to NVMe when that is the
  gradient tier).
- **Paged optimizer state**: when the optimizer tier is NVMe, the fp32
  master/moment vectors page host-side in chunks around the update — an
  in -> update -> out pipeline whose chunks overlap, so the boundary costs
  roughly max(page-in, CPU Adam, page-out), not their sum.

The schedule is written once, in ``schedule_step``, over a *lanes*
object. The live step passes ``StreamLanes`` — the engine's two
``TierStream``s, which record the ledger, the handles and (via
``trace_step``) the trace spans; its node hooks are no-ops. Perfscope
passes a graph-recording subclass that also emits the milestone, window
and span nodes, and re-runs the same function on the captured inputs
(``last_capture``), optionally with re-priced links — so the step graph
is the engine's own schedule, bit-exact by construction.

Placement never changes numerics — values move through the same kernels
in the same order regardless of tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.infinity.config import InfinityConfig
from repro.infinity.tiers import TierStream, TierTopology, TransferHandle
from repro.memsim.device import HostMemory
from repro.offload.host_optim import CPU_ADAM_LATENCY_S, cpu_adam_seconds
from repro.runtime import RankContext

#: optimizer-state bytes per element paged each way (fp32 master + m + v).
OPT_STATE_BYTES_PER_ELEM = 12


@dataclass(frozen=True)
class InfinityStepReport:
    """One optimizer boundary's modeled multi-tier timeline."""

    compute_s: float  # forward + backward including gather-stall time
    gather_stall_s: float  # compute window growth from paged param gathers
    grad_out_s: float  # d2h lane seconds of this step's traffic
    opt_page_in_s: float  # NVMe read lane seconds for the update's page-in
    opt_page_out_s: float  # NVMe write lane seconds for the page-out
    cpu_adam_s: float  # host Adam over this rank's partition
    param_refresh_s: float  # wire time pushing the fp16 shard to its tier
    grads_ready_s: float  # when the last gradient byte lands on its tier
    carry_in_s: float  # DPU: previous step's deferred update tail
    step_s: float  # modeled wall time of the whole optimizer step


class StepTimes(NamedTuple):
    """The scalars ``schedule_step`` resolves for one boundary."""

    compute_s: float
    grads_ready_s: float
    cpu_adam_s: float
    refresh_wire_s: float
    step_s: float
    carry_out_s: float  # DPU: tail deferred into the next step


class StreamLanes:
    """Live lane set: copies land on the engine's ``TierStream``s (ledger,
    handles, trace); the node hooks are no-ops and allocate nothing."""

    def __init__(self, *streams: TierStream):
        self._by_direction = {d: s for s in streams for d in s.directions}

    def copy(self, nbytes, direction: str, submit: float, phase: str, dep):
        """Schedule one copy; ``dep`` names what it waited on (graph only)."""
        return self._by_direction[direction].copy_async(
            nbytes, direction, submit_t=submit, phase=phase
        )

    def span(self, kind: str, label: str, track: str, start: float, end: float,
             dep, dep2=None):
        return None

    def milestone(self, label: str, t: float, *deps):
        return None


def schedule_step(lanes, cap: dict, *, adam_rate: float | None = None):
    """Schedule one boundary from its captured inputs onto ``lanes``.

    ``cap`` is ``InfinityEngine.last_capture``'s layout; ``adam_rate``
    overrides the CPU Adam throughput (what-if re-pricing). Returns
    ``(StepTimes, step-end token)``.
    """
    cfg: InfinityConfig = cap["config"]
    per_s = cfg.cpu_adam_elements_per_s if adam_rate is None else adam_rate
    fwd_s, bwd_s = cap["fwd_s"], cap["bwd_s"]
    begin = lanes.milestone("step-begin", 0.0)
    # 1. Compute window, stretched by paged parameter gathers.
    gathers = cap["gathers"]
    fwd_end, fwd_tail = _gathered_window(
        lanes, cfg, gathers["forward"], fwd_s, 0.0, begin, "forward"
    )
    compute_end, bwd_tail = _gathered_window(
        lanes, cfg, gathers["backward"], bwd_s, fwd_end, fwd_tail, "backward"
    )
    # 2. Gradients stream out during backward (piece i of k submitted
    # when (i+1)/k of the backward window has elapsed), forwarded one
    # more hop when the gradient tier is NVMe.
    bwd_window = compute_end - fwd_end
    to_nvme = cfg.grad_tier == "nvme"
    last_hops: list[TransferHandle] = []
    pieces = cap["grad_pieces"]
    k = len(pieces)
    for i, nbytes in enumerate(pieces):
        submit = fwd_end + bwd_window * (i + 1) / k
        win = lanes.span("window", "grad-stream-window", "main", fwd_end, submit, fwd_tail)
        h = lanes.copy(nbytes, "d2h", submit, "infinity-grad", win)
        if to_nvme:
            h = lanes.copy(nbytes, "nvme-out", h.done_t, "infinity-grad", h)
        last_hops.append(h)
    if cap["boundary_grad_bytes"]:
        last_hops.append(lanes.copy(
            cap["boundary_grad_bytes"], "d2h", compute_end, "infinity-grad", bwd_tail
        ))
    grads_ready = compute_end
    for h in last_hops:
        h.synchronized = True
        grads_ready = max(grads_ready, h.done_t)
    gr = lanes.milestone("grads-ready", grads_ready, bwd_tail, *last_hops)
    # 3. The update: host Adam, with NVMe paging chunks pipelined around
    # it when the optimizer state lives on NVMe.
    adam_s, update_done, upd_tail = _schedule_update(
        lanes, cfg, per_s, cap["adam_numel"], grads_ready, gr
    )
    # 4. fp16 shard refresh to the parameter tier.
    refresh_done, refresh_wire, refresh_tail = _schedule_refresh(
        lanes, cfg, cap["param_h2d_bytes"], update_done, upd_tail
    )
    carry_in = cap["carry_in_s"]
    if cfg.delayed_param_update:
        # The update runs concurrently with the *next* step's compute;
        # this step waits only for its gradients and for the previous
        # step's deferred tail.
        step_s = max(compute_end, grads_ready, carry_in)
        carry_out = refresh_done - grads_ready
        carry = (
            lanes.span("carry", "dpu-carry", "host", 0.0, carry_in, begin)
            if carry_in > 0 else None
        )
        end = lanes.milestone("step-end", step_s, bwd_tail, gr, carry)
    else:
        step_s = max(compute_end, refresh_done)
        carry_out = 0.0
        end = lanes.milestone("step-end", step_s, bwd_tail, refresh_tail)
    times = StepTimes(compute_end, grads_ready, adam_s, refresh_wire, step_s, carry_out)
    return times, end


def _page_in(lanes, cfg: InfinityConfig, nbytes: int, submit: float, dep):
    """One device-bound page-in from the parameter tier; returns the
    final-hop handle (NVMe reads chain into PCIe h2d)."""
    if cfg.param_tier == "nvme":
        dep = lanes.copy(nbytes, "nvme-in", submit, "infinity-param", dep)
        submit = dep.done_t
    return lanes.copy(nbytes, "h2d", submit, "infinity-param", dep)


def _gathered_window(lanes, cfg: InfinityConfig, gathers, window_s: float,
                     t0: float, entry, mode: str):
    """One pass (forward or backward) with prefetched gathers.

    Units compute in sequence (uniform slices of ``window_s``); unit i's
    page-in is submitted when unit ``i - prefetch_depth`` starts computing
    (t0 for the leading units), tiles chained per unit. A unit starts once
    its first tile landed and ends no earlier than its last tile plus one
    tile's compute. Returns (pass end time, pass tail token).
    """
    if not gathers:
        return t0 + window_s, lanes.span("compute", mode, "main", t0, t0 + window_s, entry)
    slice_s = window_s / len(gathers)
    depth = cfg.prefetch_depth
    begin_label, unit_label = mode + "-unit-begin", mode + "-unit"
    tail_label, end_label = mode + "-gather-tail", mode + "-unit-end"
    starts: list[float] = []
    anchors: list = []
    t = t0
    prev = entry
    for i, (nbytes, tiles) in enumerate(gathers):
        if i >= depth:
            submit, anchor = starts[i - depth], anchors[i - depth]
        else:
            submit, anchor = t0, entry
        # Even byte split across tiles (remainder on the last tile); the
        # lane serializes them.
        base, rem = divmod(nbytes, tiles)
        first = last = None
        for j in range(tiles):
            last = _page_in(lanes, cfg, base + (rem if j == tiles - 1 else 0), submit, anchor)
            if j == 0:
                first = last
        start = max(t, first.done_t)
        ubegin = lanes.milestone(begin_label, start, prev, first)
        comp = lanes.span("compute", unit_label, "main", start, start + slice_s, ubegin)
        tail_end = last.done_t + slice_s / tiles
        tail = lanes.span("window", tail_label, "main", last.done_t, tail_end, last)
        t = max(start + slice_s, tail_end)
        prev = lanes.milestone(end_label, t, comp, tail)
        starts.append(start)
        anchors.append(ubegin)
    return t, prev


def _schedule_update(lanes, cfg: InfinityConfig, per_s: float, adam_numel: int,
                     t0: float, dep):
    """Host Adam (plus NVMe state paging) starting at ``t0``; returns
    (total adam seconds, time the last updated byte is back on the
    optimizer tier, tail token)."""
    if adam_numel <= 0 or cfg.optimizer_tier == "device":
        return 0.0, t0, dep
    if cfg.optimizer_tier == "host":
        adam_s = cpu_adam_seconds(adam_numel, elements_per_s=per_s)
        node = lanes.span("host", "cpu-adam", "host", t0, t0 + adam_s, dep)
        return adam_s, t0 + adam_s, node
    # NVMe-resident optimizer state: chunked in -> update -> out pipeline.
    # Gradients already host-resident feed the update for free;
    # NVMe-resident gradients page in alongside the state.
    in_bpe = OPT_STATE_BYTES_PER_ELEM + (2 if cfg.grad_tier == "nvme" else 0)
    out_bpe = OPT_STATE_BYTES_PER_ELEM
    chunk_elems = max(1, cfg.opt_chunk_bytes // (in_bpe + out_bpe))
    adam_total = 0.0
    adam_free = t0
    out_done = t0
    prev_adam = tail = dep
    latency = CPU_ADAM_LATENCY_S
    copy, span = lanes.copy, lanes.span  # thousands of chunks on large models
    lo = 0
    while lo < adam_numel:
        hi = min(lo + chunk_elems, adam_numel)
        e = hi - lo
        r = copy(e * in_bpe, "nvme-in", t0, "infinity-opt", dep)
        chunk_adam = e / per_s + latency  # the one-time latency rides chunk 0
        latency = 0.0
        adam_start = max(adam_free, r.done_t)
        adam_free = adam_start + chunk_adam
        adam_total += chunk_adam
        prev_adam = span("host", "cpu-adam-chunk", "host", adam_start, adam_free, prev_adam, r)
        tail = copy(e * out_bpe, "nvme-out", adam_free, "infinity-opt", prev_adam)
        out_done = tail.done_t
        lo = hi
    return adam_total, out_done, tail


def _schedule_refresh(lanes, cfg: InfinityConfig, nbytes: int, t0: float, dep):
    """Push the freshly-converted fp16 shard to the parameter tier;
    returns (completion time, total wire seconds, tail token)."""
    if nbytes <= 0:
        return t0, 0.0, dep
    master_on_host = cfg.optimizer_tier != "device"
    if cfg.param_tier == "device":
        if not master_on_host:
            return t0, 0.0, dep
        h = lanes.copy(nbytes, "h2d", t0, "infinity-refresh", dep)
        return h.done_t, h.wire_s, h
    if cfg.param_tier == "host":
        if master_on_host:
            return t0, 0.0, dep
        h = lanes.copy(nbytes, "d2h", t0, "infinity-refresh", dep)
        return h.done_t, h.wire_s, h
    # NVMe-resident shard: a device-side master crosses PCIe first.
    wire = 0.0
    if not master_on_host:
        dep = lanes.copy(nbytes, "d2h", t0, "infinity-refresh", dep)
        t0, wire = dep.done_t, dep.wire_s
    w = lanes.copy(nbytes, "nvme-out", t0, "infinity-refresh", dep)
    return w.done_t, wire + w.wire_s, w


class InfinityEngine:
    """Per-rank multi-tier movement engine: owns the streams and step clock.

    The stage engine drives it per optimizer boundary: ``begin_micro``
    once per micro-batch (accumulates compute time), ``queue_grad_d2h``
    per reduced gradient piece this rank owns (off-device gradients only),
    ``note_gather`` per paged unit gather, and ``finish_step`` at the
    boundary, which schedules every transfer and appends a report. Works
    identically in meta mode — only byte and element counts matter.
    """

    def __init__(self, ctx: RankContext, config: InfinityConfig):
        self.config = config
        self.tiers = TierTopology.from_cluster(
            ctx.topology, pcie=config.pcie, nvme=config.nvme
        )
        # The host link stream is the PCIe lane pair.
        self.pcie = TierStream(
            config.pcie or ctx.topology.pcie, ledger=ctx.ledger, rank=ctx.rank,
            directions=("d2h", "h2d"),
        )
        self.nvme_stream = TierStream(
            config.nvme or ctx.topology.nvme, ledger=ctx.ledger, rank=ctx.rank,
            directions=("nvme-out", "nvme-in"),
        )
        self._lanes = StreamLanes(self.pcie, self.nvme_stream)
        # Tier pools: host is the context's shared DRAM pool, NVMe the
        # context's (clusters share one per node).
        self._pools = {"host": ctx.host, "nvme": ctx.nvme}
        self.reports: list[InfinityStepReport] = []
        #: the most recent boundary's gather / gradient-piece profile.
        self.last_gathers: dict[str, list[tuple[int, int]]] = {
            "forward": [], "backward": [],
        }
        self.last_grad_pieces: list[int] = []
        #: scheduling inputs of the last boundary (see ``schedule_step``).
        self.last_capture: dict = {}
        self._carry_s = 0.0  # DPU: deferred (update + refresh) tail
        self._fwd_s = 0.0
        self._bwd_s = 0.0
        self._grad_pieces: list[int] = []
        self._gathers: dict[str, list[tuple[int, int]]] = {"forward": [], "backward": []}

    # -- placement -----------------------------------------------------------

    def pool(self, tier: str) -> HostMemory | None:
        """Byte-accounting pool for a tier (None = the device allocator)."""
        if tier == "device":
            return None
        return self._pools[tier]

    @property
    def optimizer_pool(self) -> HostMemory | None:
        return self.pool(self.config.optimizer_tier)

    @property
    def grad_pool(self) -> HostMemory | None:
        return self.pool(self.config.grad_tier)

    @property
    def param_pool(self) -> HostMemory | None:
        return self.pool(self.config.param_tier)

    # -- per-step event intake ----------------------------------------------

    def begin_micro(self, fwd_s: float, bwd_s: float) -> None:
        """Accrue one micro-batch's forward/backward compute seconds (the
        stage engine's ``_compute_split``)."""
        self._fwd_s += fwd_s
        self._bwd_s += bwd_s

    def queue_grad_d2h(self, nbytes: int) -> None:
        """One owned gradient piece became tier-bound during backward."""
        if nbytes > 0:
            self._grad_pieces.append(int(nbytes))

    def note_gather(self, nbytes: int, *, mode: str, tiles: int = 1) -> None:
        """One unit gather paged ``nbytes`` of this rank's shard in from the
        parameter tier (stage 3 with ``param_tier != "device"``), split into
        ``tiles`` sequential transfers under memory-centric tiling."""
        if mode not in self._gathers:
            raise ValueError(f"mode must be forward|backward, got {mode!r}")
        self._gathers[mode].append((int(nbytes), max(1, int(tiles))))

    # -- the boundary ---------------------------------------------------------

    def finish_step(
        self,
        *,
        adam_numel: int,
        param_h2d_bytes: int,
        boundary_grad_bytes: int = 0,
    ) -> InfinityStepReport:
        """Schedule the boundary's transfers and close out the step clock.

        ``adam_numel`` / ``param_h2d_bytes`` are 0 on an overflow-skip step
        (master untouched, nothing to push back). ``boundary_grad_bytes``
        is the one-shot shard d2h when gradients stayed device-resident.
        """
        self.pcie.reset()
        self.nvme_stream.reset()
        cap = {
            "config": self.config,
            "fwd_s": self._fwd_s,
            "bwd_s": self._bwd_s,
            "gathers": self._gathers,
            "grad_pieces": self._grad_pieces,
            "boundary_grad_bytes": int(boundary_grad_bytes),
            "adam_numel": int(adam_numel),
            "param_h2d_bytes": int(param_h2d_bytes),
            "carry_in_s": self._carry_s,
            "pcie": self.pcie.link,
            "nvme": self.nvme_stream.link,
        }
        times, _ = schedule_step(self._lanes, cap)
        cap["step_s"] = times.step_s
        self._carry_s = times.carry_out_s
        page_in = page_out = 0.0
        for h in self.nvme_stream.handles:
            if h.phase == "infinity-opt":
                if h.direction == "nvme-in":
                    page_in += h.wire_s
                else:
                    page_out += h.wire_s
        report = InfinityStepReport(
            compute_s=times.compute_s,
            gather_stall_s=times.compute_s - (self._fwd_s + self._bwd_s),
            grad_out_s=self.pcie.lane_busy_s("d2h"),
            opt_page_in_s=page_in,
            opt_page_out_s=page_out,
            cpu_adam_s=times.cpu_adam_s,
            param_refresh_s=times.refresh_wire_s,
            grads_ready_s=times.grads_ready_s,
            carry_in_s=cap["carry_in_s"],
            step_s=times.step_s,
        )
        self.reports.append(report)
        # The step's gather/grad profile stays readable (the sweeps feed it
        # to the closed-form model); fresh accumulators for the next step.
        self.last_gathers = self._gathers
        self.last_grad_pieces = self._grad_pieces
        self.last_capture = cap
        self._fwd_s = 0.0
        self._bwd_s = 0.0
        self._grad_pieces = []
        self._gathers = {"forward": [], "backward": []}
        return report

    # -- telemetry -------------------------------------------------------------

    def trace_step(self, tracer, t0: float) -> None:
        """Emit the just-finished boundary's tier transfers onto telemetry
        side tracks (call after ``finish_step``).

        ``t0`` is the tracer clock at forward begin. Each transfer lands on
        a per-lane track and the host Adam on a "host" track, as
        explicit-interval complete events — under DPU the deferred tail
        legitimately overlaps the next step's compute.
        """
        if not self.reports:
            return
        report = self.reports[-1]
        for h in self.pcie.handles:
            tracer.add_span(
                h.direction, t0 + h.start_t, h.done_t - h.start_t,
                track=f"pcie-{h.direction}", bytes=h.nbytes, phase=h.phase,
            )
        for h in self.nvme_stream.handles:
            tracer.add_span(
                h.direction, t0 + h.start_t, h.done_t - h.start_t,
                track=h.direction, bytes=h.nbytes, phase=h.phase,
            )
        if report.cpu_adam_s > 0:
            tracer.add_span(
                "cpu-adam", t0 + report.grads_ready_s, report.cpu_adam_s,
                track="host", delayed=self.config.delayed_param_update,
            )
        if getattr(tracer, "record_comm", False):
            tracer.record_runtime_step(self.last_capture)
