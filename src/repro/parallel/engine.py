"""Shared training-engine scaffolding.

An *engine* owns one rank's model replica (or partition), runs the
forward/loss/backward step, and delegates gradient reduction and the
optimizer update to its subclass — baseline DDP or a ZeRO-DP stage. The
step structure, loss scaling, meta-mode handling, and temporary fused
buffer accounting (Section 6.2's CB) are identical across engines and
live here so the equivalence tests compare only what differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.group import ProcessGroup
from repro.memprof.provenance import category as memprof_category
from repro.memprof.provenance import set_phase as memprof_set_phase
from repro.nn.loss import CausalLMLoss
from repro.nn.module import ExecutionContext
from repro.nn.transformer import GPT2Model
from repro.optim.adam import AdamHyperparams
from repro.optim.flat import FlatLayout
from repro.optim.scaler import LossScaler
from repro.runtime import RankContext
from repro.tensor.tensor import Tensor


@dataclass
class EngineConfig:
    """Knobs shared by all engines."""

    adam: AdamHyperparams = field(default_factory=AdamHyperparams)
    loss_scale: float = 1.0
    dynamic_loss_scale: bool = False
    # Gradient-reduction bucket size in *elements*. DDP/ZeRO-2 flush a
    # bucket whenever this many gradient elements are ready.
    bucket_numel: int = 1 << 19
    # Micro-batches per optimizer step. Engines with resident full
    # gradients (DDP, stage 1) accumulate locally and reduce once at the
    # boundary (torch's no_sync pattern); engines with partitioned
    # gradients (stages 2-3) reduce every micro-step and accumulate in
    # their 1/Nd shard, keeping gradient memory at 2 Psi / Nd throughout.
    gradient_accumulation_steps: int = 1
    # Fused fp32 working buffer for the optimizer/reduction path:
    #   None -> a transient full-model fp32 buffer (the Section 3.2
    #           "temporary buffer" that grows with Psi; 6 GB at 1.5B);
    #   int  -> ZeRO-R CB: a persistent constant-size buffer; work is
    #           chunked through it regardless of model size.
    fused_buffer_numel: int | None = None
    # Optional step -> lr schedule (repro.optim.lr_schedule). When set, it
    # overrides adam.lr at every optimizer boundary, identically on every
    # rank, so the cross-stage equivalence guarantees are unaffected.
    lr_schedule: object | None = None
    # Optional parameter-name predicate restricting adam.weight_decay to
    # matching parameters (param-group semantics; see repro.optim.decay.
    # default_weight_decay_filter for the transformer convention).
    weight_decay_filter: object | None = None
    # Optional global gradient-norm clip. Under ZeRO each rank holds only
    # a gradient partition, so the norm is assembled distributively: local
    # partition norm^2, summed across the DP group, sqrt — then every rank
    # applies the identical scale factor.
    grad_clip_norm: float | None = None
    # Optional repro.integrity.IntegrityConfig: SDC detectors (shard
    # digest guard, cross-rank replicated-state audit, loss/grad-norm
    # sentinels). None (the default) allocates nothing — same
    # zero-overhead convention as fault plans and telemetry. The factory
    # threads it through from ZeROConfig.audit_cadence.
    integrity: "IntegrityConfig | None" = None
    # Optional repro.infinity.InfinityConfig: which tier (device, host
    # DRAM, NVMe) each state class lives on, with a modeled transfer
    # timeline. ZeRO-Offload is its host-only placement. Only the
    # partitioned engines (ZeRO stages 1-3) support off-device state; the
    # factory threads it through from ZeROConfig (``infinity`` or the
    # ``offload_*`` flags).
    infinity: "InfinityConfig | None" = None


@dataclass
class StepResult:
    loss: float | None  # None in meta mode
    applied: bool  # False when the loss scaler skipped on overflow
    is_boundary: bool = True  # False on non-final gradient-accumulation steps
    step_time_model_s: float = 0.0


class BaseEngine:
    """Common step orchestration; subclasses implement reduction + update."""

    name = "base"
    #: Off-device optimizer state needs a partitioned optimizer (a
    #: ``part_numel`` range to ship off the device); stages 1-3 flip this on.
    supports_offload = False
    #: ZeRO-Infinity parameter paging/tiling needs partitioned parameters
    #: that are gathered per unit; only stage 3 flips this on.
    supports_param_paging = False
    #: whether this engine keeps the full fp16 parameters replicated on
    #: every DP rank between steps — the invariant the integrity layer's
    #: cross-rank audit compares. Stage 3 partitions parameters too and
    #: flips this off (its per-unit materializations are transient).
    replicates_params = True

    def __init__(
        self,
        ctx: RankContext,
        model: GPT2Model,
        dp_group: ProcessGroup,
        config: EngineConfig | None = None,
    ):
        self.ctx = ctx
        self.model = model
        self.dp_group = dp_group
        self.config = config or EngineConfig()
        dp_group.attach_ledger(ctx.rank, ctx.ledger)
        params = model.parameters()
        if not params:
            raise ValueError("model has no parameters")
        self.is_meta = params[0].data.is_meta
        self.layout = FlatLayout(params, pad_multiple=dp_group.size)
        self.scaler = LossScaler(
            init_scale=self.config.loss_scale, dynamic=self.config.dynamic_loss_scale
        )
        self.loss_head = (
            model.make_loss_head() if hasattr(model, "make_loss_head") else CausalLMLoss()
        )
        if self.config.gradient_accumulation_steps < 1:
            raise ValueError("gradient_accumulation_steps must be >= 1")
        self.step_count = 0
        self._micro_step = 0
        # Optional repro.memsim.timeline.MemoryTimeline: when attached, the
        # step loop labels its phases for within-step memory profiles.
        self.timeline = None
        # Telemetry tracer (repro.telemetry.Tracer) threaded through the
        # context; None means disabled and every instrumentation site is a
        # single `is not None` check.
        self.tracer = ctx.tracer
        # Per-element weight-decay mask over the padded flat space (None
        # when decay applies uniformly). Engines slice their own range.
        self.decay_mask = None
        if self.config.weight_decay_filter is not None:
            from repro.optim.decay import build_decay_mask

            self.decay_mask = build_decay_mask(
                self.layout, self.config.weight_decay_filter
            )
        # Persistent constant-size fused buffer (CB) if configured.
        self._cb_buffer: Tensor | None = None
        if self.config.fused_buffer_numel is not None:
            with memprof_category("comm_buffer", site="cb-fused-buffer"):
                self._cb_buffer = Tensor(
                    (self.config.fused_buffer_numel,), np.dtype(np.float32),
                    data=None if self.is_meta else np.zeros(self.config.fused_buffer_numel, np.float32),
                    device=ctx.device, tag="cb-fused-buffer",
                )
        # Offload-tier companion (ZeRO-Offload / ZeRO-Infinity): owns the
        # tier streams and the per-step transfer/step-time model. Placement
        # changes live in the ZeRO engines; this base only drives the clock.
        self.infinity = None
        inf_cfg = self.config.infinity
        if inf_cfg is not None:
            if inf_cfg.offload_optimizer and not self.supports_offload:
                raise ValueError(
                    f"engine {self.name!r} does not support off-device optimizer "
                    "state (requires a partitioned optimizer, ZeRO stage >= 1)"
                )
            if inf_cfg.page_params and not self.supports_param_paging:
                raise ValueError(
                    f"engine {self.name!r} does not support parameter paging "
                    "(requires partitioned parameters, ZeRO stage 3)"
                )
            from repro.infinity.engine import InfinityEngine

            self.infinity = InfinityEngine(ctx, inf_cfg)
        # SDC detector stack (repro.integrity). Constructed lazily at the
        # first train_step — the subclass's optimizer state (the shards it
        # fingerprints) does not exist yet at this point in __init__.
        self.integrity = None
        # Buddy-shard redundancy (repro.redundancy). Same lazy-construction
        # rule; None whenever the context carries no BuddyStore, so a
        # redundancy-off run allocates and records nothing.
        self.redundancy = None

    # -- fused working buffer ------------------------------------------------

    def with_fused_buffer(self, numel: int, fn) -> None:
        """Run ``fn(chunk_lo, chunk_hi)`` over [0, numel) through the fused
        buffer: one full-size transient allocation without CB, constant-size
        chunks with CB. This is where CB bounds temporary-buffer memory."""
        if self._cb_buffer is not None:
            chunk = self._cb_buffer.size
            for lo in range(0, numel, chunk):
                fn(lo, min(lo + chunk, numel))
            return
        with memprof_category("temp", site="fused-buffer"):
            scratch = Tensor(
                (numel,), np.dtype(np.float32), data=None,
                device=self.ctx.device, tag="fused-buffer",
            )
        try:
            fn(0, numel)
        finally:
            scratch.free()

    # -- the training step ------------------------------------------------------

    def train_step(self, token_ids: np.ndarray | Tensor, targets: np.ndarray | Tensor) -> StepResult:
        """One micro-batch forward/backward; the optimizer runs on
        gradient-accumulation boundaries (every step by default)."""
        if (
            self.config.integrity is not None
            and self.integrity is None
            and not self.is_meta
        ):
            from repro.integrity.audit import IntegrityAuditor

            self.integrity = IntegrityAuditor(self, self.config.integrity)
        if (
            getattr(self.ctx, "redundancy", None) is not None
            and self.redundancy is None
            and not self.is_meta
        ):
            from repro.redundancy.manager import RedundancyManager

            self.redundancy = RedundancyManager(self, self.ctx.redundancy)
        self._micro_step += 1
        boundary = self._micro_step % self.config.gradient_accumulation_steps == 0
        if boundary:
            self.step_count += 1
            plan = self.ctx.fabric.fault_plan
            if plan is not None:
                # Kill-at-step fault rules fire here (repro.comm.faults).
                plan.note_step(self.ctx.rank, self.step_count)
                # Silent scribble rules fire here too — corrupting owned
                # shards without raising. Only the integrity detectors
                # (when enabled) can tell.
                self._apply_scribbles(plan)
        free_inputs = []
        with memprof_category("activation", site="batch-input"):
            if isinstance(token_ids, Tensor):
                ids_t = token_ids
            else:
                ids_t = Tensor.from_numpy(np.asarray(token_ids), device=self.ctx.device, tag="batch.ids")
                free_inputs.append(ids_t)
            if isinstance(targets, Tensor):
                tgt_t = targets
            else:
                tgt_t = Tensor.from_numpy(np.asarray(targets), device=self.ctx.device, tag="batch.targets")
                free_inputs.append(tgt_t)
        ctx = ExecutionContext(training=True)
        tr = self.tracer
        fwd_s = bwd_s = 0.0
        if tr is not None or self.infinity is not None:
            fwd_s, bwd_s = self._compute_split(ids_t.shape[0], ids_t.shape[-1])
        if self.infinity is not None:
            self.infinity.begin_micro(fwd_s, bwd_s)
        step_t0 = 0.0
        if tr is not None:
            perf_plan = self.ctx.fabric.fault_plan
            if perf_plan is not None and perf_plan.has_perf_rules:
                # Gray failures (throttle/jitter) stretch the *modeled*
                # compute clock only — numerics stay bitwise identical.
                # Micro-steps before a boundary belong to the upcoming
                # optimizer step (note_step fires at the boundary).
                scale = perf_plan.compute_scale(
                    self.ctx.rank,
                    self.step_count if boundary else self.step_count + 1,
                )
                fwd_s *= scale
                bwd_s *= scale
            step_t0 = tr.clock_s
            tr.begin("step", micro_step=self._micro_step, boundary=boundary)
            tr.sample_memory(self.ctx.device)
            tr.begin("forward")
        self._mark("forward")
        self._before_forward()
        logits, cache = self.model.forward(ids_t, ctx)
        loss, lcache = self.loss_head.forward(logits, tgt_t)
        loss_value = None if loss.is_meta else float(loss.numpy())
        dlogits = self.loss_head.backward(lcache, loss_scale=self.scaler.scale)
        if tr is not None:
            tr.advance(fwd_s)
            tr.sample_memory(self.ctx.device)
            tr.end()  # forward
            tr.begin("backward")
        self._mark("backward")
        self._before_backward()
        dh = self.model.backward(cache, dlogits)
        dh.free_if_alive()
        dlogits.free_if_alive()
        lcache.free()
        cache.free()
        logits.free_if_alive()
        loss.free_if_alive()
        if tr is not None:
            tr.advance(bwd_s)
            tr.sample_memory(self.ctx.device)
            tr.end()  # backward

        applied = False
        step_time_s = 0.0
        if boundary:
            if self.integrity is not None:
                # Verify owned shards *before* the optimizer consumes them
                # (a scribble must not be laundered into a legitimate
                # update), then the cadence-gated cross-rank audit.
                self.integrity.on_boundary(self.step_count)
            self._mark("reduce")
            if tr is not None:
                tr.begin("grad-reduce")
            self._reduce_gradients()
            self._mark("optimizer")
            if tr is not None:
                tr.end()
                tr.begin("optimizer")
            applied = self._optimizer_step()
            if self.infinity is not None:
                step_time_s = self._infinity_finish(applied).step_s
                if tr is not None:
                    self.infinity.trace_step(tr, step_t0)
            self._release_gradients()
            if self.integrity is not None:
                self.integrity.after_optimizer(self.step_count, applied, loss_value)
            # Memory observatory leak sentinel: record per-category live
            # bytes at the optimizer boundary (steady state should return
            # every category to its baseline here).
            prof = self.ctx.device.profiler
            if prof is not None:
                prof.note_step()
            if tr is not None:
                tr.sample_memory(self.ctx.device)
                tr.end()  # optimizer
            if self.redundancy is not None:
                # Buddy refresh last: a boundary the detectors rejected
                # raised above, so corrupt state never reaches the store.
                self.redundancy.on_boundary(applied)
            rec = getattr(self.ctx, "recorder", None)
            if rec is not None:
                rec.on_step_completed(
                    self.ctx.rank, self.step_count,
                    t_s=tr.clock_s if tr is not None else None,
                    applied=applied,
                )
        else:
            self._mark("reduce")
            if tr is not None:
                tr.begin("grad-reduce")
            self._micro_reduce()
            if tr is not None:
                tr.end()
        for t in free_inputs:
            t.free_if_alive()
        if tr is not None:
            tr.end()  # step
        return StepResult(
            loss=loss_value, applied=applied, is_boundary=boundary,
            step_time_model_s=step_time_s,
        )

    # -- hooks -------------------------------------------------------------------

    def integrity_shards(self) -> dict[str, np.ndarray]:
        """Flat arrays this rank solely owns, for the integrity layer's
        digest guard (and the fault plan's scribble targets): the fp32
        master / Adam moments, plus the stage-3 fp16 parameter shard.
        Works for device- and host-resident (ZeRO-Offload) placement
        alike — both expose the raw array as ``.data``."""
        shards = {
            "master": self.opt_state.master.data,
            "m": self.opt_state.m.data,
            "v": self.opt_state.v.data,
        }
        param_shard = getattr(self, "param_shard", None)
        if param_shard is not None:
            shards["param_shard"] = param_shard.data
        return shards

    def redundancy_shards(self) -> dict[str, np.ndarray]:
        """What a buddy refresh must capture to resume bitwise at the
        current step: the integrity set, plus any engine-specific carry
        (stages 1-2 add the stale fp16 params under delayed param
        update — see ``_ZeroDPBase.redundancy_shards``)."""
        return self.integrity_shards()

    def _apply_scribbles(self, plan) -> None:
        """Apply due scribble rules to the owned shards (silent device-
        memory corruption). The plan raises nothing — detection is the
        integrity layer's job."""
        due = plan.scribbles_due(self.ctx.rank, self.step_count)
        if not due or self.is_meta:
            return
        shards = self.integrity_shards()
        for rule in due:
            target = shards.get(rule.target)
            if target is None:
                continue  # engine has no such shard (e.g. param_shard below stage 3)
            plan.corrupt_array_inplace(self.ctx.rank, target, rule.bits)
            if self.tracer is not None:
                self.tracer.instant(
                    "sdc-scribble", target=rule.target, step=self.step_count
                )
                if self.tracer.registry is not None:
                    self.tracer.registry.counter(
                        "sdc_injections", rank=self.ctx.rank, kind="scribble"
                    ).add(1)

    def _clip_factor(self, local_norm_sq: float, *, partitioned: bool) -> float:
        """Global-norm clip factor for this step (1.0 when clipping is off).

        ``partitioned`` engines contribute a partition's norm^2 and sum it
        across the DP group (a tiny control message, excluded from volume
        accounting); replicated-gradient engines already hold the global
        norm locally.
        """
        if self.integrity is not None:
            # Every engine routes its (applied-step) gradient norm^2
            # through here, clipping or not — a free tap for the
            # grad-norm spike sentinel. Partitioned engines feed their
            # partition's norm: a corrupted contribution lands in one
            # owner's shard, and that owner's sentinel fires.
            self.integrity.note_grad_norm(local_norm_sq)
        clip = self.config.grad_clip_norm
        if clip is None:
            return 1.0
        if clip <= 0:
            raise ValueError(f"grad_clip_norm must be positive, got {clip}")
        total_sq = local_norm_sq
        if partitioned and self.dp_group.size > 1:
            flag = np.array([local_norm_sq], dtype=np.float64)
            self.ctx.ledger.enabled = False
            try:
                total_sq = float(
                    self.dp_group.all_reduce(self.ctx.rank, flag, op="sum",
                                             phase="control")[0]
                )
            finally:
                self.ctx.ledger.enabled = True
        norm = float(np.sqrt(total_sq))
        if norm <= clip:
            return 1.0
        return clip / (norm + 1e-6)

    @property
    def current_adam_hp(self):
        """Adam hyperparameters for the current optimizer step, with the
        LR schedule (if any) applied."""
        schedule = self.config.lr_schedule
        if schedule is None:
            return self.config.adam
        from dataclasses import replace as _replace

        return _replace(self.config.adam, lr=schedule.lr(max(self.step_count, 1)))

    def _mark(self, phase: str) -> None:
        if self.timeline is not None:
            self.timeline.mark(phase)
        memprof_set_phase(phase)

    def _compute_split(self, batch: int, seq_len: int) -> tuple[float, float]:
        """Modeled (forward_s, backward_s) GEMM seconds for one micro-batch.

        The model's own activation-checkpointing flag and MP degree price
        it (``analysis.perf_model.compute_split``, the accounting
        ``analysis.sim_time`` uses), so traced span durations, the offload
        tier's step clock and the ledger-driven step-time estimate agree
        by construction.
        """
        from repro.analysis.perf_model import compute_split

        mp_group = getattr(self.model, "mp_group", None)
        return compute_split(
            self.model.config, batch, seq_len,
            peak_flops=self.ctx.device.spec.peak_flops,
            checkpointing=bool(getattr(self.model, "checkpoint_activations", False)),
            mp_degree=mp_group.size if mp_group is not None else 1,
        )

    def _before_forward(self) -> None:
        return

    def _before_backward(self) -> None:
        return

    def _micro_reduce(self) -> None:
        """Per-micro-step work on non-boundary steps. Engines with
        partitioned gradients reduce here; replicated-gradient engines
        accumulate locally and do nothing."""
        return

    @property
    def grad_divisor(self) -> float:
        """Mean-gradient divisor: ranks x accumulation steps x loss scale."""
        return (
            self.scaler.scale
            * self.dp_group.size
            * self.config.gradient_accumulation_steps
        )

    def _reduce_gradients(self) -> None:
        raise NotImplementedError

    def _optimizer_step(self) -> bool:
        raise NotImplementedError

    def _infinity_finish(self, applied: bool):
        """Close the offload tier's step clock at an optimizer boundary.

        Uses the engine's ``part_numel`` partition (hence off-device state
        requires a partitioned engine): the host Adam covers those
        elements, the fp16 refresh ships that many parameter bytes, and —
        when gradients stayed device-resident — the shard leaves the
        device in one boundary d2h. An overflow-skip step (``applied``
        False) moves no optimizer bytes; its gradients already crossed
        the link.
        """
        itemsize = np.dtype(self.model.dtype).itemsize
        shard_bytes = self.part_numel * itemsize
        return self.infinity.finish_step(
            adam_numel=self.part_numel if applied else 0,
            param_h2d_bytes=shard_bytes if applied else 0,
            boundary_grad_bytes=(
                0 if self.infinity.config.offload_gradients else shard_bytes
            ),
        )

    def _release_gradients(self) -> None:
        self.model.zero_grad()

    # -- checkpointing -----------------------------------------------------------

    def checkpoint_partition(self) -> tuple[int, int]:
        """[lo, hi) of the padded flat space this engine's optimizer state
        covers. Replicated engines own the whole space; ZeRO engines
        override with their 1/Nd partition. ``checkpoint_io`` uses this to
        re-shard N-rank checkpoints into M-rank worlds."""
        return 0, self.layout.numel

    # -- teardown -----------------------------------------------------------------

    def free(self) -> None:
        """Release engine-held device memory (buffers, optimizer state)."""
        if self._cb_buffer is not None:
            self._cb_buffer.free_if_alive()
