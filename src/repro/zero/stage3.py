"""ZeRO-DP stage 3 (Pos+g+p, Section 5.3): parameter partitioning.

Each rank permanently stores only a 1/Nd fp16 shard of the flat parameter
space (plus its 1/Nd gradient shard and 1/Nd Adam state), bringing
model-state memory to 16 Psi / Nd. Parameters for one *unit* (embedding
unit / transformer block / head unit) are materialized just before the
unit computes — each owner broadcasts its piece of the unit's flat range —
and freed immediately after ("the parameters can be discarded once they
have been used", Section 7.2.2). The same gather happens again for the
unit's backward (and covers checkpoint recomputation), and unit gradients
are reduced straight to their owners.

Communication per step: Psi (forward gathers) + Psi (backward gathers) +
Psi (gradient reduce-to-owner) = 3 Psi, the paper's 1.5x bound. There is
no end-of-step all-gather: updating the local shard suffices because the
next iteration re-gathers on demand.

This stage is the part the paper analyzed but deferred implementing
("We plan to ... extend it further to support 1 trillion parameters by
enabling ZeRO-DP stage 3"); here it is implemented and validated against
DDP numerics like the other stages.
"""

from __future__ import annotations

import numpy as np

from repro.comm.group import ProcessGroup
from repro.infinity.tiling import plan_unit_tiles
from repro.memprof.provenance import category as memprof_category
from repro.nn.module import Module, Parameter
from repro.nn.transformer import GPT2Model
from repro.offload.host_optim import HostAdamState, HostTensor
from repro.optim.adam import adam_step_inplace
from repro.optim.mixed_precision import FlatAdamState
from repro.optim.scaler import LossScaler
from repro.parallel.engine import BaseEngine, EngineConfig
from repro.runtime import RankContext
from repro.tensor.halfcast import to_dtype
from repro.tensor.tensor import Tensor


class ZeroStage3Engine(BaseEngine):
    """Pos+g+p: partitioned optimizer state, gradients, and parameters."""

    name = "zero3"
    supports_offload = True
    supports_param_paging = True
    #: parameters are partitioned too — there is no replicated fp16 copy
    #: for the cross-rank integrity audit to compare (the digest guard
    #: covers the param_shard instead; scalar state is still audited).
    replicates_params = False

    def __init__(
        self,
        ctx: RankContext,
        model: GPT2Model,
        dp_group: ProcessGroup,
        config: EngineConfig | None = None,
    ):
        super().__init__(ctx, model, dp_group, config)
        self.nd = dp_group.size
        self.my_index = dp_group.group_index(ctx.rank)
        self.part_lo, self.part_hi = self.layout.partition_bounds(self.nd, self.my_index)
        self.part_numel = self.part_hi - self.part_lo

        # ZeRO-Offload: the fp32 Adam partition (and optionally the fp16
        # gradient shard) lives in host DRAM instead of on the device.
        # ZeRO-Infinity generalizes the placement to per-state-class tiers
        # (host or NVMe pools), including the fp16 parameter shard itself.
        inf = self.infinity
        self._page_params = inf is not None and inf.config.page_params
        self._host_adam = inf is not None and inf.config.offload_optimizer
        if self._host_adam:
            self.opt_state = HostAdamState(
                self.part_numel, host=inf.optimizer_pool, hp=self.config.adam,
                meta=self.is_meta, tag="zero3-adam",
            )
        else:
            self.opt_state = FlatAdamState(
                self.part_numel, device=ctx.device, hp=self.config.adam,
                meta=self.is_meta, tag="zero3-adam",
            )
        # Persistent fp16 parameter shard (2 Psi / Nd), off-device when the
        # infinity placement pages parameters in from a lower tier...
        with memprof_category("param_fp16", site="zero3-param-shard"):
            shard_data = None if self.is_meta else self.layout.gather_param_range(
                self.part_lo, self.part_hi, self.model.dtype
            )
            if self._page_params:
                self.param_shard: Tensor | HostTensor = HostTensor(
                    self.part_numel, np.dtype(self.model.dtype),
                    inf.param_pool, data=shard_data,
                    meta=self.is_meta, tag="zero3-param-shard",
                )
            else:
                self.param_shard = Tensor(
                    (self.part_numel,), np.dtype(self.model.dtype),
                    data=shard_data, device=ctx.device, tag="zero3-param-shard",
                )
        # ...and fp16 gradient shard (2 Psi / Nd), host-resident under
        # offload_gradients (each unit's reduced piece streams d2h).
        with memprof_category("grad_fp16", site="zero3-grad-shard"):
            if inf is not None and inf.config.offload_gradients:
                self.grad_shard: Tensor | HostTensor = HostTensor(
                    self.part_numel, np.dtype(self.model.dtype), inf.grad_pool,
                    meta=self.is_meta, tag="zero3-grad-shard",
                )
            else:
                self.grad_shard = Tensor(
                    (self.part_numel,), np.dtype(self.model.dtype),
                    data=None if self.is_meta else np.zeros(self.part_numel, self.model.dtype),
                    device=ctx.device, tag="zero3-grad-shard",
                )
        if not self.is_meta:
            self.opt_state.init_master(to_dtype(self.param_shard.data, np.float32))

        # Unit index: each unit's params occupy a contiguous flat range.
        self._unit_range: dict[str, tuple[int, int]] = {}
        for unit in model.units():
            slots = [self.layout.slot(p.name) for p in unit.named_parameters()]
            lo = min(s.offset for s in slots)
            hi = max(s.end for s in slots)
            if sum(s.size for s in slots) != hi - lo:
                raise ValueError(f"unit {unit.name} parameters are not contiguous in the layout")
            self._unit_range[unit.name] = (lo, hi)

        # Release the full parameters: from now on they exist per-unit only.
        for p in self.layout.parameters:
            p.data.free_if_alive()
        self._materialized: set[str] = set()
        self._mode = "forward"
        model.unit_listener = self

    # -- UnitListener ------------------------------------------------------------

    def before_unit(self, unit: Module) -> None:
        self._materialize(unit)

    def after_unit(self, unit: Module) -> None:
        if self._mode == "backward":
            self._reduce_unit_grads(unit)
        self._dematerialize(unit)

    def _before_forward(self) -> None:
        self._mode = "forward"

    def _before_backward(self) -> None:
        self._mode = "backward"

    # -- parameter materialization --------------------------------------------------

    def _owner_segments(self, lo: int, hi: int) -> list[tuple[int, int, int]]:
        out = []
        size = self.layout.numel // self.nd
        while lo < hi:
            owner = lo // size
            seg_hi = min(hi, (owner + 1) * size)
            out.append((owner, lo, seg_hi))
            lo = seg_hi
        return out

    def _materialize(self, unit: Module) -> None:
        """All-gather (as per-owner broadcasts) this unit's parameters."""
        if unit.name in self._materialized:
            return
        if self.tracer is not None:
            self.tracer.begin("param-allgather", unit=unit.name)
        ulo, uhi = self._unit_range[unit.name]
        dtype = np.dtype(self.model.dtype)
        itemsize = dtype.itemsize
        tiled = False
        if self._page_params:
            # This rank pages its own shard piece in from the parameter
            # tier before contributing it to the gather; the infinity
            # engine charges that movement (tile by tile) to the timeline.
            inf_cfg = self.config.infinity
            plan = plan_unit_tiles(uhi - ulo, itemsize, inf_cfg.tile_bytes)
            tiled = plan.is_tiled
            mine = sum(
                hi - lo
                for owner, lo, hi in self._owner_segments(ulo, uhi)
                if owner == self.my_index
            )
            self.infinity.note_gather(
                mine * itemsize, mode=self._mode, tiles=plan.n_tiles
            )
            if tiled:
                # Memory-centric tiling: device residency during this
                # gather is bounded to one staged tile at a time; the
                # unit's parameters attach unaccounted below (they are
                # never co-resident), like defer_param_allocation.
                for tlo, thi in plan.ranges():
                    with memprof_category("param_fp16", site="infinity-tile"):
                        stage = Tensor(
                            (thi - tlo,), dtype, data=None,
                            device=self.ctx.device, tag="infinity-tile",
                        )
                    stage.free()
        if self.is_meta:
            self.dp_group.meta_collective(
                self.ctx.rank, "broadcast", (uhi - ulo) * itemsize, "param-gather"
            )
            full = None
        else:
            full = np.empty(uhi - ulo, dtype)
            for owner, lo, hi in self._owner_segments(ulo, uhi):
                src_rank = self.dp_group.ranks[owner]
                payload = None
                if owner == self.my_index:
                    payload = np.ascontiguousarray(
                        self.param_shard.data[lo - self.part_lo : hi - self.part_lo]
                    )
                piece = self.dp_group.broadcast(
                    self.ctx.rank, payload, src=src_rank, phase="param-gather"
                )
                full[lo - ulo : hi - ulo] = piece
        for p in unit.named_parameters():
            slot = self.layout.slot(p.name)
            data = None
            if full is not None:
                data = full[slot.offset - ulo : slot.end - ulo].reshape(slot.shape).copy()
            with memprof_category("param_fp16", site="zero3-materialize"):
                p.data = Tensor(
                    slot.shape, dtype, data=data,
                    device=None if tiled else self.ctx.device, tag=p.name,
                )
        self._materialized.add(unit.name)
        if self.tracer is not None:
            self.tracer.end()

    def _dematerialize(self, unit: Module) -> None:
        if unit.name not in self._materialized:
            return
        for p in unit.named_parameters():
            p.data.free_if_alive()
        self._materialized.discard(unit.name)

    # -- gradient reduction -------------------------------------------------------

    def _reduce_unit_grads(self, unit: Module) -> None:
        """Reduce this unit's gradients to their owners, free the full grads."""
        if self.tracer is not None:
            self.tracer.begin("grad-reduce", unit=unit.name)
        try:
            self._reduce_unit_grads_inner(unit)
        finally:
            if self.tracer is not None:
                self.tracer.end()

    def _reduce_unit_grads_inner(self, unit: Module) -> None:
        params = [p for p in unit.named_parameters() if p.grad is not None]
        by_owner: dict[int, list[tuple[int, int]]] = {}
        for p in params:
            slot = self.layout.slot(p.name)
            for owner, lo, hi in self._owner_segments(slot.offset, slot.end):
                by_owner.setdefault(owner, []).append((lo, hi))
        dtype = np.dtype(self.model.dtype)
        for owner in sorted(by_owner):
            pieces = by_owner[owner]
            numel = sum(hi - lo for lo, hi in pieces)
            dst_rank = self.dp_group.ranks[owner]
            if self.is_meta:
                self.dp_group.meta_collective(
                    self.ctx.rank, "reduce", numel * dtype.itemsize, "grad-reduce"
                )
                continue
            with memprof_category("comm_buffer", site="grad-bucket"):
                fused = Tensor(
                    (numel,), dtype, data=np.empty(numel, dtype),
                    device=self.ctx.device, tag="grad-bucket",
                )
            cursor = 0
            for lo, hi in pieces:
                fused.data[cursor : cursor + hi - lo] = self.layout.gather_grad_range(
                    lo, hi, dtype
                )
                cursor += hi - lo
            reduced = self.dp_group.reduce(
                self.ctx.rank, fused.data, dst=dst_rank, op="sum", phase="grad-reduce"
            )
            if reduced is not None:
                cursor = 0
                for lo, hi in pieces:
                    # Accumulate (fp32) for gradient accumulation; shard is
                    # zeroed after the optimizer step.
                    view = self.grad_shard.data[lo - self.part_lo : hi - self.part_lo]
                    acc = to_dtype(view, np.float32) + to_dtype(
                        reduced[cursor : cursor + hi - lo], np.float32
                    )
                    view[:] = to_dtype(acc, view.dtype)  # saturates like hardware
                    cursor += hi - lo
            fused.free()
        if (
            self.infinity is not None
            and self.infinity.config.offload_gradients
            and self.my_index in by_owner
        ):
            # This unit's owned piece just landed in the host shard: one
            # streamed d2h transfer, overlapped with later units' backward.
            mine = sum(hi - lo for lo, hi in by_owner[self.my_index])
            self.infinity.queue_grad_d2h(mine * dtype.itemsize)
        for p in params:
            p.zero_grad()

    def _reduce_gradients(self) -> None:
        # Reduction happened per unit during backward; nothing left to do.
        return

    def _release_gradients(self) -> None:
        super()._release_gradients()
        if not self.is_meta:
            self.grad_shard.data[:] = 0

    # -- optimizer ------------------------------------------------------------------

    def _global_overflow(self, local_overflow: bool) -> bool:
        if self.is_meta:
            return False
        flag = np.array([1.0 if local_overflow else 0.0], dtype=np.float32)
        self.ctx.ledger.enabled = False
        try:
            out = self.dp_group.all_reduce(self.ctx.rank, flag, op="max", phase="control")
        finally:
            self.ctx.ledger.enabled = True
        return bool(out[0] > 0)

    def _optimizer_step(self) -> bool:
        if self.is_meta:
            self.opt_state.step_count += 1
            if not self._host_adam:
                # Host-side Adam needs no device working buffer.
                self.with_fused_buffer(self.part_numel, lambda lo, hi: None)
            return True
        grad32 = to_dtype(self.grad_shard.numpy(), np.float32)
        grad32 /= self.grad_divisor
        overflow = self._global_overflow(LossScaler.has_overflow(grad32))
        if not self.scaler.update(overflow):
            return False
        grad64 = grad32.astype(np.float64)
        clip_factor = self._clip_factor(float(np.dot(grad64, grad64)), partitioned=True)
        if clip_factor != 1.0:
            grad32 *= np.float32(clip_factor)
        self.opt_state.step_count += 1
        hp = self.current_adam_hp
        # DPU (ZeRO-Offload): refresh the fp16 shard from master *before*
        # this update — the update lands one step late, overlapped with the
        # next step's compute (staleness contract in repro.infinity.config).
        dpu = self.infinity is not None and self.infinity.config.delayed_param_update
        if dpu:
            self.param_shard.data = to_dtype(self.opt_state.master.data, self.model.dtype)

        def update(lo: int, hi: int) -> None:
            adam_step_inplace(
                self.opt_state.master.data[lo:hi],
                self.opt_state.m.data[lo:hi],
                self.opt_state.v.data[lo:hi],
                grad32[lo:hi],
                self.opt_state.step_count,
                hp,
                decay_mask=(
                    None if self.decay_mask is None
                    else self.decay_mask[self.part_lo + lo : self.part_lo + hi]
                ),
            )

        if self._host_adam:
            # Runs on the host vectors directly; elementwise, so bitwise
            # identical to the chunked device path.
            update(0, self.part_numel)
        else:
            self.with_fused_buffer(self.part_numel, update)
        if not dpu:
            # Refresh the fp16 shard; no all-gather — next step re-gathers
            # lazily.
            self.param_shard.data = to_dtype(self.opt_state.master.data, self.model.dtype)
        return True

    def checkpoint_partition(self) -> tuple[int, int]:
        """This rank's 1/Nd partition — covers opt state *and* the fp16
        parameter shard (for checkpoint_io save/re-shard)."""
        return self.part_lo, self.part_hi

    def free(self) -> None:
        super().free()
        self.opt_state.free()
        self.param_shard.free_if_alive()
        self.grad_shard.free_if_alive()
