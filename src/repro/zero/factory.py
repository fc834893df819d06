"""Build a model + engine from a ZeROConfig — the library's front door.

``build_model_and_engine`` assembles the full stack one rank sees:
optionally MP-parallel model, activation checkpointing with the configured
store (Pa / Pa+cpu), MD defrag region on the device, and the engine for
the configured ZeRO stage. The paper's usability pitch (Section 10.4) is
that this is all a user does — no model surgery.
"""

from __future__ import annotations

import numpy as np

from repro.comm.group import ProcessGroup
from repro.nn.checkpoint import KeepStore
from repro.nn.transformer import GPT2Model, GPTConfig
from repro.parallel.ddp import DDPEngine
from repro.parallel.engine import BaseEngine, EngineConfig
from repro.parallel.megatron import ParallelGPT2Model
from repro.runtime import RankContext
from repro.zero.activation import PartitionedCPUStore, PartitionedStore
from repro.zero.config import ZeROConfig
from repro.zero.stage12 import ZeroStage1Engine, ZeroStage2Engine
from repro.zero.stage3 import ZeroStage3Engine

ENGINE_BY_STAGE = {
    0: DDPEngine,
    1: ZeroStage1Engine,
    2: ZeroStage2Engine,
    3: ZeroStage3Engine,
}


def build_engine(
    ctx: RankContext,
    model: GPT2Model,
    dp_group: ProcessGroup,
    zero: ZeROConfig,
    engine_config: EngineConfig | None = None,
) -> BaseEngine:
    """Wrap an existing model in the engine for ``zero.stage``."""
    from dataclasses import replace

    if zero.telemetry and ctx.tracer is None:
        # Standalone wiring for contexts built without a TelemetrySession:
        # one tracer priced over the context's topology, with its own
        # registry, bridged to the rank's ledger.
        from repro.comm.costmodel import CommCostModel
        from repro.telemetry import MetricsRegistry, Tracer

        ctx.tracer = Tracer(
            ctx.rank,
            cost_model=CommCostModel(ctx.topology),
            registry=MetricsRegistry(),
        )
        ctx.ledger.listener = ctx.tracer
    config = engine_config or EngineConfig()
    if zero.constant_buffers and config.fused_buffer_numel is None:
        config = replace(config, fused_buffer_numel=zero.constant_buffer_numel)
    if config.infinity is None:
        placement = zero.infinity
        if zero.offload_optimizer:
            # ZeRO-Offload is ZeRO-Infinity's host-only placement.
            from repro.infinity.config import InfinityConfig

            placement = InfinityConfig(
                optimizer_tier="host",
                grad_tier="host" if zero.offload_gradients else "device",
                param_tier="device",
                delayed_param_update=zero.delayed_param_update,
            )
        if placement is not None:
            config = replace(config, infinity=placement)
    if zero.audit_cadence and config.integrity is None:
        from repro.integrity import IntegrityConfig

        config = replace(
            config, integrity=IntegrityConfig(audit_cadence=zero.audit_cadence)
        )
    return ENGINE_BY_STAGE[zero.stage](ctx, model, dp_group, config)


def build_model_and_engine(
    ctx: RankContext,
    model_config: GPTConfig,
    zero: ZeROConfig,
    *,
    dp_group: ProcessGroup,
    mp_group: ProcessGroup | None = None,
    engine_config: EngineConfig | None = None,
    dtype=np.float16,
    seed: int = 0,
    meta: bool = False,
    md_region_bytes: int | None = None,
    defer_param_allocation: bool = False,
) -> tuple[GPT2Model, BaseEngine]:
    """One-call setup of the full per-rank training stack.

    Every rank must call this with identical arguments (SPMD): the shared
    ``seed`` makes all DP replicas initialize identically, exactly like
    broadcasting initial weights in real DDP.

    ``defer_param_allocation`` (stage 3 only) skips charging the *initial
    full* parameters to the device: real ZeRO-3 initializes and shards
    layer-by-layer so the whole model never coexists on one GPU, and
    without this flag the construction spike would OOM configurations —
    like the 1T-parameter one — whose steady state fits comfortably.
    Parameters are accounted normally from the first materialization on.
    """
    if zero.partition_activations and mp_group is None:
        raise ValueError("Pa requires an MP group (it partitions across MP ranks)")
    if defer_param_allocation and zero.stage != 3:
        raise ValueError(
            "defer_param_allocation requires stage 3 (other stages keep "
            "persistent full parameters that must be accounted)"
        )
    store = KeepStore()
    if zero.partition_activations:
        store = (
            PartitionedCPUStore(mp_group, ctx)
            if zero.cpu_offload_activations
            else PartitionedStore(mp_group, ctx)
        )
    rng = np.random.default_rng(seed)
    common = dict(
        dtype=dtype,
        device=None if defer_param_allocation else ctx.device,
        rng=rng, meta=meta,
        checkpoint_activations=zero.checkpoint_activations,
        activation_store=store,
    )
    if mp_group is not None and mp_group.size > 1:
        model = ParallelGPT2Model(model_config, mp_group, ctx.rank, **common)
    else:
        model = GPT2Model(model_config, **common)
    if zero.memory_defrag and md_region_bytes:
        ctx.device.enable_defrag(md_region_bytes, _md_tag_predicate)
    engine = build_engine(ctx, model, dp_group, zero, engine_config)
    return model, engine


def _md_tag_predicate(tag: str) -> bool:
    """Long-lived per-iteration tensors: parameter gradients and stashed
    activation shards (Section 6.3's two fragmentation sources)."""
    return tag.endswith(".grad") or tag.startswith("pa-shard") or tag == "zero2-grad-shard"
