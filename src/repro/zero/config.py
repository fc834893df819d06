"""ZeRO configuration: stages + ZeRO-R switches, with Table 3's C1-C5 presets."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.infinity.config import InfinityConfig


@dataclass(frozen=True)
class ZeROConfig:
    """Which ZeRO optimizations are on (paper Sections 5 and 6).

    stage: 0 = baseline DDP, 1 = Pos, 2 = Pos+g, 3 = Pos+g+p.
    """

    stage: int = 0
    partition_activations: bool = False  # Pa (requires checkpointing + MP group)
    cpu_offload_activations: bool = False  # Pa+cpu (implies Pa)
    constant_buffers: bool = True  # CB
    constant_buffer_numel: int = 1 << 22  # 4M elements (16 MB fp32)
    memory_defrag: bool = True  # MD
    checkpoint_activations: bool = True
    # ZeRO-Offload: host-resident fp32 Adam state + update (drops the
    # K Psi / Nd term from device memory), optionally with the gradient
    # shard host-resident too (drops 2 Psi / Nd more, streamed over PCIe
    # during backward) and the one-step delayed parameter update schedule.
    # The factory compiles these flags to the host-only InfinityConfig
    # (os@host, g@host|device, p@device).
    offload_optimizer: bool = False
    offload_gradients: bool = False
    delayed_param_update: bool = False
    # Telemetry: when True the factory attaches a per-rank span tracer
    # (repro.telemetry) to the context if the cluster didn't already
    # provide one. Off by default — disabled telemetry allocates nothing.
    telemetry: bool = False
    # SDC defense (repro.integrity): run the cross-rank replicated-state
    # audit every N optimizer steps, plus the per-boundary shard-digest
    # guard and the loss/grad-norm sentinels. 0 (the default) disables
    # the integrity layer entirely — no digests, no audit collectives,
    # no allocations, byte-identical to a build without it.
    audit_cadence: int = 0
    # ZeRO-Infinity (repro.infinity): place each state class (fp16 params,
    # grads, fp32 optimizer state) on a device/host/NVMe tier, with paged
    # stage-3 gathers and memory-centric tiling. Mutually exclusive with
    # the offload_* flags above — InfinityConfig subsumes the single host
    # tier as the (os@host, g@device|host, p@device) special case.
    infinity: "InfinityConfig | None" = None

    def __post_init__(self):
        if self.stage not in (0, 1, 2, 3):
            raise ValueError(f"ZeRO stage must be 0-3, got {self.stage}")
        if self.audit_cadence < 0:
            raise ValueError(
                f"audit_cadence must be >= 0, got {self.audit_cadence}"
            )
        if self.cpu_offload_activations and not self.partition_activations:
            raise ValueError("Pa+cpu requires partition_activations (Pa)")
        if self.offload_optimizer and self.stage < 1:
            raise ValueError(
                "offload_optimizer requires a partitioned optimizer (stage >= 1)"
            )
        if self.offload_gradients:
            if not self.offload_optimizer:
                raise ValueError("offload_gradients requires offload_optimizer")
            if self.stage < 2:
                raise ValueError(
                    "offload_gradients requires a partitioned gradient shard (stage >= 2)"
                )
        if self.delayed_param_update and not self.offload_optimizer:
            raise ValueError("delayed_param_update requires offload_optimizer")
        if self.infinity is not None:
            if self.offload_optimizer or self.offload_gradients or self.delayed_param_update:
                raise ValueError(
                    "infinity and the offload_* flags are mutually exclusive — "
                    "express ZeRO-Offload as InfinityConfig(optimizer_tier='host')"
                )
            if self.infinity.offload_optimizer and self.stage < 1:
                raise ValueError(
                    "off-device optimizer state requires a partitioned "
                    "optimizer (stage >= 1)"
                )
            if self.infinity.offload_gradients and self.stage < 2:
                raise ValueError(
                    "off-device gradients require a partitioned gradient "
                    "shard (stage >= 2)"
                )
            if self.infinity.page_params and self.stage != 3:
                raise ValueError(
                    "parameter paging/tiling requires partitioned parameters "
                    "(stage 3)"
                )

    @property
    def label(self) -> str:
        stage_name = {0: "baseline", 1: "Pos", 2: "Pos+g", 3: "Pos+g+p"}[self.stage]
        extras = []
        if self.constant_buffers:
            extras.append("CB")
        if self.memory_defrag:
            extras.append("MD")
        if self.partition_activations:
            extras.append("Pa+cpu" if self.cpu_offload_activations else "Pa")
        if self.offload_optimizer:
            extras.append("off-g+os" if self.offload_gradients else "off-os")
        if self.delayed_param_update:
            extras.append("DPU")
        if self.audit_cadence:
            extras.append(f"SDC@{self.audit_cadence}")
        if self.infinity is not None:
            extras.append(self.infinity.label)
        return stage_name + (" + " + "+".join(extras) if extras else "")


# Table 3's evaluated configurations C1-C5 (all include CB + MD).
C1 = ZeROConfig(stage=1)
C2 = ZeROConfig(stage=1, partition_activations=True)
C3 = ZeROConfig(stage=2)
C4 = ZeROConfig(stage=2, partition_activations=True)
C5 = ZeROConfig(stage=2, partition_activations=True, cpu_offload_activations=True)

PAPER_CONFIGS = {"C1": C1, "C2": C2, "C3": C3, "C4": C4, "C5": C5}


def with_stage(config: ZeROConfig, stage: int) -> ZeROConfig:
    return replace(config, stage=stage)
