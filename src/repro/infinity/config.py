"""InfinityConfig: which tier each ZeRO state class lives on.

ZeRO-Infinity's placement policy is per state class: the fp16 parameter
shards, the fp16 gradient shards, and the fp32 optimizer state (master +
Adam moments) each get a tier — device HBM, host DRAM, or NVMe. The
config also carries the overlap knobs (prefetch depth, optimizer paging
chunk size, memory-centric tile size) and the link/throughput overrides.
ZeRO-Offload is the host-only placement (os@host, g@device|host,
p@device): ``ZeROConfig``'s ``offload_*`` flags compile to exactly that.

Placement never changes numerics: a tier is *where the bytes are
accounted and what the transfers cost on the modeled clock*; the values
flow through the exact same kernels in the same order (the bitwise
contract ``tests/test_infinity.py`` verifies). ``delayed_param_update``
remains the single deliberate numeric change.

Staleness contract under DPU: after optimizer step t, the fp16 parameters
equal fp16(master after step t-1) — the update computed from step t's
gradients lands one step later, overlapped with step t+1's compute. Step
t+1 therefore trains on parameters one update stale. An overflow-skip
step leaves master untouched, so the same stale values are re-broadcast;
saving a checkpoint is a synchronization point (master is saved
post-update, and resume rebuilds fp16 params from it, collapsing the
one-step lag).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import InterconnectSpec
from repro.infinity.tiers import TIER_NAMES
from repro.offload.host_optim import CPU_ADAM_ELEMENTS_PER_S


@dataclass(frozen=True)
class InfinityConfig:
    """Tier placement per ZeRO state class, plus overlap/tiling knobs.

    Defaults mirror the ZeRO-Infinity paper's headline configuration:
    optimizer state on NVMe, gradients in host DRAM, parameters on the
    device. ``param_tier`` other than "device" requires ZeRO stage 3 (the
    shard is paged in per unit gather, prefetched ``prefetch_depth`` units
    ahead). ``tile_bytes`` caps the device-resident working set of one
    unit's materialized parameters — units larger than the cap are
    gathered and accounted tile-by-tile, so a single layer can exceed
    device memory.
    """

    optimizer_tier: str = "nvme"
    grad_tier: str = "host"
    param_tier: str = "device"
    delayed_param_update: bool = False
    #: units of gather lookahead for the stage-3 prefetch engine.
    prefetch_depth: int = 1
    #: memory-centric tiling cap (bytes of one unit's params resident at
    #: once); None disables tiling.
    tile_bytes: int | None = None
    #: optimizer-state paging chunk (bytes) for the in->update->out
    #: pipeline around the boundary when the optimizer tier is NVMe.
    opt_chunk_bytes: int = 1 << 27
    #: link overrides; None reads hardware truth from the topology.
    pcie: InterconnectSpec | None = None
    nvme: InterconnectSpec | None = None
    cpu_adam_elements_per_s: float = CPU_ADAM_ELEMENTS_PER_S

    def __post_init__(self):
        for label, tier in (
            ("optimizer_tier", self.optimizer_tier),
            ("grad_tier", self.grad_tier),
            ("param_tier", self.param_tier),
        ):
            if tier not in TIER_NAMES:
                raise ValueError(f"{label} must be one of {TIER_NAMES}, got {tier!r}")
        if self.grad_tier != "device" and self.optimizer_tier == "device":
            raise ValueError(
                "off-device gradients require an off-device optimizer (the "
                "host-side Adam is what consumes them)"
            )
        if self.delayed_param_update and self.optimizer_tier == "device":
            raise ValueError("delayed_param_update requires an off-device optimizer")
        if self.prefetch_depth < 1:
            raise ValueError(f"prefetch_depth must be >= 1, got {self.prefetch_depth}")
        if self.tile_bytes is not None:
            if self.tile_bytes <= 0:
                raise ValueError(f"tile_bytes must be positive, got {self.tile_bytes}")
            if self.param_tier == "device":
                raise ValueError(
                    "tile_bytes requires an off-device param_tier (tiles are "
                    "staged in from the parameter tier)"
                )
        if self.opt_chunk_bytes <= 0:
            raise ValueError(f"opt_chunk_bytes must be positive, got {self.opt_chunk_bytes}")
        if self.cpu_adam_elements_per_s <= 0:
            raise ValueError("cpu_adam_elements_per_s must be positive")

    # -- placement flags the stage engines consult ---------------------------

    @property
    def offload_optimizer(self) -> bool:
        return self.optimizer_tier != "device"

    @property
    def offload_gradients(self) -> bool:
        return self.grad_tier != "device"

    @property
    def page_params(self) -> bool:
        """Stage-3 parameter shards live off-device (paged per gather)."""
        return self.param_tier != "device"

    @property
    def label(self) -> str:
        parts = [
            f"os@{self.optimizer_tier}", f"g@{self.grad_tier}", f"p@{self.param_tier}"
        ]
        if self.tile_bytes is not None:
            parts.append(f"tile{self.tile_bytes >> 20}M")
        if self.delayed_param_update:
            parts.append("DPU")
        return "inf[" + ",".join(parts) + "]"
