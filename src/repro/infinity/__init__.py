"""ZeRO-Infinity tier: NVMe offload hierarchy, overlap-centric prefetch
engine, and memory-centric tiling.

The one offload engine: ZeRO-Offload is its host-only placement, and
ZeRO-Infinity extends that to a device -> host -> NVMe hierarchy
(``repro.offload`` keeps only the host-resident Adam state).
``TierTopology`` describes the stack one GPU sees (per-tier capacity +
alpha-beta links from ``repro.hardware``), ``TierStream`` schedules
full-duplex transfers per link, ``InfinityConfig`` assigns each
ZeRO state class (fp16 params, grads, fp32 optimizer state) to a tier,
and ``InfinityEngine`` overlaps the movement with compute on the
simulated clock. ``InfinityCostModel`` is the closed-form companion;
``repro.infinity.tiling`` bounds a single operator's device residency so
one layer can be larger than the GPU.

Placement never changes numerics: training with any tier assignment is
bitwise identical to the all-device path (DPU remains the one deliberate,
contracted exception).
"""

from repro.infinity.config import InfinityConfig
from repro.infinity.cost_model import InfinityCostModel, InfinityStepPrediction
from repro.infinity.engine import (
    OPT_STATE_BYTES_PER_ELEM,
    InfinityEngine,
    InfinityStepReport,
)
from repro.infinity.tiers import (
    TIER_NAMES,
    Tier,
    TierStream,
    TierTopology,
    TransferHandle,
    wire_seconds,
)
from repro.infinity.tiling import TilePlan, plan_unit_tiles

__all__ = [
    "InfinityConfig",
    "InfinityCostModel",
    "InfinityEngine",
    "InfinityStepPrediction",
    "InfinityStepReport",
    "OPT_STATE_BYTES_PER_ELEM",
    "TIER_NAMES",
    "Tier",
    "TierStream",
    "TierTopology",
    "TilePlan",
    "TransferHandle",
    "plan_unit_tiles",
    "wire_seconds",
]
