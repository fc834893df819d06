"""ZeRO-Offload's host-side pieces: host-resident fp32 Adam state and its
CPU step-time model.

Offloaded training is the host-only placement of ZeRO-Infinity:
``ZeROConfig(offload_optimizer=..., offload_gradients=...,
delayed_param_update=...)`` compiles to an ``InfinityConfig`` with the
optimizer (and optionally the gradients) on the host tier, and
``repro.infinity.InfinityEngine`` schedules its PCIe traffic. Placement
never changes numerics, which is why offloaded training is bitwise
identical to the all-device path when DPU is off.
"""

from repro.offload.cost_model import relative_error
from repro.offload.host_optim import (
    CPU_ADAM_ELEMENTS_PER_S,
    CPU_ADAM_LATENCY_S,
    HostAdamState,
    HostTensor,
    cpu_adam_seconds,
)

__all__ = [
    "CPU_ADAM_ELEMENTS_PER_S",
    "CPU_ADAM_LATENCY_S",
    "HostAdamState",
    "HostTensor",
    "cpu_adam_seconds",
    "relative_error",
]
