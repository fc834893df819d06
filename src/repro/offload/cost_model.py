"""Prediction-vs-simulation error, the cost-model sweeps' acceptance metric.

The closed-form step-time model itself is ``repro.infinity.cost_model
.InfinityCostModel``: ZeRO-Offload is its host-only placement.
"""

from __future__ import annotations


def relative_error(predicted_s: float, simulated_s: float) -> float:
    """|prediction - simulation| / simulation — the sweeps' 5% acceptance
    metric."""
    if simulated_s <= 0:
        raise ValueError(f"simulated time must be positive, got {simulated_s}")
    return abs(predicted_s - simulated_s) / simulated_s
