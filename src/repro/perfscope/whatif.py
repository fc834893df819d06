"""What-if probes: re-price a step graph and re-schedule from dependencies.

A ``StepGraph`` retains its build sources (the main-track entry list per
serialized rank, the runtime capture per offload-tier rank), so a
counterfactual is cheap: rebuild the same dependency structure with
altered edge prices and schedule purely from dependencies — no observed
floors, no re-simulation. Probes answer questions like *"if collectives
were free, step time drops 31%"* or *"what does a 4x PCIe link buy?"*.

The baseline for every probe is the **re-scheduled original** (same
sources, unchanged prices, dependency-only scheduling), not the observed
step time: the two agree up to float-summation order, and diffing two
graphs scheduled the same way keeps the speedup free of that noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.ledger import CommEvent
from repro.perfscope.graph import (
    XFER_LINK,
    StepGraph,
    _add_main_rank,
    add_runtime_rank,
    couple_ranks,
)


@dataclass(frozen=True)
class WhatIf:
    """One counterfactual's verdict for one step."""

    label: str
    baseline_s: float
    predicted_s: float

    @property
    def speedup(self) -> float:
        return self.baseline_s / self.predicted_s if self.predicted_s > 0 else float("inf")

    @property
    def reduction_pct(self) -> float:
        if self.baseline_s <= 0:
            return 0.0
        return 100.0 * (1.0 - self.predicted_s / self.baseline_s)

    def describe(self) -> str:
        return (
            f"what-if {self.label}: {self.baseline_s * 1e3:.3f} ms -> "
            f"{self.predicted_s * 1e3:.3f} ms "
            f"({self.reduction_pct:+.1f}% step-time reduction)"
        )


def _wire(link, nbytes) -> float:
    return link.latency_s + nbytes / link.bandwidth_bytes_per_s


def reprice(
    g: StepGraph,
    *,
    zero_collectives: bool = False,
    cost_model=None,
    pcie=None,
    nvme=None,
    adam_rate=None,
) -> StepGraph:
    """Rebuild ``g`` from its sources with overridden pricing and schedule
    it from dependencies alone.

    ``zero_collectives`` prices every collective/p2p event at 0 (tier
    transfers keep their cost); ``cost_model`` re-prices them through a
    different ``CommCostModel``; ``pcie``/``nvme`` (``InterconnectSpec``)
    re-band the tier links everywhere they appear (main-track copies and
    the engine scheduler's lanes); ``adam_rate`` overrides the CPU Adam
    throughput. With no overrides this returns the pure re-scheduled
    baseline.
    """

    def pricer(entry):
        _tag, op, phase, nbytes, group_ranks, peer, _dur, _rs, _re = entry
        if op in XFER_LINK:
            link = pcie if XFER_LINK[op] == "pcie" else nvme
            if link is None:
                return None
            return 0.0 if nbytes <= 0 else _wire(link, nbytes)
        if zero_collectives:
            return 0.0
        if cost_model is not None:
            return cost_model.event_time(CommEvent(
                op=op, message_bytes=int(nbytes), group_size=len(group_ranks),
                group_ranks=tuple(group_ranks), phase=phase, peer=peer,
            ))
        return None

    ng = StepGraph(g.step_index)
    for rank, source in sorted(g.sources.items()):
        ng.sources[rank] = source
        if source[0] == "runtime":
            add_runtime_rank(
                ng, rank, source[1], pcie=pcie, nvme=nvme, adam_rate=adam_rate
            )
        else:
            _, entries, duration = source
            _add_main_rank(ng, rank, entries, duration, pricer=pricer)
    couple_ranks(ng)
    ng.schedule(observed_floors=False)
    return ng


def whatif_zero_comm(g: StepGraph, *, label: str = "zero-cost-comm") -> WhatIf:
    """Step time if every collective/p2p event were free."""
    baseline = reprice(g)
    predicted = reprice(g, zero_collectives=True)
    return WhatIf(label, baseline.critical_path_s, predicted.critical_path_s)


def whatif_links(
    g: StepGraph, *, pcie=None, nvme=None, adam_rate=None, label: str | None = None,
) -> WhatIf:
    """Step time with re-banded PCIe/NVMe links (and/or a different CPU
    Adam rate) everywhere they appear."""
    if label is None:
        parts = []
        if pcie is not None:
            parts.append(f"pcie={pcie.name}")
        if nvme is not None:
            parts.append(f"nvme={nvme.name}")
        if adam_rate is not None:
            parts.append(f"adam={adam_rate:.2e}/s")
        label = "re-banded " + ", ".join(parts) if parts else "re-scheduled"
    baseline = reprice(g)
    predicted = reprice(g, pcie=pcie, nvme=nvme, adam_rate=adam_rate)
    return WhatIf(label, baseline.critical_path_s, predicted.critical_path_s)


def whatif_cost_model(g: StepGraph, cost_model, *, label: str) -> WhatIf:
    """Step time with collectives re-priced through ``cost_model`` (e.g. a
    different cluster topology's alpha-beta numbers)."""
    baseline = reprice(g)
    predicted = reprice(g, cost_model=cost_model)
    return WhatIf(label, baseline.critical_path_s, predicted.critical_path_s)
