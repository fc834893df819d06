"""Tier hierarchy: device HBM -> host DRAM -> NVMe, with per-link streams.

ZeRO-Infinity's central abstraction is a *memory hierarchy*: each rung has
a capacity and is reached over a full-duplex link with alpha-beta cost.
``Tier`` describes one rung, ``TierTopology`` the ordered stack one GPU
sees (built from ``repro.hardware`` specs so capacities and link numbers
are hardware truth), and ``TierStream`` the per-link transfer scheduler.

``TierStream`` models one full-duplex link as two independent lanes
("out" = away from the device, "in" = toward it), each serializing its
transfers under ``start = max(submit, lane_free)`` and
``done = start + alpha + bytes/beta`` on a within-step clock (t = 0 at
forward begin). The PCIe link is the pair labelled d2h/h2d — the
ZeRO-Offload stream — and the NVMe link the pair nvme-out/nvme-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.ledger import CommLedger
from repro.hardware.specs import InterconnectSpec
from repro.hardware.topology import ClusterTopology

#: canonical tier names, ordered from fastest to coldest.
TIER_NAMES = ("device", "host", "nvme")


def wire_seconds(link: InterconnectSpec, nbytes: int | float) -> float:
    """Alpha-beta wire time of one transfer on ``link`` (0 for 0 bytes).

    The single closed-form every tier cost shares: the offload cost model,
    the infinity cost model, and the streams all price bytes through here.
    """
    if nbytes <= 0:
        return 0.0
    return link.latency_s + nbytes / link.bandwidth_bytes_per_s


@dataclass(frozen=True)
class Tier:
    """One rung of the hierarchy: a capacity behind a (possibly None) link.

    ``link`` is the hop from the *previous* (faster) tier: the device tier
    has no link, host is behind PCIe, NVMe behind the drive array's
    effective per-GPU bandwidth.
    """

    name: str
    capacity_bytes: int
    link: InterconnectSpec | None = None

    def __post_init__(self):
        if self.name not in TIER_NAMES:
            raise ValueError(f"tier name must be one of {TIER_NAMES}, got {self.name!r}")
        if self.capacity_bytes <= 0:
            raise ValueError(f"tier capacity must be positive, got {self.capacity_bytes}")


@dataclass(frozen=True)
class TierTopology:
    """The ordered tier stack one rank sees (fastest first).

    Built from hardware specs via ``from_cluster`` so per-tier capacities
    (device HBM, DRAM share, NVMe share) and link alpha-beta numbers stay
    anchored to ``repro.hardware``.
    """

    tiers: tuple[Tier, ...]

    def __post_init__(self):
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        if not self.tiers or names[0] != "device":
            raise ValueError("tier stack must start at the device tier")
        if self.tiers[0].link is not None:
            raise ValueError("the device tier has no upstream link")
        for t in self.tiers[1:]:
            if t.link is None:
                raise ValueError(f"non-device tier {t.name!r} needs a link")

    @classmethod
    def from_cluster(
        cls,
        topology: ClusterTopology,
        *,
        pcie: InterconnectSpec | None = None,
        nvme: InterconnectSpec | None = None,
    ) -> "TierTopology":
        """Device -> host -> NVMe stack for one GPU of ``topology``.

        Capacities are the per-GPU fair shares; ``pcie``/``nvme`` override
        the link specs (e.g. to model a faster drive array).
        """
        node = topology.node
        return cls(
            tiers=(
                Tier("device", node.gpu.memory_bytes),
                Tier("host", topology.host_bytes_per_gpu, pcie or node.pcie),
                Tier("nvme", topology.nvme_bytes_per_gpu, nvme or node.nvme),
            )
        )

    def tier(self, name: str) -> Tier:
        for t in self.tiers:
            if t.name == name:
                return t
        raise KeyError(f"no tier named {name!r} in {[t.name for t in self.tiers]}")

    def depth(self, name: str) -> int:
        """0 = device, increasing toward colder tiers."""
        for i, t in enumerate(self.tiers):
            if t.name == name:
                return i
        raise KeyError(f"no tier named {name!r}")

    def path(self, name: str) -> tuple[Tier, ...]:
        """The hops between the device and tier ``name`` (fast to cold):
        e.g. ``path("nvme") == (host, nvme)`` — a device<->NVMe transfer
        crosses PCIe and the drive link."""
        return self.tiers[1 : self.depth(name) + 1]

    def wire_seconds_to(self, name: str, nbytes: int | float) -> float:
        """Alpha-beta time to move ``nbytes`` device<->tier ``name``
        assuming the hops are crossed back-to-back (no pipelining)."""
        return sum(wire_seconds(t.link, nbytes) for t in self.path(name))

    def bottleneck_link(self, name: str) -> InterconnectSpec | None:
        """Slowest link on the device<->``name`` path (None for device)."""
        path = self.path(name)
        if not path:
            return None
        return min(path, key=lambda t: t.link.bandwidth_bytes_per_s).link


@dataclass
class TransferHandle:
    """One async copy: submitted, scheduled onto a lane, completed at ``done_t``."""

    direction: str
    nbytes: int
    submit_t: float
    start_t: float
    done_t: float
    phase: str = ""
    synchronized: bool = False

    @property
    def wire_s(self) -> float:
        """Seconds the copy occupies the lane (latency + serialization)."""
        return self.done_t - self.start_t

    @property
    def queued_s(self) -> float:
        """Seconds the copy waited behind earlier traffic on its lane."""
        return self.start_t - self.submit_t


class TierStream:
    """Full-duplex lane pair for one tier link, with async handle semantics.

    Callers pick the two lane labels: the PCIe stream uses
    ``("d2h", "h2d")``, the NVMe stream ``("nvme-out", "nvme-in")``
    (default ``("out", "in")``). Every copy lands in the rank's
    CommLedger under its lane label so volume accounting sees tier traffic
    exactly like collective traffic.
    """

    directions: tuple[str, str] = ("out", "in")

    def __init__(
        self,
        link: InterconnectSpec,
        *,
        ledger: CommLedger | None = None,
        rank: int = 0,
        directions: tuple[str, str] | None = None,
    ):
        self.link = link
        self.ledger = ledger
        self.rank = rank
        if directions is not None:
            self.directions = directions
        self._lane_free = {d: 0.0 for d in self.directions}
        self.handles: list[TransferHandle] = []

    def reset(self) -> None:
        """Start a fresh step timeline (t = 0 at forward begin)."""
        self._lane_free = {d: 0.0 for d in self.directions}
        self.handles.clear()

    def copy_async(
        self, nbytes: int, direction: str, *, submit_t: float = 0.0, phase: str = ""
    ) -> TransferHandle:
        """Enqueue a copy; returns immediately with its scheduled times."""
        if direction not in self.directions:
            raise ValueError(
                f"direction must be one of {self.directions}, got {direction!r}"
            )
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        start = max(float(submit_t), self._lane_free[direction])
        done = start + self.link.latency_s + nbytes / self.link.bandwidth_bytes_per_s
        self._lane_free[direction] = done
        if self.ledger is not None and nbytes > 0:
            self.ledger.record(direction, nbytes, (self.rank,), phase)
        handle = TransferHandle(
            direction=direction, nbytes=int(nbytes),
            submit_t=float(submit_t), start_t=start, done_t=done, phase=phase,
        )
        self.handles.append(handle)
        return handle

    def synchronize(self, handles: list[TransferHandle] | None = None, *, at: float = 0.0) -> float:
        """Wait for ``handles`` (default: everything submitted this step)
        starting from model time ``at``; returns the time all are done."""
        targets = self.handles if handles is None else handles
        t = float(at)
        for h in targets:
            h.synchronized = True
            t = max(t, h.done_t)
        return t

    def lane_busy_s(self, direction: str) -> float:
        """Total seconds this step's transfers occupy one lane."""
        return sum(h.wire_s for h in self.handles if h.direction == direction)

    def lane_free_t(self, direction: str) -> float:
        return self._lane_free[direction]
