"""SPMD launcher: run the same function on N simulated ranks (threads).

Each rank gets a ``RankContext`` carrying its global rank, the world
process group, its simulated Device (own allocator), the shared host pool,
and its communication ledger. Exceptions on any rank abort the fabric so
peers fail fast, and the first exception is re-raised in the caller.

Usage::

    cluster = Cluster(world_size=4)

    def train(ctx):
        grads = ...  # per-rank work
        return ctx.world.all_reduce(ctx.rank, grads, op="avg")

    results = cluster.run(train)   # list of 4 per-rank return values
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.comm.fabric import Fabric
from repro.comm.faults import FaultPlan, RetryPolicy
from repro.comm.group import ProcessGroup
from repro.comm.ledger import CommLedger
from repro.hardware.specs import GPUSpec, V100_32GB
from repro.hardware.topology import ClusterTopology
from repro.memsim.device import Device, HostMemory
from repro.utils.blas import blas_threads_per_rank


@dataclass
class RankContext:
    """Everything one simulated rank needs."""

    rank: int
    world_size: int
    world: ProcessGroup
    device: Device
    host: HostMemory
    ledger: CommLedger
    topology: ClusterTopology
    fabric: Fabric
    #: per-rank telemetry tracer (``repro.telemetry.Tracer``) — None unless
    #: a ``TelemetrySession`` is attached; engines must treat None as
    #: "telemetry disabled" and record nothing.
    tracer: Any = None
    #: node NVMe pool (ZeRO-Infinity third tier) — a ``HostMemory`` counter
    #: named "nvme"; shared per node like ``host``. Always present but holds
    #: zero bytes unless an infinity placement parks state there.
    nvme: HostMemory | None = None
    #: buddy-shard redundancy store (``repro.redundancy.BuddyStore``) —
    #: None unless the Supervisor (or caller) enabled redundancy; engines
    #: treat None as "redundancy disabled" and allocate/record nothing.
    redundancy: Any = None
    #: Mission Control flight recorder (``repro.obs.RunLedger``) — None
    #: unless the Supervisor (or caller) enabled recording; instrumented
    #: layers treat None as "recording disabled" and append nothing.
    recorder: Any = None
    _groups: dict[tuple[int, ...], ProcessGroup] = field(default_factory=dict)

    def group(self, ranks: Sequence[int]) -> ProcessGroup:
        """The (shared) process group over ``ranks``, ledger attached.

        Group objects are shared across member threads via the fabric's
        rendezvous registry; this method caches the per-rank wrapper lookup.
        """
        key = tuple(sorted(ranks))
        pg = self._groups.get(key)
        if pg is None:
            pg = self.fabric.group_registry.setdefault_group(key)
            self._groups[key] = pg
        pg.attach_ledger(self.rank, self.ledger)
        return pg

    # Convenience pass-throughs for the world group.
    def barrier(self) -> None:
        self.world.barrier(self.rank)


class _GroupRegistry:
    """Process-group cache shared by all rank threads of one cluster."""

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self._groups: dict[tuple[int, ...], ProcessGroup] = {}
        self._lock = threading.Lock()

    def setdefault_group(self, ranks: tuple[int, ...]) -> ProcessGroup:
        with self._lock:
            pg = self._groups.get(ranks)
            if pg is None:
                pg = ProcessGroup(self.fabric, ranks)
                self._groups[ranks] = pg
            return pg


def virtual_rank_context(
    world_size: int,
    *,
    rank: int = 0,
    gpu: GPUSpec = V100_32GB,
    topology: ClusterTopology | None = None,
    telemetry=None,
) -> RankContext:
    """One simulated rank of an arbitrarily large world, no peer threads.

    Pairs with ``repro.comm.virtual.VirtualGroup``: meta-mode engines on
    this context execute every allocation and record every communication
    volume exactly as rank ``rank`` of a ``world_size``-GPU job would —
    the single-thread path behind the Table 2 / Figure 6 / Figure 7
    memory measurements.
    """
    from repro.comm.virtual import VirtualGroup

    world = VirtualGroup.of_size(world_size, member_rank=rank)
    ledger = CommLedger(rank=rank)
    world.attach_ledger(rank, ledger)
    fabric = Fabric(1)
    topo = topology or ClusterTopology.for_world_size(world_size)
    tracer = None
    if telemetry is not None:
        tracer = telemetry.tracer_for(rank, topology=topo)
        ledger.listener = tracer
    return RankContext(
        rank=rank,
        world_size=world_size,
        world=world,  # type: ignore[arg-type]
        device=Device(gpu, index=rank),
        host=HostMemory(topo.node.host_memory_bytes),
        ledger=ledger,
        topology=topo,
        fabric=fabric,
        tracer=tracer,
        nvme=HostMemory(topo.node.nvme_bytes, name="nvme"),
    )


class Cluster:
    """A world of simulated GPUs; ``run`` executes an SPMD function on all."""

    def __init__(
        self,
        world_size: int,
        *,
        gpu: GPUSpec = V100_32GB,
        topology: ClusterTopology | None = None,
        timeout_s: float = 120.0,
        host: HostMemory | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        telemetry=None,
        redundancy=None,
        recorder=None,
    ):
        self.world_size = world_size
        #: optional ``repro.redundancy.BuddyStore`` threaded into every
        #: rank context (the Supervisor owns it across attempts).
        self.redundancy = redundancy
        #: optional ``repro.obs.RunLedger`` threaded into every rank
        #: context (the Supervisor owns it across attempts).
        self.recorder = recorder
        #: optional ``repro.telemetry.TelemetrySession``; when None the
        #: cluster allocates no telemetry objects at all.
        self.telemetry = telemetry
        if telemetry is not None:
            health = getattr(telemetry, "health", None)
            if health is not None:
                # A fresh cluster is a fresh detection window: Supervisor
                # relaunches renumber survivors and shrink the world, so
                # stale per-rank history must not carry over.
                health.bind_world(world_size)
        self.topology = topology or ClusterTopology.for_world_size(world_size)
        if self.topology.world_size != world_size:
            raise ValueError(
                f"topology world_size {self.topology.world_size} != cluster {world_size}"
            )
        self.fabric = Fabric(
            world_size, timeout_s=timeout_s,
            fault_plan=fault_plan, retry_policy=retry_policy,
        )
        self.fabric.group_registry = _GroupRegistry(self.fabric)  # type: ignore[attr-defined]
        self.devices = [Device(gpu, index=i) for i in range(world_size)]
        # One shared host pool per cluster, sized to a single node's DRAM
        # (the simulated worlds here fit one node's worth of ranks).
        self.host = host or HostMemory(self.topology.node.host_memory_bytes)
        # One shared NVMe pool per cluster (the node's drive array); a bare
        # byte counter until an infinity placement parks state on it.
        self.nvme = HostMemory(self.topology.node.nvme_bytes, name="nvme")
        self.ledgers = [CommLedger(rank=i) for i in range(world_size)]
        self._world_group = self.fabric.group_registry.setdefault_group(
            tuple(range(world_size))
        )

    def context(self, rank: int) -> RankContext:
        """Build rank ``rank``'s context (exposed for single-rank tests)."""
        self._world_group.attach_ledger(rank, self.ledgers[rank])
        tracer = None
        if self.telemetry is not None:
            tracer = self.telemetry.tracer_for(
                rank, topology=self.topology, gpu=self.devices[rank].spec,
                fault_plan=self.fabric.fault_plan,
            )
            self.ledgers[rank].listener = tracer
        return RankContext(
            rank=rank,
            world_size=self.world_size,
            world=self._world_group,
            device=self.devices[rank],
            host=self.host,
            ledger=self.ledgers[rank],
            topology=self.topology,
            fabric=self.fabric,
            tracer=tracer,
            nvme=self.nvme,
            redundancy=self.redundancy,
            recorder=self.recorder,
        )

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Run ``fn(ctx, *args, **kwargs)`` on every rank; return per-rank results.

        The first rank exception (by rank order) is re-raised after all
        threads stop; sibling ranks blocked in collectives are released by
        aborting the fabric.
        """
        results: list[Any] = [None] * self.world_size
        errors: list[BaseException | None] = [None] * self.world_size

        def worker(rank: int) -> None:
            try:
                results[rank] = fn(self.context(rank), *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - must not hang siblings
                errors[rank] = exc
                self.fabric.abort()

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"rank-{r}", daemon=True)
            for r in range(self.world_size)
        ]
        # One BLAS pool per simulated GPU: the rank threads share the cores.
        with blas_threads_per_rank(self.world_size):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Prefer the root cause: a rank's own failure outranks the
        # FabricAbortedError its peers raised when the fabric was torn down.
        # Among aborts, one chained to a cause (e.g. a collective whose
        # retries were exhausted) outranks the bare peer-side aborts.
        from repro.comm.fabric import FabricAbortedError

        root = [e for e in errors if e is not None and not isinstance(e, FabricAbortedError)]
        secondary = [e for e in errors if isinstance(e, FabricAbortedError)]
        if root:
            raise root[0]
        for e in secondary:
            if e.__cause__ is not None:
                raise e
        if secondary:
            raise secondary[0]
        return results
