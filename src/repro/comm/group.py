"""Process groups with NCCL-semantics collectives over the thread fabric.

All collectives operate on 1-D numpy arrays (callers flatten), return fresh
arrays, and are *deterministic across ranks*: reductions sum contributions
in ascending group-index order on every rank, so all ranks observe bitwise
identical results — the property the ZeRO == DP equivalence tests rely on.

Every call records a CommEvent in the calling rank's ledger (when one is
attached), tagged with a caller-chosen ``phase`` label so experiments can
attribute volume to e.g. gradient reduction vs parameter all-gather.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.comm.fabric import Fabric, FabricAbortedError
from repro.comm.faults import RankKilledError, TransientCollectiveFault
from repro.comm.ledger import CommLedger
from repro.tensor.halfcast import to_dtype


def _reduce_arrays(arrays: Sequence[np.ndarray], op: str) -> np.ndarray:
    """Deterministic elementwise reduction in group-index order.

    Accumulates in float32 for half-precision inputs (NCCL-style widened
    accumulation) and casts back, so reductions of fp16 gradients behave
    like the real system rather than overflowing at the first add.
    """
    first = arrays[0]
    acc_dtype = np.float32 if first.dtype == np.float16 else first.dtype
    if op == "sum" or op == "avg":
        out = to_dtype(arrays[0], acc_dtype)
        with np.errstate(over="ignore"):  # inf-laden overflow steps saturate
            for a in arrays[1:]:
                out += to_dtype(a, acc_dtype, copy=False)
            if op == "avg":
                out /= len(arrays)
    elif op == "max":
        out = to_dtype(arrays[0], acc_dtype)
        for a in arrays[1:]:
            np.maximum(out, to_dtype(a, acc_dtype, copy=False), out=out)
    elif op == "min":
        out = to_dtype(arrays[0], acc_dtype)
        for a in arrays[1:]:
            np.minimum(out, to_dtype(a, acc_dtype, copy=False), out=out)
    else:
        raise ValueError(f"unsupported reduction op {op!r}")
    # fp16 saturates to inf, as NCCL does.
    return to_dtype(out, first.dtype, copy=False)


class ProcessGroup:
    """A set of global ranks that communicate collectively.

    One ``ProcessGroup`` object is shared by all member threads; per-rank
    state (the ledger) is passed per call via ``attach_ledger``'s registry.
    """

    def __init__(self, fabric: Fabric, ranks: Sequence[int]):
        self.fabric = fabric
        self.ranks = tuple(sorted(ranks))
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError(f"duplicate ranks in group: {ranks}")
        for r in self.ranks:
            if not 0 <= r < fabric.world_size:
                raise ValueError(f"rank {r} outside world of size {fabric.world_size}")
        self._rendezvous = fabric.rendezvous_for(self.ranks)
        self._ledgers: dict[int, CommLedger] = {}

    # -- membership --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ranks)

    def group_index(self, rank: int) -> int:
        """Index of a global rank within this group."""
        try:
            return self._rendezvous.index_of[rank]
        except KeyError:
            raise ValueError(f"rank {rank} is not in group {self.ranks}") from None

    def attach_ledger(self, rank: int, ledger: CommLedger) -> None:
        self._ledgers[rank] = ledger

    def _record(
        self, rank: int, op: str, message_bytes: int, phase: str,
        peer: tuple[int, int] | None = None,
    ) -> None:
        ledger = self._ledgers.get(rank)
        if ledger is not None:
            ledger.record(op, message_bytes, self.ranks, phase, peer=peer)

    # -- fault-aware rendezvous entry ----------------------------------------

    def _maybe_corrupt(self, rank: int, op: str, payload, when: str):
        """Consult the fault plan's silent bit-flip rules on a collective
        payload (repro.comm.faults.flip_bits). ``"pre"`` corrupts this
        rank's contribution (a copy — the caller's resident array is
        untouched, modeling in-flight corruption); ``"post"`` corrupts
        the result this rank receives. Emits a telemetry instant and an
        ``sdc_injections`` counter through the ledger's listener when a
        flip fires; raises nothing."""
        plan = self.fabric.fault_plan
        if plan is None or not isinstance(payload, np.ndarray):
            return payload
        out = plan.corrupt_payload(rank, op, payload, when)
        if out is None:
            return payload
        tracer = getattr(self._ledgers.get(rank), "listener", None)
        if tracer is not None:
            tracer.instant("sdc-bitflip", op=op, when=when)
            registry = getattr(tracer, "registry", None)
            if registry is not None:
                registry.counter("sdc_injections", rank=rank, kind="bitflip").add(1)
        return out

    def _exchange(self, rank: int, value, tag, op: str) -> list:
        """Enter the rendezvous, consulting the fabric's fault plan first.

        A transient injected fault fails *before* the deposit, so the
        faulting rank simply retries (with exponential backoff under the
        fabric's ``RetryPolicy``) while its peers wait at the barrier —
        once the fault clears, the exchange happens exactly once and the
        result is bitwise identical to a fault-free run. Every failed
        attempt is recorded in this rank's ledger. Exhausted retries (or
        a blown per-collective deadline) and permanent kills abort the
        fabric so *all* ranks raise promptly.
        """
        plan = self.fabric.fault_plan
        if plan is None:
            return self._rendezvous.exchange(rank, value, tag)
        # Pre-reduce corruption happens once per logical collective, not
        # per retry attempt: the flipped contribution is what every
        # attempt would have carried.
        value = self._maybe_corrupt(rank, op, value, "pre")
        policy = self.fabric.retry_policy
        deadline = (
            time.monotonic() + policy.deadline_s
            if policy.deadline_s is not None
            else None
        )
        attempt = 1
        while True:
            try:
                plan.on_collective(rank, op, self.ranks)
            except TransientCollectiveFault as fault:
                backoff = policy.backoff_s(attempt)
                exhausted = attempt >= policy.max_attempts or (
                    deadline is not None and time.monotonic() + backoff > deadline
                )
                ledger = self._ledgers.get(rank)
                if ledger is not None:
                    ledger.record_retry(
                        op, self.ranks, attempt,
                        0.0 if exhausted else backoff,
                        str(fault), gave_up=exhausted,
                    )
                if exhausted:
                    self.fabric.abort()
                    raise FabricAbortedError(
                        f"collective {op!r} on rank {rank} failed permanently "
                        f"after {attempt} attempt(s): {fault}"
                    ) from fault
                time.sleep(backoff)
                attempt += 1
                continue
            except RankKilledError:
                self.fabric.abort()
                raise
            return self._rendezvous.exchange(rank, value, tag)

    # -- collectives ---------------------------------------------------------

    def barrier(self, rank: int) -> None:
        self.group_index(rank)
        self._exchange(rank, None, "barrier", "barrier")
        self._record(rank, "barrier", 0, "")

    def meta_collective(self, rank: int, op: str, message_bytes: int, phase: str = "") -> None:
        """Meta-mode collective: synchronize SPMD order and record volume
        without moving data (the 100B-scale engines run on meta tensors)."""
        self.group_index(rank)
        self._exchange(rank, None, ("meta", op, int(message_bytes)), op)
        self._record(rank, op, int(message_bytes), phase)

    def all_reduce(
        self, rank: int, array: np.ndarray, op: str = "sum", phase: str = ""
    ) -> np.ndarray:
        """Reduce everyone's array and return the result to all ranks."""
        contributions = self._exchange(rank, array, ("all_reduce", array.shape), "all_reduce")
        self._record(rank, "all_reduce", array.nbytes, phase)
        return self._maybe_corrupt(
            rank, "all_reduce", _reduce_arrays(contributions, op), "post"
        )

    def reduce(
        self, rank: int, array: np.ndarray, dst: int, op: str = "sum", phase: str = ""
    ) -> np.ndarray | None:
        """Reduce to the group member with global rank ``dst``; others get None."""
        self.group_index(dst)
        contributions = self._exchange(rank, array, ("reduce", dst, array.shape), "reduce")
        self._record(rank, "reduce", array.nbytes, phase)
        if rank == dst:
            return self._maybe_corrupt(
                rank, "reduce", _reduce_arrays(contributions, op), "post"
            )
        return None

    def reduce_scatter(
        self, rank: int, array: np.ndarray, op: str = "sum", phase: str = ""
    ) -> np.ndarray:
        """Reduce a full-length array; each rank keeps its 1/N shard.

        ``len(array)`` must be divisible by the group size (pad upstream).
        """
        n = self.size
        if array.ndim != 1 or array.shape[0] % n:
            raise ValueError(
                f"reduce_scatter needs a 1-D array with length divisible by {n}, "
                f"got shape {array.shape}"
            )
        contributions = self._exchange(
            rank, array, ("reduce_scatter", array.shape), "reduce_scatter"
        )
        self._record(rank, "reduce_scatter", array.nbytes, phase)
        shard = array.shape[0] // n
        idx = self.group_index(rank)
        lo, hi = idx * shard, (idx + 1) * shard
        return self._maybe_corrupt(
            rank, "reduce_scatter",
            _reduce_arrays([c[lo:hi] for c in contributions], op), "post",
        )

    def all_gather(self, rank: int, shard: np.ndarray, phase: str = "") -> np.ndarray:
        """Concatenate every rank's equal-length shard, in group order."""
        shards = self._exchange(rank, shard, ("all_gather", shard.shape), "all_gather")
        lengths = {s.shape for s in shards}
        if len(lengths) != 1:
            raise ValueError(f"all_gather shards have mismatched shapes: {lengths}")
        full = np.concatenate([np.asarray(s).ravel() for s in shards])
        self._record(rank, "all_gather", full.nbytes, phase)
        return self._maybe_corrupt(rank, "all_gather", full, "post")

    def broadcast(self, rank: int, array: np.ndarray | None, src: int, phase: str = "") -> np.ndarray:
        """Send ``src``'s array to every rank. Non-src inputs are ignored."""
        self.group_index(src)
        slots = self._exchange(rank, array, ("broadcast", src), "broadcast")
        payload = slots[self.group_index(src)]
        if payload is None:
            raise ValueError(f"broadcast: src rank {src} supplied no array")
        self._record(rank, "broadcast", payload.nbytes, phase)
        corrupted = self._maybe_corrupt(rank, "broadcast", payload, "post")
        if corrupted is not payload:
            return corrupted  # already a private corrupted copy
        return payload if rank == src else payload.copy()

    def gather(self, rank: int, array: np.ndarray, dst: int, phase: str = "") -> list[np.ndarray] | None:
        self.group_index(dst)
        slots = self._exchange(rank, array, ("gather", dst, array.shape), "gather")
        self._record(rank, "gather", array.nbytes, phase)
        if rank == dst:
            return [np.asarray(s).copy() for s in slots]
        return None

    def scatter(
        self, rank: int, arrays: Sequence[np.ndarray] | None, src: int, phase: str = ""
    ) -> np.ndarray:
        self.group_index(src)
        tag = ("scatter", src)
        slots = self._exchange(rank, arrays, tag, "scatter")
        payload = slots[self.group_index(src)]
        if payload is None or len(payload) != self.size:
            raise ValueError(f"scatter: src must supply {self.size} arrays")
        mine = np.asarray(payload[self.group_index(rank)])
        self._record(rank, "scatter", mine.nbytes, phase)
        return mine if rank == src else mine.copy()

    def all_to_all(self, rank: int, arrays: Sequence[np.ndarray], phase: str = "") -> list[np.ndarray]:
        """Rank i's j-th array goes to rank j's i-th output slot."""
        if len(arrays) != self.size:
            raise ValueError(f"all_to_all needs {self.size} arrays, got {len(arrays)}")
        slots = self._exchange(rank, list(arrays), ("all_to_all",), "all_to_all")
        idx = self.group_index(rank)
        out = [np.asarray(s[idx]).copy() for s in slots]
        self._record(rank, "all_to_all", sum(a.nbytes for a in out), phase)
        return out

    # -- point-to-point ------------------------------------------------------

    def send(self, rank: int, dst: int, array: np.ndarray, tag: int = 0, phase: str = "") -> None:
        self.group_index(rank)
        self.group_index(dst)
        self.fabric.send(rank, dst, np.asarray(array).copy(), tag)
        self._record(rank, "send", array.nbytes, phase, peer=(rank, dst))

    def recv(self, rank: int, src: int, tag: int = 0, phase: str = "") -> np.ndarray:
        self.group_index(rank)
        self.group_index(src)
        array = self.fabric.recv(src, rank, tag)
        self._record(rank, "recv", array.nbytes, phase, peer=(src, rank))
        return array
