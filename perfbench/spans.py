"""Span recorder that wraps each layer's public entry points from outside.

``SpanRecorder.install()`` replaces the layer entry points that the
``_install_*`` functions name with thin wrappers and ``uninstall()`` puts the originals
back; nothing under ``src/`` is edited. Each wrapped call records a
``summary.Span`` (kind, start, end, enclosing span, rank, step) on the
calling thread, and a few entry points also add to a per-step counter
(tensors created, Adam elements, communicated bytes, retries).

A module-level function is replaced in every loaded ``repro`` module that
holds it, so a caller that did ``from module import fn`` is wrapped too.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
import types
from collections import defaultdict
from collections.abc import Callable

from perfbench.summary import Span

#: CommLedger ops that are tier copies (PCIe / NVMe lanes), not collectives.
TIER_LANES = frozenset({"h2d", "d2h", "nvme-in", "nvme-out"})

_COLLECTIVES = (
    "barrier", "meta_collective", "all_reduce", "reduce", "reduce_scatter",
    "all_gather", "broadcast", "gather", "scatter", "all_to_all", "send", "recv",
)


class _ThreadState:
    __slots__ = ("rank", "step", "stack", "spans", "counters")

    def __init__(self) -> None:
        self.rank = -1
        self.step = -1
        self.stack: list[int] = []
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, int, str], float] = defaultdict(float)


class SpanRecorder:
    """Records spans and counters for every thread that calls a wrapped
    entry point. One recorder is installed at a time."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread context ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def set_context(self, rank: int, step: int) -> None:
        """Tag this thread's following spans with ``rank`` and ``step``."""
        st = self._state()
        st.rank = rank
        st.step = step

    # -- results --------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return [s for st in self._states for s in st.spans]

    @property
    def counters(self) -> dict[tuple[int, int, str], float]:
        out: dict[tuple[int, int, str], float] = defaultdict(float)
        with self._lock:
            for st in self._states:
                for key, amount in st.counters.items():
                    out[key] += amount
        return dict(out)

    def open_spans(self) -> int:
        """Spans entered but not exited, over all threads (0 after a run)."""
        with self._lock:
            return sum(len(st.stack) for st in self._states)

    # -- wrappers -------------------------------------------------------------

    def _span(
        self, fn: Callable, kind: str, label: str,
        counter: str | None = None, amount: Callable | None = None,
    ) -> Callable:
        state, ids, clock = self._state, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if counter is not None:
                st.counters[(st.rank, st.step, counter)] += amount(args, kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.spans.append(Span(sid, parent, kind, label, st.rank, st.step, t0, t1))

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def maker(
        self, kind: str, counter: str | None = None, amount: Callable | None = None,
    ) -> Callable[[Callable, str], Callable]:
        """A factory ``(fn, label) -> wrapper`` recording spans of ``kind``."""
        return lambda fn, label: self._span(fn, kind, label, counter, amount)

    def _count(self, fn: Callable, counter: str, amount: Callable) -> Callable:
        state = self._state

        def wrapper(*args, **kwargs):
            st = state()
            st.counters[(st.rank, st.step, counter)] += amount(args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls: type, name: str, make: Callable) -> None:
        fn = vars(cls)[name]
        self._patch(cls, name, make(fn, f"{cls.__name__}.{name}"))

    def _patch_function(self, fn: types.FunctionType, make: Callable) -> None:
        """Replace ``fn`` wherever a loaded ``repro`` module binds it."""
        wrapper = make(fn, fn.__name__)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)
                    sites += 1
        if not sites:
            raise RuntimeError(f"{fn.__module__}.{fn.__name__} is bound nowhere")

    def install(self) -> None:
        """Wrap every layer's entry points. Call after the workload is
        built, so every module the step imports lazily is loaded."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        try:
            for install_layer in _LAYERS:
                install_layer(self)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _install_data(rec: SpanRecorder) -> None:
    from repro.data import SyntheticCorpus

    rec._patch_method(SyntheticCorpus, "sample_batch", rec.maker("data.sample_batch"))


def _install_tensor(rec: SpanRecorder) -> None:
    from repro.tensor import functional
    from repro.tensor.tensor import Tensor

    make = rec.maker("tensor.kernel")
    for name, fn in list(vars(functional).items()):
        if (
            isinstance(fn, types.FunctionType)
            and fn.__module__ == functional.__name__
            and not name.startswith("_")
        ):
            rec._patch_function(fn, make)
    rec._patch(Tensor, "__init__", rec._count(
        vars(Tensor)["__init__"], "tensor.tensors_created", lambda a, k: 1,
    ))


def _install_nn(rec: SpanRecorder) -> None:
    from repro.nn.loss import CausalLMLoss, VocabParallelCausalLMLoss
    from repro.nn.transformer import GPT2Model

    # ParallelGPT2Model inherits both methods from GPT2Model.
    for cls in (GPT2Model, CausalLMLoss, VocabParallelCausalLMLoss):
        rec._patch_method(cls, "forward", rec.maker("nn.forward"))
        rec._patch_method(cls, "backward", rec.maker("nn.backward"))


def _install_optim(rec: SpanRecorder) -> None:
    from repro.optim.adam import adam_step_inplace

    make = rec.maker("optim.adam", "optim.adam_elems", lambda a, k: a[0].size)
    rec._patch_function(adam_step_inplace, make)


def _install_comm(rec: SpanRecorder) -> None:
    from repro.comm.fabric import _Rendezvous
    from repro.comm.group import ProcessGroup
    from repro.comm.ledger import CommLedger
    from repro.comm.virtual import VirtualGroup

    make = rec.maker("comm.collective")
    for cls in (ProcessGroup, VirtualGroup):
        for name in _COLLECTIVES:
            if name in vars(cls):
                rec._patch_method(cls, name, make)
    # The rendezvous barrier wait is where a rank waits for its peers.
    rec._patch_method(_Rendezvous, "_wait", rec.maker("comm.wait"))

    def collective_bytes(args, kwargs) -> int:
        ledger, op, message_bytes = args[0], args[1], args[2]
        return 0 if op in TIER_LANES or not ledger.enabled else int(message_bytes)

    rec._patch(CommLedger, "record", rec._count(
        vars(CommLedger)["record"], "comm.bytes", collective_bytes,
    ))
    rec._patch(CommLedger, "record_retry", rec._count(
        vars(CommLedger)["record_retry"], "comm.retries", lambda a, k: 1,
    ))


def _install_memsim(rec: SpanRecorder) -> None:
    from repro.memsim.device import Device

    rec._patch_method(Device, "alloc", rec.maker("memsim.alloc"))
    rec._patch_method(Device, "free", rec.maker("memsim.free"))


def _install_zero(rec: SpanRecorder) -> None:
    from repro.parallel.engine import BaseEngine

    rec._patch_method(BaseEngine, "train_step", rec.maker("zero.train_step"))


def _install_infinity(rec: SpanRecorder) -> None:
    from repro.infinity.engine import InfinityEngine
    from repro.infinity.tiers import TierStream

    rec._patch_method(TierStream, "copy_async", rec.maker("infinity.copy"))
    make = rec.maker("infinity.engine")
    for name in ("begin_micro", "queue_grad_d2h", "note_gather", "finish_step"):
        rec._patch_method(InfinityEngine, name, make)


_LAYERS: tuple[Callable[[SpanRecorder], None], ...] = (
    _install_data, _install_tensor, _install_nn, _install_optim,
    _install_comm, _install_memsim, _install_zero, _install_infinity,
)
