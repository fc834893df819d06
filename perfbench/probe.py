"""A fixed unit of host work that measures how fast the host runs right now.

On a shared virtual machine the same Python step can take 20% longer or
shorter from one half-minute to the next, because other tenants load the
caches and memory of the same cores. For a one-thread workload the
benchmark times ``probe_s()`` right after each step and reports the
step's time scaled by ``PROBE_REF_S / probe_s()``: seconds at the speed
the probe ran at when ``PROBE_REF_S`` was measured. A change to the
library speeds up or slows down the steps but not the probe, so the
scaled times still compare two versions of the program, while drift in
the host's speed cancels out.

The probe mimics the simulator's host work: it builds small slotted
objects holding tuples and dicts and tracks them in a dict keyed by
object id, freeing a third as it goes.
"""

from __future__ import annotations

import time

#: seconds ``probe_s()`` took on the reference host (2 vCPUs at 2.1 GHz,
#: median over several minutes). Only the ratio to it matters.
PROBE_REF_S = 0.015
_PROBE_OBJECTS = 6000


class _Node:
    __slots__ = ("shape", "tag", "size", "extent", "attrs")

    def __init__(self, shape: tuple[int, ...], tag: str):
        self.shape = tuple(int(s) for s in shape)
        self.tag = tag
        size = 1
        for s in self.shape:
            size *= s
        self.size = size
        self.extent = None
        self.attrs = {"tag": tag, "size": size}


def probe_s() -> float:
    """Seconds one fixed unit of Python object work takes now."""
    t0 = time.perf_counter()
    live: dict[int, _Node] = {}
    recent: list[_Node] = []
    for i in range(_PROBE_OBJECTS):
        node = _Node((i % 7 + 1, i % 13 + 1, 64), f"t{i % 500}")
        live[id(node)] = node
        if i % 3 == 0 and recent:
            live.pop(id(recent.pop()), None)
        recent.append(node)
    if sum(n.size for n in live.values()) <= 0:
        raise AssertionError("probe lost its objects")
    return time.perf_counter() - t0
