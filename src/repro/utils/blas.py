"""One BLAS thread pool per simulated GPU.

A ``Cluster`` runs its ranks as threads of one process, and each rank's
matmuls call numpy's bundled OpenBLAS. OpenBLAS sizes its pool for the
whole machine, so N rank threads on C cores run up to N*C BLAS threads
that preempt each other: a 128x128x1024 sgemm that needs 0.2 ms then
sometimes takes 16 ms. ``blas_threads_per_rank`` caps the pool at the
usable cores divided among the rank threads currently running, and puts
the previous count back when the last of them is done.

OpenBLAS is reached through ``ctypes`` as the
``scipy_openblas_{get,set}_num_threads64_`` symbols of the library that
numpy's wheel bundles. If they are missing, the cap does nothing.

The thread count leaves GEMM results unchanged (OpenBLAS splits them over
output rows and columns), but ddot splits long vectors across threads, so
the engines' ``np.dot`` gradient norm can differ in its last bits.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

_lock = threading.Lock()
#: rank threads inside ``blas_threads_per_rank`` across all clusters.
_live_ranks = 0
#: the thread count to restore once ``_live_ranks`` drops back to 0.
_prior_threads: int | None = None


@functools.lru_cache(maxsize=1)
def _load_openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get_num_threads, set_num_threads) of numpy's bundled OpenBLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            return get, set_
    return None


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@contextmanager
def blas_threads_per_rank(world_size: int) -> Iterator[None]:
    """Give each of ``world_size`` rank threads its share of the cores.

    Nested and concurrent uses add their ranks together, so the count is
    ``max(1, usable_cores() // live rank threads)`` at every moment.
    """
    global _live_ranks, _prior_threads
    api = _load_openblas()
    if api is None:
        yield
        return
    get, set_ = api
    with _lock:
        if _live_ranks == 0:
            _prior_threads = int(get())
        _live_ranks += world_size
        set_(max(1, usable_cores() // _live_ranks))
    try:
        yield
    finally:
        with _lock:
            _live_ranks -= world_size
            if _live_ranks == 0:
                set_(_prior_threads)
            else:
                set_(max(1, usable_cores() // _live_ranks))
