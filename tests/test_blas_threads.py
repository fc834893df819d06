"""One BLAS pool per simulated GPU: ``Cluster.run`` caps numpy's OpenBLAS
at the usable cores divided among the live rank threads, and restores the
previous thread count afterwards."""

import threading

import pytest

from repro.hardware.specs import GPUSpec
from repro.runtime import Cluster
from repro.utils import blas

GPU = GPUSpec("t", 10**8, 1e12)

pytestmark = pytest.mark.skipif(
    blas._load_openblas() is None, reason="numpy's OpenBLAS is not reachable"
)

#: a prior count that no cap below produces, so restoring it is observable.
PRIOR = blas.usable_cores() + 1


@pytest.fixture
def prior_threads():
    get, set_ = blas._load_openblas()
    saved = get()
    set_(PRIOR)
    yield PRIOR
    set_(saved)


def blas_threads():
    return blas._load_openblas()[0]()


def observed_count(ctx):
    return blas_threads()


def test_ranks_share_the_cores_and_the_count_is_restored(prior_threads):
    for world in (1, 2, 4):
        counts = Cluster(world, gpu=GPU, timeout_s=10).run(observed_count)
        assert counts == [max(1, blas.usable_cores() // world)] * world
        assert blas_threads() == prior_threads


def test_restored_after_a_rank_raises(prior_threads):
    def fail_on_rank_1(ctx):
        if ctx.rank == 1:
            raise RuntimeError("boom")
        ctx.world.barrier(ctx.rank)

    with pytest.raises(RuntimeError, match="boom"):
        Cluster(2, gpu=GPU, timeout_s=10).run(fail_on_rank_1)
    assert blas_threads() == prior_threads


def test_concurrent_clusters_add_their_ranks(prior_threads):
    worlds = (2, 3)
    all_live = threading.Barrier(sum(worlds))
    seen: dict[int, list] = {}
    errors = []

    def body(ctx):
        all_live.wait(timeout=10)
        count = blas_threads()
        all_live.wait(timeout=10)  # nobody leaves before everyone looked
        return count

    def launch(world):
        try:
            seen[world] = Cluster(world, gpu=GPU, timeout_s=10).run(body)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=launch, args=(w,)) for w in worlds]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    shared = max(1, blas.usable_cores() // sum(worlds))
    assert seen == {w: [shared] * w for w in worlds}
    assert blas_threads() == prior_threads


def test_missing_symbols_are_a_silent_no_op(prior_threads, monkeypatch):
    get, _ = blas._load_openblas()
    monkeypatch.setattr(blas, "_load_openblas", lambda: None)
    counts = Cluster(2, gpu=GPU, timeout_s=10).run(lambda ctx: get())
    assert counts == [prior_threads, prior_threads]
    assert get() == prior_threads
