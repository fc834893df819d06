"""Global gradient-norm clipping: a *distributed* computation under ZeRO
(each rank holds a gradient partition; the norm is assembled by summing
partition norms across the group). Must be identical across stages."""

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import BaseEngine, EngineConfig
from repro.utils import blas
from repro.zero.factory import build_model_and_engine

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
WORLD = 4


def run(stage, clip, steps=3, cfg=CFG, world=WORLD):
    cluster = Cluster(world, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(stage=stage, checkpoint_activations=False, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, cfg, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
            engine_config=EngineConfig(
                adam=AdamHyperparams(lr=1e-3), bucket_numel=2000, grad_clip_norm=clip,
            ),
        )
        losses = []
        for step in range(steps):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
        return losses, engine.opt_state.master.data.copy()

    return cluster.run(fn)


def test_clipping_changes_training():
    unclipped = run(0, clip=None)
    clipped = run(0, clip=0.05)  # typical LM gradient norms exceed this early
    assert not np.array_equal(unclipped[0][1], clipped[0][1])


def test_huge_clip_is_identity():
    unclipped = run(2, clip=None)
    effectively_off = run(2, clip=1e9)
    for rank in range(WORLD):
        np.testing.assert_array_equal(unclipped[rank][1], effectively_off[rank][1])


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_clipped_training_identical_across_stages(stage):
    """The distributed norm (partition norms summed across ranks) must
    equal DDP's local full norm, so trajectories stay equal."""
    ddp = run(0, clip=0.05)
    z = run(stage, clip=0.05)
    full = ddp[0][1]
    part = len(full) // WORLD
    for rank in range(WORLD):
        np.testing.assert_allclose(
            z[rank][1], full[rank * part : (rank + 1) * part], rtol=1e-6, atol=1e-8,
        )
        assert z[rank][0] == ddp[rank][0]  # losses exactly (fwd unaffected)


def test_clip_actually_bounds_update_norm():
    """First-step Adam update magnitude shrinks with the clip threshold."""

    def first_delta(clip):
        out = run(2, clip=clip, steps=1)
        return out  # compare master drift

    base = run(2, clip=None, steps=1)
    tight = run(2, clip=0.01, steps=1)
    # Initial master (pre-step) equals params; compare drift magnitudes.
    init = run(2, clip=None, steps=0)
    drift_base = np.abs(base[0][1] - init[0][1]).mean()
    drift_tight = np.abs(tight[0][1] - init[0][1]).mean()
    assert drift_tight < drift_base
    del first_delta


def test_invalid_clip_rejected():
    with pytest.raises(ValueError, match="positive"):
        run(0, clip=-1.0, steps=1)


@pytest.mark.skipif(blas._load_openblas() is None, reason="numpy's OpenBLAS is not reachable")
@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_clipped_training_does_not_depend_on_blas_threads(stage, monkeypatch):
    """The norm^2 is a fixed-order reduction, not a BLAS ddot (which splits
    vectors over 10,000 elements across its threads), so the norms and the
    clipped master weights are bitwise the same at 1 and 2 BLAS threads."""
    cfg = GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=61, max_seq_len=16)
    world = 2  # ~50k-element gradient partitions
    clip_factor = BaseEngine._clip_factor
    results = {}
    for threads in (1, 2):
        norms = {rank: [] for rank in range(world)}

        def spy(engine, local_norm_sq, *, partitioned):
            norms[engine.ctx.rank].append(local_norm_sq)
            return clip_factor(engine, local_norm_sq, partitioned=partitioned)

        monkeypatch.setattr(BaseEngine, "_clip_factor", spy)
        monkeypatch.setattr(blas, "usable_cores", lambda: threads * world)
        out = run(stage, clip=0.05, cfg=cfg, world=world)
        results[threads] = norms, [master for _, master in out]
    (norms1, masters1), (norms2, masters2) = results[1], results[2]
    assert norms1 == norms2 and len(norms1[0]) == 3
    for m1, m2 in zip(masters1, masters2):
        assert m1.tobytes() == m2.tobytes()
