"""ZeRO-Offload: placement moves, the math does not.

The offload tier's core contract mirrors the ZeRO-DP one: parking the
fp32 optimizer state (and optionally the gradient shard) in host DRAM
must leave the training trajectory bitwise identical to the all-device
engines, at every stage. Delayed parameter update is the single
deliberate numerical change and is pinned by an explicit staleness
contract rather than a tolerance. ``ZeROConfig``'s offload flags compile
to the host-only ``InfinityConfig``; the compile step is pinned bitwise
against the explicit placement. Around that core: byte accounting on
both memory pools, the PCIe stream's two-lane timeline, checkpoint
round-trips that are placement-independent, composition with fault
injection / elastic recovery, and the closed-form step-time cost model.
"""

import numpy as np
import pytest

from repro import Cluster, FaultPlan, GPTConfig, Supervisor, ZeROConfig
from repro.comm.ledger import CommLedger
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec, InterconnectSpec
from repro.infinity import InfinityConfig, InfinityCostModel, TierStream
from repro.memsim.device import HostMemory
from repro.memsim.errors import InvalidFreeError, OutOfMemoryError
from repro.offload.cost_model import relative_error
from repro.offload.host_optim import HostAdamState, HostTensor, cpu_adam_seconds
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.runtime import virtual_rank_context
from repro.zero.checkpoint_io import (
    latest_checkpoint,
    load_checkpoint_resharded,
    save_checkpoint,
)
from repro.zero.factory import build_model_and_engine

pytestmark = pytest.mark.offload

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
STEPS = 4


def train_run(stage, *, world=2, steps=STEPS, **zero_kw):
    """Train a tiny model; return per-rank (losses, master, params, host_bytes,
    step_times)."""
    cluster = Cluster(world, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(
            stage=stage, checkpoint_activations=False, memory_defrag=False, **zero_kw
        )
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
            engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
        )
        losses, times = [], []
        for step in range(steps):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            result = engine.train_step(ids, tgt)
            losses.append(result.loss)
            times.append(result.step_time_model_s)
        if stage == 3:
            params = engine.param_shard.data.copy()
        else:
            params = np.concatenate(
                [p.data.numpy().reshape(-1) for p in model.parameters()]
            )
        return (
            losses,
            engine.opt_state.master.data.copy(),
            params,
            ctx.host.allocated_bytes,
            times,
        )

    return cluster.run(fn)


@pytest.fixture(scope="module")
def all_device_baseline():
    """All-device reference trajectories, one per stage."""
    return {stage: train_run(stage) for stage in (1, 2, 3)}


# -- bitwise equivalence (DPU off) ------------------------------------------


@pytest.mark.parametrize(
    "stage, off_grads",
    [(1, False), (2, False), (2, True), (3, False), (3, True)],
)
def test_offload_bitwise_identical_to_all_device(stage, off_grads, all_device_baseline):
    """Host-resident Adam (+ host gradient shard) changes placement only."""
    off = train_run(stage, offload_optimizer=True, offload_gradients=off_grads)
    ref = all_device_baseline[stage]
    for rank in range(2):
        assert off[rank][0] == ref[rank][0], f"rank {rank} losses diverged"
        np.testing.assert_array_equal(off[rank][1], ref[rank][1])
        np.testing.assert_array_equal(off[rank][2], ref[rank][2])


def test_offload_places_state_on_host_and_reports_step_time(all_device_baseline):
    off = train_run(2, offload_optimizer=True, offload_gradients=True)
    ref = all_device_baseline[2]
    for rank in range(2):
        # 12 bytes/element of Adam state per rank moved off-device, at least.
        assert off[rank][3] >= 12 * len(off[rank][1]) * 2
        assert ref[rank][3] == 0  # nothing on the host without offload
        assert all(t > 0.0 for t in off[rank][4])  # PCIe/Adam timeline ran


# -- the compile step: offload flags == host-only InfinityConfig ------------


def _host_only(off_grads, dpu):
    return InfinityConfig(
        optimizer_tier="host", grad_tier="host" if off_grads else "device",
        param_tier="device", delayed_param_update=dpu,
    )


def _trace_run(stage, zero_kw, *, steps=STEPS):
    """Per-rank (losses, modeled step times, ledger (op, bytes) multiset)."""
    cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(stage=stage, memory_defrag=False, **zero_kw)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
            engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
        )
        losses, times = [], []
        for step in range(steps):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            result = engine.train_step(ids, tgt)
            losses.append(result.loss)
            times.append(result.step_time_model_s)
        ledger = sorted((e.op, e.message_bytes) for e in ctx.ledger.events)
        return losses, times, ledger

    return cluster.run(fn)


@pytest.mark.parametrize("stage, off_grads, dpu", [
    (stage, off_grads, dpu)
    for stage in (1, 2, 3)
    for off_grads in ((False,) if stage == 1 else (False, True))
    for dpu in (False, True)
])
def test_offload_flags_compile_to_host_only_infinity(stage, off_grads, dpu):
    """The ZeROConfig offload flags and the explicit host-only placement
    are the same run: losses, modeled step times and ledger traffic agree
    bitwise."""
    flags = _trace_run(stage, dict(
        offload_optimizer=True, offload_gradients=off_grads,
        delayed_param_update=dpu,
    ))
    explicit = _trace_run(stage, dict(infinity=_host_only(off_grads, dpu)))
    assert flags == explicit
    assert all(t > 0.0 for rank in flags for t in rank[1])


@pytest.mark.parametrize("case", ["no-recompute", "mp2"])
def test_offload_tier_prices_compute_like_the_model(case):
    """The tier's compute window is the engine's own (checkpointing- and
    MP-aware) compute split, not a recompute-priced full replica."""
    cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        if case == "no-recompute":
            zero = ZeROConfig(stage=2, checkpoint_activations=False, infinity=InfinityConfig(
                optimizer_tier="host", grad_tier="device",
            ))
            groups = dict(dp_group=ctx.world)
        else:
            zero = ZeROConfig(stage=2, offload_optimizer=True)
            groups = dict(dp_group=ctx.group([ctx.rank]), mp_group=ctx.world)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dtype=np.float32, seed=3, **groups,
        )
        ids, tgt = CORPUS.sample_batch(2, 16, rank=0, step=0)
        engine.train_step(ids, tgt)
        return engine.infinity.reports[-1].compute_s, sum(engine._compute_split(2, 16))

    for compute_s, expected in cluster.run(fn):
        assert compute_s == expected


# -- delayed parameter update: the staleness contract ------------------------


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_dpu_staleness_contract(stage):
    """With one-step DPU, fp16 params after step t equal the cast of the
    master weights after step t-1 — exactly one step stale, no more."""
    cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(
            stage=stage, checkpoint_activations=False, memory_defrag=False,
            offload_optimizer=True, delayed_param_update=True,
        )
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
            engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
        )
        history = []
        for step in range(STEPS):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
            if stage == 3:
                shard = engine.param_shard.data.copy()
            else:
                full = np.concatenate(
                    [p.data.numpy().reshape(-1) for p in model.parameters()]
                )
                # partition_bounds pads to the world size; trim to real params
                hi = min(engine.part_hi, len(full))
                shard = full[engine.part_lo : hi]
            history.append((shard, engine.opt_state.master.data.copy()))
        return history

    for history in cluster.run(fn):
        for t in range(1, STEPS):
            params_t = history[t][0]
            master_prev = history[t - 1][1][: len(params_t)]
            master_now = history[t][1][: len(params_t)]
            # non-vacuous: the master really moved this step...
            assert not np.array_equal(master_now, master_prev)
            # ...and the served params are last step's master, not this one's
            np.testing.assert_array_equal(params_t, master_prev.astype(np.float32))


# -- PCIe stream --------------------------------------------------------------

LINK = InterconnectSpec(name="test-link", bandwidth_bytes_per_s=100.0, latency_s=1.0)


def pcie_stream(**kw):
    return TierStream(LINK, directions=("d2h", "h2d"), **kw)


def test_stream_serializes_per_lane_and_is_full_duplex():
    st = pcie_stream()
    a = st.copy_async(100, "d2h", submit_t=0.0)  # wire: 1s latency + 1s bytes
    b = st.copy_async(100, "d2h", submit_t=0.5)  # queues behind a
    c = st.copy_async(100, "h2d", submit_t=0.0)  # opposite lane: no contention
    assert (a.start_t, a.done_t) == (0.0, 2.0)
    assert (b.start_t, b.done_t) == (2.0, 4.0)
    assert b.queued_s == 1.5 and b.wire_s == 2.0
    assert (c.start_t, c.done_t) == (0.0, 2.0)
    assert st.synchronize([a, c], at=0.0) == 2.0
    assert st.synchronize(at=3.0) == 4.0  # everything, from a later clock
    assert st.lane_busy_s("d2h") == 4.0
    assert st.lane_free_t("h2d") == 2.0
    st.reset()
    assert st.handles == [] and st.lane_free_t("d2h") == 0.0


def test_stream_records_traffic_in_comm_ledger():
    ledger = CommLedger(rank=0)
    st = pcie_stream(ledger=ledger, rank=0)
    st.copy_async(64, "d2h", phase="infinity-grad")
    st.copy_async(32, "h2d", phase="infinity-refresh")
    st.copy_async(0, "d2h")  # zero-byte copies leave no ledger trace
    assert ledger.by_op() == {"d2h": 64.0, "h2d": 32.0}
    assert ledger.by_phase() == {"infinity-grad": 64.0, "infinity-refresh": 32.0}


def test_stream_rejects_bad_copies():
    st = pcie_stream()
    with pytest.raises(ValueError):
        st.copy_async(10, "sideways")
    with pytest.raises(ValueError):
        st.copy_async(-1, "d2h")


# -- host memory pool accounting ---------------------------------------------


def test_host_pool_stats_and_oom():
    host = HostMemory(100, name="test-host")
    handle = host.alloc(60, "opt")
    assert host.allocated_bytes == 60 and host.free_bytes == 40
    assert host.live_allocations == 1 and host.alloc_count == 1
    with pytest.raises(OutOfMemoryError):
        host.alloc(50, "too-big")
    host.free(handle)
    assert host.allocated_bytes == 0 and host.max_allocated_bytes == 60
    with pytest.raises(InvalidFreeError):
        host.free(handle)


def test_host_tensors_account_every_byte():
    host = HostMemory(10**6)
    t = HostTensor(10, np.float32, host, tag="grad")
    assert t.nbytes == 40 and host.allocated_bytes == 40
    st = HostAdamState(100, host=host)
    assert st.nbytes == 1200  # master + m + v, fp32
    assert host.allocated_bytes == 1240
    st.init_master(np.arange(100, dtype=np.float32))
    np.testing.assert_array_equal(st.master.numpy(), np.arange(100, dtype=np.float32))
    st.free()
    t.free()
    assert host.allocated_bytes == 0
    with pytest.raises(ValueError):
        t.free()  # double free is a bug, not a no-op


def test_host_pool_overflow_fails_loudly():
    small = HostMemory(100)
    with pytest.raises(OutOfMemoryError):
        HostAdamState(100, host=small)  # needs 1200 bytes


def test_meta_host_tensors_still_account():
    """Meta mode skips arrays but never byte accounting."""
    host = HostMemory(10**6)
    st = HostAdamState(50, host=host, meta=True)
    assert st.is_meta and host.allocated_bytes == 600
    with pytest.raises(ValueError):
        st.master.numpy()
    st.free()
    assert host.allocated_bytes == 0


def test_offload_moves_optimizer_bytes_off_device():
    """Meta engines: device residency drops by at least the Adam-state
    bytes, and the host picks up exactly the offloaded shards."""

    def build(offload):
        ctx = virtual_rank_context(2, gpu=GPU)
        zero = ZeROConfig(
            stage=2, memory_defrag=False,
            offload_optimizer=offload, offload_gradients=offload,
        )
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, meta=True
        )
        itemsize = np.dtype(model.dtype).itemsize
        return ctx, engine.part_numel * 12, engine.part_numel * itemsize

    ctx_dev, adam_bytes, grad_bytes = build(offload=False)
    ctx_off, _, _ = build(offload=True)
    assert ctx_dev.host.allocated_bytes == 0
    assert ctx_off.host.allocated_bytes == adam_bytes + grad_bytes
    saved = ctx_dev.device.allocated_bytes - ctx_off.device.allocated_bytes
    assert saved >= adam_bytes


# -- configuration validation -------------------------------------------------


def test_zero_config_rejects_invalid_offload_combinations():
    with pytest.raises(ValueError):
        ZeROConfig(stage=0, offload_optimizer=True)
    with pytest.raises(ValueError):
        ZeROConfig(stage=1, offload_optimizer=True, offload_gradients=True)
    with pytest.raises(ValueError):
        ZeROConfig(stage=2, offload_gradients=True)  # needs the optimizer too
    with pytest.raises(ValueError):
        ZeROConfig(stage=2, delayed_param_update=True)
    label = ZeROConfig(
        stage=2, offload_optimizer=True, offload_gradients=True,
        delayed_param_update=True,
    ).label
    assert "off" in label and "DPU" in label


def test_offload_config_rejects_invalid_combinations():
    """The host-only placement keeps ZeRO-Offload's flag rules."""
    with pytest.raises(ValueError):  # gradients off-device, optimizer on it
        InfinityConfig(optimizer_tier="device", grad_tier="host")
    with pytest.raises(ValueError):  # DPU needs an off-device optimizer
        InfinityConfig(optimizer_tier="device", grad_tier="device",
                       delayed_param_update=True)
    with pytest.raises(ValueError):
        InfinityConfig(optimizer_tier="host", grad_tier="device",
                       cpu_adam_elements_per_s=0.0)


def test_unpartitioned_engine_rejects_offload():
    ctx = virtual_rank_context(1, gpu=GPU)
    with pytest.raises(ValueError, match="does not support off-device optimizer"):
        build_model_and_engine(
            ctx, CFG, ZeROConfig(stage=0), dp_group=ctx.world, meta=True,
            engine_config=EngineConfig(infinity=_host_only(False, False)),
        )


# -- checkpoints: placement-independent -------------------------------------


def test_checkpoint_roundtrip_is_placement_independent(tmp_path, all_device_baseline):
    """Host-resident optimizer state checkpoints and resumes bitwise — into
    an offloaded engine or an all-device one."""
    root = tmp_path / "ckpts"
    offload_kw = dict(offload_optimizer=True, offload_gradients=True)

    def run_phase(resume, **zero_kw):
        cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

        def fn(ctx):
            zero = ZeROConfig(
                stage=2, checkpoint_activations=False, memory_defrag=False, **zero_kw
            )
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
                engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
            )
            if resume:
                load_checkpoint_resharded(engine, root / "step2")
            losses = []
            for step in range(engine.step_count, STEPS):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                losses.append(engine.train_step(ids, tgt).loss)
                if not resume and engine.step_count == 2:
                    save_checkpoint(engine, root / "step2")
            return losses, engine.opt_state.master.data.copy()

        return cluster.run(fn)

    run_phase(resume=False, **offload_kw)  # 2 steps offloaded, then save
    resumed_off = run_phase(resume=True, **offload_kw)
    resumed_dev = run_phase(resume=True)  # same checkpoint, all-device
    ref = all_device_baseline[2]
    for rank in range(2):
        assert resumed_off[rank][0] == ref[rank][0][2:]
        assert resumed_dev[rank][0] == ref[rank][0][2:]
        np.testing.assert_array_equal(resumed_off[rank][1], ref[rank][1])
        np.testing.assert_array_equal(resumed_dev[rank][1], ref[rank][1])


# -- composition with fault injection / elastic recovery ---------------------


@pytest.mark.faults
def test_offload_composes_with_elastic_recovery(tmp_path):
    """PR-1 composition: kill one of three ranks mid-run with the optimizer
    host-resident; the supervisor re-forms a 2-rank world from the durable
    checkpoint and the recovered trajectory matches an uninterrupted 2-rank
    resume, bitwise."""
    total_steps, ckpt_every = 6, 2
    root = tmp_path / "ckpts"

    def make_fn(resume_root):
        def train_fn(ctx):
            zero = ZeROConfig(
                stage=2, checkpoint_activations=False, memory_defrag=False,
                offload_optimizer=True, offload_gradients=True,
            )
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
                engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
            )
            latest = latest_checkpoint(resume_root)
            if latest is not None:
                load_checkpoint_resharded(engine, latest)
            losses = []
            for step in range(engine.step_count, total_steps):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                losses.append(engine.train_step(ids, tgt).loss)
                if engine.step_count % ckpt_every == 0:
                    save_checkpoint(engine, root / f"step{engine.step_count}")
            return losses, engine.opt_state.master.data.copy()

        return train_fn

    plan = FaultPlan().kill_rank(1, at_step=4)
    sup = Supervisor(3, gpu=GPU, fault_plan=plan, timeout_s=15.0)
    report = sup.run(make_fn(root))
    assert report.restarts == 1 and report.final_world_size == 2

    def ref_resume(ctx):
        zero = ZeROConfig(
            stage=2, checkpoint_activations=False, memory_defrag=False,
            offload_optimizer=True, offload_gradients=True,
        )
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
            engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
        )
        load_checkpoint_resharded(engine, root / "step2")
        losses = []
        for step in range(engine.step_count, total_steps):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
        return losses, engine.opt_state.master.data.copy()

    ref = Cluster(2, gpu=GPU, timeout_s=15.0).run(ref_resume)
    for rank in range(2):
        assert report.results[rank][0] == ref[rank][0]
        np.testing.assert_array_equal(report.results[rank][1], ref[rank][1])


# -- cost model ---------------------------------------------------------------


def test_cpu_adam_seconds_model():
    assert cpu_adam_seconds(0) == 0.0
    assert cpu_adam_seconds(10**9) == pytest.approx(50e-6 + 1.0)
    assert cpu_adam_seconds(10**6, elements_per_s=10**6) == pytest.approx(50e-6 + 1.0)


def test_cost_model_prediction_shape():
    model = InfinityCostModel(CFG, gpu=GPU, infinity=_host_only(True, False))
    pred = model.predict_step(batch=2, seq_len=16, nd=2)
    assert pred.step_s >= pred.compute_s > 0.0
    assert pred.grads_ready_s >= pred.compute_s - pred.cpu_adam_s
    assert 0.0 < pred.overlap_efficiency <= 1.0
    assert relative_error(1.0, 2.0) == pytest.approx(0.5)
    # The old per-call placement kwargs are an error, not silently dropped.
    with pytest.raises(TypeError):
        model.predict_step(batch=2, seq_len=16, nd=2, offload_gradients=True)
    with pytest.raises(TypeError):
        model.predict_step(batch=2, seq_len=16, nd=2, delayed_param_update=True)


def test_cost_model_tracks_simulated_timeline():
    """Acceptance bound: closed-form step time within 5% of the simulated
    transfer timeline across stages, streaming, and DPU."""
    from repro.experiments.offload_sweep import run_time

    rows = run_time()
    assert len(rows) == 4
    for row in rows:
        assert row.rel_err <= 0.05, row
