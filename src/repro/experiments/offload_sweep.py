"""ZeRO-Offload democratization sweep + step-time cost-model validation.

Two results, in the spirit of the paper's Figure 4 democratization story:

1. **Max trainable model vs device budget.** On a single GPU, stage-2
   model states cost 16 Psi bytes of device memory; offloading the
   optimizer state and gradient shard to the host leaves only 2 Psi (the
   fp16 parameters). For every device budget the offloaded configuration
   trains a strictly larger model — trading device HBM for host DRAM over
   PCIe, which is what puts multi-billion-parameter fine-tuning on a
   single commodity GPU.

2. **Cost model vs simulated timeline.** The same meta-mode engines that
   produce the memory figures also drive the offload tier's per-step
   transfer timeline (``InfinityEngine`` under the host-only placement the
   offload flags compile to); ``InfinityCostModel``'s closed form must
   predict the simulated step time within 5% across stages, gradient
   streaming, and DPU.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.max_model import max_layers
from repro.analysis.memory_model import host_state_bytes
from repro.hardware.topology import ClusterTopology
from repro.nn.transformer import GPTConfig
from repro.infinity.cost_model import InfinityCostModel
from repro.offload.cost_model import relative_error
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import ZeROConfig
from repro.zero.factory import build_model_and_engine

BUDGETS_GB = (4, 8, 16, 32)
HIDDEN = 2048
HEADS = 16
BATCH = 1

TIME_MODEL = GPTConfig(n_layers=4, hidden=512, n_heads=8, vocab_size=50257, max_seq_len=1024)
TIME_BATCH = 4
TIME_SEQ = 1024
TIME_ND = 2
TIME_STEPS = 3  # last step is DPU steady state


@dataclass(frozen=True)
class OffloadFitRow:
    budget_gb: float
    device_psi_b: float  # max params (billions), everything on-device
    offload_psi_b: float  # max params with optimizer+gradient offload
    ratio: float
    host_gb: float  # host DRAM the offloaded states need
    host_fits: bool  # within one GPU's fair share of node DRAM


@dataclass(frozen=True)
class OffloadTimeRow:
    label: str
    stage: int
    streamed: bool
    dpu: bool
    sim_step_s: float
    pred_step_s: float
    rel_err: float


@dataclass(frozen=True)
class OffloadSweepResult:
    fit_rows: list[OffloadFitRow]
    time_rows: list[OffloadTimeRow]


def run_fit(budgets_gb=BUDGETS_GB) -> list[OffloadFitRow]:
    """Single-GPU (nd=1) max trainable model, offload off vs on."""
    device_cfg = ZeROConfig(stage=2)
    offload_cfg = replace(device_cfg, offload_optimizer=True, offload_gradients=True)
    host_budget = ClusterTopology.for_world_size(1).host_bytes_per_gpu
    rows = []
    for budget in budgets_gb:
        common = dict(hidden=HIDDEN, heads=HEADS, batch=BATCH, nd=1,
                      budget_bytes=budget * GB)
        base = max_layers(device_cfg, **common)
        off = max_layers(offload_cfg, **common)
        host = host_state_bytes(
            off.psi, nd=1, stage=2, offload_optimizer=True, offload_gradients=True
        )
        rows.append(
            OffloadFitRow(
                budget_gb=float(budget),
                device_psi_b=base.psi / 1e9,
                offload_psi_b=off.psi / 1e9,
                ratio=off.psi / base.psi if base.psi else float("inf"),
                host_gb=host / GB,
                host_fits=host <= host_budget,
            )
        )
    return rows


TIME_CASES = (
    ("stage1 boundary d2h", 1, False, False),
    ("stage2 streamed", 2, True, False),
    ("stage2 streamed + DPU", 2, True, True),
    ("stage3 streamed", 3, True, False),
)


def run_time() -> list[OffloadTimeRow]:
    """Meta-mode simulated step time vs the closed-form prediction."""
    rows = []
    for label, stage, streamed, dpu in TIME_CASES:
        zero = ZeROConfig(
            stage=stage, memory_defrag=False,
            offload_optimizer=True, offload_gradients=streamed,
            delayed_param_update=dpu,
        )
        ctx = virtual_rank_context(TIME_ND)
        model, engine = build_model_and_engine(
            ctx, TIME_MODEL, zero, dp_group=ctx.world, meta=True,
        )
        ids = Tensor.meta((TIME_BATCH, TIME_SEQ), np.int64, device=ctx.device)
        targets = Tensor.meta((TIME_BATCH, TIME_SEQ), np.int64, device=ctx.device)
        for _ in range(TIME_STEPS):
            result = engine.train_step(ids, targets)
        sim = result.step_time_model_s
        chunks = sum(
            1 for h in engine.infinity.pcie.handles if h.phase == "infinity-grad"
        )
        cost = InfinityCostModel(
            TIME_MODEL, gpu=ctx.device.spec,
            checkpointing=zero.checkpoint_activations,
            infinity=engine.infinity.config,
        )
        pred = cost.predict_step(
            batch=TIME_BATCH, seq_len=TIME_SEQ, nd=TIME_ND, numel=engine.part_numel,
            grad_chunks=max(chunks, 1),
        )
        rows.append(
            OffloadTimeRow(
                label=label, stage=stage, streamed=streamed, dpu=dpu,
                sim_step_s=sim, pred_step_s=pred.step_s,
                rel_err=relative_error(pred.step_s, sim),
            )
        )
    return rows


def run() -> OffloadSweepResult:
    return OffloadSweepResult(fit_rows=run_fit(), time_rows=run_time())


def render(result: OffloadSweepResult) -> str:
    fit = format_table(
        ["device budget", "max on-device", "max offloaded", "ratio", "host GB", "host fits"],
        [
            [f"{r.budget_gb:.0f} GB", f"{r.device_psi_b:.2f}B", f"{r.offload_psi_b:.2f}B",
             f"{r.ratio:.1f}x", f"{r.host_gb:.1f}", "yes" if r.host_fits else "NO"]
            for r in result.fit_rows
        ],
        title="ZeRO-Offload democratization — max trainable model, 1 GPU (stage 2)",
    )
    time = format_table(
        ["case", "stage", "streamed", "DPU", "sim step s", "pred step s", "err %"],
        [
            [r.label, r.stage, "yes" if r.streamed else "no", "yes" if r.dpu else "no",
             f"{r.sim_step_s:.5f}", f"{r.pred_step_s:.5f}", f"{100 * r.rel_err:.2f}"]
            for r in result.time_rows
        ],
        title="Offload cost model vs simulated timeline (meta engines)",
    )
    return fit + "\n\n" + time


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
