"""ZeRO-Infinity tier sweep + multi-tier step-time model validation.

Two results, extending the ZeRO-Offload democratization story down the
full memory hierarchy:

1. **Max trainable model per tier reach.** At a fixed device budget, a
   single GPU training stage 3 holds 16 Psi bytes of model states
   device-side. Opening the host tier moves up to 16 Psi into DRAM
   (capped by the GPU's fair share of node DRAM); opening NVMe moves the
   same states onto a pool ~20x larger still. Each row searches the
   largest model whose *device* footprint fits the budget and whose
   off-device states fit their tier's capacity — the binding tier is
   reported. The paper-scale claim: host+NVMe trains a >= 10x larger
   model than device-only at the same device budget.

2. **Cost model vs simulated timeline.** The same meta-mode engines that
   produce the memory numbers drive ``InfinityEngine``'s multi-tier
   transfer schedule; ``InfinityCostModel``'s closed form must predict
   the simulated step time within 5% across placements, paged gathers,
   tiling, and DPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.max_model import SEQ_LEN, VOCAB, device_bytes_for
from repro.analysis.memory_model import tier_state_bytes
from repro.hardware.topology import ClusterTopology
from repro.infinity.config import InfinityConfig
from repro.infinity.cost_model import InfinityCostModel
from repro.nn.transformer import GPTConfig
from repro.offload.cost_model import relative_error
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import ZeROConfig
from repro.zero.factory import build_model_and_engine

BUDGETS_GB = (8, 32)
HIDDEN = 2048
HEADS = 16
BATCH = 1
MAX_SEARCH = 4096

TIME_MODEL = GPTConfig(n_layers=4, hidden=512, n_heads=8, vocab_size=50257, max_seq_len=1024)
TIME_BATCH = 4
TIME_SEQ = 1024
TIME_ND = 2
TIME_STEPS = 3  # last step is DPU steady state

#: the sweep's three placement reaches, deepest tier first in the story.
FIT_TIERS: tuple[tuple[str, InfinityConfig | None], ...] = (
    ("device only", None),
    ("+host DRAM", InfinityConfig(
        optimizer_tier="host", grad_tier="host", param_tier="host")),
    ("+host+NVMe", InfinityConfig(
        optimizer_tier="nvme", grad_tier="nvme", param_tier="nvme",
        tile_bytes=1 << 28)),
)


@dataclass(frozen=True)
class InfinityFitRow:
    label: str
    budget_gb: float
    psi_b: float  # max params (billions) this reach trains
    device_gb: float
    host_gb: float
    nvme_gb: float
    binding: str  # which capacity stopped growth ("device"/"host"/"nvme"/"search")


@dataclass(frozen=True)
class InfinityTimeRow:
    label: str
    stage: int
    config: InfinityConfig
    sim_step_s: float
    pred_step_s: float
    rel_err: float


@dataclass(frozen=True)
class InfinitySweepResult:
    fit_rows: list[InfinityFitRow]
    time_rows: list[InfinityTimeRow]


def _fit_point(
    zero: ZeROConfig, n_layers: int, budget_bytes: float,
    host_cap: float, nvme_cap: float,
) -> tuple[bool, GPTConfig, float, dict[str, float], str]:
    cfg = GPTConfig(n_layers=n_layers, hidden=HIDDEN, n_heads=HEADS,
                    vocab_size=VOCAB, max_seq_len=SEQ_LEN)
    dev = device_bytes_for(cfg, zero, batch=BATCH, nd=1)
    psi = float(cfg.total_params)
    if zero.infinity is not None:
        tiers = tier_state_bytes(psi, nd=1, stage=zero.stage, infinity=zero.infinity)
    else:
        tiers = {"device": dev, "host": 0.0, "nvme": 0.0}
    binding = "search"
    if dev > budget_bytes:
        binding = "device"
    elif tiers["host"] > host_cap:
        binding = "host"
    elif tiers["nvme"] > nvme_cap:
        binding = "nvme"
    return binding == "search", cfg, dev, tiers, binding


def run_fit(budgets_gb=BUDGETS_GB) -> list[InfinityFitRow]:
    """Single-GPU (nd=1, stage 3) max trainable model per tier reach."""
    topo = ClusterTopology.for_world_size(1)
    host_cap = topo.host_bytes_per_gpu
    nvme_cap = topo.nvme_bytes_per_gpu
    rows = []
    for budget in budgets_gb:
        for label, inf in FIT_TIERS:
            zero = ZeROConfig(stage=3, infinity=inf)

            def fits(n: int) -> bool:
                return _fit_point(zero, n, budget * GB, host_cap, nvme_cap)[0]

            lo, hi = 1, 2
            while hi <= MAX_SEARCH and fits(hi):
                lo, hi = hi, hi * 2
            hi = min(hi, MAX_SEARCH)
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if fits(mid):
                    lo = mid
                else:
                    hi = mid
            _, cfg, dev, tiers, _ = _fit_point(
                zero, lo, budget * GB, host_cap, nvme_cap)
            # The capacity the *next* layer count trips is what binds.
            binding = _fit_point(zero, lo + 1, budget * GB, host_cap, nvme_cap)[4]
            rows.append(
                InfinityFitRow(
                    label=label, budget_gb=float(budget),
                    psi_b=float(cfg.total_params) / 1e9,
                    device_gb=dev / GB, host_gb=tiers["host"] / GB,
                    nvme_gb=tiers["nvme"] / GB, binding=binding,
                )
            )
    return rows


TIME_CASES: tuple[tuple[str, int, InfinityConfig], ...] = (
    ("s2 os@host (offload parity)", 2,
     InfinityConfig(optimizer_tier="host", grad_tier="host")),
    ("s2 os@nvme g@host paged opt", 2,
     InfinityConfig(optimizer_tier="nvme", grad_tier="host")),
    ("s3 all-state nvme", 3,
     InfinityConfig(optimizer_tier="nvme", grad_tier="nvme", param_tier="nvme")),
    ("s3 paged + tiled", 3,
     InfinityConfig(optimizer_tier="nvme", grad_tier="host", param_tier="nvme",
                    tile_bytes=1 << 20)),
    ("s3 all-state host", 3,
     InfinityConfig(optimizer_tier="host", grad_tier="host", param_tier="host")),
    ("s3 paged + DPU", 3,
     InfinityConfig(optimizer_tier="nvme", grad_tier="host", param_tier="nvme",
                    delayed_param_update=True)),
)


def run_time() -> list[InfinityTimeRow]:
    """Meta-mode simulated step time vs the closed-form prediction."""
    rows = []
    for label, stage, inf in TIME_CASES:
        zero = ZeROConfig(stage=stage, memory_defrag=False, infinity=inf)
        ctx = virtual_rank_context(TIME_ND)
        model, engine = build_model_and_engine(
            ctx, TIME_MODEL, zero, dp_group=ctx.world, meta=True,
        )
        ids = Tensor.meta((TIME_BATCH, TIME_SEQ), np.int64, device=ctx.device)
        targets = Tensor.meta((TIME_BATCH, TIME_SEQ), np.int64, device=ctx.device)
        for _ in range(TIME_STEPS):
            result = engine.train_step(ids, targets)
        sim = result.step_time_model_s
        runtime = engine.infinity
        cost = InfinityCostModel(
            TIME_MODEL, gpu=ctx.device.spec,
            checkpointing=zero.checkpoint_activations, infinity=inf,
        )
        pred = cost.predict_step(
            batch=TIME_BATCH, seq_len=TIME_SEQ, nd=TIME_ND,
            numel=engine.part_numel,
            grad_chunks=max(len(runtime.last_grad_pieces), 1),
            gathers_forward=runtime.last_gathers["forward"],
            gathers_backward=runtime.last_gathers["backward"],
        )
        rows.append(
            InfinityTimeRow(
                label=label, stage=stage, config=inf,
                sim_step_s=sim, pred_step_s=pred.step_s,
                rel_err=relative_error(pred.step_s, sim),
            )
        )
    return rows


def run() -> InfinitySweepResult:
    return InfinitySweepResult(fit_rows=run_fit(), time_rows=run_time())


def render(result: InfinitySweepResult) -> str:
    fit = format_table(
        ["device budget", "tier reach", "max model", "device GB", "host GB",
         "NVMe GB", "bound by"],
        [
            [f"{r.budget_gb:.0f} GB", r.label, f"{r.psi_b:.2f}B",
             f"{r.device_gb:.1f}", f"{r.host_gb:.1f}", f"{r.nvme_gb:.1f}",
             r.binding]
            for r in result.fit_rows
        ],
        title="ZeRO-Infinity tiers — max trainable model, 1 GPU (stage 3)",
    )
    time = format_table(
        ["case", "stage", "placement", "sim step s", "pred step s", "err %"],
        [
            [r.label, r.stage, r.config.label,
             f"{r.sim_step_s:.5f}", f"{r.pred_step_s:.5f}",
             f"{100 * r.rel_err:.2f}"]
            for r in result.time_rows
        ],
        title="Infinity cost model vs simulated timeline (meta engines)",
    )
    return fit + "\n\n" + time


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
