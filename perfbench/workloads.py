"""The four benchmark workloads: one ZeRO training configuration each.

Every workload drives the library's public front door
(``Cluster`` / ``virtual_rank_context`` -> ``build_model_and_engine`` ->
``engine.train_step``). They differ in which layer does the host work,
so a change to one layer moves one workload and leaves another flat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.perf_model import transformer_flops_per_replica
from repro.infinity.config import InfinityConfig
from repro.nn.transformer import GPTConfig
from repro.zero.config import C4, ZeROConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: GPTConfig
    zero: ZeROConfig
    #: rank threads of a real ``Cluster``; 0 runs one meta-mode virtual rank.
    threads: int
    #: GPUs in the simulated job (the modeled clock prices this world).
    job_gpus: int
    #: sequences per rank per step (per model-parallel group when mp > 1).
    batch: int
    seq: int
    mp: int = 1
    dtype: type = np.float16
    md_region_bytes: int | None = None
    defer_param_allocation: bool = False
    #: a repository BENCH_*.json whose ``peak_allocated_gb`` row the peak
    #: device memory must equal, relative to the repository root.
    peak_baseline: str | None = None

    @property
    def meta(self) -> bool:
        return self.threads == 0

    @property
    def dp(self) -> int:
        return self.job_gpus // self.mp

    @property
    def tokens_per_step(self) -> int:
        """Tokens the whole simulated job trains on per step."""
        return self.dp * self.batch * self.seq

    @property
    def flops_per_gpu(self) -> float:
        return transformer_flops_per_replica(
            self.model, self.batch, self.seq,
            checkpointing=self.zero.checkpoint_activations,
        ) / self.mp


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="numeric_fp16_zero2",
        why=(
            "The paper's regime (ZeRO-2 with CB+MD, fp16 mixed precision) on "
            "real numbers: kernels and fp16/fp32 casts dominate, with two "
            "bucketed collectives per step."
        ),
        model=GPTConfig(n_layers=2, hidden=128, n_heads=4, vocab_size=1024, max_seq_len=64),
        zero=ZeROConfig(stage=2),
        threads=2, job_gpus=2, batch=2, seq=64,
        md_region_bytes=32 << 20,
    ),
    Workload(
        name="zero3_dp4_tiny",
        why=(
            "Four fp32 ZeRO-3 ranks with tiny kernels: per-unit gathers and "
            "reduces, rendezvous hand-offs between rank threads and stage-3 "
            "materialize/release dominate."
        ),
        model=GPTConfig(n_layers=4, hidden=64, n_heads=4, vocab_size=128, max_seq_len=32),
        zero=ZeROConfig(stage=3),
        threads=4, job_gpus=4, batch=2, seq=32, dtype=np.float32,
    ),
    Workload(
        name="meta_100b_c4",
        why=(
            "One virtual rank of the paper's 100B C4 job (400 GPUs, MP 16): no "
            "arithmetic, so tensor construction, the caching allocator, the MD "
            "region and ledger recording do the work."
        ),
        model=GPTConfig(n_layers=125, hidden=8192, n_heads=64),
        zero=C4,
        threads=0, job_gpus=400, mp=16, batch=32, seq=1024,
        md_region_bytes=2_000_000_000,
        peak_baseline="benchmarks/baselines/BENCH_training_step_meta_100b.json",
    ),
    Workload(
        name="meta_infinity_10b",
        why=(
            "A 10B model on one virtual GPU with ZeRO-Infinity placement "
            "(os@nvme, g@host, p@nvme, 256 MB tiles): the only workload that "
            "runs tier streams and paged, tiled gathers."
        ),
        model=GPTConfig(n_layers=48, hidden=4096, n_heads=32),
        zero=ZeROConfig(stage=3, infinity=InfinityConfig(
            optimizer_tier="nvme", grad_tier="host", param_tier="nvme",
            tile_bytes=256 << 20,
        )),
        threads=0, job_gpus=1, batch=1, seq=1024,
        defer_param_allocation=True,
    ),
)}
