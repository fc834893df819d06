"""Throughput model for the paper's speed results (Figures 2, 3, 4, 8).

The model reproduces the paper's performance *mechanisms* rather than
curve-fitting its numbers:

1. **GEMM efficiency grows with hidden size.** Tensor-core utilization for
   transformer GEMMs saturates with the K dimension (= hidden):
   ``eff(h) = EFF_MAX * h / (h + H_HALF)``. Calibrated so h=8192 sits near
   the paper's 30-33% of peak and h~1900 under 20 TFlops (Sections 10.2,
   10.4).
2. **MP communication bandwidth cliffs at the node boundary.** Megatron MP
   all-reduces (12 x batch x seq x hidden bytes-ish per block, Section 8)
   run at 300 GB/s inside a DGX-2 and 12.5 GB/s across nodes — why the
   baseline collapses beyond 16-way MP (Section 10.2's 5 TFlops anchor).
3. **DP communication is per-step, compute is per-sample.** A larger
   per-GPU batch amortizes the fixed 2-3 Psi gradient/parameter traffic —
   and ZeRO's memory savings are precisely what allow the larger batch,
   producing the super-linear scaling of Figure 3.

All DP rings that cross nodes share the node's uplink with the other MP
slices, so effective per-ring bandwidth is inter-node bandwidth divided by
the GPUs per node participating in distinct rings.

No compute/communication overlap is modeled; the paper's qualitative
results (who wins, by what factor, where crossovers fall) do not depend on
it and it keeps the model auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.specs import DGX2, PCIE_3_X16, NodeSpec
from repro.nn.transformer import GPTConfig
from repro.utils.units import TFLOP

# GEMM-efficiency calibration (see module docstring).
EFF_MAX = 0.55
H_HALF = 3500.0

SEQ_LEN = 1024  # the paper's sequence length throughout (Section 3.2)


def gemm_efficiency(hidden: int) -> float:
    """Fraction of peak half-precision FLOPs achieved by the model's GEMMs."""
    return EFF_MAX * hidden / (hidden + H_HALF)


def transformer_flops_per_replica(
    config: GPTConfig, batch: int, seq_len: int = SEQ_LEN, *, checkpointing: bool = True
) -> float:
    """Hardware FLOPs per iteration for one model replica (all MP ranks).

    The standard transformer accounting (e.g. Megatron-LM): forward is
    ~2 FLOPs per parameter-token plus attention terms; backward is 2x
    forward; checkpoint recomputation adds one more forward. With
    recompute the total is 96 b s L h^2 (1 + s/(6h) + V/(16 L h)).
    """
    b, s, L, h, v = batch, seq_len, config.n_layers, config.hidden, config.vocab_size
    base = 72.0 if not checkpointing else 96.0
    return base * b * s * L * h * h * (1.0 + s / (6.0 * h) + v / (16.0 * L * h))


def compute_split(
    config: GPTConfig, batch: int, seq_len: int, *, peak_flops: float,
    checkpointing: bool, mp_degree: int = 1,
) -> tuple[float, float]:
    """Modeled (forward_s, backward_s) GEMM seconds of one micro-batch on
    one rank: hardware FLOPs per replica, split over the MP degree, at
    the achieved GEMM throughput. With recompute the 96-FLOP accounting
    splits 1/4 forward : 3/4 backward(+recompute); without, 1/3 : 2/3."""
    flops = transformer_flops_per_replica(
        config, batch, seq_len, checkpointing=checkpointing
    ) / mp_degree
    sec = flops / (peak_flops * gemm_efficiency(config.hidden))
    f_frac = 0.25 if checkpointing else 1.0 / 3.0
    return sec * f_frac, sec * (1.0 - f_frac)


@dataclass(frozen=True)
class ThroughputBreakdown:
    """Per-step seconds and the resulting per-GPU throughput."""

    compute_s: float
    mp_comm_s: float
    dp_comm_s: float
    pa_cpu_s: float
    flops_per_gpu: float

    @property
    def step_s(self) -> float:
        return self.compute_s + self.mp_comm_s + self.dp_comm_s + self.pa_cpu_s

    @property
    def tflops_per_gpu(self) -> float:
        return self.flops_per_gpu / self.step_s / TFLOP


@dataclass(frozen=True)
class PerfModel:
    """Throughput estimator over a concrete node type (default DGX-2)."""

    node: NodeSpec = DGX2
    seq_len: int = SEQ_LEN
    pcie_bandwidth: float = PCIE_3_X16.bandwidth_bytes_per_s

    def mp_link_bandwidth(self, mp_degree: int) -> float:
        """MP group bandwidth: NVSwitch while the group fits in a node,
        InfiniBand once it spans nodes (the Section 10.2 cliff)."""
        if mp_degree <= self.node.gpus_per_node:
            return self.node.intra_node.bandwidth_bytes_per_s
        return self.node.inter_node.bandwidth_bytes_per_s

    @property
    def node_uplink_bandwidth(self) -> float:
        """Aggregate inter-node bandwidth per node: 800 Gbps on the paper's
        cluster = 8 InfiniBand EDR links x 12.5 GB/s = 100 GB/s."""
        return self.node.inter_node.bandwidth_bytes_per_s * 8

    def dp_comm_time(
        self, psi_local: float, volume_factor: float, mp_degree: int, n_gpus: int
    ) -> float:
        """Time for the per-step DP traffic (hierarchical NCCL-style rings).

        Cross-node rings enter and leave each node once, so the bytes
        crossing a node's uplink per step are (rings hosted on the node) x
        (per-ring volume). With MP slices placed consecutively, a node
        hosts min(mp, gpus_per_node) distinct DP rings, each carrying
        volume_factor x psi_local fp16 elements; DP-only jobs run one
        hierarchical ring (intra-node reduction first)."""
        bytes_per_ring = volume_factor * psi_local * 2.0  # fp16
        if n_gpus <= self.node.gpus_per_node:
            return bytes_per_ring / self.node.intra_node.bandwidth_bytes_per_s
        rings_per_node = min(mp_degree, self.node.gpus_per_node)
        return rings_per_node * bytes_per_ring / self.node_uplink_bandwidth

    def estimate(
        self,
        config: GPTConfig,
        *,
        batch: int,
        mp_degree: int,
        n_gpus: int,
        zero_stage: int = 2,
        checkpointing: bool = True,
        partition_activations: bool = False,
        cpu_offload_activations: bool = False,
    ) -> ThroughputBreakdown:
        """Per-GPU throughput for one (model, parallelism, batch) point.

        ``batch`` is the per-replica (per MP group) microbatch, matching
        the appendix tables' "Batch size" column.
        """
        if n_gpus % mp_degree:
            raise ValueError(f"n_gpus {n_gpus} not divisible by mp {mp_degree}")
        dp_degree = n_gpus // mp_degree
        psi = float(config.total_params)
        psi_local = psi / mp_degree

        # 1. Compute.
        flops_replica = transformer_flops_per_replica(
            config, batch, self.seq_len, checkpointing=checkpointing
        )
        flops_gpu = flops_replica / mp_degree
        compute_s = flops_gpu / (self.node.gpu.peak_flops * gemm_efficiency(config.hidden))

        # 2. MP communication (Section 8's Megatron pattern).
        mp_comm_s = 0.0
        if mp_degree > 1:
            msg_bytes = 2.0 * batch * self.seq_len * config.hidden  # fp16
            passes = 3 if checkpointing else 2
            per_block = passes * 2 * 2 * msg_bytes  # 2 all-reduces x 2x volume
            if partition_activations:
                per_block += msg_bytes  # one all-gather per checkpoint
            mp_comm_s = config.n_layers * per_block / self.mp_link_bandwidth(mp_degree)

        # 3. DP communication: 2 Psi_local (stages 0-2) or 3 Psi_local
        #    (stage 3) fp16 elements per step (Section 7).
        dp_comm_s = 0.0
        if dp_degree > 1:
            volume_factor = 3.0 if zero_stage == 3 else 2.0
            dp_comm_s = self.dp_comm_time(psi_local, volume_factor, mp_degree, n_gpus)

        # 4. Pa+cpu PCIe traffic: each checkpoint shard goes down and back.
        pa_cpu_s = 0.0
        if cpu_offload_activations:
            shard_bytes = 2.0 * batch * self.seq_len * config.hidden / max(1, mp_degree)
            pa_cpu_s = config.n_layers * 2.0 * shard_bytes / self.pcie_bandwidth

        return ThroughputBreakdown(
            compute_s=compute_s,
            mp_comm_s=mp_comm_s,
            dp_comm_s=dp_comm_s,
            pa_cpu_s=pa_cpu_s,
            flops_per_gpu=flops_gpu,
        )
