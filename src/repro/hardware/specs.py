"""Hardware specifications for the simulated cluster.

Numbers come straight from the paper's evaluation section (Section 10):

* V100 GPUs with 32 GB device memory ("a cluster of 400 V100 GPUs").
* Peak half-precision throughput: the paper reports 38 TFlops/GPU as "over
  30% of the peak", placing peak at ~125 TFlops (V100 tensor cores).
* NVSwitch intra-node links: 300 GB/s per link; crossing the node boundary
  drops to 12.5 GB/s per link (InfiniBand EDR) — Section 10.2.
* A DGX-2 node holds 16 GPUs; the cluster has 800 Gbps (= 100 GB/s)
  inter-node bandwidth per node.
* Each V100 hangs off the host over PCIe gen3 x16 (~12 GB/s effective,
  "whose bandwidth is severely constrained", Section 2.2.2) and a DGX-2
  carries 1.5 TB of host DRAM — the substrate for Pa+cpu activation
  offload and the ``repro.infinity`` model-state offload tiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import GB, TB, TFLOP


@dataclass(frozen=True)
class GPUSpec:
    """A single accelerator's capacity and peak compute."""

    name: str
    memory_bytes: int
    peak_flops: float  # half-precision peak, FLOP/s

    @property
    def memory_gb(self) -> float:
        return self.memory_bytes / GB


@dataclass(frozen=True)
class InterconnectSpec:
    """Point-to-point link characteristics for one interconnect tier.

    ``latency_s`` is the per-message alpha term; ``bandwidth_bytes_per_s``
    the per-link beta term of the alpha-beta cost model.
    """

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float


V100_32GB = GPUSpec(name="V100-SXM3-32GB", memory_bytes=32 * int(GB), peak_flops=125 * TFLOP)

NVSWITCH = InterconnectSpec(
    name="NVSwitch", bandwidth_bytes_per_s=300 * GB, latency_s=3e-6
)

INFINIBAND_EDR = InterconnectSpec(
    name="InfiniBand-EDR", bandwidth_bytes_per_s=12.5 * GB, latency_s=8e-6
)

# Host link: PCIe gen3 x16 is ~16 GB/s theoretical; 12 GB/s is the
# sustained figure large pinned-memory copies actually reach.
PCIE_3_X16 = InterconnectSpec(
    name="PCIe-3.0-x16", bandwidth_bytes_per_s=12 * GB, latency_s=1e-5
)

# NVMe tier (ZeRO-Infinity): a DGX-2 class node carries a RAID-0 of NVMe
# drives reaching ~25 GB/s aggregate read; shared across 16 GPUs that is
# ~1.5 GB/s per GPU sustained, with block-device latency in the 100 us
# range. Capacity ~28 TB per node (16 x 1.75 TB in the ZeRO-Infinity
# evaluation hardware).
NVME_RAID = InterconnectSpec(
    name="NVMe-RAID", bandwidth_bytes_per_s=1.5 * GB, latency_s=1e-4
)


@dataclass(frozen=True)
class NodeSpec:
    """A multi-GPU server (DGX-2: 16 V100s on an NVSwitch fabric).

    ``pcie`` is the per-GPU host link and ``host_memory_bytes`` the node's
    DRAM pool — both feed the offload stream and cost model so they read
    hardware truth rather than scattered constants.
    """

    name: str
    gpus_per_node: int
    gpu: GPUSpec
    intra_node: InterconnectSpec
    inter_node: InterconnectSpec
    pcie: InterconnectSpec = PCIE_3_X16
    host_memory_bytes: int = int(1.5 * TB)
    #: per-GPU effective link to the node's NVMe array and the array's
    #: capacity — the third rung of the ZeRO-Infinity tier hierarchy.
    nvme: InterconnectSpec = NVME_RAID
    nvme_bytes: int = int(28 * TB)


DGX2 = NodeSpec(
    name="DGX-2",
    gpus_per_node=16,
    gpu=V100_32GB,
    intra_node=NVSWITCH,
    inter_node=INFINIBAND_EDR,
    pcie=PCIE_3_X16,
    host_memory_bytes=int(1.5 * TB),
    nvme=NVME_RAID,
    nvme_bytes=int(28 * TB),
)
