"""Frontier system topology model.

Encodes the hardware facts the paper states in §IV: each Frontier node has
four AMD Instinct MI250X accelerators, each with two Graphics Compute Dies
(GCDs) that are treated as independent GPUs — eight effective GPUs per node,
each with 64 GB of HBM.  GCDs within a node are connected by Infinity Fabric
(100 GB/s, 200 GB/s between the two GCDs of one MI250X) and nodes are
connected by a Slingshot-11 network providing 100 GB/s of injection
bandwidth.  Frontier has 9408 nodes (75,264 effective GPUs).

These numbers parameterise the collective-communication and training-step
cost models; they are data, not measurements, so the scaling benchmarks can
state their assumptions explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GPUSpec", "NodeSpec", "FrontierTopology"]


@dataclass(frozen=True)
class GPUSpec:
    """One effective GPU (a single MI250X GCD)."""

    name: str = "MI250X-GCD"
    memory_gb: float = 64.0
    peak_tflops_fp32: float = 47.9
    peak_tflops_bf16: float = 191.5
    memory_bandwidth_gbs: float = 1638.0

    def peak_flops(self, precision: str = "bf16") -> float:
        """Peak FLOP/s for the requested precision."""
        if precision == "bf16":
            return self.peak_tflops_bf16 * 1.0e12
        if precision == "fp32":
            return self.peak_tflops_fp32 * 1.0e12
        raise ValueError(f"unknown precision {precision!r}")


@dataclass(frozen=True)
class NodeSpec:
    """One Frontier compute node."""

    gpus_per_node: int = 8
    gpu: GPUSpec = GPUSpec()
    intra_node_bandwidth_gbs: float = 100.0
    same_mi250x_bandwidth_gbs: float = 200.0
    network_injection_gbs: float = 100.0

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be positive")


@dataclass(frozen=True)
class FrontierTopology:
    """The full system: nodes, per-node layout and interconnect."""

    node: NodeSpec = NodeSpec()
    n_nodes: int = 9408

    @property
    def total_gpus(self) -> int:
        """Total number of effective GPUs (GCDs) in the system."""
        return self.n_nodes * self.node.gpus_per_node

    def nodes_for(self, n_gpus: int) -> int:
        """Number of nodes needed to host ``n_gpus`` (packed allocation)."""
        if n_gpus < 1:
            raise ValueError("n_gpus must be positive")
        if n_gpus > self.total_gpus:
            raise ValueError(f"requested {n_gpus} GPUs but the system has {self.total_gpus}")
        per_node = self.node.gpus_per_node
        return (n_gpus + per_node - 1) // per_node

    def is_single_node(self, n_gpus: int) -> bool:
        """True when the job fits on a single node (intra-node links only)."""
        return n_gpus <= self.node.gpus_per_node

    def link_bandwidth_gbs(self, n_gpus: int) -> float:
        """Per-GPU bandwidth of the slowest link a collective must cross.

        Within a node this is Infinity Fabric; across nodes the Slingshot
        injection bandwidth is shared by the node's GPUs participating in the
        collective, which is why inter-node collectives are markedly slower —
        the effect behind the paper's communication-bound regime at scale.
        """
        if self.is_single_node(n_gpus):
            return self.node.intra_node_bandwidth_gbs
        gpus_per_node = min(n_gpus, self.node.gpus_per_node)
        return self.node.network_injection_gbs / gpus_per_node
