"""Analytical cost models for the RCCL collectives used by data parallelism.

The paper's Fig. 8 measures the bus bandwidth of AllReduce, AllGather and
ReduceScatter on Frontier as a function of message size and GPU count; those
curves feed directly into the distributed-training analysis (the observed
AllReduce bandwidth drop near a 256 MB message size is what makes the default
200 MB DeepSpeed bucket a poor choice, Fig. 9).

We model each collective with the standard ring-algorithm α–β cost

``time = latency · steps + volume_factor · message / effective_bandwidth``

where the effective bandwidth follows the usual message-size ramp (small
messages are latency-bound) multiplied by an empirical efficiency curve that
reproduces the qualitative features reported in the paper:

* bandwidth grows with message size and saturates;
* AllReduce is markedly better than AllGather/ReduceScatter for mid-size
  (~64 MB) messages at scale, while all three converge for large messages;
* AllReduce shows a dip around 256 MB (protocol/algorithm switch);
* AllGather and ReduceScatter behave almost identically.

The model's constants are assumptions, not measurements; they are stated
here once so every figure that depends on them can reference them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.hpc.topology import FrontierTopology

__all__ = ["CollectiveKind", "CollectiveModel"]


class CollectiveKind(str, Enum):
    """Collective operations that dominate data-parallel training."""

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"


@dataclass(frozen=True)
class CollectiveModel:
    """α–β model of RCCL collectives on the Frontier topology.

    Parameters
    ----------
    topology:
        System description providing link bandwidths.
    base_latency_us:
        Per-step launch/latency cost in microseconds.
    allreduce_dip_center_mb, allreduce_dip_width_mb, allreduce_dip_depth:
        Parameters of the empirical AllReduce efficiency dip near 256 MB.
    """

    topology: FrontierTopology = FrontierTopology()
    base_latency_us: float = 20.0
    small_message_knee_mb: float = 8.0
    allreduce_midsize_boost: float = 1.6
    allreduce_dip_center_mb: float = 256.0
    allreduce_dip_width_mb: float = 120.0
    allreduce_dip_depth: float = 0.45
    max_link_efficiency: float = 0.85

    # ------------------------------------------------------------------ #
    # volume factors of ring algorithms
    # ------------------------------------------------------------------ #
    @staticmethod
    def volume_factor(kind: CollectiveKind, n_gpus: int) -> float:
        """Bytes moved per rank per message byte for the ring algorithm.

        Ring AllReduce moves ``2 (p − 1)/p`` of the message per rank;
        AllGather / ReduceScatter move ``(p − 1)/p``.
        """
        if n_gpus < 1:
            raise ValueError("n_gpus must be positive")
        if n_gpus == 1:
            return 0.0
        p = float(n_gpus)
        if kind == CollectiveKind.ALL_REDUCE:
            return 2.0 * (p - 1.0) / p
        return (p - 1.0) / p

    @staticmethod
    def ring_steps(kind: CollectiveKind, n_gpus: int) -> int:
        """Number of latency-bearing steps for the collective.

        RCCL switches from pure rings to tree/hierarchical algorithms at
        scale, so the latency term grows logarithmically rather than linearly
        with the GPU count (otherwise 1024-GPU collectives would be latency
        bound for any realistic bucket size).
        """
        if n_gpus <= 1:
            return 0
        log_steps = int(np.ceil(np.log2(n_gpus)))
        if kind == CollectiveKind.ALL_REDUCE:
            return 2 * log_steps
        return log_steps

    # ------------------------------------------------------------------ #
    # empirical efficiency curves
    # ------------------------------------------------------------------ #
    def _efficiency(self, kind: CollectiveKind, message_bytes: float, n_gpus: int) -> float:
        """Fraction of the link bandwidth achieved for this message size."""
        msg_mb = message_bytes / 2.0**20
        # Message-size ramp: latency-bound below the knee, saturating above.
        ramp = msg_mb / (msg_mb + self.small_message_knee_mb)
        eff = self.max_link_efficiency * ramp
        # Mild degradation with scale: larger rings/trees cross more switch
        # hops and suffer more congestion (Fig. 8 shows bandwidth decreasing
        # with GPU count at fixed message size).
        if n_gpus > 8:
            eff /= 1.0 + 0.04 * np.log2(n_gpus / 8.0)

        if kind == CollectiveKind.ALL_REDUCE:
            # Mid-size boost: fused ring/tree AllReduce outperforms the
            # gather-style collectives around tens of MB at scale (Fig. 8).
            scale_factor = min(1.0, np.log2(max(n_gpus, 2)) / 10.0)
            midsize = np.exp(-((np.log2(max(msg_mb, 1e-6)) - np.log2(64.0)) ** 2) / 8.0)
            eff *= 1.0 + (self.allreduce_midsize_boost - 1.0) * midsize * scale_factor
            # Protocol-switch dip around 256 MB.
            dip = self.allreduce_dip_depth * np.exp(
                -((msg_mb - self.allreduce_dip_center_mb) ** 2)
                / (2.0 * self.allreduce_dip_width_mb**2)
            )
            eff *= 1.0 - dip
        return float(np.clip(eff, 1.0e-3, 1.0))

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def time_seconds(self, kind: CollectiveKind, message_bytes: float, n_gpus: int) -> float:
        """Wall-clock time of one collective on ``message_bytes`` across ``n_gpus``."""
        if message_bytes < 0:
            raise ValueError("message_bytes must be non-negative")
        if n_gpus <= 1 or message_bytes == 0:
            return 0.0
        link_gbs = self.topology.link_bandwidth_gbs(n_gpus)
        eff = self._efficiency(kind, message_bytes, n_gpus)
        bandwidth = link_gbs * 1.0e9 * eff
        volume = self.volume_factor(kind, n_gpus) * message_bytes
        latency = self.ring_steps(kind, n_gpus) * self.base_latency_us * 1.0e-6
        return latency + volume / bandwidth

    def bus_bandwidth_gbs(self, kind: CollectiveKind, message_bytes: float, n_gpus: int) -> float:
        """NCCL-tests style *bus bandwidth* in GB/s (what Fig. 8 plots).

        Bus bandwidth normalises the measured algorithm bandwidth by the
        volume factor so results are comparable across collectives:
        ``busbw = (message / time) · volume_factor``.
        """
        t = self.time_seconds(kind, message_bytes, n_gpus)
        if t == 0.0:
            return 0.0
        algbw = message_bytes / t
        return algbw * self.volume_factor(kind, n_gpus) / 1.0e9

    def sweep(
        self,
        kind: CollectiveKind,
        message_sizes_bytes: np.ndarray,
        n_gpus: int,
    ) -> np.ndarray:
        """Bus bandwidth for an array of message sizes (Fig. 8 series)."""
        return np.array(
            [self.bus_bandwidth_gbs(kind, float(m), n_gpus) for m in np.asarray(message_sizes_bytes)]
        )
