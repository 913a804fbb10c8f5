"""Distributed-training step simulator for the SQG-ViT on Frontier.

Combines the GEMM efficiency model (compute), the collective cost model
(communication) and a simple parallel-filesystem model (IO) into a per-step
wall-clock estimate for a given ViT architecture, GPU count and distribution
strategy.  This is the engine behind the reproduction of:

* Fig. 7 — runtime percentage of computation / communication / IO at 1024
  GPUs for the three Table II model sizes;
* Fig. 9 — strong-scaling efficiency of DDP, DeepSpeed ZeRO stage 1/2 and
  FSDP full/grad_op up to 1024 GPUs, including the bucket-size effect.

Modelling assumptions (stated once, relied on by the benchmarks):

* the per-GPU micro-batch is fixed by activation memory (larger inputs →
  fewer samples per GCD), so per-GPU compute is constant with GPU count while
  the exposed communication grows — the reason scaling efficiency decays;
* communication marked ``overlappable`` can hide behind backward-pass
  computation, up to a cap, and only when there is more than one bucket in
  flight (very large buckets reduce the overlap opportunity, the trade-off
  the paper describes for the 500 MB bucket tuning);
* IO reads one input field per sample per step from a shared filesystem with
  a fixed aggregate bandwidth, so the IO share grows mildly with input size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hpc.collectives import CollectiveModel
from repro.hpc.ddp import CommEvent, DataParallel
from repro.hpc.gemm import GEMMPerformanceModel, vit_achieved_tflops
from repro.hpc.topology import FrontierTopology
from repro.surrogate.flops import vit_forward_flops, vit_parameter_count
from repro.surrogate.vit import ViTConfig

__all__ = ["TrainingRunConfig", "StepBreakdown", "DistributedTrainingSimulator"]


@dataclass(frozen=True)
class TrainingRunConfig:
    """One distributed-training configuration to be simulated.

    ``micro_batch`` is the per-GPU batch size.  When ``None`` it is chosen
    automatically: the largest batch whose activation footprint
    (``tokens × depth × embed_dim``) stays within a fixed budget, capped at
    8.  For the Table II models this gives 8 samples per GCD for the 64² and
    128² inputs and 1 sample for the 256² input — mirroring how activation
    memory limits the per-GCD batch on Frontier.
    """

    vit: ViTConfig
    n_gpus: int
    micro_batch: int | None = None
    precision_bytes: float = 2.0
    backward_flops_factor: float = 2.0
    max_overlap_fraction: float = 0.7
    io_bandwidth_gbs: float = 2.0
    io_latency_s: float = 0.01

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ValueError("n_gpus must be positive")
        if self.micro_batch is not None and self.micro_batch < 1:
            raise ValueError("micro_batch must be positive")

    #: Activation-memory budget (in token·layer·feature units) behind the
    #: automatic micro-batch choice; roughly one Table II 256² sample.
    ACTIVATION_BUDGET = 4.1e8

    @property
    def per_gpu_batch(self) -> int:
        """Per-GPU micro-batch (auto-selected from activation memory if unset)."""
        if self.micro_batch is not None:
            return int(self.micro_batch)
        per_sample = self.vit.n_patches * self.vit.depth * self.vit.embed_dim
        return int(np.clip(self.ACTIVATION_BUDGET // per_sample, 1, 8))

    @property
    def global_batch(self) -> int:
        """Global batch size implied by the micro-batch and GPU count."""
        return self.per_gpu_batch * self.n_gpus


@dataclass(frozen=True)
class StepBreakdown:
    """Per-step wall-clock decomposition (seconds)."""

    compute: float
    exposed_comm: float
    total_comm: float
    io: float

    @property
    def total(self) -> float:
        return self.compute + self.exposed_comm + self.io

    def fractions(self) -> dict[str, float]:
        """Fractions of the step spent in compute / communication / IO (Fig. 7)."""
        total = self.total
        if total == 0.0:
            return {"compute": 0.0, "communication": 0.0, "io": 0.0}
        return {
            "compute": self.compute / total,
            "communication": self.exposed_comm / total,
            "io": self.io / total,
        }


class DistributedTrainingSimulator:
    """Estimate per-step time of distributed SQG-ViT training."""

    def __init__(
        self,
        topology: FrontierTopology | None = None,
        collectives: CollectiveModel | None = None,
        gemm: GEMMPerformanceModel | None = None,
    ):
        self.topology = topology or FrontierTopology()
        self.collectives = collectives or CollectiveModel(topology=self.topology)
        self.gemm = gemm or GEMMPerformanceModel()

    # ------------------------------------------------------------------ #
    def compute_time(self, run: TrainingRunConfig) -> float:
        """Forward+backward compute time per step on one GPU."""
        batch = run.per_gpu_batch
        flops = vit_forward_flops(run.vit, batch_size=batch) * (1.0 + run.backward_flops_factor)
        achieved = vit_achieved_tflops(run.vit, batch_size=batch, model=self.gemm) * 1.0e12
        return flops / achieved

    def comm_times(self, run: TrainingRunConfig, strategy) -> tuple[float, float]:
        """(total, overlappable) communication time per step for ``strategy``."""
        param_bytes = vit_parameter_count(run.vit) * run.precision_bytes
        events: list[CommEvent] = strategy.comm_events(param_bytes, run.n_gpus)
        total = 0.0
        overlappable = 0.0
        for event in events:
            t = event.count * self.collectives.time_seconds(
                event.kind, event.message_bytes, run.n_gpus
            )
            total += t
            if event.overlappable:
                overlappable += t
        if events:
            # Overlap requires at least two messages in flight; a single huge
            # bucket cannot be hidden behind computation.
            n_overlappable = sum(1 for e in events if e.overlappable)
            if n_overlappable <= 1:
                overlappable *= 0.25
        return total, overlappable

    def io_time(self, run: TrainingRunConfig) -> float:
        """Input-pipeline time per step for one GPU's micro-batch."""
        batch = run.per_gpu_batch
        sample_bytes = run.vit.image_size**2 * run.vit.channels * 4.0
        return run.io_latency_s + batch * sample_bytes / (run.io_bandwidth_gbs * 1.0e9)

    # ------------------------------------------------------------------ #
    def step_breakdown(self, run: TrainingRunConfig, strategy=None) -> StepBreakdown:
        """Per-step decomposition into compute, exposed communication and IO."""
        strategy = strategy or DataParallel()
        compute = self.compute_time(run)
        total_comm, overlappable = self.comm_times(run, strategy)
        hidden = min(overlappable * run.max_overlap_fraction, compute * 0.9)
        exposed = total_comm - hidden
        io = self.io_time(run)
        return StepBreakdown(compute=compute, exposed_comm=exposed, total_comm=total_comm, io=io)

    def step_time(self, run: TrainingRunConfig, strategy=None) -> float:
        """Total wall-clock time of one optimisation step."""
        return self.step_breakdown(run, strategy).total

    def throughput(self, run: TrainingRunConfig, strategy=None) -> float:
        """Global training throughput in samples per second."""
        return run.global_batch / self.step_time(run, strategy)
