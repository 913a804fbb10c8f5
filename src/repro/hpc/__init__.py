"""Simulated-Frontier HPC substrate plus real local parallelism.

The paper's scalability results were obtained on the Frontier exascale system
(AMD MI250X GPUs, RCCL collectives, Slingshot-11 interconnect) which we do
not have.  In its place (the "simulated-Frontier HPC substrate" of README.md;
ROADMAP.md says which scaling results are measured and which only modelled)
this subpackage provides:

* an analytical **performance model** of Frontier: node/system topology
  (:mod:`topology`), collective-communication cost models with empirically
  calibrated bandwidth curves (:mod:`collectives`), a GEMM efficiency model
  for kernel sizing (:mod:`gemm`) and training memory accounting
  (:mod:`memory`);
* **executable** distributed-training bookkeeping: parameter sharding and
  collective algorithms run for real on NumPy buffers through
  :class:`~repro.hpc.comm.LocalCommGroup`, with DDP / DeepSpeed-ZeRO / FSDP
  strategies in :mod:`ddp`, :mod:`zero` and :mod:`fsdp`;
* a **distributed-training step simulator** (:mod:`trainer_sim`) and scaling
  harness (:mod:`scaling`) that regenerate the shapes of Figs. 7–10;
* a real **multiprocessing ensemble executor** (:mod:`ensemble_parallel`)
  exercising the paper's ensemble-parallel EnSF/forecast code path locally.
"""

from repro.hpc.topology import GPUSpec, NodeSpec, FrontierTopology
from repro.hpc.collectives import CollectiveModel, CollectiveKind
from repro.hpc.gemm import GEMMPerformanceModel, vit_achieved_tflops
from repro.hpc.memory import TrainingMemoryModel, ShardingStrategy, STRATEGY_TABLE
from repro.hpc.comm import LocalCommGroup
from repro.hpc.ddp import DataParallel
from repro.hpc.zero import ZeROParallel
from repro.hpc.fsdp import FSDPParallel
from repro.hpc.trainer_sim import DistributedTrainingSimulator, StepBreakdown, TrainingRunConfig
from repro.hpc.scaling import (
    strong_scaling_study,
    weak_scaling_ensf,
    ScalingPoint,
    EnSFScalingPoint,
)
from repro.hpc.ensemble_parallel import EnsembleExecutor, ShardRetryError, ensemble_slices

__all__ = [
    "GPUSpec",
    "NodeSpec",
    "FrontierTopology",
    "CollectiveModel",
    "CollectiveKind",
    "GEMMPerformanceModel",
    "vit_achieved_tflops",
    "TrainingMemoryModel",
    "ShardingStrategy",
    "STRATEGY_TABLE",
    "LocalCommGroup",
    "DataParallel",
    "ZeROParallel",
    "FSDPParallel",
    "DistributedTrainingSimulator",
    "StepBreakdown",
    "TrainingRunConfig",
    "strong_scaling_study",
    "weak_scaling_ensf",
    "ScalingPoint",
    "EnSFScalingPoint",
    "EnsembleExecutor",
    "ShardRetryError",
    "ensemble_slices",
]
