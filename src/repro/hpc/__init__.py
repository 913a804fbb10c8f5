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
* the DDP / DeepSpeed-ZeRO / FSDP strategies (:mod:`ddp`, :mod:`zero`,
  :mod:`fsdp`), each described by the collectives it issues per step;
* a **distributed-training step simulator** (:mod:`trainer_sim`) and scaling
  harness (:mod:`scaling`) that price those collectives and regenerate the
  shapes of Figs. 7–10;
* a real **multiprocessing ensemble executor** (:mod:`ensemble_parallel`,
  with :mod:`shm` carrying large arrays) that member-shards ensemble
  forecasts and runs experiment-service attempts on a worker pool; both
  analyses (LETKF and EnSF) run in-process.
"""
