"""Reproduce the paper's scalability analysis (Figs. 6-10) with the Frontier model.

Sweeps the ViT kernel-sizing heatmap, the collective-bandwidth curves, the
runtime breakdown at 1024 GPUs, the strong-scaling efficiency of the
distribution strategies, and the (locally measured) EnSF weak scaling.

Run with:  python examples/frontier_scaling_study.py
"""

import numpy as np

from repro.hpc.collectives import CollectiveKind, CollectiveModel
from repro.hpc.ddp import DataParallel
from repro.hpc.fsdp import FSDPParallel
from repro.hpc.gemm import vit_achieved_tflops
from repro.hpc.scaling import strong_scaling_study, weak_scaling_ensf
from repro.hpc.trainer_sim import DistributedTrainingSimulator, TrainingRunConfig
from repro.hpc.zero import ZeROParallel
from repro.surrogate.presets import TABLE_II_PRESETS
from repro.surrogate.vit import ViTConfig

MB = 2.0**20


def kernel_sizing_heatmap() -> None:
    print("\n--- Fig. 6: achieved TFLOPS vs embedding dim and heads (256^2 inputs) ---")
    print("embed\\heads |" + "".join(f" {h:>6d}" for h in (4, 8, 16, 32)))
    for embed in (1024, 2048, 3072):
        row = [
            vit_achieved_tflops(
                ViTConfig(image_size=256, patch_size=4, depth=2, num_heads=h, embed_dim=embed),
                batch_size=1,
            )
            for h in (4, 8, 16, 32)
        ]
        print(f"{embed:11d} |" + "".join(f" {v:6.1f}" for v in row))


def collective_bandwidth() -> None:
    print("\n--- Fig. 8: collective bus bandwidth at 1024 GPUs (GB/s) ---")
    model = CollectiveModel()
    sizes = np.array([16, 64, 256, 1024]) * MB
    print("collective      |" + "".join(f" {int(s / MB):>6d}MB" for s in sizes))
    for kind in (CollectiveKind.ALL_REDUCE, CollectiveKind.ALL_GATHER, CollectiveKind.REDUCE_SCATTER):
        values = model.sweep(kind, sizes, 1024)
        print(f"{kind.value:15s} |" + "".join(f" {v:8.1f}" for v in values))


def runtime_breakdown() -> None:
    print("\n--- Fig. 7: runtime breakdown at 1024 GPUs (DeepSpeed ZeRO-1) ---")
    sim = DistributedTrainingSimulator()
    for size, cfg in TABLE_II_PRESETS.items():
        bd = sim.step_breakdown(TrainingRunConfig(vit=cfg, n_gpus=1024), ZeROParallel(1))
        f = bd.fractions()
        print(f"{size:4d}^2: compute {100 * f['compute']:5.1f}%  comm {100 * f['communication']:5.1f}%  "
              f"io {100 * f['io']:4.1f}%   (step {bd.total:.2f} s)")


def strong_scaling() -> None:
    print("\n--- Fig. 9: scaling efficiency at 1024 GPUs ---")
    strategies = {
        "DDP": DataParallel(),
        "ZeRO-1 (200MB)": ZeROParallel(1, 200 * MB),
        "ZeRO-1 (500MB)": ZeROParallel(1, 500 * MB),
        "ZeRO-2": ZeROParallel(2),
        "FSDP full": FSDPParallel("full_shard"),
        "FSDP grad_op": FSDPParallel("shard_grad_op"),
    }
    for size, cfg in TABLE_II_PRESETS.items():
        points = strong_scaling_study(cfg, strategies, [8, 1024])
        effs = {p.strategy: p.efficiency for p in points if p.n_gpus == 1024}
        formatted = "  ".join(f"{name}: {eff:.2f}" for name, eff in effs.items())
        print(f"{size:4d}^2: {formatted}")


def ensf_weak_scaling() -> None:
    print("\n--- Fig. 10: EnSF weak scaling (time per analysis step, seconds) ---")
    points = weak_scaling_ensf(
        dimensions=[1.0e5, 1.0e6, 1.0e7], gpu_counts=[1, 64, 1024], measured_dimension=50_000
    )
    print("dim per rank |      1 GPU     64 GPUs   1024 GPUs")
    for dim in (1.0e5, 1.0e6, 1.0e7):
        times = [p.time_per_step for p in points if p.dimension_per_rank == dim]
        print(f"{dim:12.0e} |" + "".join(f" {t:10.3f}" for t in times))


def main() -> None:
    kernel_sizing_heatmap()
    collective_bandwidth()
    runtime_breakdown()
    strong_scaling()
    ensf_weak_scaling()


if __name__ == "__main__":
    main()
