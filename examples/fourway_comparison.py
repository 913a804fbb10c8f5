"""Reproduce the paper's Fig. 4 comparison: SQG / ViT / LETKF / EnSF.

Runs the four §IV-A experiments on a reduced 32×32 SQG configuration (about
half a minute): free runs of the physics model and the offline-trained ViT
surrogate, the SQG+LETKF baseline, and the proposed ViT+EnSF framework, all
against the same model-error-perturbed truth and observations.

Run with:  python examples/fourway_comparison.py [--paper-scale]
"""

import argparse

from repro.workflow.config import ExperimentConfig
from repro.workflow.experiments import run_four_experiments


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's 64x64 grid and 300 cycles (~13 min on 2 vCPUs)",
    )
    args = parser.parse_args()

    config = ExperimentConfig.paper_scale() if args.paper_scale else ExperimentConfig()
    print(f"Grid {config.nx}x{config.ny}, {config.n_cycles} cycles, "
          f"{config.ensemble_size}-member ensembles")

    comparison = run_four_experiments(config)

    print("\nexperiment      mean RMSE   final RMSE")
    for name, result in comparison.results.items():
        print(f"{name:12s}   {result.mean_analysis_rmse:9.3f}   {result.analysis_rmse[-1]:10.3f}")

    print("\nRMSE time series (every other cycle):")
    cycles = comparison.results["ViT+EnSF"].times[::2]
    header = "cycle  " + "  ".join(f"{name:>10s}" for name in comparison.results)
    print(header)
    for i, cycle in enumerate(cycles):
        row = f"{int(cycle):5d}  " + "  ".join(
            f"{res.analysis_rmse[2 * i]:10.3f}" for res in comparison.results.values()
        )
        print(row)

    print("\nPaper ordering (DA beats free runs, EnSF+ViT beats LETKF+SQG):",
          "REPRODUCED" if comparison.ordering_holds() else "NOT reproduced at this scale")


if __name__ == "__main__":
    main()
