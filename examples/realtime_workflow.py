"""Run the full real-time DA workflow of Fig. 1 with online surrogate training.

Couples the pre-trained SQG-ViT surrogate with the EnSF in the sequential
workflow: surrogate ensemble forecast → EnSF analysis → online fine-tuning of
the surrogate on the newly assimilated state, with per-stage wall-clock
accounting (the two scalability tasks the paper identifies).  The loop is
``run_osse`` with an ``online_trainer``.

Run with:  python examples/realtime_workflow.py
"""

import numpy as np

from repro.core.ensf import EnSF, EnSFConfig
from repro.da.cycling import OSSEConfig, run_osse
from repro.surrogate.training import OnlineTrainer, TrainingConfig
from repro.workflow.config import ExperimentConfig
from repro.workflow.experiments import build_sqg_testbed, train_offline_surrogate


def main() -> None:
    config = ExperimentConfig(nx=32, ny=32, n_cycles=10, ensemble_size=12)
    print("Building SQG testbed and pre-training the ViT surrogate offline...")
    testbed = build_sqg_testbed(config)
    surrogate = train_offline_surrogate(testbed)
    print(f"Surrogate parameters: {surrogate.network.n_parameters():,}")

    rng = np.random.default_rng(config.seed)
    ensemble = testbed.truth0[None, :] + 2.0 * rng.standard_normal(
        (config.ensemble_size, testbed.model.state_size)
    )

    print(f"Running {config.n_cycles} real-time cycles "
          f"({config.steps_per_cycle} model steps per cycle)...")
    result = run_osse(
        testbed.model,
        surrogate,
        EnSF(EnSFConfig(n_sde_steps=config.ensf_sde_steps), rng=testbed.seeds.rng("ensf")),
        testbed.operator,
        testbed.truth0,
        OSSEConfig(
            n_cycles=config.n_cycles,
            steps_per_cycle=config.steps_per_cycle,
            ensemble_size=config.ensemble_size,
            seed=config.seed,
        ),
        initial_ensemble=ensemble,
        online_trainer=OnlineTrainer(surrogate, TrainingConfig(online_iterations=2)),
    )

    print("\ncycle   forecast RMSE   analysis RMSE   online loss")
    for record in result.records:
        print(f"{record.cycle + 1:5d}   {record.forecast_rmse:13.3f}   "
              f"{record.analysis_rmse:13.3f}   {record.online_loss:11.4f}")

    # Each cycle's record carries the wall seconds of its stages; the
    # post-analysis stage is the online training.
    stages = {
        "forecast": "forecast_s",
        "analysis": "analysis_s",
        "online_training": "post_analysis_s",
    }
    per_cycle = {
        stage: np.mean([getattr(record, field) for record in result.records])
        for stage, field in stages.items()
    }
    total = sum(per_cycle.values())
    print("\nPer-cycle wall-clock budget (the paper's two scalability tasks dominate):")
    for stage, seconds in per_cycle.items():
        print(f"  {stage:16s} {seconds * 1e3:8.1f} ms/cycle  ({100 * seconds / total:.1f} %)")
    print(f"\nFinal analysis RMSE: {result.analysis_rmse[-1]:.3f} K")


if __name__ == "__main__":
    main()
