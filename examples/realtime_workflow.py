"""Run the full real-time DA workflow of Fig. 1 with online surrogate training.

Couples the pre-trained SQG-ViT surrogate with the EnSF in the sequential
workflow: surrogate ensemble forecast → EnSF analysis → online fine-tuning of
the surrogate on the newly assimilated state, with per-stage wall-clock
accounting (the two scalability tasks the paper identifies).

Run with:  python examples/realtime_workflow.py
"""

import numpy as np

from repro.core import EnSFConfig
from repro.hpc import EnsembleExecutor
from repro.models import StochasticModelErrorMixture
from repro.surrogate import TrainingConfig
from repro.workflow import ExperimentConfig, RealTimeDAWorkflow
from repro.workflow.experiments import build_sqg_testbed, train_offline_surrogate


def main() -> None:
    config = ExperimentConfig(nx=32, ny=32, n_cycles=10, ensemble_size=12)
    print("Building SQG testbed and pre-training the ViT surrogate offline...")
    testbed = build_sqg_testbed(config)
    surrogate = train_offline_surrogate(testbed)
    print(f"Surrogate parameters: {surrogate.network.n_parameters():,}")

    workflow = RealTimeDAWorkflow(
        surrogate=surrogate,
        truth_model=testbed.model,
        operator=testbed.operator,
        ensf_config=EnSFConfig(n_sde_steps=config.ensf_sde_steps),
        training_config=TrainingConfig(online_iterations=config.online_iterations),
        model_error=StochasticModelErrorMixture(rng=testbed.seeds.rng("model-error")),
        executor=EnsembleExecutor(n_workers=1),
        seed=config.seed,
    )

    rng = np.random.default_rng(config.seed)
    ensemble = testbed.truth0[None, :] + 2.0 * rng.standard_normal(
        (config.ensemble_size, testbed.model.state_size)
    )

    print(f"Running {config.n_cycles} real-time cycles "
          f"({config.steps_per_cycle} model steps per cycle)...")
    result = workflow.run(
        testbed.truth0, ensemble, n_cycles=config.n_cycles, steps_per_cycle=config.steps_per_cycle
    )

    print("\ncycle   forecast RMSE   analysis RMSE")
    for k, (f, a) in enumerate(zip(result["forecast_rmse"], result["analysis_rmse"]), start=1):
        print(f"{k:5d}   {f:13.3f}   {a:13.3f}")

    # Each cycle's record carries the wall seconds of its stages; the
    # post-analysis stage is the online training.
    stages = {
        "forecast": "forecast_s",
        "analysis": "analysis_s",
        "online_training": "post_analysis_s",
    }
    per_cycle = {
        stage: np.mean([getattr(record, field) for record in workflow.history])
        for stage, field in stages.items()
    }
    total = sum(per_cycle.values())
    print("\nPer-cycle wall-clock budget (the paper's two scalability tasks dominate):")
    for stage, seconds in per_cycle.items():
        print(f"  {stage:16s} {seconds * 1e3:8.1f} ms/cycle  ({100 * seconds / total:.1f} %)")
    print(f"\nFinal analysis RMSE: {result['final_analysis_rmse']:.3f} K")


if __name__ == "__main__":
    main()
