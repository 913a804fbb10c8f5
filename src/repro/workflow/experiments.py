"""The four-way accuracy comparison of the paper (Figs. 4 and 5).

Architectures compared over the same truth and observations:

* **SQG only** — free run of the physics model, no assimilation;
* **ViT only** — free run of the offline-trained surrogate, no assimilation;
* **SQG + LETKF** — the state-of-the-art baseline;
* **ViT + EnSF** — the proposed framework (surrogate forecasts corrected by
  the ensemble score filter, with optional online fine-tuning).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import IdentityObservation
from repro.da.cycling import CyclingResult, OSSEConfig, free_run, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.models.sqg import SQGModel, spinup_sqg
from repro.surrogate.presets import laptop_preset
from repro.surrogate.training import OfflineTrainer, TrainingConfig, TrajectoryDataset
from repro.surrogate.vit import SQGViTSurrogate, VisionTransformer
from repro.utils.random import SeedSequenceFactory
from repro.workflow.config import ExperimentConfig

__all__ = ["SQGTestbed", "FourWayComparison", "build_sqg_testbed", "train_offline_surrogate", "run_four_experiments"]


@dataclass
class SQGTestbed:
    """Shared ingredients of the accuracy experiments."""

    config: ExperimentConfig
    model: SQGModel
    truth0: np.ndarray
    operator: IdentityObservation
    seeds: SeedSequenceFactory

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return self.model.grid.shape


@dataclass
class FourWayComparison:
    """Results of the four experiments, keyed as in the paper's legend."""

    results: dict[str, CyclingResult]
    truth_final: np.ndarray
    grid_shape: tuple[int, int, int]

    def mean_rmse(self) -> dict[str, float]:
        """Time-mean analysis RMSE of each experiment."""
        return {name: res.mean_analysis_rmse for name, res in self.results.items()}

    def final_rmse(self) -> dict[str, float]:
        """Final-cycle analysis RMSE of each experiment."""
        return {name: float(res.analysis_rmse[-1]) for name, res in self.results.items()}

    def ordering_holds(self) -> bool:
        """The paper's headline ordering: DA beats no-DA and EnSF+ViT beats LETKF+SQG."""
        rmse = self.mean_rmse()
        da_beats_free = rmse["ViT+EnSF"] < min(rmse["SQG only"], rmse["ViT only"]) and rmse[
            "SQG+LETKF"
        ] < min(rmse["SQG only"], rmse["ViT only"])
        ensf_beats_letkf = rmse["ViT+EnSF"] <= rmse["SQG+LETKF"]
        return bool(da_beats_free and ensf_beats_letkf)

    def summary_rows(self) -> list[dict]:
        """Benchmark-friendly summary rows (one per experiment, labelled by its key)."""
        return [{"label": name, **res.summary()} for name, res in self.results.items()]


def build_sqg_testbed(config: ExperimentConfig) -> SQGTestbed:
    """Build the SQG model, spin up the truth and create the observation operator."""
    seeds = SeedSequenceFactory(config.seed)
    model = SQGModel(config.sqg_parameters())
    truth_field = spinup_sqg(model, n_steps=config.spinup_steps, rng=seeds.rng("truth-spinup"))
    truth0 = model.flatten(truth_field)
    operator = IdentityObservation(model.state_size, obs_error_var=config.obs_error_var)
    return SQGTestbed(config=config, model=model, truth0=truth0, operator=operator, seeds=seeds)


def train_offline_surrogate(testbed: SQGTestbed) -> SQGViTSurrogate:
    """Offline pre-training of the SQG-ViT on a trajectory of the physics model."""
    cfg = testbed.config
    dataset = TrajectoryDataset.from_model(
        testbed.model,
        testbed.truth0,
        n_pairs=cfg.surrogate_pairs,
        steps_per_pair=cfg.steps_per_cycle,
        grid_shape=testbed.grid_shape,
    )
    vit_config = laptop_preset(
        image_size=cfg.nx,
        patch_size=cfg.surrogate_patch,
        depth=cfg.surrogate_depth,
        embed_dim=cfg.surrogate_embed_dim,
        num_heads=cfg.surrogate_heads,
    )
    network = VisionTransformer(vit_config, rng=testbed.seeds.rng("vit-init"))
    trainer = OfflineTrainer(
        network,
        TrainingConfig(epochs=cfg.surrogate_epochs, batch_size=8),
        rng=testbed.seeds.rng("vit-training"),
    )
    trainer.fit(dataset)
    return trainer.build_surrogate(dataset, testbed.grid_shape, cfg.steps_per_cycle)


def run_four_experiments(
    config: ExperimentConfig | None = None,
    surrogate: SQGViTSurrogate | None = None,
    store_history: bool = False,
) -> FourWayComparison:
    """Run the four §IV-A experiments and return their RMSE time series."""
    config = config or ExperimentConfig()
    testbed = build_sqg_testbed(config)
    if surrogate is None:
        surrogate = train_offline_surrogate(testbed)

    osse = OSSEConfig(
        n_cycles=config.n_cycles,
        steps_per_cycle=config.steps_per_cycle,
        ensemble_size=config.ensemble_size,
        seed=config.seed,
        apply_model_error_to_truth=config.apply_model_error,
    )

    letkf = LETKF(
        testbed.model.grid,
        LETKFConfig(cutoff=config.letkf_cutoff, rtps_factor=config.letkf_rtps),
    )
    ensf = EnSF(
        EnSFConfig(
            n_sde_steps=config.ensf_sde_steps,
            spread_relaxation=1.0,
        ),
        rng=testbed.seeds.rng("ensf"),
    )

    results: dict[str, CyclingResult] = {}
    results["SQG only"] = free_run(testbed.model, testbed.model, testbed.truth0, osse)
    results["ViT only"] = free_run(testbed.model, surrogate, testbed.truth0, osse)
    results["SQG+LETKF"] = run_osse(
        truth_model=testbed.model,
        forecast_model=testbed.model,
        filter_=letkf,
        operator=testbed.operator,
        truth0=testbed.truth0,
        config=osse,
        store_history=store_history,
    )
    results["ViT+EnSF"] = run_osse(
        truth_model=testbed.model,
        forecast_model=surrogate,
        filter_=ensf,
        operator=testbed.operator,
        truth0=testbed.truth0,
        config=osse,
        store_history=store_history,
    )

    return FourWayComparison(
        results=results,
        truth_final=results["ViT+EnSF"].truth_final,
        grid_shape=testbed.grid_shape,
    )
