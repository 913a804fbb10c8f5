"""Integration tests: full OSSE cycling, the four-way comparison and the real-time workflow."""

import numpy as np
import pytest

from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import IdentityObservation
from repro.da.cycling import OSSEConfig, free_run, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.models.model_error import StochasticModelErrorMixture
from repro.models.sqg import SQGModel, SQGParameters, spinup_sqg
from repro.surrogate.training import TrainingConfig
from repro.workflow.config import ExperimentConfig
from repro.workflow.experiments import build_sqg_testbed, run_four_experiments, train_offline_surrogate
from repro.workflow.realtime import RealTimeDAWorkflow


@pytest.fixture(scope="module")
def smoke_comparison():
    """Run the reduced four-way comparison once and share it across tests."""
    return run_four_experiments(ExperimentConfig.smoke_test())


class TestSQGCyclingIntegration:
    def test_letkf_controls_error_growth_on_sqg(self):
        """LETKF analysis error stays below the free-run error on the SQG testbed."""
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
        truth0 = model.flatten(spinup_sqg(model, n_steps=400, rng=0))
        op = IdentityObservation(model.state_size, obs_error_var=1.0)
        cfg = OSSEConfig(n_cycles=6, steps_per_cycle=12, ensemble_size=10, seed=1)
        letkf = LETKF(model.grid, LETKFConfig())
        da = run_osse(model, model, letkf, op, truth0, cfg, label="letkf")
        free = free_run(model, model, truth0, cfg, label="free")
        assert da.analysis_rmse[-1] < free.analysis_rmse[-1]

    def test_ensf_controls_error_growth_on_sqg(self):
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
        truth0 = model.flatten(spinup_sqg(model, n_steps=400, rng=2))
        op = IdentityObservation(model.state_size, obs_error_var=1.0)
        cfg = OSSEConfig(n_cycles=6, steps_per_cycle=12, ensemble_size=10, seed=3)
        ensf = EnSF(EnSFConfig(n_sde_steps=50), rng=4)
        da = run_osse(model, model, ensf, op, truth0, cfg, label="ensf")
        free = free_run(model, model, truth0, cfg, label="free")
        assert da.analysis_rmse[-1] < free.analysis_rmse[-1]


class TestFourWayComparison:
    def test_all_four_experiments_present(self, smoke_comparison):
        assert set(smoke_comparison.results) == {"SQG only", "ViT only", "SQG+LETKF", "ViT+EnSF"}

    def test_results_are_finite(self, smoke_comparison):
        for res in smoke_comparison.results.values():
            assert np.isfinite(res.analysis_rmse).all()
            assert np.isfinite(res.analysis_mean_final).all()

    def test_ensf_beats_no_da_at_final_time(self, smoke_comparison):
        rmse = smoke_comparison.final_rmse()
        assert rmse["ViT+EnSF"] < max(rmse["SQG only"], rmse["ViT only"])

    def test_summary_rows(self, smoke_comparison):
        rows = smoke_comparison.summary_rows()
        assert len(rows) == 4
        assert all("mean_analysis_rmse" in r for r in rows)


class TestRealTimeWorkflow:
    def test_workflow_runs_and_times_both_scalability_tasks(self):
        config = ExperimentConfig.smoke_test()
        testbed = build_sqg_testbed(config)
        surrogate = train_offline_surrogate(testbed)
        workflow = RealTimeDAWorkflow(
            surrogate=surrogate,
            truth_model=testbed.model,
            operator=testbed.operator,
            ensf_config=EnSFConfig(n_sde_steps=25),
            training_config=TrainingConfig(online_iterations=1),
            model_error=StochasticModelErrorMixture(rng=0),
            seed=7,
        )
        rng = np.random.default_rng(8)
        ensemble = testbed.truth0[None, :] + rng.standard_normal((8, testbed.model.state_size))
        result = workflow.run(testbed.truth0, ensemble, n_cycles=3, steps_per_cycle=config.steps_per_cycle)
        assert len(workflow.history) == 3
        for record in workflow.history:
            assert record.forecast_s > 0.0
            assert record.analysis_s > 0.0
            assert record.post_analysis_s > 0.0  # online training
        assert len(result["analysis_rmse"]) == 3
        assert np.isfinite(result["analysis_rmse"]).all()

    def test_workflow_with_ensemble_executor(self):
        config = ExperimentConfig.smoke_test()
        testbed = build_sqg_testbed(config)
        surrogate = train_offline_surrogate(testbed)
        workflow = RealTimeDAWorkflow(
            surrogate=surrogate,
            truth_model=testbed.model,
            operator=testbed.operator,
            ensf_config=EnSFConfig(n_sde_steps=20),
            training_config=TrainingConfig(online_iterations=0),
            executor=EnsembleExecutor(n_workers=1),
            seed=9,
        )
        rng = np.random.default_rng(10)
        ensemble = testbed.truth0[None, :] + rng.standard_normal((6, testbed.model.state_size))
        result = workflow.run(testbed.truth0, ensemble, n_cycles=2, steps_per_cycle=config.steps_per_cycle)
        assert all(record.post_analysis_s == 0.0 for record in workflow.history)
        assert np.isfinite(result["final_analysis_rmse"])

    def test_executor_workflow_seeds_derive_from_root(self):
        """Regression: the executor path once seeded the EnSF analysis with
        ``seed=cycle``, so workflows built with different root seeds drew
        *identical* analysis noise.  Under an executor the analysis draws
        from the filter's own stream, named under the workflow's root."""
        config = ExperimentConfig.smoke_test()
        testbed = build_sqg_testbed(config)
        surrogate = train_offline_surrogate(testbed)

        def run_with_seed(seed):
            workflow = RealTimeDAWorkflow(
                surrogate=surrogate,
                truth_model=testbed.model,
                operator=testbed.operator,
                ensf_config=EnSFConfig(n_sde_steps=10),
                training_config=TrainingConfig(online_iterations=0),
                executor=EnsembleExecutor(n_workers=1),
                seed=seed,
            )
            rng = np.random.default_rng(10)
            ensemble = testbed.truth0[None, :] + rng.standard_normal(
                (6, testbed.model.state_size)
            )
            summary = workflow.run(
                testbed.truth0, ensemble, n_cycles=2, steps_per_cycle=config.steps_per_cycle
            )
            return summary["analysis_rmse"]

        first = run_with_seed(1)
        assert np.all(first != run_with_seed(2))  # different roots, different analyses
        np.testing.assert_array_equal(first, run_with_seed(1))  # same root reproduces
