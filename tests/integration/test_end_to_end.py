"""Integration tests: full OSSE cycling, the four-way comparison and the real-time workflow."""

import copy

import numpy as np
import pytest

from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import IdentityObservation
from repro.da.cycling import OSSEConfig, free_run, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.models.sqg import SQGModel, SQGParameters, spinup_sqg
from repro.surrogate.training import OnlineTrainer, TrainingConfig
from repro.utils.random import SeedSequenceFactory
from repro.workflow.config import ExperimentConfig
from repro.workflow.experiments import build_sqg_testbed, run_four_experiments, train_offline_surrogate


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
        da = run_osse(model, model, letkf, op, truth0, cfg)
        free = free_run(model, model, truth0, cfg)
        assert da.analysis_rmse[-1] < free.analysis_rmse[-1]

    def test_ensf_controls_error_growth_on_sqg(self):
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
        truth0 = model.flatten(spinup_sqg(model, n_steps=400, rng=2))
        op = IdentityObservation(model.state_size, obs_error_var=1.0)
        cfg = OSSEConfig(n_cycles=6, steps_per_cycle=12, ensemble_size=10, seed=3)
        ensf = EnSF(EnSFConfig(n_sde_steps=50), rng=4)
        da = run_osse(model, model, ensf, op, truth0, cfg)
        free = free_run(model, model, truth0, cfg)
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
        assert [r["label"] for r in rows] == list(smoke_comparison.results)


@pytest.fixture(scope="class")
def sqg_testbed_and_surrogate():
    """The smoke SQG testbed and its offline-trained ViT, built once per class."""
    config = ExperimentConfig.smoke_test()
    testbed = build_sqg_testbed(config)
    return config, testbed, train_offline_surrogate(testbed)


class TestRealTimeWorkflow:
    """The Fig. 1 loop through ``run_osse``: ViT forecast, EnSF analysis and,
    with an online trainer, ViT fine-tuning after every analysis."""

    @pytest.fixture(autouse=True)
    def _testbed(self, sqg_testbed_and_surrogate):
        self.config, self.testbed, self.surrogate = sqg_testbed_and_surrogate

    def _run(self, seed, n_members, n_cycles, n_sde_steps, executor=None, online_iterations=0):
        testbed = self.testbed
        surrogate = self.surrogate
        trainer = None
        if online_iterations:
            # Online training updates the network in place: train a copy so
            # the shared surrogate stays the offline one.
            surrogate = copy.deepcopy(surrogate)
            trainer = OnlineTrainer(surrogate, TrainingConfig(online_iterations=online_iterations))
        rng = np.random.default_rng(seed + 1)
        ensemble = testbed.truth0[None, :] + rng.standard_normal(
            (n_members, testbed.model.state_size)
        )
        return run_osse(
            testbed.model,
            surrogate,
            EnSF(EnSFConfig(n_sde_steps=n_sde_steps), rng=SeedSequenceFactory(seed).rng("ensf")),
            testbed.operator,
            testbed.truth0,
            OSSEConfig(
                n_cycles=n_cycles,
                steps_per_cycle=self.config.steps_per_cycle,
                ensemble_size=n_members,
                seed=seed,
            ),
            initial_ensemble=ensemble,
            executor=executor,
            online_trainer=trainer,
        )

    def test_workflow_runs_and_times_both_scalability_tasks(self):
        result = self._run(7, n_members=8, n_cycles=3, n_sde_steps=25, online_iterations=1)
        assert len(result.records) == 3
        for record in result.records:
            assert record.forecast_s > 0.0
            assert record.analysis_s > 0.0
            assert record.post_analysis_s > 0.0  # online training
        assert np.isfinite(result.analysis_rmse).all()

    def test_workflow_with_ensemble_executor(self):
        result = self._run(
            9, n_members=6, n_cycles=2, n_sde_steps=20, executor=EnsembleExecutor(n_workers=1)
        )
        assert all(record.post_analysis_s == 0.0 for record in result.records)
        assert np.isfinite(result.analysis_rmse[-1])

    def test_executor_workflow_seeds_derive_from_root(self):
        """Regression: the executor path once seeded the EnSF analysis with
        ``seed=cycle``, so runs with different root seeds drew *identical*
        analysis noise.  Under an executor the analysis draws from the
        filter's own stream, named under the run's root seed."""

        def run_with_seed(seed):
            return self._run(
                seed, n_members=6, n_cycles=2, n_sde_steps=10,
                executor=EnsembleExecutor(n_workers=1),
            ).analysis_rmse

        first = run_with_seed(1)
        assert np.all(first != run_with_seed(2))  # different roots, different analyses
        np.testing.assert_array_equal(first, run_with_seed(1))  # same root reproduces
