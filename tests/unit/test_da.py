"""Unit tests for the DA baselines: localization, inflation, LETKF, EnKF, OSSE cycling."""

import numpy as np
import pytest

from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import IdentityObservation, SubsampledObservation
from repro.da.cycling import OSSEConfig, free_run, run_osse
from repro.da.enkf import EnKFConfig, StochasticEnKF
from repro.da.inflation import multiplicative_inflation, rtpp_inflation, rtps_inflation
from repro.da.letkf import LETKF, LETKFConfig
from repro.da.localization import LocalizationConfig, column_distances, gaspari_cohn
from repro.models.lorenz96 import Lorenz96
from repro.utils.grid import Grid2D


class TestLocalization:
    def test_gaspari_cohn_unit_at_zero(self):
        assert gaspari_cohn(np.array(0.0), 1.0) == pytest.approx(1.0)

    def test_gaspari_cohn_compact_support(self):
        r = np.linspace(0, 5, 200)
        w = gaspari_cohn(r, 1.0)
        assert np.all(w[r >= 2.0] == 0.0)
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_gaspari_cohn_monotone_decay(self):
        r = np.linspace(0, 2, 100)
        w = gaspari_cohn(r, 1.0)
        assert np.all(np.diff(w) <= 1e-12)

    def test_gaspari_cohn_validation(self):
        with pytest.raises(ValueError):
            gaspari_cohn(np.array(1.0), 0.0)

    def test_localization_config(self):
        cfg = LocalizationConfig(cutoff=2.0e6)
        assert cfg.weights(np.array(0.0)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            LocalizationConfig(cutoff=-1.0)

    def test_column_distances_periodic(self):
        grid = Grid2D(nx=8, ny=8, lx=8.0, ly=8.0, nlev=2)
        d = column_distances(grid, 0, np.array([1, 7]))
        assert d[0] == pytest.approx(1.0)
        assert d[1] == pytest.approx(1.0)  # wraps around


class TestInflation:
    def test_multiplicative_preserves_mean(self):
        ens = np.random.default_rng(0).normal(size=(10, 5))
        infl = multiplicative_inflation(ens, 1.5)
        assert np.allclose(infl.mean(axis=0), ens.mean(axis=0))
        assert np.allclose(infl.std(axis=0), 1.5 * ens.std(axis=0))

    def test_rtps_factor_one_restores_forecast_spread(self):
        rng = np.random.default_rng(1)
        forecast = rng.normal(size=(20, 6)) * 2.0
        analysis = forecast.mean(axis=0) + 0.2 * rng.normal(size=(20, 6))
        out = rtps_inflation(analysis, forecast, 1.0)
        assert np.allclose(out.std(axis=0, ddof=1), forecast.std(axis=0, ddof=1), rtol=1e-6)

    def test_rtps_preserves_mean(self):
        rng = np.random.default_rng(2)
        forecast = rng.normal(size=(10, 4))
        analysis = rng.normal(size=(10, 4))
        out = rtps_inflation(analysis, forecast, 0.3)
        assert np.allclose(out.mean(axis=0), analysis.mean(axis=0))

    def test_rtpp_blends_perturbations(self):
        rng = np.random.default_rng(3)
        forecast = rng.normal(size=(10, 4))
        analysis = rng.normal(size=(10, 4))
        out = rtpp_inflation(analysis, forecast, 1.0)
        expected = analysis.mean(axis=0) + (forecast - forecast.mean(axis=0))
        assert np.allclose(out, expected)

    def test_validation(self):
        ens = np.zeros((4, 3))
        with pytest.raises(ValueError):
            multiplicative_inflation(ens, -1.0)
        with pytest.raises(ValueError):
            rtps_inflation(ens, ens, 1.5)
        with pytest.raises(ValueError):
            rtpp_inflation(ens, np.zeros((5, 3)), 0.5)


def _kalman_posterior_mean(prior_mean, prior_cov, obs, obs_var):
    """Reference Kalman update for identity observations."""
    gain = prior_cov @ np.linalg.inv(prior_cov + obs_var * np.eye(len(obs)))
    return prior_mean + gain @ (obs - prior_mean)


class TestEnKF:
    def test_large_ensemble_matches_kalman(self):
        rng = np.random.default_rng(0)
        d = 4
        prior_mean = np.array([1.0, -2.0, 0.5, 3.0])
        a = rng.normal(size=(d, d))
        prior_cov = a @ a.T / d + np.eye(d)
        ens = rng.multivariate_normal(prior_mean, prior_cov, size=4000)
        op = IdentityObservation(d, obs_error_var=0.5)
        obs = np.array([0.5, -1.0, 1.0, 2.0])
        analysis = StochasticEnKF(rng=1).analyze(ens, obs, op)
        expected = _kalman_posterior_mean(ens.mean(0), np.cov(ens.T), obs, 0.5)
        assert np.allclose(analysis.mean(axis=0), expected, atol=0.1)

    def test_reduces_error_with_accurate_obs(self):
        rng = np.random.default_rng(2)
        truth = rng.normal(size=30)
        ens = truth[None, :] + rng.normal(size=(50, 30))
        op = IdentityObservation(30, obs_error_var=0.01)
        obs = op.observe(truth, rng=3)
        analysis = StochasticEnKF(rng=4).analyze(ens, obs, op)
        assert np.abs(analysis.mean(0) - truth).mean() < np.abs(ens.mean(0) - truth).mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            EnKFConfig(prior_inflation=0.5)
        filt = StochasticEnKF()
        with pytest.raises(ValueError):
            filt.analyze(np.zeros((1, 3)), np.zeros(3), IdentityObservation(3))


class TestLETKF:
    def _grid(self, n=8):
        return Grid2D(nx=n, ny=n, lx=2.0e7, ly=2.0e7, nlev=2)

    def test_matches_kalman_with_broad_localization(self):
        """With a huge cut-off the LETKF analysis mean approaches the Kalman mean."""
        rng = np.random.default_rng(0)
        grid = self._grid(4)
        d = grid.size
        truth = rng.normal(size=d) * 2.0
        ens = truth[None, :] + rng.normal(size=(400, d))
        op = IdentityObservation(d, obs_error_var=0.5)
        obs = op.observe(truth, rng=1)
        letkf = LETKF(grid, LETKFConfig(localization=LocalizationConfig(cutoff=1.0e9), rtps_factor=0.0))
        analysis = letkf.analyze(ens, obs, op)
        expected = _kalman_posterior_mean(ens.mean(0), np.cov(ens.T), obs, 0.5)
        assert np.sqrt(((analysis.mean(0) - expected) ** 2).mean()) < 0.12

    def test_improves_on_prior(self):
        rng = np.random.default_rng(2)
        grid = self._grid(8)
        d = grid.size
        truth = rng.normal(size=d) * 3.0
        bias = 1.5 * np.sin(np.linspace(0, 6, d))
        ens = truth[None, :] + bias[None, :] + 2.0 * rng.normal(size=(20, d))
        op = IdentityObservation(d, obs_error_var=0.25)
        obs = op.observe(truth, rng=3)
        letkf = LETKF(grid)
        analysis = letkf.analyze(ens, obs, op)
        prior_err = np.sqrt(((ens.mean(0) - truth) ** 2).mean())
        post_err = np.sqrt(((analysis.mean(0) - truth) ** 2).mean())
        assert post_err < prior_err

    def test_distant_observations_ignored(self):
        """With a tiny cut-off only the local observation affects a column."""
        rng = np.random.default_rng(4)
        grid = self._grid(8)
        d = grid.size
        ens = rng.normal(size=(10, d))
        op = SubsampledObservation(d, indices=np.array([0]), obs_error_var=0.01)
        obs = np.array([5.0])
        letkf = LETKF(
            grid, LETKFConfig(localization=LocalizationConfig(cutoff=grid.dx * 1.2), rtps_factor=0.0)
        )
        analysis = letkf.analyze(ens, obs, op)
        far_column = grid.ny * grid.nx // 2 + grid.nx // 2
        assert np.allclose(analysis[:, far_column], ens[:, far_column])
        assert not np.allclose(analysis[:, 0], ens[:, 0])

    def test_subsampled_observations_supported(self):
        rng = np.random.default_rng(5)
        grid = self._grid(8)
        d = grid.size
        truth = rng.normal(size=d)
        ens = truth[None, :] + rng.normal(size=(15, d))
        op = SubsampledObservation.every_nth(d, 4, obs_error_var=0.1)
        obs = op.observe(truth, rng=6)
        analysis = LETKF(grid).analyze(ens, obs, op)
        assert analysis.shape == ens.shape
        assert np.isfinite(analysis).all()

    def test_rtps_applied(self):
        rng = np.random.default_rng(7)
        grid = self._grid(4)
        d = grid.size
        truth = rng.normal(size=d)
        ens = truth[None, :] + rng.normal(size=(10, d))
        op = IdentityObservation(d, obs_error_var=0.01)
        obs = op.observe(truth, rng=8)
        no_rtps = LETKF(grid, LETKFConfig(rtps_factor=0.0)).analyze(ens, obs, op)
        full_rtps = LETKF(grid, LETKFConfig(rtps_factor=1.0)).analyze(ens, obs, op)
        assert full_rtps.std(0).mean() > no_rtps.std(0).mean()

    def test_validation(self):
        grid = self._grid(4)
        letkf = LETKF(grid)
        op = IdentityObservation(grid.size)
        with pytest.raises(ValueError):
            letkf.analyze(np.zeros((1, grid.size)), np.zeros(grid.size), op)
        with pytest.raises(ValueError):
            letkf.analyze(np.zeros((5, 7)), np.zeros(7), IdentityObservation(7))
        with pytest.raises(ValueError):
            LETKFConfig(rtps_factor=2.0)


class TestCycling:
    def _setup(self, seed=0):
        model = Lorenz96(dim=40)
        truth0 = model.spinup(400, rng=seed)
        op = IdentityObservation(40, obs_error_var=0.5)
        cfg = OSSEConfig(n_cycles=10, steps_per_cycle=4, ensemble_size=20, seed=seed,
                         apply_model_error_to_truth=True)
        return model, truth0, op, cfg

    def test_enkf_beats_free_run(self):
        model, truth0, op, cfg = self._setup()
        # RTPS keeps the unlocalized 20-member EnKF from diverging on the
        # model-error-perturbed truth; without it the comparison only passed
        # for lucky noise streams (it flipped when the sha256 seed-stream
        # derivation replaced the collision-prone byte-sum hash).
        filt = StochasticEnKF(EnKFConfig(prior_inflation=1.05, rtps_factor=0.5), rng=1)
        result = run_osse(model, model, filt, op, truth0, cfg, label="EnKF")
        free = free_run(model, model, truth0, cfg, label="free")
        assert result.mean_analysis_rmse < free.mean_analysis_rmse

    def test_ensf_beats_free_run_on_lorenz96(self):
        model, truth0, op, cfg = self._setup(seed=2)
        filt = EnSF(EnSFConfig(n_sde_steps=50), rng=3)
        result = run_osse(model, model, filt, op, truth0, cfg, label="EnSF")
        free = free_run(model, model, truth0, cfg, label="free")
        assert result.mean_analysis_rmse < free.mean_analysis_rmse

    def test_result_shapes_and_summary(self):
        model, truth0, op, cfg = self._setup(seed=4)
        filt = StochasticEnKF(rng=5)
        result = run_osse(model, model, filt, op, truth0, cfg, store_history=True)
        assert len(result.times) == cfg.n_cycles
        assert result.analysis_mean_history.shape == (cfg.n_cycles, 40)
        summary = result.summary()
        assert set(summary) >= {"label", "cycles", "mean_analysis_rmse", "stage_mean_s"}
        assert summary["stage_mean_s"]["analysis"] > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_cycle_run_reports_its_only_cycle(self):
        """Regression: the 10 % spin-up skip emptied a 1-cycle series, so
        ``mean_analysis_rmse`` (and ``summary()``) was a NaN mean of an
        empty slice."""
        model, truth0, op, cfg = self._setup(seed=8)
        one = OSSEConfig(n_cycles=1, steps_per_cycle=4, ensemble_size=8, seed=8)
        result = run_osse(model, model, EnSF(EnSFConfig(n_sde_steps=5), rng=1), op, truth0, one)
        assert result.mean_analysis_rmse == result.analysis_rmse[0]
        assert np.isfinite(result.summary()["mean_analysis_rmse"])

    def test_no_filter_is_free_ensemble_run(self):
        model, truth0, op, cfg = self._setup(seed=6)
        result = run_osse(model, model, None, op, truth0, cfg, label="no-da")
        assert np.allclose(result.analysis_rmse, result.forecast_rmse)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OSSEConfig(n_cycles=0)
        with pytest.raises(ValueError):
            OSSEConfig(ensemble_size=1)

    def test_initial_ensemble_size_checked(self):
        model, truth0, op, cfg = self._setup(seed=7)
        with pytest.raises(ValueError):
            run_osse(model, model, None, op, truth0, cfg, initial_ensemble=np.zeros((3, 40)))
