"""Unit tests for the EnSF core: schedules, score estimator, SDE sampler, observations, filter."""

import numpy as np
import pytest

from repro.core.ensf import EnSF, EnSFConfig
from repro.core.filters import ensemble_statistics, relax_spread
from repro.core.likelihood import ConstantDamping, CosineDamping, GaussianLikelihoodScore, LinearDamping
from repro.core.observations import (
    IdentityObservation,
    LinearObservation,
    NonlinearObservation,
    SubsampledObservation,
)
from repro.core.schedules import LinearAlphaSchedule
from repro.core.score import MonteCarloScoreEstimator, gaussian_reference_score
from repro.core.sde import ReverseSDESampler


class TestSchedule:
    def test_endpoints(self):
        s = LinearAlphaSchedule(eps_alpha=0.05)
        assert s.alpha(0.0) == pytest.approx(1.0)
        assert s.alpha(1.0) == pytest.approx(0.05)
        assert s.beta_sq(1.0) == pytest.approx(1.0)

    def test_diffusion_relation(self):
        """σ²(t) must equal dβ²/dt − 2 b(t) β² (Eq. 9)."""
        s = LinearAlphaSchedule()
        for t in [0.1, 0.3, 0.7, 0.95]:
            expected = s.dbeta_sq_dt(t) - 2.0 * s.drift_coeff(t) * s.beta_sq(t)
            assert s.diffusion_sq(t) == pytest.approx(expected)

    def test_drift_is_dlog_alpha_dt(self):
        s = LinearAlphaSchedule(eps_alpha=0.0)
        t = 0.4
        eps = 1e-6
        fd = (np.log(s.alpha(t + eps)) - np.log(s.alpha(t - eps))) / (2 * eps)
        assert s.drift_coeff(t) == pytest.approx(fd, rel=1e-5)

    def test_time_grid_decreasing(self):
        grid = LinearAlphaSchedule().time_grid(10)
        assert grid[0] == 1.0 and grid[-1] == 0.0
        assert np.all(np.diff(grid) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearAlphaSchedule(eps_alpha=1.5)
        with pytest.raises(ValueError):
            LinearAlphaSchedule().time_grid(0)
        with pytest.raises(ValueError):
            LinearAlphaSchedule().time_grid(5, t_end=0.2, t_start=0.5)


class TestScoreEstimator:
    def test_weights_normalised(self):
        rng = np.random.default_rng(0)
        est = MonteCarloScoreEstimator(rng.normal(size=(15, 6)), rng=1)
        w = est.weights(rng.normal(size=(4, 6)), t=0.5)
        assert w.shape == (4, 15)
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.all(w >= 0)

    def test_matches_gaussian_score_large_ensemble(self):
        """With many samples from N(μ, σ²I) the MC score approaches the analytic score."""
        rng = np.random.default_rng(2)
        mu, sigma = 1.5, 0.7
        ensemble = mu + sigma * rng.normal(size=(4000, 3))
        est = MonteCarloScoreEstimator(ensemble, rng=3)
        s = LinearAlphaSchedule()
        t = 0.5
        alpha, beta_sq = float(s.alpha(t)), float(s.beta_sq(t))
        z = np.array([[0.5, 1.0, -0.2]])
        # Z_t ~ N(alpha*mu, alpha²σ² + β²) for the forward diffusion of a Gaussian.
        var_t = alpha**2 * sigma**2 + beta_sq
        expected = gaussian_reference_score(z, alpha * mu, var_t)
        got = est.score(z, t)
        assert np.allclose(got, expected, atol=0.15)

    def test_single_point_shape(self):
        est = MonteCarloScoreEstimator(np.random.default_rng(4).normal(size=(10, 5)))
        out = est.score(np.zeros(5), t=0.3)
        assert out.shape == (5,)

    def test_minibatch_bounds(self):
        ens = np.zeros((10, 2))
        with pytest.raises(ValueError):
            MonteCarloScoreEstimator(ens, minibatch=11)
        with pytest.raises(ValueError):
            MonteCarloScoreEstimator(ens, minibatch=0)
        est = MonteCarloScoreEstimator(np.random.default_rng(0).normal(size=(10, 2)), minibatch=4, rng=0)
        assert est.score(np.zeros((3, 2)), 0.5).shape == (3, 2)

    def test_dimension_mismatch(self):
        est = MonteCarloScoreEstimator(np.zeros((5, 4)))
        with pytest.raises(ValueError):
            est.score(np.zeros((2, 3)), 0.5)


class TestReverseSDE:
    def test_samples_gaussian_target(self):
        """With the analytic score of N(m, v) the sampler recovers mean and variance."""
        m, v = 2.0, 0.5
        schedule = LinearAlphaSchedule(eps_alpha=0.05)

        def score(z, t):
            alpha = float(schedule.alpha(t))
            var_t = alpha**2 * v + float(schedule.beta_sq(t))
            return -(z - alpha * m) / var_t

        sampler = ReverseSDESampler(schedule, n_steps=200)
        samples = sampler.sample(score, n_samples=4000, dim=1, rng=0)
        assert samples.mean() == pytest.approx(m, abs=0.1)
        assert samples.var() == pytest.approx(v, rel=0.25)

    def test_deterministic_mode_reproducible(self):
        schedule = LinearAlphaSchedule()
        score = lambda z, t: -z
        sampler = ReverseSDESampler(schedule, n_steps=20, stochastic=False)
        init = np.random.default_rng(1).normal(size=(5, 3))
        a = sampler.sample(score, 5, 3, rng=2, initial=init)
        b = sampler.sample(score, 5, 3, rng=3, initial=init)
        assert np.allclose(a, b)

    def test_trajectory_shape(self):
        sampler = ReverseSDESampler(n_steps=7)
        traj = sampler.sample(lambda z, t: -z, 4, 2, rng=0, return_trajectory=True)
        assert traj.shape == (8, 4, 2)

    def test_magnitude_guard(self):
        sampler = ReverseSDESampler(n_steps=10, max_state_magnitude=5.0)
        out = sampler.sample(lambda z, t: 1e6 * np.ones_like(z), 3, 2, rng=0)
        assert np.all(np.abs(out) <= 5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReverseSDESampler(n_steps=0)
        sampler = ReverseSDESampler(n_steps=5)
        with pytest.raises(ValueError):
            sampler.sample(lambda z, t: -z, 3, 2, initial=np.zeros((2, 2)))


class TestObservations:
    def _adjoint_check(self, op, rng, state=None):
        x = rng.normal(size=op.state_dim)
        y = rng.normal(size=op.obs_dim)
        lin_state = state if state is not None else x
        # <H x, y> == <x, Hᵀ y> for linear operators (exact); for nonlinear
        # operators the adjoint is checked at the linearisation point below.
        hx = op.apply(lin_state + x) - op.apply(lin_state) if isinstance(op, NonlinearObservation) else op.apply(x)
        if not isinstance(op, NonlinearObservation):
            assert np.dot(hx, y) == pytest.approx(np.dot(x, op.adjoint(y)), rel=1e-10)

    def test_identity(self):
        rng = np.random.default_rng(0)
        op = IdentityObservation(6, obs_error_var=0.5)
        self._adjoint_check(op, rng)
        x = rng.normal(size=6)
        assert np.allclose(op.apply(x), x)
        assert op.obs_error_var.shape == (6,)

    def test_linear(self):
        rng = np.random.default_rng(1)
        H = rng.normal(size=(3, 5))
        op = LinearObservation(H, obs_error_var=2.0)
        self._adjoint_check(op, rng)
        x = rng.normal(size=5)
        assert np.allclose(op.apply(x), H @ x)

    def test_subsampled(self):
        rng = np.random.default_rng(2)
        op = SubsampledObservation.every_nth(10, 3)
        assert np.array_equal(op.indices, np.array([0, 3, 6, 9]))
        self._adjoint_check(op, rng)
        with pytest.raises(ValueError):
            SubsampledObservation(5, np.array([7]))

    def test_nonlinear_likelihood_score_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        op = NonlinearObservation(4, kind="arctan", obs_error_var=0.3)
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        grad = op.log_likelihood_score(x, y)
        eps = 1e-6
        fd = np.zeros(4)
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            fd[i] = (op.log_likelihood(xp, y) - op.log_likelihood(xm, y)) / (2 * eps)
        assert np.allclose(grad, fd, atol=1e-5)

    def test_identity_likelihood_score_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        op = IdentityObservation(5, obs_error_var=1.7)
        x, y = rng.normal(size=5), rng.normal(size=5)
        grad = op.log_likelihood_score(x, y)
        assert np.allclose(grad, (y - x) / 1.7)

    def test_observe_noise_statistics(self):
        op = IdentityObservation(2000, obs_error_var=0.25)
        y = op.observe(np.zeros(2000), rng=0)
        assert y.std() == pytest.approx(0.5, rel=0.1)

    def test_batched_apply(self):
        op = IdentityObservation(4)
        states = np.random.default_rng(5).normal(size=(7, 4))
        assert op.apply(states).shape == (7, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            IdentityObservation(3, obs_error_var=-1.0)
        with pytest.raises(ValueError):
            NonlinearObservation(3, kind="exp")


class TestLikelihoodDamping:
    def test_linear_damping_endpoints(self):
        h = LinearDamping(horizon=1.0)
        assert h(0.0) == pytest.approx(1.0)
        assert h(1.0) == pytest.approx(0.0)

    def test_cosine_damping_endpoints(self):
        h = CosineDamping()
        assert h(0.0) == pytest.approx(1.0)
        assert h(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_damping(self):
        assert ConstantDamping(0.7)(0.3) == 0.7

    def test_damped_score(self):
        op = IdentityObservation(3, obs_error_var=1.0)
        y = np.array([1.0, 2.0, 3.0])
        lik = GaussianLikelihoodScore(op, y)
        z = np.zeros((2, 3))
        assert np.allclose(lik.damped_score(z, 1.0), 0.0)
        assert np.allclose(lik.damped_score(z, 0.0), np.broadcast_to(y, (2, 3)))

    def test_observation_shape_checked(self):
        op = IdentityObservation(3)
        with pytest.raises(ValueError):
            GaussianLikelihoodScore(op, np.zeros(4))


class TestEnsembleHelpers:
    def test_statistics(self):
        ens = np.array([[0.0, 2.0], [2.0, 4.0]])
        stats = ensemble_statistics(ens)
        assert np.allclose(stats.mean, [1.0, 3.0])
        assert np.allclose(stats.spread, np.sqrt(2.0))

    def test_relax_spread_full_restores_prior_spread(self):
        rng = np.random.default_rng(0)
        forecast = rng.normal(size=(30, 10)) * 3.0
        analysis = forecast.mean(axis=0) + 0.1 * rng.normal(size=(30, 10))
        relaxed = relax_spread(analysis, forecast, factor=1.0)
        assert np.allclose(relaxed.std(axis=0, ddof=1), forecast.std(axis=0, ddof=1), rtol=1e-6)
        assert np.allclose(relaxed.mean(axis=0), analysis.mean(axis=0))

    def test_relax_spread_zero_is_identity(self):
        rng = np.random.default_rng(1)
        a, f = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        assert np.array_equal(relax_spread(a, f, factor=0.0), a)

    def test_relax_spread_validation(self):
        with pytest.raises(ValueError):
            relax_spread(np.zeros((3, 2)), np.zeros((3, 2)), factor=1.5)
        with pytest.raises(ValueError):
            relax_spread(np.zeros((3, 2)), np.zeros((4, 2)))


class TestEnSF:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnSFConfig(n_sde_steps=0)
        with pytest.raises(ValueError):
            EnSFConfig(spread_relaxation=1.2)
        with pytest.raises(ValueError):
            EnSFConfig(t_start=1.0)
        assert EnSFConfig(n_sde_steps=50).scaled_obs_var_floor == pytest.approx(0.04)

    def test_analysis_moves_toward_observation(self):
        """With accurate observations the analysis mean must beat the forecast mean."""
        rng = np.random.default_rng(0)
        d = 256
        truth = np.sin(np.linspace(0, 12, d)) * 5.0
        # Biased prior: the forecast mean is systematically wrong by ~2 units,
        # as after several cycles of an imperfect forecast model.
        bias = 2.0 * np.cos(np.linspace(0, 5, d))
        ensemble = truth[None, :] + bias[None, :] + 3.0 * rng.standard_normal((20, d))
        op = IdentityObservation(d, obs_error_var=0.25)
        obs = op.observe(truth, rng=1)
        filt = EnSF(EnSFConfig(n_sde_steps=60), rng=2)
        analysis = filt.analyze(ensemble, obs, op)
        prior_err = np.sqrt(((ensemble.mean(0) - truth) ** 2).mean())
        post_err = np.sqrt(((analysis.mean(0) - truth) ** 2).mean())
        assert analysis.shape == ensemble.shape
        assert post_err < prior_err

    def test_close_to_optimal_on_linear_gaussian(self):
        """Analysis error should approach the optimal Kalman error, not just improve."""
        rng = np.random.default_rng(3)
        d = 512
        truth = 4.0 * np.cos(np.linspace(0, 8, d))
        spread = 4.0
        ensemble = truth[None, :] + spread * rng.standard_normal((20, d))
        op = IdentityObservation(d, obs_error_var=1.0)
        obs = op.observe(truth, rng=4)
        filt = EnSF(EnSFConfig(n_sde_steps=100), rng=5)
        analysis = filt.analyze(ensemble, obs, op)
        post_err = np.sqrt(((analysis.mean(0) - truth) ** 2).mean())
        # Optimal posterior std is sqrt(1/(1/R + 1/spread²)) ≈ 0.97; allow slack.
        assert post_err < 2.0

    def test_spread_relaxation_restores_forecast_spread(self):
        rng = np.random.default_rng(6)
        d = 64
        ensemble = rng.standard_normal((10, d)) * 2.0
        op = IdentityObservation(d, obs_error_var=1.0)
        obs = op.observe(np.zeros(d), rng=7)
        filt = EnSF(EnSFConfig(n_sde_steps=40, spread_relaxation=1.0), rng=8)
        analysis = filt.analyze(ensemble, obs, op)
        assert np.allclose(
            analysis.std(axis=0, ddof=1), ensemble.std(axis=0, ddof=1), rtol=1e-6
        )

    def test_rejects_bad_ensemble_shape(self):
        filt = EnSF()
        op = IdentityObservation(4)
        with pytest.raises(ValueError):
            filt.analyze(np.zeros(4), np.zeros(4), op)

    def test_nonlinear_observation_supported(self):
        rng = np.random.default_rng(12)
        d = 64
        truth = rng.normal(size=d)
        ensemble = truth[None, :] + rng.standard_normal((15, d))
        op = NonlinearObservation(d, kind="arctan", obs_error_var=0.05)
        obs = op.observe(truth, rng=13)
        filt = EnSF(EnSFConfig(n_sde_steps=50), rng=14)
        analysis = filt.analyze(ensemble, obs, op)
        assert np.isfinite(analysis).all()
