"""Unit tests for the forecast-model substrates (spectral ops, SQG, Lorenz-96, model error)."""

import pickle

import numpy as np
import pytest
from reference.lorenz96_roll_head import RollLorenz96

from repro.models.base import propagate_ensemble
from repro.models.lorenz96 import Lorenz96
from repro.models.model_error import ModelErrorComponent, StochasticModelErrorMixture
from repro.models.spectral import SpectralGrid
from repro.models.sqg import SQGModel, SQGParameters, spinup_sqg


@pytest.fixture(scope="module")
def small_sqg():
    return SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))


class TestSpectralGrid:
    def setup_method(self):
        self.grid = SpectralGrid(16, 16, 2.0 * np.pi, 2.0 * np.pi)

    def test_roundtrip_transform(self):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(16, 16))
        back = self.grid.to_physical(self.grid.to_spectral(field))
        assert np.allclose(back, field, atol=1e-12)

    def test_batched_transform_matches_loop(self):
        rng = np.random.default_rng(1)
        fields = rng.normal(size=(3, 2, 16, 16))
        batched = self.grid.to_spectral(fields)
        for i in range(3):
            for l in range(2):
                assert np.allclose(batched[i, l], self.grid.to_spectral(fields[i, l]))

    def test_derivative_of_sine(self):
        x = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        xx, _ = np.meshgrid(x, x)
        field = np.sin(3 * xx)
        dfdx = self.grid.to_physical(self.grid.ddx(self.grid.to_spectral(field)))
        assert np.allclose(dfdx, 3 * np.cos(3 * xx), atol=1e-10)

    def test_laplacian_of_sine(self):
        x = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        xx, yy = np.meshgrid(x, x)
        field = np.sin(2 * xx) * np.cos(yy)
        lap = self.grid.to_physical(self.grid.laplacian(self.grid.to_spectral(field)))
        assert np.allclose(lap, -5.0 * field, atol=1e-10)

    def test_dealias_mask_removes_high_wavenumbers(self):
        mask = self.grid.dealias_mask
        assert mask.min() == 0.0 and mask.max() == 1.0
        # The zero mode is always retained.
        assert mask[0, 0] == 1.0

    def test_jacobian_antisymmetry(self):
        rng = np.random.default_rng(2)
        a = self.grid.to_spectral(rng.normal(size=(16, 16)))
        b = self.grid.to_spectral(rng.normal(size=(16, 16)))
        jab = self.grid.to_physical(self.grid.jacobian(a, b))
        jba = self.grid.to_physical(self.grid.jacobian(b, a))
        assert np.allclose(jab, -jba, atol=1e-8)

    def test_jacobian_of_identical_fields_vanishes(self):
        rng = np.random.default_rng(3)
        a = self.grid.to_spectral(rng.normal(size=(16, 16)))
        jaa = self.grid.to_physical(self.grid.jacobian(a, a))
        assert np.allclose(jaa, 0.0, atol=1e-8)

    def test_hyperdiffusion_filter_bounds(self):
        filt = self.grid.hyperdiffusion_filter(dt=100.0, efolding_time=1000.0, order=8)
        assert np.all(filt <= 1.0) and np.all(filt > 0.0)
        assert filt[0, 0] == pytest.approx(1.0)

    def test_hyperdiffusion_validation(self):
        with pytest.raises(ValueError):
            self.grid.hyperdiffusion_filter(1.0, -1.0)
        with pytest.raises(ValueError):
            self.grid.hyperdiffusion_filter(1.0, 1.0, order=3)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(3, 16, 1.0, 1.0)
        with pytest.raises(ValueError):
            SpectralGrid(15, 16, 1.0, 1.0)


class TestSQGModel:
    def test_state_shapes(self, small_sqg):
        theta = small_sqg.random_initial_condition(rng=0)
        assert theta.shape == (2, 16, 16)
        flat = small_sqg.flatten(theta)
        assert flat.shape == (small_sqg.state_size,)
        assert np.allclose(small_sqg.unflatten(flat), theta)

    def test_initial_condition_zero_mean(self, small_sqg):
        theta = small_sqg.random_initial_condition(rng=1)
        assert abs(theta.mean()) < 1e-10

    def test_inversion_consistency(self, small_sqg):
        """ψ reconstructed from θ must reproduce θ via the vertical derivative relation."""
        theta = small_sqg.random_initial_condition(rng=2)
        spec = small_sqg.spectral.to_spectral(theta)
        psi = small_sqg.invert(spec)
        p = small_sqg.params
        kappa = small_sqg.spectral.kappa
        mu = np.clip(p.brunt_vaisala * kappa * p.depth / p.coriolis, 1e-12, 500.0)
        # Reconstruct θ̂ = ∂ψ̂/∂z at the boundaries from the analytic vertical
        # structure used in the inversion and compare with the input.
        m = mu / p.depth
        sinh, cosh = np.sinh(mu), np.cosh(mu)
        b_coef = psi[0] * 0  # placeholder, bottom boundary handled through linear solve below
        # Solve for A, B in ψ(z) = A cosh(mz) + B sinh(mz) from ψ(0), ψ(H):
        a_coef = psi[..., 0, :, :]
        b_coef = (psi[..., 1, :, :] - a_coef * cosh) / np.where(sinh == 0, 1.0, sinh)
        theta0_rec = m * b_coef / small_sqg.params.buoyancy_factor
        theta1_rec = m * (a_coef * sinh + b_coef * cosh) / small_sqg.params.buoyancy_factor
        nonzero = small_sqg.spectral.kappa > 0
        assert np.allclose(theta0_rec[nonzero], spec[0][nonzero], rtol=1e-6, atol=1e-8)
        assert np.allclose(theta1_rec[nonzero], spec[1][nonzero], rtol=1e-6, atol=1e-8)

    def test_step_preserves_domain_mean(self, small_sqg):
        theta = small_sqg.random_initial_condition(rng=3)
        stepped = small_sqg.step(theta, n_steps=5)
        assert abs(stepped.mean()) < 1e-8

    def test_batched_step_matches_individual(self, small_sqg):
        rng = np.random.default_rng(4)
        states = np.stack([small_sqg.random_initial_condition(rng=i) for i in range(3)])
        batched = small_sqg.step(states, n_steps=3)
        for i in range(3):
            single = small_sqg.step(states[i], n_steps=3)
            assert np.allclose(batched[i], single, atol=1e-10)

    def test_forecast_flat_interface(self, small_sqg):
        theta = small_sqg.random_initial_condition(rng=5)
        flat = small_sqg.flatten(theta)
        out1 = small_sqg.forecast(flat, n_steps=2)
        out2 = small_sqg.flatten(small_sqg.step(theta, n_steps=2))
        assert out1.shape == flat.shape
        assert np.allclose(out1, out2)

    def test_forecast_batched(self, small_sqg):
        rng = np.random.default_rng(6)
        ens = np.stack([small_sqg.flatten(small_sqg.random_initial_condition(rng=i)) for i in range(4)])
        out = small_sqg.forecast(ens, n_steps=1)
        assert out.shape == ens.shape

    def test_chaos_perturbation_growth(self):
        """Two nearby states diverge — the chaotic error growth of Fig. 4."""
        model = SQGModel(SQGParameters(nx=32, ny=32, dt=1200.0))
        base = spinup_sqg(model, n_steps=400, rng=7)
        # Perturb with a smooth (large-scale) field so the difference is not
        # immediately removed by hyperdiffusion.
        pert = base + 1e-3 * model.random_initial_condition(rng=8)
        d0 = np.sqrt(((base - pert) ** 2).mean())
        base2 = model.step(base, n_steps=400)
        pert2 = model.step(pert, n_steps=400)
        d1 = np.sqrt(((base2 - pert2) ** 2).mean())
        assert d1 > 2.0 * d0

    def test_velocities_finite_and_shaped(self, small_sqg):
        theta = small_sqg.random_initial_condition(rng=9)
        u, v = small_sqg.velocities(theta)
        assert u.shape == theta.shape and v.shape == theta.shape
        assert np.isfinite(u).all() and np.isfinite(v).all()

    def test_cfl_reasonable_after_spinup(self, small_sqg):
        theta = spinup_sqg(small_sqg, n_steps=200, rng=10)
        assert 0.0 < small_sqg.cfl_number(theta) < 1.0

    def test_run_with_snapshots(self, small_sqg):
        theta = small_sqg.random_initial_condition(rng=11)
        traj = small_sqg.run(theta, n_steps=6, save_every=2)
        assert traj.shape == (4, 2, 16, 16)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SQGParameters(nx=-1)
        with pytest.raises(ValueError):
            SQGParameters(dt=0.0)
        with pytest.raises(ValueError):
            SQGParameters(relaxation_time=-1.0)

    def test_rossby_radius(self):
        p = SQGParameters()
        assert p.rossby_radius == pytest.approx(1.0e6)


class TestLorenz96:
    def test_equilibrium_is_fixed_point(self):
        model = Lorenz96(dim=12)
        x = model.equilibrium_state()
        assert np.allclose(model.tendency(x), 0.0)

    def test_chaotic_divergence(self):
        model = Lorenz96(dim=40)
        x = model.spinup(500, rng=0)
        y = x + 1e-6
        xs, ys = model.step(x, 300), model.step(y, 300)
        assert np.abs(xs - ys).max() > 1e-3

    def test_batched_matches_loop(self):
        model = Lorenz96(dim=10)
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(4, 10)) + 8.0
        stepped = model.step(batch, n_steps=5)
        for i in range(4):
            assert np.allclose(stepped[i], model.step(batch[i], n_steps=5))

    def test_validation(self):
        with pytest.raises(ValueError):
            Lorenz96(dim=3)
        with pytest.raises(ValueError):
            Lorenz96(dt=-0.1)

    def test_propagate_ensemble_helper(self):
        model = Lorenz96(dim=8)
        ens = np.random.default_rng(2).normal(size=(5, 8)) + 8.0
        out = propagate_ensemble(model, ens, n_steps=2)
        assert out.shape == ens.shape
        with pytest.raises(ValueError):
            propagate_ensemble(model, ens[:, :4], n_steps=1)


class TestLorenz96AgainstRollOracle:
    """The ``take``-index kernel equals the rolled one (tests/reference), bit for bit."""

    @staticmethod
    def _pair(dim):
        return Lorenz96(dim=dim), RollLorenz96(dim=dim)

    @staticmethod
    def _states(dim):
        rng = np.random.default_rng(dim)
        wide = rng.normal(size=(6, 2 * dim)) + 8.0
        return {
            "single": rng.normal(size=dim) + 8.0,
            "ensemble": rng.normal(size=(5, dim)) + 8.0,
            "batched": rng.normal(size=(2, 3, dim)) + 8.0,
            "strided view": wide[:, ::2],
            "transposed view": np.ascontiguousarray(wide[:, :dim].T).T,
        }

    @pytest.mark.parametrize("dim", [4, 5, 12, 40])
    def test_tendency_step_and_forecast(self, dim):
        model, oracle = self._pair(dim)
        for label, x in self._states(dim).items():
            assert np.array_equal(model.tendency(x), oracle.tendency(x)), label
            assert np.array_equal(model.step(x, 7), oracle.step(x, 7)), label
            assert np.array_equal(model.forecast(x, 3), oracle.forecast(x, 3)), label

    @pytest.mark.parametrize("dim", [4, 5, 12, 40])
    def test_spinup(self, dim):
        model, oracle = self._pair(dim)
        assert np.array_equal(model.spinup(300, rng=dim), oracle.spinup(300, rng=dim))

    def test_after_a_pickle_round_trip(self):
        model, oracle = self._pair(12)
        restored = pickle.loads(pickle.dumps(model))
        x = self._states(12)["ensemble"]
        assert np.array_equal(restored.tendency(x), oracle.tendency(x))
        assert np.array_equal(restored.step(x, 5), oracle.step(x, 5))


class TestModelError:
    def test_paper_components(self):
        mix = StochasticModelErrorMixture(rng=0)
        probs = [c.probability for c in mix.components]
        amps = [c.amplitude_fraction for c in mix.components]
        assert probs == [0.20, 0.15, 0.10, 0.05]
        assert amps == [0.20, 0.30, 0.40, 0.50]

    def test_expected_std_formula(self):
        mix = StochasticModelErrorMixture(rng=0)
        expected = np.sqrt(0.2 * 0.2**2 + 0.15 * 0.3**2 + 0.1 * 0.4**2 + 0.05 * 0.5**2)
        assert mix.expected_std(1.0) == pytest.approx(expected)

    def test_long_run_statistics_match_expectation(self):
        mix = StochasticModelErrorMixture(rng=3)
        reference = 10.0
        samples = np.array([mix.sample_error((200,), reference) for _ in range(400)])
        empirical_std = samples.std()
        assert empirical_std == pytest.approx(mix.expected_std(reference), rel=0.15)

    def test_perturb_uses_state_rms_by_default(self):
        mix = StochasticModelErrorMixture(rng=4)
        state = np.full(100, 5.0)
        perturbed = mix.perturb(state)
        assert perturbed.shape == state.shape

    def test_component_validation(self):
        with pytest.raises(ValueError):
            ModelErrorComponent(probability=1.5, amplitude_fraction=0.1)
        with pytest.raises(ValueError):
            ModelErrorComponent(probability=0.5, amplitude_fraction=-0.1)
        with pytest.raises(ValueError):
            StochasticModelErrorMixture(components=())

    def test_zero_probability_mixture_is_inactive(self):
        mix = StochasticModelErrorMixture(
            components=(ModelErrorComponent(0.0, 0.5),), rng=5
        )
        assert np.allclose(mix.sample_error((10,), 1.0), 0.0)
