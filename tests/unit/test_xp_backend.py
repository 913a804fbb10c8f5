"""Unit + equivalence tests for the pluggable array backend (`repro.utils.xp`).

Three layers of guarantees:

* **Shim mechanics** — selection semantics:
  numpy and mock-device always available, ``REPRO_ARRAY_BACKEND`` outranks
  ``set_default_backend``, unknown or retired names (``cupy``) raise
  listing the choices, backends pickle by name.
* **Bit-identity** — every routed kernel (batched + sharded LETKF, fused
  Monte-Carlo score, buffered reverse-SDE integrator, fused EnSF analysis,
  fused SQG step, whole LETKF OSSEs) produces **exactly** the same floats
  under every CPU backend as under plain numpy, with identical rng draws —
  the shim is a hardware dispatch layer, not a numerics knob.
* **Transfer discipline** — the mock-device counters prove the LETKF
  solve moves its statistics host↔device once per analysis (plus each
  cached geometry group once per backend), never per column or per solve
  batch: counts are invariant under grid size and under ``shard_columns``.
"""

import pickle

import numpy as np
import pytest

from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import IdentityObservation, SubsampledObservation
from repro.core.score import MonteCarloScoreEstimator
from repro.core.sde import ReverseSDESampler
from repro.da.cycling import OSSEConfig, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.models.lorenz96 import Lorenz96
from repro.models.sqg import SQGModel, SQGParameters
from repro.utils.grid import Grid2D
from repro.utils.random import default_rng
from repro.utils.xp import (
    MockDeviceBackend,
    available_backends,
    default_backend_name,
    resolve_backend,
    set_default_backend,
)


@pytest.fixture(autouse=True)
def _restore_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_ARRAY_BACKEND", raising=False)
    yield
    set_default_backend(None)


def _case(seed=0, shape=(12, 12), members=10, scale=1.0):
    grid = Grid2D(*shape)
    rng = np.random.default_rng(seed)
    ensemble = rng.standard_normal((members, grid.size)) * scale
    truth = rng.standard_normal(grid.size) * scale
    return grid, rng, ensemble, truth


class TestSelection:
    def test_cpu_backends_always_available(self):
        names = available_backends()
        assert "numpy" in names and "mock-device" in names
        assert resolve_backend("numpy").name == "numpy"
        assert isinstance(resolve_backend("mock-device"), MockDeviceBackend)

    def test_numpy_backend_is_numpy(self):
        xp = resolve_backend("numpy")
        assert xp.einsum is np.einsum
        assert xp.eigh is np.linalg.eigh
        assert xp.matmul is np.matmul
        a = np.arange(3.0)
        assert xp.to_device(a) is a
        assert xp.to_host(a) is a

    def test_default_is_numpy(self):
        assert default_backend_name() == "numpy"
        assert resolve_backend(None).name == "numpy"

    @pytest.mark.parametrize("name", ["torch", "cupy"])
    def test_unknown_backend_raises_with_available_list(self, name):
        with pytest.raises(ValueError, match=r"unknown array backend.*available"):
            resolve_backend(name)
        with pytest.raises(ValueError, match=r"unknown array backend.*available"):
            set_default_backend(name)

    def test_env_var_beats_set_default_backend(self, monkeypatch):
        set_default_backend("mock-device")
        assert default_backend_name() == "mock-device"
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "numpy")
        assert default_backend_name() == "numpy"
        assert resolve_backend(None).name == "numpy"
        monkeypatch.delenv("REPRO_ARRAY_BACKEND")
        assert default_backend_name() == "mock-device"  # override still in force

    def test_explicit_auto_follows_env_precedence(self, monkeypatch):
        """resolve_backend("auto") must honour the same env-beats-override
        precedence as resolve_backend(None) (regression: it used to skip
        the env var and silently fall back to numpy)."""
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "mock-device")
        assert resolve_backend("auto").name == "mock-device"
        monkeypatch.delenv("REPRO_ARRAY_BACKEND")
        set_default_backend("mock-device")
        assert resolve_backend("auto").name == "mock-device"
        set_default_backend(None)
        assert resolve_backend("auto").name == "numpy"

    @pytest.mark.parametrize("name", ["fpga", "cupy"])
    def test_env_var_unknown_name_raises(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", name)
        with pytest.raises(ValueError, match="unknown array backend") as excinfo:
            resolve_backend(None)
        assert all(repr(choice) in str(excinfo.value) for choice in available_backends())

    def test_backend_object_passthrough(self):
        xp = resolve_backend("numpy")
        assert resolve_backend(xp) is xp


class TestPickling:
    def test_backends_pickle_by_name(self):
        for name in available_backends():
            backend = resolve_backend(name)
            clone = pickle.loads(pickle.dumps(backend))
            assert clone.name == name
            # same-process unpickle returns the cached instance, so e.g.
            # mock-device transfer counters aggregate across shard workers
            assert clone is backend

    def test_configs_holding_backend_names_pickle(self):
        cfg = LETKFConfig(backend="mock-device")
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone.backend == "mock-device"


class TestMockDeviceCounters:
    def test_counters_track_calls_and_bytes(self):
        xp = resolve_backend("mock-device")
        xp.reset_transfers()
        a = np.zeros(10)
        assert xp.to_device(a) is a  # arithmetic stays numpy
        xp.to_host(a)
        counts = xp.transfer_counts()
        assert counts["h2d_calls"] == 1 and counts["d2h_calls"] == 1
        assert counts["h2d_bytes"] == a.nbytes == counts["d2h_bytes"]
        xp.reset_transfers()
        assert sum(xp.transfer_counts().values()) == 0


class TestRoutedKernelBitIdentity:
    """Every routed kernel under ``array_backend`` must equal the plain
    numpy-backend result bit for bit, with identical rng draws."""

    def test_score_estimator(self, array_backend):
        rng = np.random.default_rng(1)
        ensemble = rng.standard_normal((14, 48)) * 2.0
        z = rng.standard_normal((6, 48))
        base = MonteCarloScoreEstimator(ensemble, backend="numpy")
        routed = MonteCarloScoreEstimator(ensemble, backend=array_backend)
        for t in (0.9, 0.4, 0.05):
            np.testing.assert_array_equal(routed.score(z, t), base.score(z, t))
            np.testing.assert_array_equal(
                routed.log_weights(z, t), base.log_weights(z, t)
            )

    def test_sde_sampler_and_rng_draws(self, array_backend):
        score = lambda z, t: -z
        base = ReverseSDESampler(n_steps=20, backend="numpy")
        routed = ReverseSDESampler(n_steps=20, backend=array_backend)
        rng_a, rng_b = default_rng(3), default_rng(3)
        a = base.sample(score, 5, 7, rng=rng_a)
        b = routed.sample(score, 5, 7, rng=rng_b)
        np.testing.assert_array_equal(a, b)
        # identical rng draws: the generators end in the same state
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_ensf_analysis(self, array_backend):
        grid, rng, ensemble, truth = _case(seed=2, members=12, scale=2.0)
        operator = IdentityObservation(grid.size, 1.0)
        observation = operator.observe(truth, rng=rng)
        base = EnSF(EnSFConfig(n_sde_steps=8, backend="numpy"), rng=5)
        routed = EnSF(EnSFConfig(n_sde_steps=8, backend=array_backend.name), rng=5)
        np.testing.assert_array_equal(
            routed.analyze(ensemble, observation, operator),
            base.analyze(ensemble, observation, operator),
        )
        assert routed.rng.bit_generator.state == base.rng.bit_generator.state

    def test_ensf_subsampled_operator(self, array_backend):
        grid, rng, ensemble, truth = _case(seed=3, members=10, scale=2.0)
        operator = SubsampledObservation.every_nth(grid.size, 3, 0.8)
        observation = operator.observe(truth, rng=rng)
        base = EnSF(EnSFConfig(n_sde_steps=6, backend="numpy"), rng=1)
        routed = EnSF(EnSFConfig(n_sde_steps=6, backend=array_backend.name), rng=1)
        np.testing.assert_array_equal(
            routed.analyze(ensemble, observation, operator),
            base.analyze(ensemble, observation, operator),
        )

    @pytest.mark.parametrize("variance", ["uniform", "non-uniform"])
    def test_letkf_serial_and_sharded(self, variance, array_backend):
        grid, rng, ensemble, truth = _case(seed=4)
        if variance == "uniform":
            operator = IdentityObservation(grid.size, 1.2)
        else:
            operator = IdentityObservation(grid.size, 0.5 + rng.random(grid.size))
        observation = operator.observe(truth, rng=rng)
        base = LETKF(grid, LETKFConfig(cutoff=4.0e6, backend="numpy"))
        routed = LETKF(
            grid, LETKFConfig(cutoff=4.0e6, backend=array_backend.name, shard_columns=50)
        )
        np.testing.assert_array_equal(
            routed.analyze(ensemble, observation, operator),
            base.analyze(ensemble, observation, operator),
        )

    def test_sqg_step_exact_zero_coefficient_delta(self, array_backend):
        params = SQGParameters(nx=16, ny=16, dt=1800.0)
        base = SQGModel(params, array_backend="numpy")
        routed = SQGModel(params, array_backend=array_backend)
        theta = np.stack(
            [base.random_initial_condition(rng=i, amplitude=3.0) for i in range(3)]
        )
        spec = base.spectral.to_spectral(theta)
        a = base.step_spectral(spec)
        b = routed.step_spectral(spec)
        np.testing.assert_array_equal(a, b)  # exact-zero coefficient deltas
        np.testing.assert_array_equal(base.step_spectral(a), routed.step_spectral(b))

    def test_osse_analysis_rmse_exact_zero_delta(self, array_backend):
        """Whole LETKF OSSE cycling: analysis-RMSE deltas are exactly zero."""
        grid = Grid2D(8, 8)
        model = Lorenz96(dim=grid.size)
        truth0 = np.random.default_rng(6).standard_normal(grid.size)
        operator = IdentityObservation(grid.size, 1.0)
        config = OSSEConfig(n_cycles=3, steps_per_cycle=1, ensemble_size=6, seed=0)
        results = {}
        for name in ("numpy", array_backend.name):
            letkf = LETKF(grid, LETKFConfig(cutoff=4.0e6, backend=name))
            results[name] = run_osse(model, model, letkf, operator, truth0, config)
        np.testing.assert_array_equal(
            results[array_backend.name].analysis_rmse, results["numpy"].analysis_rmse
        )
        np.testing.assert_array_equal(
            results[array_backend.name].analysis_mean_final,
            results["numpy"].analysis_mean_final,
        )


class TestShardedTransferDiscipline:
    """Mock-device proof that the LETKF solve never round-trips per solve
    batch or per column: each analysis stages its statistics once."""

    def _sharded_counts(self, shape, shard_columns, operator_var):
        grid, rng, ensemble, truth = _case(seed=7, shape=shape)
        operator = IdentityObservation(
            grid.size,
            operator_var if np.isscalar(operator_var) else operator_var(grid.size, rng),
        )
        observation = operator.observe(truth, rng=rng)
        letkf = LETKF(
            grid, LETKFConfig(cutoff=4.0e6, backend="mock-device", shard_columns=shard_columns)
        )
        xp = resolve_backend("mock-device")
        # Prime the geometry (and its per-backend device cache) so the
        # measurement below sees only steady-state per-cycle traffic.
        letkf.analyze(ensemble, observation, operator)
        xp.reset_transfers()
        letkf.analyze(ensemble, observation, operator)
        counts = xp.transfer_counts()
        # solve batches over the analysis grid (stride 2 at 16x16 with this cut-off)
        n_batches = -(-letkf.geometry(operator).n_columns // shard_columns)
        return counts, n_batches

    def test_convolution_counts_independent_of_column_count(self):
        # Same batch count, 4x the columns: identical transfer counts.
        counts_small, batches_small = self._sharded_counts((8, 8), 16, 1.2)
        counts_large, batches_large = self._sharded_counts((16, 16), 16, 1.2)
        assert batches_small == batches_large == 4
        assert counts_small["h2d_calls"] == counts_large["h2d_calls"]
        assert counts_small["d2h_calls"] == counts_large["d2h_calls"]
        # and the batches add none: y_pert, innovation, local_pert and
        # local_mean in, the analysis out, however many batches there are
        assert counts_small["h2d_calls"] == 4
        assert counts_small["d2h_calls"] == 1

    def test_non_uniform_counts_independent_of_shard_columns(self):
        var = lambda n, rng: 0.5 + rng.random(n)
        counts_fine, batches_fine = self._sharded_counts((12, 12), 2, var)
        counts_coarse, batches_coarse = self._sharded_counts((12, 12), 1000, var)
        assert batches_fine > 1 == batches_coarse
        # shard_columns only re-chunks the solve loop; if any transfer
        # happened per batch (or per column) these counts would differ
        assert counts_fine == counts_coarse
        assert counts_fine["h2d_calls"] == 4 and counts_fine["d2h_calls"] == 1

    def test_serial_non_uniform_steady_state_transfers_constant(self):
        """In-process non-uniform network: per-cycle traffic is the weighted
        statistics + the result, independent of the batch bound (the kernel
        spectrum's device copy is cached on the geometry)."""
        grid, rng, ensemble, truth = _case(seed=8)
        operator = IdentityObservation(grid.size, 0.5 + rng.random(grid.size))
        observation = operator.observe(truth, rng=rng)
        xp = resolve_backend("mock-device")
        for shard_columns in (1024, 50):
            letkf = LETKF(
                grid,
                LETKFConfig(cutoff=4.0e6, backend="mock-device", shard_columns=shard_columns),
            )
            letkf.analyze(ensemble, observation, operator)  # builds + stages geometry
            xp.reset_transfers()
            letkf.analyze(ensemble, observation, operator)
            counts = xp.transfer_counts()
            # weighted y_pert and innovation, local_pert, local_mean in; analysis out
            assert counts["h2d_calls"] == 4
            assert counts["d2h_calls"] == 1
