"""Oracle, determinism, invariance and backend-regression tests for the
member-chunked pseudo-spectral forecast kernel.

The pre-fusion oracle (``step_spectral_reference``) is long deleted from the
source tree; what certifies the kernel now is (a) ``array_equal`` against
the previous release's step kept verbatim as a test-only oracle
(``tests/reference/sqg_step_head.py``), (b) agreement *between* independent
instantiations and backends: workspace reuse must not perturb a single bit
across repeated steps, pickled clones must reproduce their parent's
trajectory exactly, and the FFT backends (numpy/scipy pocketfft) must
produce identical trajectories, and (c) the workspace cache's resource
hygiene.  Cross-array-backend bit-identity lives in
``tests/unit/test_xp_backend.py``.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest
from reference.sqg_step_head import HeadStepper

import repro.models.sqg as sqg_mod
from repro.da.cycling import OSSEConfig, free_run
from repro.models.sqg import SQGModel, SQGParameters
from repro.utils.fft import available_backends


def _states(model: SQGModel, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    p = model.params
    if n == 0:
        return model.random_initial_condition(rng=rng, amplitude=3.0)
    return np.stack(
        [model.random_initial_condition(rng=rng, amplitude=3.0) for _ in range(n)]
    )


BRANCHES = {"default": {}, "dealias_off": {"dealias": False}, "ekman": {"ekman_drag": 1.0e-6}}


class TestAgainstHeadOracle:
    """The chunked kernel is the previous step, bit for bit (signed zeros
    aside: ``array_equal``), on every grid, leading shape, branch, trajectory
    length and array backend — and crosses to the host nowhere."""

    @pytest.mark.parametrize("branch", list(BRANCHES))
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_advance_equals_head_step(self, n, branch, array_backend):
        model = SQGModel(SQGParameters(nx=n, ny=n, dt=1200.0, **BRANCHES[branch]))
        oracle = HeadStepper(model)
        assert model.xp is array_backend
        # 64² runs the whole lead set on the default branch only (run time)
        leads = (0, 21) if n == 64 and branch != "default" else (0, 1, 7, 20, 21)
        for members in leads:
            spec = model.spectral.to_spectral(_states(model, members, seed=members))
            before = spec.copy()
            if hasattr(array_backend, "reset_transfers"):
                array_backend.reset_transfers()
            one = model.step_spectral_device(spec)
            four = model._advance(spec, 4)
            if hasattr(array_backend, "transfer_counts"):
                assert not any(array_backend.transfer_counts().values())
            np.testing.assert_array_equal(spec, before)  # input not mutated
            assert one.shape == four.shape == spec.shape
            expected = oracle.step_spectral_device(spec)
            np.testing.assert_array_equal(one, expected)
            np.testing.assert_array_equal(four, oracle.advance(expected, 3))
        chunk = model._chunk(21)  # the last call ran full chunks plus, if ragged, a tail
        assert {chunk, 21 % chunk or chunk} <= set(model._workspaces)

    def test_zero_steps_and_negative_steps(self):
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
        spec = model.spectral.to_spectral(_states(model, 2, seed=3))
        assert model._advance(spec, 0) is spec
        with pytest.raises(ValueError, match="non-negative"):
            model.step(_states(model, 2), n_steps=-1)
        with pytest.raises(ValueError, match="non-negative"):
            model.forecast_device(np.zeros((2, model.state_size)), n_steps=-1)

    def test_complex_division_by_a_real_is_a_real_view_multiply(self):
        """numpy-version guard: the kernel replaces ``θ̂ / τ`` by the float64
        view times ``1/τ``, which is what numpy's complex-division loop
        (Smith's algorithm with a zero imaginary divisor) computes today.
        If a future numpy divides differently this fails loudly here
        instead of the forecast drifting in its last bits."""
        rng = np.random.default_rng(0)
        z = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)) * np.exp(
            rng.uniform(-40.0, 40.0, 4096)
        )
        for tau in (SQGParameters().relaxation_time, 3.0, 7.0e-5, 1.1e9):
            via_view = np.empty_like(z)
            np.multiply(z.view(float), 1.0 / tau, out=via_view.view(float))
            np.testing.assert_array_equal(z / tau, via_view)
            np.testing.assert_array_equal(np.divide(z, tau, out=np.empty_like(z)), via_view)


class TestWorkspaceHygiene:
    """The chunk-keyed workspace cache: bounded, least-recently-used, silent
    once warm, and never part of a reference cycle with its model."""

    @staticmethod
    def _forecast(model, members):
        model.step(_states(model, members, seed=members), n_steps=1)

    @staticmethod
    def _cache_bytes(model):
        return sum(ws.nbytes for ws in model._workspaces.values())

    @pytest.mark.parametrize("n", [16, 64])
    def test_cache_stays_within_twice_the_budget(self, n):
        model = SQGModel(SQGParameters(nx=n, ny=n))
        for members in (0, 3, 10, 11, 20, 21):
            self._forecast(model, members)
            assert self._cache_bytes(model) <= 2 * sqg_mod._WORKSPACE_BYTES
            assert max(model._workspaces) <= model._chunk(21)  # chunk-, not ensemble-sized

    def test_nbytes_is_what_the_buffers_hold(self):
        model = SQGModel(SQGParameters(nx=16, ny=16, ekman_drag=1.0e-6))
        ws = model._workspace(3)
        spectra = (ws.cur, ws.k_a, ws.k_b, ws.stage, ws.acc)
        held = sum(s.real.nbytes for s in spectra)
        held += ws.thf.nbytes + ws.t2.nbytes + ws.psi.nbytes + ws.quad.nbytes
        assert ws.nbytes == held < 3 * model._member_bytes  # the rest is FFT outputs
        for s in spectra:  # the split blocks are views of one buffer per state
            assert np.shares_memory(s.ret, s.real) and np.shares_memory(s.dead, s.real)
            assert s.ret.size + s.dead.size == s.real.size // 2
        assert np.shares_memory(ws.drag, ws.quad) and ws.drag.shape == ws.cur.real.shape

    def test_least_recently_used_goes_first(self, monkeypatch):
        model = SQGModel(SQGParameters(nx=16, ny=16))
        # chunks of up to eight members; the cache may hold 29 members' worth
        monkeypatch.setattr(sqg_mod, "_WORKSPACE_BYTES", 8 * model._member_bytes)
        per_member = model._workspace(1).nbytes
        model._workspaces.clear()
        assert 29 * per_member <= 2 * sqg_mod._WORKSPACE_BYTES < 30 * per_member
        for members in (8, 7, 6, 5):
            self._forecast(model, members)
        assert list(model._workspaces) == [8, 7, 6, 5]   # 26 members' worth
        self._forecast(model, 4)                         # 30: the oldest goes
        assert list(model._workspaces) == [7, 6, 5, 4]
        self._forecast(model, 7)                         # touch 7
        assert list(model._workspaces) == [6, 5, 4, 7]
        self._forecast(model, 8)                         # 30 again: 6 is now the oldest
        assert list(model._workspaces) == [5, 4, 7, 8]
        self._forecast(model, 13)                        # chunk 8 + tail 5, nothing to shed
        assert list(model._workspaces) == [4, 7, 8, 5]
        assert self._cache_bytes(model) <= 2 * sqg_mod._WORKSPACE_BYTES

    def test_alternating_truth_and_ensemble_allocates_nothing(self):
        model = SQGModel(SQGParameters(nx=64, ny=64))
        self._forecast(model, 0)
        self._forecast(model, 20)
        warm = {size: id(ws) for size, ws in model._workspaces.items()}
        for _ in range(3):
            self._forecast(model, 0)
            self._forecast(model, 20)
            assert {size: id(ws) for size, ws in model._workspaces.items()} == warm

    def test_no_model_workspace_reference_cycle(self):
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
        ens = np.stack([model.flatten(_states(model, 0, seed=i)) for i in range(3)])
        gc.collect()
        gc.disable()
        try:
            clone = pickle.loads(pickle.dumps(model))
            clone.forecast(ens, n_steps=1)
            assert clone._workspaces
            ref = weakref.ref(clone)
            del clone
            assert ref() is None  # freed by refcount alone: no cycle to collect
        finally:
            gc.enable()


class TestFusedStepDeterminism:
    """Exactness certification without an oracle (reference-path retirement,
    ROADMAP): the cases cover single/batched states, the dealias-off branch
    and the Ekman-drag branch, each re-run under every array backend."""

    @pytest.mark.parametrize(
        "batch, params_kwargs",
        [
            (0, {}),
            (1, {}),
            (7, {}),
            (3, {"dealias": False}),
            (4, {"ekman_drag": 1.0e-6}),
        ],
        ids=["single", "batch1", "batch7", "dealias_off", "ekman"],
    )
    def test_step_is_deterministic_across_instances(
        self, batch, params_kwargs, array_backend
    ):
        params = SQGParameters(nx=16, ny=16, dt=1800.0, **params_kwargs)
        model = SQGModel(params)
        other = SQGModel(params)
        assert model.xp is array_backend
        if not params_kwargs.get("dealias", True):
            assert model.spectral.kx_keep == 16 // 2 + 1  # nothing truncated
        theta = _states(model, batch, seed=1)
        spec = model.spectral.to_spectral(theta)
        stepped = model.step_spectral(spec)
        np.testing.assert_array_equal(stepped, other.step_spectral(spec))
        # second step reuses the workspace buffers — still exact, and the
        # input spectral state must not have been mutated in place
        np.testing.assert_array_equal(spec, model.spectral.to_spectral(theta))
        np.testing.assert_array_equal(
            model.step_spectral(stepped), other.step_spectral(stepped)
        )

    def test_workspace_cached_per_batch_shape(self):
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
        spec1 = model.spectral.to_spectral(_states(model, 3, seed=5))
        spec2 = model.spectral.to_spectral(_states(model, 0, seed=6))
        model.step_spectral(spec1)
        model.step_spectral(spec2)
        first = dict(model._workspaces)
        model.step_spectral(spec1)
        # keyed by chunk size, most recently used last, and reused
        assert list(model._workspaces) == [1, 3]
        assert all(model._workspaces[size] is ws for size, ws in first.items())

    def test_pickle_drops_workspaces_and_stays_exact(self):
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
        ens = np.stack(
            [model.flatten(model.random_initial_condition(rng=i)) for i in range(3)]
        )
        model.forecast(ens, n_steps=1)  # populate a workspace
        clone = pickle.loads(pickle.dumps(model))
        assert clone._workspaces == {}
        np.testing.assert_array_equal(
            clone.forecast(ens, n_steps=3), model.forecast(ens, n_steps=3)
        )


class TestFusedStepInvariants:
    @pytest.fixture(scope="class")
    def model(self):
        return SQGModel(SQGParameters(nx=32, ny=32, dt=1200.0))

    def test_physical_fields_stay_real_and_finite(self, model):
        theta = _states(model, 2, seed=7)
        stepped = model.step(theta, n_steps=5)
        assert stepped.dtype.kind == "f"
        assert np.isfinite(stepped).all()
        # the spectrum of the stepped field keeps Hermitian symmetry: a
        # roundtrip through physical space is lossless
        spec = model.spectral.to_spectral(stepped)
        np.testing.assert_allclose(
            model.spectral.to_physical(spec), stepped, atol=1e-10
        )

    def test_zero_mean_mode_preserved(self, model):
        theta = _states(model, 0, seed=8)
        assert abs(theta.mean()) < 1e-10
        stepped = model.step(theta, n_steps=5)
        assert abs(stepped.mean()) < 1e-8

    def test_cfl_in_stable_range(self, model):
        theta = model.step(_states(model, 0, seed=9), n_steps=50)
        assert 0.0 < model.cfl_number(theta) < 1.0


class TestRetainedTransforms:
    """Pruned-column transforms must match their full-width counterparts."""

    def test_to_physical_retained_matches_full(self):
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
        sp = model.spectral
        rng = np.random.default_rng(10)
        spec = sp.truncate(sp.to_spectral(rng.standard_normal((3, 2, 16, 16))))
        pruned = np.ascontiguousarray(spec[..., : sp.kx_keep])
        np.testing.assert_array_equal(
            sp.to_physical_retained(pruned), sp.to_physical(spec)
        )

    def test_to_spectral_retained_matches_full(self):
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
        sp = model.spectral
        field = np.random.default_rng(11).standard_normal((2, 2, 16, 16))
        np.testing.assert_array_equal(
            sp.to_spectral_retained(field), sp.to_spectral(field)[..., : sp.kx_keep]
        )

    def test_retained_shape_validation(self):
        sp = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0)).spectral
        with pytest.raises(ValueError):
            sp.to_physical_retained(np.zeros((16, sp.kx_keep + 1), dtype=complex))


class TestBackendRegression:
    def test_numpy_backend_forced(self):
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0), backend="numpy")
        assert model.spectral.fft.name == "numpy"
        theta = _states(model, 2, seed=12)
        assert np.isfinite(model.step(theta, n_steps=2)).all()

    @pytest.mark.skipif(
        "scipy" not in available_backends(), reason="scipy not installed"
    )
    def test_backends_produce_identical_trajectories(self):
        params = SQGParameters(nx=16, ny=16, dt=1800.0)
        m_np = SQGModel(params, backend="numpy")
        m_sp = SQGModel(params, backend="scipy")
        assert m_sp.spectral.fft.name == "scipy"
        ens = np.stack(
            [m_np.flatten(m_np.random_initial_condition(rng=i)) for i in range(4)]
        )
        # pocketfft underlies both: trajectories must match bit for bit
        np.testing.assert_array_equal(
            m_np.forecast(ens, n_steps=5), m_sp.forecast(ens, n_steps=5)
        )

class TestFusedOSSEParity:
    def test_free_run_records_timing_breakdown(self):
        params = SQGParameters(nx=16, ny=16, dt=1800.0)
        model = SQGModel(params)
        truth0 = model.flatten(_states(model, 0, seed=15))
        config = OSSEConfig(n_cycles=2, steps_per_cycle=1, ensemble_size=2, seed=0)
        result = free_run(model, model, truth0, config)
        assert result.timing is not None
        for section in ("truth", "forecast"):
            assert len(result.timing[section]["per_cycle_s"]) == 2
