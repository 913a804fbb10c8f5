"""Oracle, determinism, invariance and backend-regression tests for the
member-chunked pseudo-spectral forecast kernel.

The pre-fusion oracle (``step_spectral_reference``) is long deleted from the
source tree; what certifies the kernel now is (a) ``array_equal`` against
the previous release's step kept verbatim as a test-only oracle
(``tests/reference/sqg_step_head.py``), (b) agreement *between* independent
instantiations: workspace reuse must not perturb a single bit across
repeated steps and pickled clones must reproduce their parent's trajectory
exactly, and (c) the workspace cache's resource hygiene.  Cross-array-backend bit-identity lives in
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
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0), array_backend="numpy")
        assert model.spectral.xp.name == "numpy"
        theta = _states(model, 2, seed=12)
        assert np.isfinite(model.step(theta, n_steps=2)).all()

class TestFusedOSSEParity:
    def test_free_run_records_timing_breakdown(self):
        params = SQGParameters(nx=16, ny=16, dt=1800.0)
        model = SQGModel(params)
        truth0 = model.flatten(_states(model, 0, seed=15))
        config = OSSEConfig(n_cycles=2, steps_per_cycle=1, ensemble_size=2, seed=0)
        result = free_run(model, model, truth0, config)
        assert len(result.records) == 2
        for record in result.records:
            assert record.truth_s > 0.0 and record.forecast_s > 0.0
            assert record.analysis_s == record.post_analysis_s == 0.0


def _flow_ensemble(model: SQGModel, members: int, seed: int = 0):
    """A spun-up truth and ``members`` small perturbations of it, flattened."""
    truth = model.step(model.random_initial_condition(rng=seed, amplitude=3.0), n_steps=50)
    noise = np.random.default_rng(seed).standard_normal((members,) + truth.shape)
    return model.flatten(truth), model.flatten(truth + 0.05 * noise)


class TestCoarseStep:
    """The ensemble forecast at the CFL the flow allows: ``k`` model steps
    per RK4 step.  Same law, not the same bits — the oracle is the fine-step
    forecast of the same input; the truth, ``k = 1`` and the model itself
    keep today's bits."""

    @staticmethod
    def _osse(model, n_cycles=6, members=8, executor=None, **kwargs):
        from repro.core.observations import IdentityObservation
        from repro.da.cycling import run_osse
        from repro.da.letkf import LETKF, LETKFConfig

        truth0, ensemble = _flow_ensemble(model, members)
        config = OSSEConfig(
            n_cycles=n_cycles, steps_per_cycle=4, ensemble_size=members, seed=5,
            apply_model_error_to_truth=False,
        )
        return truth0, run_osse(
            model, model, LETKF(model.grid, LETKFConfig()),
            IdentityObservation(model.state_size, obs_error_var=1.0), truth0, config,
            initial_ensemble=ensemble, executor=executor, **kwargs,
        )

    @staticmethod
    def _record_steps(monkeypatch, fine=None):
        """Spy on the stage's forecasts: the ``k`` of each and, given the
        ``fine`` model, its RMS difference from the fine-step forecast."""
        import repro.workflow.engine as engine_mod

        seen = []
        real = engine_mod.propagate_ensemble

        def spy(model, state, n_steps, executor=None):
            out = real(model, state, n_steps=n_steps, executor=executor)
            k = getattr(model, "k", 1)
            row = {"k": k}
            if fine is not None:
                oracle = fine.forecast(state.host(), n_steps=k * n_steps)
                row["rms"] = float(np.sqrt(np.mean((out.host() - oracle) ** 2)))
            seen.append(row)
            return out

        monkeypatch.setattr(engine_mod, "propagate_ensemble", spy)
        return seen

    def test_step_factor_is_the_largest_allowed_divisor(self):
        step_factor = sqg_mod.step_factor_for
        c_max = sqg_mod._CFL_MAX
        cfls = np.linspace(0.0, 1.5 * c_max, 61)
        for n_steps in range(1, 13):
            ks = [step_factor(float(cfl), n_steps) for cfl in cfls]
            for cfl, k in zip(cfls, ks):
                assert n_steps % k == 0
                assert k == 1 or k * cfl <= c_max
                larger = [d for d in range(k + 1, n_steps + 1) if n_steps % d == 0]
                assert all(d * cfl > c_max for d in larger)
            assert ks == sorted(ks, reverse=True)  # monotone in the CFL
            assert ks[0] == n_steps
        for cfl in (np.nextafter(c_max, 2.0), 5.0, np.inf, np.nan):
            assert step_factor(cfl, 4) == 1

    def test_probe_is_the_dealiased_wind_cfl_per_member(self, monkeypatch):
        model = SQGModel(SQGParameters(nx=32, ny=32))
        _, ens = _flow_ensemble(model, 10, seed=3)
        ens = ens * np.linspace(0.5, 3.0, 10)[:, None]  # members of unequal CFL
        theta = model.unflatten(ens)
        sp = model.spectral
        psi = model.invert(sp.to_spectral(theta))
        u = -sp.to_physical(sp.ily_dealias * psi) + model._u_base[:, None, None]
        v = sp.to_physical(sp.ikx_dealias * psi)
        per_member = model.params.dt * (
            np.abs(u).max(axis=(1, 2, 3)) / model.grid.dx
            + np.abs(v).max(axis=(1, 2, 3)) / model.grid.dy
        )
        # chunks of four: two full blocks and a ragged tail through one workspace
        monkeypatch.setattr(sqg_mod, "_WORKSPACE_BYTES", 4 * model._member_bytes)
        model._workspaces.clear()
        assert model.max_cfl(theta) == pytest.approx(per_member.max(), rel=1e-12)
        assert list(model._workspaces) == [4]
        for member, expected in zip(theta, per_member):
            assert model.cfl_number(member) == pytest.approx(expected, rel=1e-12)

    def test_truth_is_bit_identical_with_one_shared_instance(self, monkeypatch):
        model = SQGModel(SQGParameters(nx=32, ny=32))
        dt, hyperdiff = model.params.dt, model._hyperdiff_r
        hyperdiff_bits = np.array(hyperdiff, copy=True)
        seen = self._record_steps(monkeypatch)
        truth0, result = self._osse(model)
        assert {row["k"] for row in seen} == {4}  # the coarse step is engaged
        truth = truth0
        for _ in range(6):
            truth = model.forecast(truth, n_steps=4)
        np.testing.assert_array_equal(result.truth_final, truth)
        assert model.params.dt == dt
        assert model._hyperdiff_r is hyperdiff
        np.testing.assert_array_equal(model._hyperdiff_r, hyperdiff_bits)

    def test_fast_flow_takes_the_fine_step(self):
        from repro.models.base import propagate_ensemble
        from repro.workflow.engine import CycleContext, EnsembleForecastStage

        model = SQGModel(SQGParameters(nx=32, ny=32))
        _, ens = _flow_ensemble(model, 6)
        # one fast member is enough: the CFL is the largest over the members
        ens[-1] *= 0.6 * sqg_mod._CFL_MAX / model.max_cfl(model.unflatten(ens[-1]))
        assert 2 * model.max_cfl(model.unflatten(ens[-1])) > sqg_mod._CFL_MAX
        assert 4 * model.max_cfl(model.unflatten(ens[:-1])) <= sqg_mod._CFL_MAX
        assert model.coarse_step(ens, 4) == (model, 4)
        ctx = CycleContext(cycle=0, executor=None, truth=ens[0], state=ens)
        EnsembleForecastStage(model, 4).run(ctx)
        np.testing.assert_array_equal(
            ctx.state.host(), propagate_ensemble(model, ens, n_steps=4)
        )

    def test_error_budget_against_the_fine_step(self, monkeypatch):
        """Over 20 cycles at 64², each cycle's forecast stays within 1e-4 K
        RMS of the fine-step forecast of the same input."""
        model = SQGModel(SQGParameters(nx=64, ny=64))
        fine = SQGModel(model.params)
        seen = self._record_steps(monkeypatch, fine=fine)
        _, result = self._osse(model, n_cycles=20, members=10)
        assert len(seen) == 20 and max(row["k"] for row in seen) > 1
        assert max(row["rms"] for row in seen) <= 1e-4
        assert np.isfinite(result.analysis_rmse).all()

    def test_pool_layout_equals_serial(self, monkeypatch, gathers):
        from repro.hpc.ensemble_parallel import EnsembleExecutor

        model = SQGModel(SQGParameters(nx=32, ny=32))
        _, serial = self._osse(model)
        seen = self._record_steps(monkeypatch)
        with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as executor:
            _, pooled = self._osse(SQGModel(model.params), executor=executor)
        # every forecast gather shipped, so the coarse stepper pickled to the workers
        assert gathers and all(
            name == "_forecast_chunk" and workers == 2 for name, _, workers in gathers
        )
        assert {row["k"] for row in seen} == {4}
        np.testing.assert_array_equal(pooled.analysis_rmse, serial.analysis_rmse)
        np.testing.assert_array_equal(pooled.analysis_mean_final, serial.analysis_mean_final)

    def test_resume_equals_uninterrupted(self, tmp_path):
        model = SQGModel(SQGParameters(nx=32, ny=32))
        from repro.workflow.engine import EngineCheckpoint

        path = tmp_path / "coarse.ckpt"
        _, whole = self._osse(model, checkpoint_every=4, checkpoint_path=path)
        assert EngineCheckpoint.load(path).next_cycle == 4
        _, resumed = self._osse(SQGModel(model.params), resume=path)
        np.testing.assert_array_equal(resumed.analysis_rmse, whole.analysis_rmse)
        np.testing.assert_array_equal(resumed.analysis_mean_final, whole.analysis_mean_final)
        np.testing.assert_array_equal(resumed.truth_final, whole.truth_final)

    def test_stepper_is_a_view_and_ships_nothing_new(self):
        model = SQGModel(SQGParameters(nx=32, ny=32))
        _, ens = _flow_ensemble(model, 6)
        before = len(pickle.dumps(model))
        stepper, n_steps = model.coarse_step(ens, 4)
        assert (stepper.k, n_steps) == (4, 1)
        assert stepper._workspaces is model._workspaces
        coarse = stepper.forecast(ens, n_steps)
        p = model.params
        np.testing.assert_array_equal(  # the exact multiplier of k·dt
            model._coarse_hyperdiff[4],
            model._split_layout(
                model.spectral.hyperdiffusion_filter(4 * p.dt, p.hyperdiff_efold, p.hyperdiff_order)
            ),
        )
        assert len(pickle.dumps(model)) == before
        clone = pickle.loads(pickle.dumps(stepper))  # what a pool worker runs
        np.testing.assert_array_equal(clone.forecast(ens, n_steps), coarse)
        assert clone.model._coarse_hyperdiff  # rebuilt on the worker's side

    def test_probe_and_coarse_step_cross_no_meter(self, array_backend):
        model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
        assert model.xp is array_backend
        _, ens = _flow_ensemble(model, 5)
        device = array_backend.to_device(ens)
        stepper, n_steps = model.coarse_step(ens, 4)
        assert stepper is not model
        expected = stepper.forecast_device(device, n_steps)  # builds the k·dt multiplier
        if hasattr(array_backend, "reset_transfers"):
            array_backend.reset_transfers()
        assert model.coarse_step(ens, 4)[1] == n_steps
        out = stepper.forecast_device(device, n_steps)
        if hasattr(array_backend, "transfer_counts"):
            assert not any(array_backend.transfer_counts().values())
        np.testing.assert_array_equal(out, expected)


class TestShipsAsParameters:
    """A model pickles as its parameters and backend and rebuilds its
    constants where it lands, so a pool forecast job carries a few hundred
    bytes of model instead of its ≈ 2 MB of constants (at 128²) — and
    forecasts the same bits."""

    def test_pickle_is_the_parameters(self, array_backend):
        model = SQGModel(SQGParameters(nx=128, ny=128))
        _, ens = _flow_ensemble(model, 3)
        model.forecast(ens, n_steps=1)  # warm a workspace: it must not ship
        blob = pickle.dumps(model)
        assert len(blob) < 4096
        clone = pickle.loads(blob)
        assert clone.params == model.params and clone.xp is model.xp
        assert clone._workspaces == {}
        np.testing.assert_array_equal(
            clone.forecast(ens, n_steps=2), model.forecast(ens, n_steps=2)
        )

    def test_coarse_step_through_a_pool_equals_in_process(self, gathers):
        from repro.hpc.ensemble_parallel import EnsembleExecutor
        from repro.models.sqg import _CoarseStep

        model = SQGModel(SQGParameters(nx=128, ny=128))
        _, ens = _flow_ensemble(model, 4)
        stepper, n_steps = model.coarse_step(ens, 4)
        assert isinstance(stepper, _CoarseStep)
        assert len(pickle.dumps(stepper)) < 4096
        with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as executor:
            pooled = executor.map_states(stepper, ens, n_steps)
        assert gathers == [("_forecast_chunk", 2, 2)]
        np.testing.assert_array_equal(pooled, stepper.forecast(ens, n_steps))
