"""Device-residency proofs for the cycling engine (mock-device metered).

These tests are the acceptance criterion of the device-resident cycling
refactor: a full OSSE cycle — truth step, ensemble forecast, analysis —
must perform a **fixed** number of host↔device transfers per cycle,
independent of grid size, ensemble size and cycle count, and the routed
path must stay bit-identical to ``backend="numpy"``.

Strategy: run whole OSSEs on the ``mock-device`` backend (numpy arrays
plus transfer counters) at ``n_cycles`` ∈ {2, 3, 4} and *difference* the
totals.  The delta between consecutive cycle counts is exactly the
steady-state per-cycle transfer budget; differencing cancels the
one-time setup traffic (device constants at model construction, the
member-count-dependent initial-ensemble catalogue, first-analysis
geometry staging), so the assertions survive warm-up effects without
pinning brittle absolute totals.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.utils.fft as fft_mod
import repro.utils.xp as xp_mod
from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import IdentityObservation
from repro.da.cycling import OSSEConfig, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.models.spectral import SpectralGrid
from repro.models.sqg import SQGModel, SQGParameters, spinup_sqg
from repro.utils.xp import StateHandle
from repro.workflow.engine import EngineCheckpoint

N_SDE_STEPS = 8


@pytest.fixture()
def mock_xp(monkeypatch):
    """Install mock-device as the process default with fresh counters.

    The backend environment variables are cleared so the fixture — not the
    outer environment — controls array and FFT backend selection.
    """
    monkeypatch.delenv("REPRO_ARRAY_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_FFT_BACKEND", raising=False)
    xp_mod.set_default_backend("mock-device")
    backend = xp_mod.resolve_backend("mock-device")
    backend.reset_transfers()
    yield backend
    xp_mod.set_default_backend(None)


def _make_model(nx: int) -> SQGModel:
    return SQGModel(SQGParameters(nx=nx, ny=nx, dt=1800.0))


def _truth0(model: SQGModel, seed: int = 0) -> np.ndarray:
    return model.flatten(spinup_sqg(model, n_steps=30, rng=seed))


def _letkf(model: SQGModel) -> LETKF:
    return LETKF(model.grid, LETKFConfig())


def _ensf(model: SQGModel) -> EnSF:
    return EnSF(EnSFConfig(n_sde_steps=N_SDE_STEPS), rng=4)


def _ensf_long(model: SQGModel) -> EnSF:
    return EnSF(EnSFConfig(n_sde_steps=3 * N_SDE_STEPS), rng=4)


def _ensf_full_space(model: SQGModel) -> EnSF:
    """Minibatched score: the one configuration knob that keeps the
    full-space reverse-SDE loop under an identity operator."""
    return EnSF(EnSFConfig(n_sde_steps=N_SDE_STEPS, minibatch=4), rng=4)


def _run_counts(mock_xp, filter_factory, nx, members, cycles, executor=None):
    """Run one SQG OSSE and return (result, transfer-call counts)."""
    model = _make_model(nx)
    truth0 = _truth0(model)
    op = IdentityObservation(model.state_size, obs_error_var=1.0)
    cfg = OSSEConfig(
        n_cycles=cycles, steps_per_cycle=2, ensemble_size=members, seed=11
    )
    metered = hasattr(mock_xp, "reset_transfers")
    if metered:
        mock_xp.reset_transfers()
    result = run_osse(
        model, model, filter_factory(model), op, truth0, cfg, executor=executor
    )
    if not metered:  # plain numpy backend (bit-parity runs)
        return result, {"h2d": 0, "d2h": 0}
    counts = mock_xp.transfer_counts()
    return result, {"h2d": counts["h2d_calls"], "d2h": counts["d2h_calls"]}


def _per_cycle_delta(mock_xp, filter_factory, nx, members, executor=None):
    """Steady-state per-cycle transfer budget via total differencing."""
    _, c2 = _run_counts(mock_xp, filter_factory, nx, members, 2, executor)
    _, c3 = _run_counts(mock_xp, filter_factory, nx, members, 3, executor)
    return {key: c3[key] - c2[key] for key in c2}


class TestFFTDevicePairing:
    """A device grid transforms with the host FFT, and no transform crosses
    the host boundary."""

    def test_mock_device_grid_uses_host_fft(self, mock_xp):
        grid = SpectralGrid(8, 8, 1.0, 1.0, array_backend=mock_xp)
        assert grid.fft is fft_mod.resolve_backend(None)

    def test_paired_fft_meters_no_transfers(self, mock_xp):
        """Transforms on device-resident arrays call no transfer hook."""
        grid = SpectralGrid(8, 8, 1.0, 1.0, array_backend=mock_xp)
        field = mock_xp.to_device(np.random.default_rng(0).standard_normal((8, 8)))
        mock_xp.reset_transfers()
        spec = grid.to_spectral(field)
        grid.to_physical(spec)
        counts = mock_xp.transfer_counts()
        assert counts["h2d_calls"] == 0 and counts["d2h_calls"] == 0


class TestRFFT2Out:
    """``xp.rfft2(..., out=)`` fills ``out`` whether or not numpy's own FFT
    accepts ``out=`` (numpy < 2.0 does not)."""

    @pytest.mark.parametrize("numpy_out", [True, False], ids=["native", "copied"])
    def test_fills_and_returns_out(self, monkeypatch, mock_xp, numpy_out):
        if numpy_out and not xp_mod._NUMPY_FFT_OUT:
            pytest.skip("this numpy's FFT has no out=")
        monkeypatch.setattr(xp_mod, "_NUMPY_FFT_OUT", numpy_out)
        field = np.random.default_rng(0).standard_normal((3, 8, 8))
        for backend in (xp_mod.resolve_backend("numpy"), mock_xp):
            out = np.empty((3, 8, 5), dtype=complex)
            assert backend.rfft2(field, axes=(-2, -1), out=out) is out
            np.testing.assert_array_equal(out, np.fft.rfft2(field))
            np.testing.assert_array_equal(backend.rfft2(field), out)


class TestStateHandle:
    def test_mirrors_cache_after_first_transfer(self, mock_xp):
        arr = np.arange(12.0).reshape(3, 4)
        handle = StateHandle.from_host(mock_xp, arr)
        mock_xp.reset_transfers()
        dev = handle.device()
        assert mock_xp.transfer_counts()["h2d_calls"] == 1
        assert handle.device() is dev  # cached — no second upload
        assert mock_xp.transfer_counts()["h2d_calls"] == 1
        # host mirror already exists: reading it downloads nothing
        np.testing.assert_array_equal(handle.host(), arr)
        assert mock_xp.transfer_counts()["d2h_calls"] == 0

    def test_device_origin_downloads_once(self, mock_xp):
        dev = mock_xp.to_device(np.arange(6.0).reshape(2, 3))
        handle = StateHandle.from_device(mock_xp, dev)
        mock_xp.reset_transfers()
        host = handle.host()
        assert mock_xp.transfer_counts()["d2h_calls"] == 1
        assert handle.host() is host
        assert mock_xp.transfer_counts()["d2h_calls"] == 1

    def test_wrap_is_passthrough_for_handles(self, mock_xp):
        handle = StateHandle.from_host(mock_xp, np.zeros((2, 2)))
        assert StateHandle.wrap(handle, mock_xp) is handle


class TestForecastTrajectoryResidency:
    """One upload and one download per trajectory, whatever its size."""

    @pytest.mark.parametrize("nx", [8, 16])
    @pytest.mark.parametrize("members", [3, 8])
    @pytest.mark.parametrize("n_steps", [2, 6])
    def test_forecast_is_one_up_one_down(self, mock_xp, nx, members, n_steps):
        model = _make_model(nx)
        ens = np.stack(
            [model.flatten(model.random_initial_condition(rng=i)) for i in range(members)]
        )
        mock_xp.reset_transfers()
        out = model.forecast(ens, n_steps=n_steps)
        counts = mock_xp.transfer_counts()
        assert counts["h2d_calls"] == 1
        assert counts["d2h_calls"] == 1
        assert np.isfinite(out).all()

    def test_forecast_device_is_zero_transfer(self, mock_xp):
        model = _make_model(8)
        ens = np.stack(
            [model.flatten(model.random_initial_condition(rng=i)) for i in range(3)]
        )
        dev = mock_xp.to_device(ens)
        mock_xp.reset_transfers()
        model.forecast_device(dev, n_steps=3)
        counts = mock_xp.transfer_counts()
        assert counts["h2d_calls"] == 0 and counts["d2h_calls"] == 0


class TestPerCycleBudget:
    """The per-cycle transfer budget is a constant of the configuration."""

    def test_letkf_budget_constant_in_cycles(self, mock_xp):
        _, c2 = _run_counts(mock_xp, _letkf, 8, 4, 2)
        _, c3 = _run_counts(mock_xp, _letkf, 8, 4, 3)
        _, c4 = _run_counts(mock_xp, _letkf, 8, 4, 4)
        assert c3["h2d"] - c2["h2d"] == c4["h2d"] - c3["h2d"]
        assert c3["d2h"] - c2["d2h"] == c4["d2h"] - c3["d2h"]

    def test_letkf_budget_independent_of_grid_and_members(self, mock_xp):
        base = _per_cycle_delta(mock_xp, _letkf, 8, 4)
        assert _per_cycle_delta(mock_xp, _letkf, 16, 4) == base
        assert _per_cycle_delta(mock_xp, _letkf, 8, 6) == base

    def test_ensf_budget_constant_in_cycles(self, mock_xp):
        _, c2 = _run_counts(mock_xp, _ensf, 8, 4, 2)
        _, c3 = _run_counts(mock_xp, _ensf, 8, 4, 3)
        _, c4 = _run_counts(mock_xp, _ensf, 8, 4, 4)
        assert c3["h2d"] - c2["h2d"] == c4["h2d"] - c3["h2d"]
        assert c3["d2h"] - c2["d2h"] == c4["d2h"] - c3["d2h"]

    def test_ensf_budget_independent_of_grid_and_members(self, mock_xp):
        base = _per_cycle_delta(mock_xp, _ensf, 8, 4)
        assert _per_cycle_delta(mock_xp, _ensf, 16, 4) == base
        assert _per_cycle_delta(mock_xp, _ensf, 8, 6) == base

    def test_ensf_budget_is_six_up_six_down_for_any_sde_step_count(self, mock_xp):
        """Ensemble-space EnSF cycle: 6 uploads / 6 downloads.

        Truth and ensemble trajectories are 1↑/1↓ each; the analysis uploads
        the scaled ensemble, the observation, the one full-size draw ``ζ``
        and the final ``(n, M)`` coefficients (4↑) and downloads ``K``,
        ``X y``, ``ζ Xᵀ`` and the analysis (4↓).  The ``(n, M)`` recursion
        is host-side, so none of it scales with ``n_sde_steps``.
        """
        base = _per_cycle_delta(mock_xp, _ensf, 8, 4)
        assert base == {"h2d": 6, "d2h": 6}
        assert _per_cycle_delta(mock_xp, _ensf_long, 8, 4) == base

    def test_full_space_ensf_uploads_one_draw_per_sde_step(self, mock_xp):
        """The full-space loop stages every host-parity noise block: the
        initial sample plus one per Euler step, on top of the ensemble and
        observation uploads — the budget the ensemble-space path removed."""
        full_space = _per_cycle_delta(mock_xp, _ensf_full_space, 8, 4)
        assert full_space["h2d"] == 2 + 2 + N_SDE_STEPS + 1

    @pytest.mark.parametrize("filter_factory", [_letkf, _ensf], ids=["letkf", "ensf"])
    def test_pool_budget_independent_of_grid(self, mock_xp, filter_factory):
        """Parent-side counters stay grid-independent through a real pool.

        Worker processes own separate backend instances (the backend
        pickles by name), so the parent's counters meter only the staging
        the cycle engine itself performs.
        """
        with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as ex:
            base = _per_cycle_delta(mock_xp, filter_factory, 8, 4, executor=ex)
            wide = _per_cycle_delta(mock_xp, filter_factory, 16, 4, executor=ex)
        assert wide == base


class TestBitParityWithNumpy:
    """Routing through mock-device must change nothing, bit for bit."""

    @pytest.mark.parametrize("filter_factory", [_letkf, _ensf], ids=["letkf", "ensf"])
    def test_whole_osse_bit_identical(self, monkeypatch, filter_factory):
        monkeypatch.delenv("REPRO_ARRAY_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_FFT_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_DEVICE_RNG", raising=False)
        results = {}
        for name in ("numpy", "mock-device"):
            xp_mod.set_default_backend(name)
            try:
                results[name], _ = _run_counts(
                    xp_mod.resolve_backend(name), filter_factory, 8, 4, 3
                )
            finally:
                xp_mod.set_default_backend(None)
        a, b = results["numpy"], results["mock-device"]
        np.testing.assert_array_equal(a.analysis_rmse, b.analysis_rmse)
        np.testing.assert_array_equal(a.forecast_rmse, b.forecast_rmse)
        np.testing.assert_array_equal(a.analysis_mean_final, b.analysis_mean_final)


class TestCheckpointBackendPortability:
    """Checkpoints hold plain host arrays and restore onto any backend."""

    def _run(self, filter_factory, backend_name, monkeypatch, **kwargs):
        monkeypatch.delenv("REPRO_ARRAY_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_FFT_BACKEND", raising=False)
        xp_mod.set_default_backend(backend_name)
        try:
            model = _make_model(8)
            truth0 = _truth0(model)
            op = IdentityObservation(model.state_size, obs_error_var=1.0)
            cfg = OSSEConfig(n_cycles=4, steps_per_cycle=2, ensemble_size=4, seed=11)
            return run_osse(
                model, model, filter_factory(model), op, truth0, cfg, **kwargs
            )
        finally:
            xp_mod.set_default_backend(None)

    @pytest.mark.parametrize(
        "save_on,resume_on",
        [("mock-device", "numpy"), ("numpy", "mock-device")],
        ids=["mock->numpy", "numpy->mock"],
    )
    def test_resume_across_backend_change(
        self, tmp_path, monkeypatch, save_on, resume_on
    ):
        path = str(tmp_path / "engine.ckpt")
        full = self._run(
            _letkf, save_on, monkeypatch, checkpoint_every=2, checkpoint_path=path
        )
        ckpt = EngineCheckpoint.load(path)
        # the persisted state is a plain host ndarray, never a StateHandle
        assert type(ckpt.state) is np.ndarray
        resumed = self._run(_letkf, resume_on, monkeypatch, resume=path)
        np.testing.assert_array_equal(
            resumed.analysis_mean_final, full.analysis_mean_final
        )
        np.testing.assert_array_equal(resumed.analysis_rmse, full.analysis_rmse)
