"""Cycle-engine certification suite.

Three layers of coverage for :mod:`repro.workflow.engine`:

* **Golden equivalence** — verbatim copies of the pre-refactor inlined
  loops (the OSSE, the free run and the real-time workflow) are kept here
  as oracles, and the engine-backed drivers must reproduce their
  RMSE/spread trajectories and final states *bit-identically* for seeded
  LETKF and EnSF configurations, serially and through an ``n_workers=2``
  executor.
* **Observation networks** — full, partial, non-uniform-R and nonlinear
  operators each cycle and reproduce themselves bit for bit, and sparser
  networks analyse worse.
* **Checkpoint/restart** — a run interrupted mid-stream and resumed from an
  :class:`EngineCheckpoint` (in memory or from disk) is bit-identical to
  the uninterrupted run, rng-stream state included, on a full and on a
  partial observation network; a resume under a drifted operator (even
  one of the same class and shape) is refused.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from repro.core.ensf import EnSF, EnSFConfig
from repro.core.filters import ensemble_statistics
from repro.core.observations import (
    IdentityObservation,
    NonlinearObservation,
    ObservationStream,
    SubsampledObservation,
)
from repro.da.cycling import CyclingResult, OSSEConfig, _initial_ensemble, free_run, rmse, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.models.base import propagate_ensemble
from repro.models.lorenz96 import Lorenz96
from repro.models.model_error import StochasticModelErrorMixture
from repro.utils.grid import Grid2D
from repro.utils.random import SeedSequenceFactory
from repro.utils.faults import FaultInjected, FaultPlan
from repro.workflow.engine import (
    CheckpointCadence,
    CheckpointRing,
    CycleEngine,
    CycleRecord,
    EngineCheckpoint,
    EnginePreempted,
    EnsembleForecastStage,
    FilterAnalysisStage,
    ObservationStage,
    OnlineTrainingStage,
    TruthStage,
)

DIM = 40


# --------------------------------------------------------------------------- #
# Pre-refactor oracles (verbatim loop semantics of the PR 4 drivers)
# --------------------------------------------------------------------------- #


def _legacy_run_osse(
    truth_model,
    forecast_model,
    filter_,
    operator,
    truth0,
    config,
    executor=None,
    store_history=False,
):
    """The inlined OSSE loop exactly as it stood before the engine refactor."""
    seeds = SeedSequenceFactory(config.seed)
    rng_obs = seeds.rng("observations")
    rng_init = seeds.rng("initial-ensemble")
    model_error = (
        StochasticModelErrorMixture(rng=seeds.rng("model-error"))
        if config.apply_model_error_to_truth
        else None
    )
    truth = np.array(truth0, dtype=float)
    ensemble = _initial_ensemble(
        truth_model, truth, config.ensemble_size, config.steps_per_cycle, rng_init
    )
    forecast_rmse = np.zeros(config.n_cycles)
    analysis_rmse = np.zeros(config.n_cycles)
    analysis_spread = np.zeros(config.n_cycles)
    history = []
    for cycle in range(config.n_cycles):
        truth = truth_model.forecast(truth, n_steps=config.steps_per_cycle)
        if model_error is not None:
            truth = model_error.perturb(truth)
        ensemble = propagate_ensemble(
            forecast_model, ensemble, n_steps=config.steps_per_cycle, executor=executor
        )
        forecast_rmse[cycle] = rmse(ensemble_statistics(ensemble).mean, truth)
        if filter_ is not None:
            observation = operator.observe(truth, rng=rng_obs)
            ensemble = filter_.analyze_parallel(
                ensemble, observation, operator
            )
        stats_a = ensemble_statistics(ensemble)
        analysis_rmse[cycle] = rmse(stats_a.mean, truth)
        analysis_spread[cycle] = stats_a.mean_spread
        if store_history:
            history.append(stats_a.mean.copy())
    return CyclingResult(
        times=np.arange(1, config.n_cycles + 1, dtype=float),
        forecast_rmse=forecast_rmse,
        analysis_rmse=analysis_rmse,
        analysis_spread=analysis_spread,
        truth_final=truth,
        analysis_mean_final=ensemble_statistics(ensemble).mean,
        analysis_mean_history=np.array(history) if store_history else None,
    )


def _legacy_free_run(truth_model, forecast_model, truth0, config):
    seeds = SeedSequenceFactory(config.seed)
    model_error = (
        StochasticModelErrorMixture(rng=seeds.rng("model-error"))
        if config.apply_model_error_to_truth
        else None
    )
    truth = np.array(truth0, dtype=float)
    prediction = np.array(truth0, dtype=float)
    run_rmse = np.zeros(config.n_cycles)
    for cycle in range(config.n_cycles):
        truth = truth_model.forecast(truth, n_steps=config.steps_per_cycle)
        if model_error is not None:
            truth = model_error.perturb(truth)
        prediction = forecast_model.forecast(prediction, n_steps=config.steps_per_cycle)
        run_rmse[cycle] = rmse(prediction, truth)
    return run_rmse, truth, prediction


def _legacy_realtime_run(
    surrogate,
    truth_model,
    operator,
    ensf_config,
    model_error,
    executor,
    seed,
    truth0,
    initial_ensemble,
    n_cycles,
    steps_per_cycle,
):
    """The pre-refactor real-time workflow loop (online training off)."""
    seeds = SeedSequenceFactory(seed)
    ensf = EnSF(ensf_config, rng=seeds.rng("ensf"))
    truth = np.array(truth0, dtype=float)
    ensemble = np.array(initial_ensemble, dtype=float)
    rng_obs = seeds.rng("observations")
    forecast_rmse = np.zeros(n_cycles)
    analysis_rmse = np.zeros(n_cycles)
    for cycle in range(n_cycles):
        truth = truth_model.forecast(truth, n_steps=steps_per_cycle)
        if model_error is not None:
            truth = model_error.perturb(truth)
        observation = operator.observe(truth, rng=rng_obs)
        if executor is None:
            forecast = surrogate.forecast(ensemble, n_steps=steps_per_cycle)
        else:
            forecast = executor.map_states(surrogate, ensemble, n_steps=steps_per_cycle)
        forecast_rmse[cycle] = rmse(forecast.mean(axis=0), truth)
        analysis = ensf.analyze(forecast, observation, operator)
        stats = ensemble_statistics(analysis)
        analysis_rmse[cycle] = rmse(stats.mean, truth)
        ensemble = analysis
    return forecast_rmse, analysis_rmse, truth, ensemble


# --------------------------------------------------------------------------- #
# Shared fixtures
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def testbed():
    model = Lorenz96(dim=DIM)
    truth0 = model.spinup(300, rng=0)
    operator = IdentityObservation(DIM, obs_error_var=0.5)
    return model, truth0, operator


@pytest.fixture(scope="module")
def pool():
    with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as executor:
        yield executor


def _letkf():
    # Lorenz96's 40 variables laid out on a periodic 10x2x2 grid so the
    # LETKF localization has a geometry; shard_columns exercises the
    # column-sharded solve stage through the engine's executor plumbing.
    grid = Grid2D(10, 2, nlev=2)
    return LETKF(
        grid,
        LETKFConfig(cutoff=4.0e6, shard_columns=8),
    )


def _ensf(rng=5):
    return EnSF(EnSFConfig(n_sde_steps=15), rng=rng)


def _assert_identical(result: CyclingResult, oracle: CyclingResult):
    np.testing.assert_array_equal(result.forecast_rmse, oracle.forecast_rmse)
    np.testing.assert_array_equal(result.analysis_rmse, oracle.analysis_rmse)
    np.testing.assert_array_equal(result.analysis_spread, oracle.analysis_spread)
    np.testing.assert_array_equal(result.truth_final, oracle.truth_final)
    np.testing.assert_array_equal(result.analysis_mean_final, oracle.analysis_mean_final)


class TestGoldenEquivalence:
    """Engine-backed drivers == pre-refactor inlined loops, bit for bit."""

    CONFIG = OSSEConfig(n_cycles=6, steps_per_cycle=4, ensemble_size=10, seed=3)

    @pytest.mark.parametrize("filter_factory", [_letkf, _ensf], ids=["letkf", "ensf"])
    def test_run_osse_serial(self, testbed, filter_factory):
        model, truth0, operator = testbed
        result = run_osse(
            model, model, filter_factory(), operator, truth0, self.CONFIG,
            store_history=True,
        )
        oracle = _legacy_run_osse(
            model, model, filter_factory(), operator, truth0, self.CONFIG,
            store_history=True,
        )
        _assert_identical(result, oracle)
        np.testing.assert_array_equal(
            result.analysis_mean_history, oracle.analysis_mean_history
        )

    @pytest.mark.parametrize("filter_factory", [_letkf, _ensf], ids=["letkf", "ensf"])
    def test_run_osse_two_worker_executor(self, testbed, pool, filter_factory):
        model, truth0, operator = testbed
        result = run_osse(
            model, model, filter_factory(), operator, truth0, self.CONFIG,
            executor=pool,
        )
        oracle = _legacy_run_osse(
            model, model, filter_factory(), operator, truth0, self.CONFIG,
            executor=pool,
        )
        _assert_identical(result, oracle)

    def test_run_osse_without_filter(self, testbed):
        model, truth0, operator = testbed
        result = run_osse(model, model, None, operator, truth0, self.CONFIG)
        oracle = _legacy_run_osse(model, model, None, operator, truth0, self.CONFIG)
        _assert_identical(result, oracle)

    def test_free_run(self, testbed):
        model, truth0, _ = testbed
        result = free_run(model, model, truth0, self.CONFIG)
        run_rmse, truth, prediction = _legacy_free_run(model, model, truth0, self.CONFIG)
        np.testing.assert_array_equal(result.forecast_rmse, run_rmse)
        np.testing.assert_array_equal(result.analysis_rmse, run_rmse)
        np.testing.assert_array_equal(result.truth_final, truth)
        np.testing.assert_array_equal(result.analysis_mean_final, prediction)
        assert not result.analysis_spread.any()

    @pytest.mark.parametrize("use_executor", [False, True], ids=["serial", "pool2"])
    def test_realtime_workflow(self, testbed, pool, use_executor):
        model, truth0, operator = testbed
        executor = pool if use_executor else None
        rng = np.random.default_rng(2)
        ens0 = truth0[None, :] + rng.standard_normal((8, DIM))
        ensf_config = EnSFConfig(n_sde_steps=12)
        seeds = SeedSequenceFactory(11)

        result = run_osse(
            model, model, EnSF(ensf_config, rng=seeds.rng("ensf")), operator, truth0,
            OSSEConfig(n_cycles=3, steps_per_cycle=2, ensemble_size=8, seed=11),
            initial_ensemble=ens0, executor=executor,
        )

        def oracle(executor):
            return _legacy_realtime_run(
                model, model, operator, ensf_config,
                StochasticModelErrorMixture(rng=seeds.rng("model-error")), executor, 11,
                truth0, ens0, 3, 2,
            )

        forecast_rmse, analysis_rmse, truth, ensemble = oracle(executor)
        np.testing.assert_array_equal(result.forecast_rmse, forecast_rmse)
        np.testing.assert_array_equal(result.analysis_rmse, analysis_rmse)
        np.testing.assert_array_equal(result.truth_final, truth)
        stats = ensemble_statistics(ensemble)
        np.testing.assert_array_equal(result.analysis_mean_final, stats.mean)
        assert result.analysis_spread[-1] == stats.mean_spread
        if use_executor:
            for got, want in zip((forecast_rmse, analysis_rmse, truth, ensemble), oracle(None)):
                np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------------- #
# Observation networks
# --------------------------------------------------------------------------- #


def _network(name):
    """An observation network of the 40-variable testbed, by name."""
    if name == "full":
        return IdentityObservation(DIM, obs_error_var=0.5)
    if name.startswith("every_"):
        return SubsampledObservation.every_nth(DIM, int(name[6:]), obs_error_var=0.5)
    if name == "nonuniform_r":
        return SubsampledObservation(
            DIM, np.arange(DIM), obs_error_var=np.linspace(0.25, 1.0, DIM)
        )
    return NonlinearObservation(DIM, name, obs_error_var=0.05)


class TestObservationNetworks:
    """Partial, non-uniform-R and nonlinear networks are operators; each one
    cycles, observes every cycle and reproduces itself bit for bit."""

    CONFIG = OSSEConfig(n_cycles=8, steps_per_cycle=4, ensemble_size=10, seed=6)

    def _run(self, testbed, filter_factory, network):
        model, truth0, _ = testbed
        return run_osse(model, model, filter_factory(), _network(network), truth0, self.CONFIG)

    @pytest.mark.parametrize(
        "filter_factory,network",
        [
            *[(_letkf, name) for name in ("full", "every_2", "every_4", "nonuniform_r")],
            *[(_ensf, name) for name in ("full", "every_2", "every_4", "nonuniform_r", "arctan")],
        ],
        ids=lambda v: v if isinstance(v, str) else v.__name__.lstrip("_"),
    )
    def test_each_network_runs_and_reproduces(self, testbed, filter_factory, network):
        first = self._run(testbed, filter_factory, network)
        second = self._run(testbed, filter_factory, network)
        assert np.isfinite(first.analysis_rmse).all()
        assert [r.observed for r in first.records] == [True] * self.CONFIG.n_cycles
        _assert_identical(first, second)

    def test_sparser_networks_degrade_rmse_monotonically(self, testbed):
        """Fewer observed variables => worse mean analysis RMSE, monotonically."""
        means = [
            self._run(testbed, _letkf, name).mean_analysis_rmse
            for name in ("full", "every_2", "every_4")
        ]
        assert means[0] < means[1] < means[2]


# --------------------------------------------------------------------------- #
# Checkpoint / restart
# --------------------------------------------------------------------------- #


class TestCheckpointRestart:
    CONFIG = OSSEConfig(n_cycles=8, steps_per_cycle=4, ensemble_size=10, seed=9)

    def _run(self, testbed, operator=None, **kwargs):
        model, truth0, full = testbed
        return run_osse(
            model, model, _ensf(rng=SeedSequenceFactory(9).rng("filter")),
            full if operator is None else operator,
            truth0, self.CONFIG, store_history=True, **kwargs,
        )

    def test_resume_is_bit_identical(self, testbed, tmp_path):
        path = tmp_path / "engine.ckpt"
        uninterrupted = self._run(
            testbed, checkpoint_every=5, checkpoint_path=path
        )
        # "Kill" after the rolling checkpoint at cycle 5: a fresh driver with
        # fresh filter/stream objects resumes from disk and must land on the
        # same trajectory, bit for bit.
        ckpt = EngineCheckpoint.load(path)
        assert ckpt.next_cycle == 5
        resumed = self._run(testbed, resume=path)
        _assert_identical(resumed, uninterrupted)
        np.testing.assert_array_equal(
            resumed.analysis_mean_history, uninterrupted.analysis_mean_history
        )

    def test_partial_network_resume_is_bit_identical(self, testbed, tmp_path):
        """Every other variable observed: the resume is still bit-identical."""
        operator = SubsampledObservation.every_nth(DIM, 2, obs_error_var=0.5)
        path = tmp_path / "engine.ckpt"
        uninterrupted = self._run(
            testbed, operator, checkpoint_every=5, checkpoint_path=path
        )
        assert EngineCheckpoint.load(path).next_cycle == 5
        resumed = self._run(testbed, operator, resume=path)
        _assert_identical(resumed, uninterrupted)
        np.testing.assert_array_equal(
            resumed.analysis_mean_history, uninterrupted.analysis_mean_history
        )
        assert np.isfinite(uninterrupted.analysis_rmse).all()

    def test_checkpoint_without_stage_seconds_resumes_bit_identically(
        self, testbed, tmp_path
    ):
        """A checkpoint written before records carried stage seconds still
        loads: its records read ``0.0`` and the resume is bit-identical."""
        path = tmp_path / "engine.ckpt"
        uninterrupted = self._run(testbed, checkpoint_every=5, checkpoint_path=path)
        ckpt = EngineCheckpoint.load(path)
        stage_fields = ("truth_s", "forecast_s", "analysis_s", "post_analysis_s")
        for record in ckpt.records:
            for name in stage_fields:
                del record.__dict__[name]  # the instance layout of older releases
        ckpt.save(path)

        old = EngineCheckpoint.load(path)
        assert all(name not in r.__dict__ for r in old.records for name in stage_fields)
        assert all(getattr(r, name) == 0.0 for r in old.records for name in stage_fields)
        assert old.records == uninterrupted.records[:5]  # DA fields round-trip
        resumed = self._run(testbed, resume=path)
        _assert_identical(resumed, uninterrupted)
        np.testing.assert_array_equal(
            resumed.analysis_mean_history, uninterrupted.analysis_mean_history
        )
        assert all(r.forecast_s > 0.0 for r in resumed.records[5:])

    def test_checkpoint_rejects_parameter_drift(self, testbed, tmp_path):
        """A checkpoint resumed under an edited observation operator (or
        steps-per-cycle) must be refused: slot names and the state dimension
        still match, so only the pipeline fingerprint can catch the drift
        before it silently voids the bit-identical-resume contract."""
        model, truth0, _ = testbed
        path = tmp_path / "engine.ckpt"
        self._run(testbed, checkpoint_every=5, checkpoint_path=path)
        drifted = SubsampledObservation.every_nth(DIM, 2, obs_error_var=0.5)
        assert drifted.state_dim == DIM
        with pytest.raises(ValueError, match="fingerprint"):
            run_osse(
                model, model, _ensf(), drifted, truth0, self.CONFIG,
                store_history=True, resume=path,
            )

    @pytest.mark.parametrize(
        "drifted",
        [
            SubsampledObservation(DIM, np.arange(1, DIM, 2), obs_error_var=0.5),
            SubsampledObservation.every_nth(DIM, 2, obs_error_var=1.0),
            NonlinearObservation(DIM, "abs", np.arange(0, DIM, 2), obs_error_var=0.5),
        ],
        ids=["indices", "obs_error_var", "kind"],
    )
    def test_checkpoint_rejects_same_shape_operator_drift(self, testbed, tmp_path, drifted):
        """A network of the same class and shape that measures something else
        (other variables, another R, another nonlinearity) is refused too."""
        model, truth0, _ = testbed
        network = (
            NonlinearObservation(DIM, "arctan", np.arange(0, DIM, 2), obs_error_var=0.5)
            if isinstance(drifted, NonlinearObservation)
            else SubsampledObservation.every_nth(DIM, 2, obs_error_var=0.5)
        )
        assert (type(drifted), drifted.obs_dim) == (type(network), network.obs_dim)
        path = tmp_path / "engine.ckpt"
        self._run(testbed, network, checkpoint_every=5, checkpoint_path=path)
        with pytest.raises(ValueError, match="fingerprint"):
            run_osse(
                model, model, _ensf(), drifted, truth0, self.CONFIG,
                store_history=True, resume=path,
            )

    def test_checkpoint_rejects_stage_mismatch(self, testbed, tmp_path):
        model, truth0, operator = testbed
        path = tmp_path / "engine.ckpt"
        self._run(testbed, checkpoint_every=5, checkpoint_path=path)
        with pytest.raises(ValueError, match="stages"):
            # Free-run engine (no observation/analysis slots) must refuse a
            # DA checkpoint instead of silently resuming the wrong pipeline.
            from repro.workflow.engine import (
                CycleEngine,
                DeterministicForecastStage,
                TruthStage,
            )

            CycleEngine(
                truth=TruthStage(model, 4),
                forecast=DeterministicForecastStage(model, 4),
            ).run(resume=path, n_cycles=8)

    def test_run_validation(self, testbed):
        model, truth0, _ = testbed
        from repro.workflow.engine import (
            CycleEngine,
            DeterministicForecastStage,
            TruthStage,
        )

        engine = CycleEngine(
            truth=TruthStage(model, 1),
            forecast=DeterministicForecastStage(model, 1),
        )
        with pytest.raises(ValueError):
            engine.run(truth0, truth0, 0)
        with pytest.raises(ValueError):
            engine.run(n_cycles=3)  # fresh run without states
        with pytest.raises(ValueError):
            engine.run(truth0, truth0, 3, checkpoint_every=2)  # path missing
        with pytest.raises(ValueError):
            engine.checkpoint()  # nothing ran yet


# --------------------------------------------------------------------------- #
# Checkpoint cadence policy
# --------------------------------------------------------------------------- #


class _Clock:
    """A clock the test moves by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _ticking_clock():
    """Every reading is one later than the last: a write costs 1, and ten
    more boundaries pass before the next one is worth it."""
    return itertools.count().__next__


def _ring_cycles(base) -> list[int]:
    return [int(p.name.rsplit(".c", 1)[1]) for p in CheckpointRing(base).paths()]


class TestCheckpointCadence:
    CONFIG = OSSEConfig(n_cycles=40, steps_per_cycle=2, ensemble_size=8, seed=4)

    def _boundaries_written(self, cycle_s: float, write_s: float, n: int) -> list[int]:
        clock = _Clock()
        cadence = CheckpointCadence(1, clock=clock)
        written = []
        for boundary in range(1, n + 1):
            clock.now += cycle_s
            if cadence.worth_writing():
                started = clock()
                clock.now += write_s
                cadence.written(started)
                written.append(boundary)
        return written

    def test_fast_cycles_are_written_once_per_ten_write_costs(self):
        # 1-unit cycles, 2-unit writes: the first boundary, then the first
        # boundary at least 20 units after each write ended.
        assert self._boundaries_written(1.0, 2.0, 60) == [1, 21, 41]

    def test_slow_cycles_are_written_at_every_boundary(self):
        assert self._boundaries_written(25.0, 2.0, 6) == [1, 2, 3, 4, 5, 6]

    def _run(self, testbed, **kwargs):
        model, truth0, operator = testbed
        return run_osse(
            model, model, _ensf(rng=SeedSequenceFactory(4).rng("filter")), operator,
            truth0, self.CONFIG, **kwargs,
        )

    def test_engine_skips_due_writes_that_cannot_pay_off(self, testbed, tmp_path):
        base = tmp_path / "engine.ckpt"
        with pytest.raises(ValueError, match="checkpoint_every"):
            self._run(testbed, checkpoint_every=CheckpointCadence(0), checkpoint_path=base)
        self._run(
            testbed, checkpoint_every=CheckpointCadence(1, clock=_ticking_clock()),
            checkpoint_path=base, keep_last=40,
        )
        assert _ring_cycles(base) == [1, 11, 21, 31]

    def test_every_three_only_considers_multiples_of_three(self, testbed, tmp_path):
        base = tmp_path / "engine.ckpt"
        self._run(
            testbed, checkpoint_every=CheckpointCadence(3, clock=_ticking_clock()),
            checkpoint_path=base, keep_last=40,
        )
        # due at 3, 6, ...: one reading per due boundary, so ten of them apart
        assert _ring_cycles(base) == [3, 33]
        slow = tmp_path / "slow.ckpt"
        self._run(
            testbed, checkpoint_every=CheckpointCadence(3, clock=lambda: 0.0),
            checkpoint_path=slow, keep_last=40,
        )
        assert _ring_cycles(slow) == list(range(3, 40, 3))  # free writes: all of them

    def test_truncation_hits_the_same_boundary_under_integer_and_policy(
        self, testbed, tmp_path
    ):
        """The "checkpoint" site is visited per *due* boundary and a targeted
        boundary is always written, so a plan cannot depend on host speed."""
        for name, every in (
            ("integer", 1),
            ("policy", CheckpointCadence(1, clock=_ticking_clock())),
        ):
            base = tmp_path / name / "engine.ckpt"
            base.parent.mkdir()
            result = self._run(
                testbed, checkpoint_every=every, checkpoint_path=base, keep_last=40,
                fault_plan=FaultPlan.from_spec("checkpoint-truncate@checkpoint:4"),
            )
            (action,) = [a for a in result.fault_log if a.action == "checkpoint-truncate"]
            assert action.cycle == 4, name
            with pytest.raises(ValueError):
                EngineCheckpoint.load(CheckpointRing(base).path_for(5))
        # the policy wrote cycle 5 only because the truncation targeted it
        assert _ring_cycles(base) == [1, 5, 15, 25, 35]

    def test_preempted_fast_run_checkpoints_its_last_cycle(self, testbed, tmp_path):
        base = tmp_path / "engine.ckpt"
        clean = self._run(testbed)
        polls = itertools.count(1)
        kwargs = dict(checkpoint_path=base, keep_last=3, resume="auto")
        with pytest.raises(EnginePreempted) as excinfo:
            self._run(
                testbed, checkpoint_every=CheckpointCadence(1, clock=_ticking_clock()),
                preempt=lambda: next(polls) == 7, **kwargs,
            )
        assert excinfo.value.next_cycle == 7
        assert _ring_cycles(base) == [1, 7]  # the forced write, not a due one
        resumed = self._run(
            testbed, checkpoint_every=CheckpointCadence(1, clock=_ticking_clock()), **kwargs
        )
        _assert_identical(resumed, clean)

    def test_checkpoint_shares_frozen_records(self, testbed, tmp_path):
        record = CycleRecord(0, 1.0, 0.5, 0.2, True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.analysis_rmse = 0.0
        path = tmp_path / "engine.ckpt"
        self._run(testbed, checkpoint_every=25, checkpoint_path=path)
        assert len(EngineCheckpoint.load(path).records) == 25  # a snapshot, not a view

    def test_save_leaves_no_temporary_file(self, testbed, tmp_path, monkeypatch):
        path = tmp_path / "engine.ckpt"
        self._run(testbed, checkpoint_every=25, checkpoint_path=path)
        assert [p.name for p in tmp_path.iterdir()] == ["engine.ckpt"]
        ckpt = EngineCheckpoint.load(path)

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.workflow.engine.os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            ckpt.save(tmp_path / "other.ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["engine.ckpt"]


class TestCadenceDisturbanceMatrix:
    """One result on whichever route the gathers took, however often the
    ring was written, and whatever interrupted the run."""

    CONFIG = OSSEConfig(n_cycles=8, steps_per_cycle=2, ensemble_size=8, seed=11)

    def _run(self, testbed, **kwargs):
        model, truth0, operator = testbed
        return run_osse(
            model, model, _ensf(rng=SeedSequenceFactory(11).rng("filter")), operator,
            truth0, self.CONFIG, **kwargs,
        )

    @pytest.mark.parametrize("disturbance", ["clean", "preempted", "crashed"])
    @pytest.mark.parametrize("cadence", ["integer", "policy"])
    @pytest.mark.parametrize("route", ["pool", "in-process", "no-executor"])
    def test_bit_identical(
        self, testbed, pool, tmp_path, gathers, route, cadence, disturbance
    ):
        oracle = self._run(testbed)
        executor = {
            "pool": pool,
            "in-process": EnsembleExecutor(n_workers=1),
            "no-executor": None,
        }[route]

        def every():
            return 2 if cadence == "integer" else CheckpointCadence(2, clock=_ticking_clock())

        def crash():
            raise FaultInjected("injected job crash")

        polls = itertools.count(1)
        hooks = {
            "clean": (None, ()),
            "preempted": (lambda: next(polls) == 5, EnginePreempted),
            "crashed": (lambda: next(polls) == 5 and crash(), FaultInjected),
        }
        preempt, expected = hooks[disturbance]
        kwargs = dict(
            executor=executor, resume="auto", checkpoint_path=tmp_path / "engine.ckpt",
            keep_last=3,
        )
        if preempt is not None:
            with pytest.raises(expected):
                self._run(testbed, checkpoint_every=every(), preempt=preempt, **kwargs)
        result = self._run(testbed, checkpoint_every=every(), **kwargs)
        _assert_identical(result, oracle)
        assert not list(tmp_path.glob("*.tmp"))
        # The worker count alone picks the route: one worker runs in-process,
        # two ship every gather to the pool, no executor gathers nothing.
        widths = {workers for _, _, workers in gathers}
        assert widths == {"pool": {2}, "in-process": {1}, "no-executor": set()}[route]


class _SumTrainer:
    """Online-training stand-in: its loss is the squared analysis increment."""

    def update(self, previous, mean):
        return float(np.sum((np.asarray(mean) - previous) ** 2))


class TestStageSeconds:
    """Each record carries the wall seconds of the stages that ran."""

    def _run(self, testbed, *, observed: bool, trained: bool, n_cycles: int = 3):
        model, truth0, operator = testbed
        ens0 = truth0 + np.random.default_rng(1).standard_normal((6, DIM))
        post_analysis = None
        if trained:
            post_analysis = OnlineTrainingStage(_SumTrainer())
            post_analysis.prime(ens0.mean(axis=0))
        observations = analysis = None
        if observed:
            observations = ObservationStage(ObservationStream(operator, rng=2))
            analysis = FilterAnalysisStage(_ensf())
        engine = CycleEngine(
            truth=TruthStage(model, 2),
            observations=observations,
            forecast=EnsembleForecastStage(model, 2),
            analysis=analysis,
            post_analysis=post_analysis,
        )
        started = time.perf_counter()
        records = engine.run(truth0, ens0, n_cycles).records
        return records, time.perf_counter() - started

    @pytest.mark.parametrize(
        "observed, trained", [(True, True), (True, False), (False, False)],
        ids=["full", "no-training", "free"],
    )
    def test_ran_stages_positive_absent_zero_sum_within_wall(self, testbed, observed, trained):
        records, wall = self._run(testbed, observed=observed, trained=trained)
        assert len(records) == 3
        for record in records:
            assert record.truth_s > 0.0 and record.forecast_s > 0.0
            assert (record.analysis_s > 0.0) == observed
            assert (record.post_analysis_s > 0.0) == trained
            if not observed:
                assert record.analysis_s == 0.0
            if not trained:
                assert record.post_analysis_s == 0.0
        stages = sum(
            record.truth_s + record.forecast_s + record.analysis_s + record.post_analysis_s
            for record in records
        )
        assert stages <= wall

    def test_seconds_do_not_enter_record_equality(self, testbed):
        first, _ = self._run(testbed, observed=True, trained=True, n_cycles=2)
        second, _ = self._run(testbed, observed=True, trained=True, n_cycles=2)
        assert first == second
        slower = dataclasses.replace(first[0], forecast_s=first[0].forecast_s + 1.0)
        assert slower == first[0] and hash(slower) == hash(first[0])


class TestRealtimeRun:
    """The Fig. 1 real-time loop through ``run_osse``: the EnSF draws from
    the ``"ensf"`` stream of the root seed and an online trainer runs after
    every analysis."""

    SEED = 21

    def _run(self, testbed, path, *, n_cycles=4, ensf_config=None, resume=None, **kwargs):
        """An ``n_cycles``, 8-member run and the checkpoint it wrote last."""
        model, truth0, operator = testbed
        ens0 = truth0[None, :] + np.random.default_rng(3).standard_normal((8, DIM))
        ensf = EnSF(
            ensf_config or EnSFConfig(n_sde_steps=8),
            rng=SeedSequenceFactory(self.SEED).rng("ensf"),
        )
        config = OSSEConfig(
            n_cycles=n_cycles, steps_per_cycle=2, ensemble_size=8, seed=self.SEED,
            apply_model_error_to_truth=False,
        )
        result = run_osse(
            model, model, ensf, operator, truth0, config, initial_ensemble=ens0,
            resume=resume, checkpoint_every=2, checkpoint_path=path, **kwargs,
        )
        return result, EngineCheckpoint.load(path)

    @pytest.mark.parametrize("path", ["ensemble-space", "full-space"])
    @pytest.mark.parametrize("route", ["in-process", "pool"])
    def test_executor_run_equals_the_serial_run(
        self, testbed, pool, tmp_path, gathers, route, path
    ):
        """Regression: an executor used to move the EnSF analysis onto
        member-seeded streams, so one run gave one series without an
        executor and another with one.  Only the forecast member-shards, on
        both reverse-SDE paths (a non-uniform R forces the full-space one)."""
        if path == "full-space":
            model, truth0, _ = testbed
            testbed = (model, truth0, IdentityObservation(DIM, np.linspace(0.3, 0.7, DIM)))
        executor = {"in-process": EnsembleExecutor(n_workers=1), "pool": pool}[route]
        serial, serial_ckpt = self._run(testbed, tmp_path / "serial.ckpt")
        got, ckpt = self._run(testbed, tmp_path / "executor.ckpt", executor=executor)
        np.testing.assert_array_equal(got.analysis_rmse, serial.analysis_rmse)
        np.testing.assert_array_equal(got.forecast_rmse, serial.forecast_rmse)
        np.testing.assert_array_equal(ckpt.state, serial_ckpt.state)
        np.testing.assert_array_equal(ckpt.truth, serial_ckpt.truth)
        # one forecast gather per cycle, of as many jobs as workers
        workers = {"in-process": 1, "pool": 2}[route]
        assert gathers == [("_forecast_chunk", workers, workers)] * 4

    @pytest.mark.parametrize("route", ["in-process", "pool"])
    def test_resumed_online_run_equals_the_uninterrupted_run(
        self, testbed, pool, tmp_path, route
    ):
        """Two cycles under an executor, then a fresh run resumed from their
        checkpoint: every record, online loss included, and the final state
        are the uninterrupted serial run's.  The filter's stream and the
        trainer's previous analysis mean travel in the checkpoint."""
        executor = {"in-process": EnsembleExecutor(n_workers=1), "pool": pool}[route]
        serial, serial_ckpt = self._run(
            testbed, tmp_path / "serial.ckpt", online_trainer=_SumTrainer()
        )
        half = tmp_path / "half.ckpt"
        _, ckpt = self._run(
            testbed, half, n_cycles=2, executor=executor, online_trainer=_SumTrainer()
        )
        assert ckpt.stage_state["post_analysis"]["previous"] is not None
        resumed, final = self._run(
            testbed, tmp_path / "final.ckpt", resume=half, executor=executor,
            online_trainer=_SumTrainer(),
        )
        assert resumed.records == serial.records  # online_loss is a compared field
        np.testing.assert_array_equal(resumed.analysis_rmse, serial.analysis_rmse)
        np.testing.assert_array_equal(final.state, serial_ckpt.state)

    def test_online_training_runs_every_cycle(self, testbed, tmp_path):
        """With a trainer every record carries the training stage's seconds
        and a finite loss; without one the stage reads ``0.0`` and no loss."""
        trained, _ = self._run(testbed, tmp_path / "trained.ckpt", online_trainer=_SumTrainer())
        assert all(r.post_analysis_s > 0.0 for r in trained.records)
        assert all(np.isfinite(r.online_loss) for r in trained.records)
        plain, _ = self._run(testbed, tmp_path / "plain.ckpt")
        assert all(r.post_analysis_s == 0.0 and r.online_loss is None for r in plain.records)
        # training reads the analysis and leaves the DA fields alone
        np.testing.assert_array_equal(trained.analysis_rmse, plain.analysis_rmse)

    def test_minibatched_score_runs_under_an_executor(self, testbed, pool, tmp_path):
        """Regression: with an executor a minibatched score raised
        ``ValueError`` at the first analysis."""
        config = EnSFConfig(n_sde_steps=8, minibatch=4)
        serial, _ = self._run(testbed, tmp_path / "serial.ckpt", ensf_config=config)
        pooled, _ = self._run(
            testbed, tmp_path / "pool.ckpt", ensf_config=config, executor=pool
        )
        assert np.isfinite(pooled.analysis_rmse).all()
        np.testing.assert_array_equal(pooled.analysis_rmse, serial.analysis_rmse)

    def test_member_seeded_checkpoint_is_refused(self, testbed, tmp_path):
        """A checkpoint from the retired member-seeded analysis stage names
        another pipeline; resuming from it fails loudly."""
        path = tmp_path / "engine.ckpt"
        _, ckpt = self._run(testbed, path)
        ckpt.fingerprint["analysis"] = {"stage": "EnSFWorkflowAnalysisStage", "ensf": "EnSF"}
        ckpt.save(path)
        with pytest.raises(ValueError, match="fingerprint"):
            self._run(testbed, tmp_path / "next.ckpt", n_cycles=6, resume=path)
