"""Fault-tolerance certification suite.

Four layers of coverage for the fault-tolerant cycling runtime:

* **FaultPlan mechanics** — spec grammar round-trips, seeded determinism,
  one-shot firing semantics and the ``REPRO_FAULT_PLAN`` env hook.
* **Executor recovery** — injected worker crashes and task hangs (serial
  and 2-worker pool) are retried/rebuilt transparently and the recomputed
  shards are *bit-identical* to a fault-free gather; genuine job errors
  are never retried.
* **OSSE bit-identity under faults** — for LETKF and EnSF, serial and
  pooled, a run with faults injected (spurious corrupted observations
  rejected by QC, worker crashes healed by retry, checkpoint truncation
  healed by ``resume="auto"`` fallback) produces exactly the RMSE/spread
  series of the clean run, with every recovery visible in the FaultLog.
* **Degraded modes** — QC verdicts, cycle-deadline forecast-only cycles,
  and the divergence policies (halt / reinflate / reset-from-checkpoint,
  the latter bit-identical for transient faults).
"""

import dataclasses
import pickle
import threading

import numpy as np
import pytest

from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import (
    IdentityObservation,
    NonlinearObservation,
    ObservationEvent,
    ObservationQC,
    ObservationStream,
    SubsampledObservation,
)
from repro.da.cycling import CyclingResult, OSSEConfig, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.hpc.ensemble_parallel import EnsembleExecutor, ShardRetryError
from repro.models.lorenz96 import Lorenz96
from repro.utils.faults import (
    ENV_FAULT_PLAN,
    FaultEvent,
    FaultInjected,
    FaultLog,
    FaultPlan,
)
from repro.utils.grid import Grid2D
from repro.utils.random import SeedSequenceFactory
from repro.workflow.engine import (
    CheckpointCorruptError,
    CycleEngine,
    DivergencePolicy,
    EngineCheckpoint,
    EnsembleDivergenceError,
    EnsembleForecastStage,
    FilterAnalysisStage,
    ObservationStage,
    TruthStage,
)

DIM = 40


@pytest.fixture(scope="module")
def testbed():
    model = Lorenz96(dim=DIM)
    truth0 = model.spinup(300, rng=0)
    operator = IdentityObservation(DIM, obs_error_var=0.5)
    return model, truth0, operator


def _letkf():
    grid = Grid2D(10, 2, nlev=2)
    return LETKF(
        grid,
        LETKFConfig(cutoff=4.0e6, shard_columns=8),
    )


def _ensf():
    return EnSF(EnSFConfig(n_sde_steps=15), rng=SeedSequenceFactory(9).rng("filter"))


def _assert_identical(result: CyclingResult, oracle: CyclingResult):
    np.testing.assert_array_equal(result.forecast_rmse, oracle.forecast_rmse)
    np.testing.assert_array_equal(result.analysis_rmse, oracle.analysis_rmse)
    np.testing.assert_array_equal(result.analysis_spread, oracle.analysis_spread)
    np.testing.assert_array_equal(result.truth_final, oracle.truth_final)
    np.testing.assert_array_equal(result.analysis_mean_final, oracle.analysis_mean_final)


def _raise_value_error(job):
    raise ValueError("a genuine job bug")


# --------------------------------------------------------------------------- #
# FaultPlan mechanics
# --------------------------------------------------------------------------- #


class TestFaultPlan:
    def test_spec_round_trip(self):
        spec = (
            "worker-crash@executor:1;"
            "obs-corrupt@observations:3,mode=in-place,value=gross,fraction=0.5;"
            "checkpoint-truncate@checkpoint:0,keep=0.25"
        )
        plan = FaultPlan.from_spec(spec)
        assert len(plan) == 3
        assert FaultPlan.from_spec(plan.spec()).events == plan.events
        event = plan.events[1]
        assert event.payload == {"mode": "in-place", "value": "gross", "fraction": 0.5}
        assert plan.events[2].payload == {"keep": 0.25}

    def test_seeded_is_deterministic_and_valid(self):
        assert FaultPlan.seeded(7, n_events=5).spec() == FaultPlan.seeded(7, n_events=5).spec()
        plan = FaultPlan.seeded(7, n_events=5)
        assert len(plan) == 5  # every event validated by FaultEvent.__post_init__

    def test_events_fire_exactly_once(self):
        plan = FaultPlan.from_spec("worker-crash@executor:1")
        assert plan.visit("executor") == []
        fired = plan.visit("executor")
        assert [e.kind for e in fired] == ["worker-crash"]
        assert plan.visit("executor") == []  # one-shot: retries recompute clean
        assert plan.visits("executor") == 3
        plan.reset()
        assert plan.visit("executor") == []
        assert [e.kind for e in plan.visit("executor")] == ["worker-crash"]

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({ENV_FAULT_PLAN: "  "}) is None
        plan = FaultPlan.from_env({ENV_FAULT_PLAN: "task-hang@executor:2,hang_s=0.1"})
        assert plan.events[0].kind == "task-hang"
        assert plan.events[0].payload == {"hang_s": 0.1}

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor-strike", "executor", 0)
        with pytest.raises(ValueError, match="belongs to site"):
            FaultEvent("obs-corrupt", "executor", 0)
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.from_spec("worker-crash:executor@1")
        with pytest.raises(ValueError, match="malformed fault payload"):
            FaultPlan.from_spec("worker-crash@executor:1,oops")

    def test_malformed_occurrence_quotes_the_entry(self):
        """A typo'd occurrence must fail fast and name the offending entry."""
        with pytest.raises(
            ValueError, match=r"malformed occurrence 'x'.*'worker-crash@executor:x'"
        ):
            FaultPlan.from_spec("worker-crash@executor:x")
        with pytest.raises(ValueError, match=r"malformed occurrence '1\.5'"):
            FaultPlan.from_spec("worker-crash@executor:1.5")
        with pytest.raises(
            ValueError,
            match=r"occurrence must be non-negative.*'worker-crash@executor:-2'",
        ):
            FaultPlan.from_spec("worker-crash@executor:-2")

    def test_unknown_payload_key_quotes_kind_and_known_keys(self):
        """A typo'd payload key must be rejected up front, not silently ignored."""
        with pytest.raises(
            ValueError, match=r"unknown payload key\(s\) \['hangs'\].*'task-hang'"
        ):
            FaultPlan.from_spec("task-hang@executor:1,hangs=0.5")
        # the known-key inventory is part of the message (typo guidance)
        with pytest.raises(ValueError, match=r"known: \['keep'\]"):
            FaultPlan.from_spec("journal-torn@scheduler:0,kep=0.3")
        # a valid key on the wrong kind is still unknown for that kind
        with pytest.raises(ValueError, match="unknown payload key"):
            FaultPlan.from_spec("service-kill@scheduler:0,keep=0.5")

    def test_duplicate_events_rejected_with_spec(self):
        """The same (kind, site, occurrence) scheduled twice is a plan bug."""
        with pytest.raises(
            ValueError, match=r"duplicate fault event 'worker-crash@executor:3'"
        ):
            FaultPlan.from_spec("worker-crash@executor:3;worker-crash@executor:3")
        # duplicates differing only in payload still collide (they would race
        # for the same visit)
        with pytest.raises(ValueError, match="at most once"):
            FaultPlan.from_spec(
                "journal-torn@scheduler:2,keep=0.1;journal-torn@scheduler:2,keep=0.9"
            )
        # distinct occurrences of the same kind remain legal
        plan = FaultPlan.from_spec("worker-crash@executor:3;worker-crash@executor:5")
        assert len(plan) == 2

    def test_fault_log_counting(self):
        log = FaultLog()
        log.record("executor", "retry", "x", cycle=1)
        log.record("executor", "pool-rebuild")
        log.record("observations", "qc-reject", cycle=2)
        assert len(log) == 3
        assert log.count(action="retry") == 1
        assert log.count(site="executor") == 2
        assert log.summary() == {"retry": 1, "pool-rebuild": 1, "qc-reject": 1}


class TestFaultThreadSafety:
    """FaultLog/FaultPlan are shared by scheduler jobs running in threads:
    concurrent records must never be lost and one-shot events must fire
    exactly once even under contended visits."""

    N_THREADS = 8

    def _run_threads(self, work):
        barrier = threading.Barrier(self.N_THREADS)

        def body(i):
            barrier.wait()  # maximize interleaving
            work(i)

        threads = [
            threading.Thread(target=body, args=(i,)) for i in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_concurrent_records_are_all_kept(self):
        log = FaultLog()
        per_thread = 250

        def work(i):
            for j in range(per_thread):
                log.record("scheduler", "job-retry", f"t{i}.{j}", cycle=j)

        self._run_threads(work)
        total = self.N_THREADS * per_thread
        assert len(log) == total
        assert log.summary() == {"job-retry": total}
        assert log.count(site="scheduler") == total
        # no record was torn: every entry still parses back to its writer
        details = {record.detail for record in log}
        assert len(details) == total

    def test_concurrent_visits_fire_each_event_once(self):
        per_thread = 50
        plan = FaultPlan.from_spec(
            "worker-crash@executor:10;task-hang@executor:177"
        )
        fired = []
        fired_lock = threading.Lock()

        def work(i):
            for _ in range(per_thread):
                events = plan.visit("executor")
                if events:
                    with fired_lock:
                        fired.extend(events)

        self._run_threads(work)
        assert plan.visits("executor") == self.N_THREADS * per_thread
        assert sorted(e.kind for e in fired) == ["task-hang", "worker-crash"]


# --------------------------------------------------------------------------- #
# Executor recovery
# --------------------------------------------------------------------------- #


class TestExecutorRecovery:
    JOBS = [np.arange(4, dtype=float) + i for i in range(3)]

    def test_serial_crash_recovery_is_bit_identical(self):
        clean = EnsembleExecutor(n_workers=1).map_blocks(np.negative, self.JOBS)
        executor = EnsembleExecutor(
            n_workers=1,
            retry_backoff_s=0.0,
            fault_plan=FaultPlan.from_spec("worker-crash@executor:0,job=1"),
        )
        healed = executor.map_blocks(np.negative, self.JOBS)
        for a, b in zip(healed, clean):
            np.testing.assert_array_equal(a, b)
        assert executor.fault_log.count(action="retry") == 1

    def test_pool_crash_recovery_is_bit_identical(self):
        clean = EnsembleExecutor(n_workers=1).map_blocks(np.negative, self.JOBS)
        with EnsembleExecutor(
            n_workers=2,
            min_members_per_worker=1,
            retry_backoff_s=0.0,
            fault_plan=FaultPlan.from_spec("worker-crash@executor:0"),
        ) as executor:
            healed = executor.map_blocks(np.negative, self.JOBS)
            for a, b in zip(healed, clean):
                np.testing.assert_array_equal(a, b)
            assert executor.fault_log.count(action="retry") >= 1
            assert executor.fault_log.count(action="pool-rebuild") >= 1

    def test_task_hang_killed_by_deadline(self):
        clean = EnsembleExecutor(n_workers=1).map_blocks(np.negative, self.JOBS)
        with EnsembleExecutor(
            n_workers=2,
            min_members_per_worker=1,
            retry_backoff_s=0.0,
            task_deadline_s=0.5,
            fault_plan=FaultPlan.from_spec("task-hang@executor:0,hang_s=30,job=2"),
        ) as executor:
            healed = executor.map_blocks(np.negative, self.JOBS)
            for a, b in zip(healed, clean):
                np.testing.assert_array_equal(a, b)
            assert executor.fault_log.count(action="deadline-kill") == 1
            assert executor.fault_log.count(action="pool-rebuild") == 1

    def test_job_function_errors_are_not_retried(self):
        executor = EnsembleExecutor(n_workers=1, fault_plan=FaultPlan())
        with pytest.raises(ValueError, match="genuine job bug"):
            executor.map_blocks(_raise_value_error, self.JOBS)
        assert executor.fault_log.count(action="retry") == 0

    def test_retry_budget_exhaustion(self):
        executor = EnsembleExecutor(
            n_workers=1,
            max_retries=1,
            retry_backoff_s=0.0,
            fault_plan=FaultPlan.from_spec(
                "worker-crash@executor:0;worker-crash@executor:1"
            ),
        )
        with pytest.raises(ShardRetryError) as excinfo:
            executor.map_blocks(np.negative, self.JOBS)
        assert isinstance(excinfo.value.__cause__, FaultInjected)


# --------------------------------------------------------------------------- #
# OSSE bit-identity with faults on vs. off
# --------------------------------------------------------------------------- #

# Spurious corrupted retransmission at the 3rd measurement (QC must reject
# it) plus a worker crash at the 4th executor gather (pool runs only — the
# "executor" site is never visited without an executor).
OSSE_PLAN_SPEC = "obs-corrupt@observations:2;worker-crash@executor:3"


class TestOSSEBitIdentity:
    CONFIG = OSSEConfig(
        n_cycles=6, steps_per_cycle=4, ensemble_size=10, seed=3, qc=ObservationQC()
    )

    def _run(self, testbed, filter_factory, executor=None, fault_plan=None, **kwargs):
        model, truth0, operator = testbed
        return run_osse(
            model, model, filter_factory(), operator, truth0, self.CONFIG,
            executor=executor, fault_plan=fault_plan,
            store_history=True, **kwargs,
        )

    @pytest.mark.parametrize("filter_factory", [_letkf, _ensf], ids=["letkf", "ensf"])
    def test_serial_faulted_equals_clean(self, testbed, filter_factory):
        clean = self._run(testbed, filter_factory)
        assert clean.fault_log is not None and len(clean.fault_log) == 0
        faulted = self._run(
            testbed, filter_factory, fault_plan=FaultPlan.from_spec(OSSE_PLAN_SPEC)
        )
        _assert_identical(faulted, clean)
        np.testing.assert_array_equal(
            faulted.analysis_mean_history, clean.analysis_mean_history
        )
        assert faulted.fault_log.count(action="obs-corrupt") == 1
        assert faulted.fault_log.count(action="qc-reject") == 1

    @pytest.mark.parametrize("filter_factory", [_letkf, _ensf], ids=["letkf", "ensf"])
    def test_pool_faulted_equals_clean(self, testbed, filter_factory):
        # Dedicated executors: the faulted one has its pool deliberately
        # crashed, so the shared module fixture must not be used here.
        plan = FaultPlan.from_spec(OSSE_PLAN_SPEC)
        with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as ex_clean:
            clean = self._run(testbed, filter_factory, executor=ex_clean)
        with EnsembleExecutor(
            n_workers=2, min_members_per_worker=1,
            retry_backoff_s=0.0, fault_plan=plan,
        ) as ex_faulted:
            faulted = self._run(
                testbed, filter_factory, executor=ex_faulted, fault_plan=plan
            )
            assert ex_faulted.fault_log.count(action="retry") >= 1
            assert ex_faulted.fault_log.count(action="pool-rebuild") >= 1
        _assert_identical(faulted, clean)
        assert faulted.fault_log.count(action="qc-reject") == 1

    def test_env_injected_plan_equals_clean(self, testbed, monkeypatch):
        """The REPRO_FAULT_PLAN env knob drives an unmodified driver."""
        monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
        clean = self._run(testbed, _letkf)
        monkeypatch.setenv(ENV_FAULT_PLAN, "obs-corrupt@observations:1,value=inf")
        faulted = self._run(testbed, _letkf)
        _assert_identical(faulted, clean)
        assert faulted.fault_log.count(action="qc-reject") == 1


# --------------------------------------------------------------------------- #
# Checkpoint integrity, ring rotation and resume="auto"
# --------------------------------------------------------------------------- #


class TestSelfHealingCheckpoints:
    CONFIG = OSSEConfig(n_cycles=8, steps_per_cycle=4, ensemble_size=10, seed=9)

    def _run(self, testbed, filter_factory, **kwargs):
        model, truth0, operator = testbed
        return run_osse(
            model, model, filter_factory(), operator, truth0, self.CONFIG,
            store_history=True, **kwargs,
        )

    def test_checkpoint_checksum_detects_truncation(self, testbed, tmp_path):
        path = tmp_path / "engine.ckpt"
        self._run(testbed, _letkf, checkpoint_every=4, checkpoint_path=path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError):
            EngineCheckpoint.load(path)

    def test_legacy_raw_pickle_still_loads(self, testbed, tmp_path):
        path = tmp_path / "engine.ckpt"
        self._run(testbed, _letkf, checkpoint_every=4, checkpoint_path=path)
        ckpt = EngineCheckpoint.load(path)
        legacy = tmp_path / "legacy.ckpt"
        with open(legacy, "wb") as fh:
            pickle.dump(ckpt, fh)
        assert EngineCheckpoint.load(legacy).next_cycle == ckpt.next_cycle

    def test_ring_rotates_and_prunes(self, testbed, tmp_path):
        base = tmp_path / "engine.ckpt"
        self._run(
            testbed, _letkf, checkpoint_every=2, checkpoint_path=base, keep_last=2
        )
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["engine.ckpt.c000006", "engine.ckpt.c000008"]

    @pytest.mark.parametrize("filter_factory", [_letkf, _ensf], ids=["letkf", "ensf"])
    def test_auto_resume_falls_back_past_truncated_checkpoint(
        self, testbed, filter_factory, tmp_path
    ):
        base = tmp_path / "engine.ckpt"
        # The injected truncation tears the final ring member (the 4th
        # checkpoint write) after the run state has moved on, so the run
        # itself is still bit-identical to a clean one.
        uninterrupted = self._run(
            testbed, filter_factory,
            checkpoint_every=2, checkpoint_path=base, keep_last=3,
            fault_plan=FaultPlan.from_spec("checkpoint-truncate@checkpoint:3"),
        )
        assert uninterrupted.fault_log.count(action="checkpoint-truncate") == 1
        clean = self._run(testbed, filter_factory)
        _assert_identical(uninterrupted, clean)
        # A fresh driver resuming "auto" must walk past the torn .c000008
        # member to .c000006 and recompute cycles 6-7 bit-identically.
        resumed = self._run(
            testbed, filter_factory,
            resume="auto", checkpoint_every=2, checkpoint_path=base, keep_last=3,
        )
        assert resumed.fault_log.count(action="checkpoint-fallback") == 1
        _assert_identical(resumed, uninterrupted)
        np.testing.assert_array_equal(
            resumed.analysis_mean_history, uninterrupted.analysis_mean_history
        )

    def test_auto_resume_starts_fresh_without_checkpoints(self, testbed, tmp_path):
        base = tmp_path / "engine.ckpt"
        fresh = self._run(
            testbed, _letkf, resume="auto",
            checkpoint_every=4, checkpoint_path=base, keep_last=2,
        )
        clean = self._run(testbed, _letkf)
        _assert_identical(fresh, clean)


# --------------------------------------------------------------------------- #
# Degraded modes: QC, cycle deadline, divergence policies
# --------------------------------------------------------------------------- #


def _event(operator, observation):
    return ObservationEvent(
        cycle=0, operator=operator, observation=np.asarray(observation, dtype=float)
    )


class TestObservationQC:
    def test_non_finite_always_rejected(self):
        operator = IdentityObservation(4, obs_error_var=0.5)
        qc = ObservationQC()
        good = qc.check(_event(operator, np.zeros(4)))
        assert good.ok and good.n_bad == 0
        bad = qc.check(_event(operator, [0.0, np.nan, 0.0, np.inf]))
        assert not bad.ok and bad.n_bad == 2 and "non-finite" in bad.reason

    def test_gross_error_threshold(self):
        operator = IdentityObservation(4, obs_error_var=1.0)
        qc = ObservationQC(gross_threshold=3.0)
        forecast_mean = np.zeros(4)
        assert qc.check(_event(operator, np.full(4, 2.0)), forecast_mean).ok
        report = qc.check(_event(operator, np.full(4, 10.0)), forecast_mean)
        assert not report.ok and report.n_bad == 4
        # Without a forecast mean only the finite check can run.
        assert qc.check(_event(operator, np.full(4, 10.0))).ok

    def test_gross_threshold_scales_with_each_components_error(self):
        """The threshold is in units of each component's own σ (diagonal R)."""
        operator = SubsampledObservation(3, np.arange(3), obs_error_var=[1.0, 100.0, 1.0])
        qc = ObservationQC(gross_threshold=3.0, max_bad_fraction=1.0)
        report = qc.check(_event(operator, np.full(3, 5.0)), np.zeros(3))
        assert report.n_bad == 2  # 5σ on components 0 and 2, 0.5σ on component 1

    def test_gross_error_is_judged_in_observation_space(self):
        """The innovation is taken against h(forecast mean), not the mean."""
        operator = NonlinearObservation(4, "arctan", obs_error_var=0.01)
        qc = ObservationQC(gross_threshold=3.0)
        forecast_mean = np.full(4, 10.0)
        assert qc.check(_event(operator, np.arctan(forecast_mean)), forecast_mean).ok
        assert not qc.check(_event(operator, forecast_mean), forecast_mean).ok

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gross_threshold": 0.0},
            {"gross_threshold": -1.0},
            {"max_bad_fraction": -0.1},
            {"max_bad_fraction": 1.5},
        ],
        ids=["threshold_zero", "threshold_negative", "fraction_negative", "fraction_above_one"],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ObservationQC(**kwargs)

    def test_bad_fraction(self):
        operator = IdentityObservation(4, obs_error_var=1.0)
        tolerant = ObservationQC(max_bad_fraction=0.5)
        assert tolerant.check(_event(operator, [np.nan, 0.0, 0.0, 0.0])).ok
        assert not tolerant.check(_event(operator, [np.nan, np.nan, np.nan, 0.0])).ok

    def test_stream_spurious_duplicate_is_flagged(self):
        operator = IdentityObservation(4, obs_error_var=0.5)
        plan = FaultPlan.from_spec("obs-corrupt@observations:0,fraction=0.5")
        stream = ObservationStream(operator, rng=1, fault_plan=plan)
        events = stream.advance(0, np.zeros(4))
        assert len(events) == 2  # genuine + corrupted duplicate
        assert np.isfinite(events[0].observation).all()
        assert np.isnan(events[1].observation[:2]).all()
        assert np.isfinite(events[1].observation[2:]).all()
        assert stream.fault_log.count(action="obs-corrupt") == 1


class TestDegradedCycles:
    def _engine(self, testbed, fault_plan=None, **kwargs):
        model, truth0, operator = testbed
        seeds = SeedSequenceFactory(0)
        engine = CycleEngine(
            truth=TruthStage(model, 2),
            observations=ObservationStage(
                ObservationStream(
                    operator, rng=seeds.rng("observations"), fault_plan=fault_plan
                )
            ),
            forecast=EnsembleForecastStage(model, 2),
            analysis=FilterAnalysisStage(_letkf()),
            **kwargs,
        )
        ens0 = truth0[None, :] + np.random.default_rng(1).standard_normal((6, DIM))
        return engine, truth0, ens0

    def test_zero_deadline_makes_every_cycle_forecast_only(self, testbed):
        engine, truth0, ens0 = self._engine(testbed, cycle_deadline_s=0.0)
        result = engine.run(truth0, ens0, 4)
        assert all(r.deadline_skipped for r in result.records)
        assert not any(r.observed for r in result.records)
        assert engine.fault_log.count(action="analysis-skipped") == 4
        np.testing.assert_array_equal(result.analysis_rmse, result.forecast_rmse)

    def test_qc_rejections_are_counted_per_cycle(self, testbed):
        engine, truth0, ens0 = self._engine(
            testbed,
            qc=ObservationQC(),
            fault_plan=FaultPlan.from_spec("obs-corrupt@observations:1"),
        )
        result = engine.run(truth0, ens0, 4)
        assert [r.qc_rejected for r in result.records] == [0, 1, 0, 0]
        assert result.records[1].observed  # the genuine event still assimilated


class TestDivergencePolicies:
    CONFIG = OSSEConfig(n_cycles=6, steps_per_cycle=4, ensemble_size=10, seed=3)

    def _run(self, testbed, divergence=None, **kwargs):
        model, truth0, operator = testbed
        config = dataclasses.replace(self.CONFIG, divergence=divergence)
        return run_osse(
            model, model, _letkf(), operator, truth0, config,
            store_history=True, **kwargs,
        )

    def test_halt_raises(self, testbed):
        with pytest.raises(EnsembleDivergenceError, match="above limit"):
            self._run(testbed, divergence=DivergencePolicy(spread_max=1e-9))

    def test_reinflate_caps_spread_and_completes(self, testbed):
        limit = 0.25
        result = self._run(
            testbed,
            divergence=DivergencePolicy(spread_max=limit, action="reinflate"),
        )
        assert result.fault_log.count(action="divergence-reinflate") >= 1
        assert result.analysis_spread.max() <= limit * (1.0 + 1e-12)

    def test_reset_without_checkpoint_raises(self, testbed):
        with pytest.raises(EnsembleDivergenceError, match="no valid checkpoint"):
            self._run(testbed, divergence=DivergencePolicy(spread_max=1e-9, action="reset"))

    def test_reset_replays_transient_corruption_bit_identically(self, testbed, tmp_path):
        """An in-place NaN-corrupted observation batch (QC off) poisons the
        analysis; the non-finite state trips divergence detection, the engine
        rewinds to the last checkpoint and — because injected faults fire
        exactly once — the replayed cycles recompute the clean trajectory."""
        clean = self._run(testbed, checkpoint_every=1,
                          checkpoint_path=tmp_path / "clean.ckpt", keep_last=3)
        healed = self._run(
            testbed,
            checkpoint_every=1, checkpoint_path=tmp_path / "faulted.ckpt", keep_last=3,
            divergence=DivergencePolicy(action="reset"),
            fault_plan=FaultPlan.from_spec("obs-corrupt@observations:4,mode=in-place"),
        )
        assert healed.fault_log.count(action="obs-corrupt") == 1
        assert healed.fault_log.count(action="divergence-reset") == 1
        _assert_identical(healed, clean)
        np.testing.assert_array_equal(
            healed.analysis_mean_history, clean.analysis_mean_history
        )
