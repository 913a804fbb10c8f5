"""Experiment-service certification suite (crash isolation, preemption,
resume-on-failure, durable journal, drain, backpressure).

The load-bearing claim everywhere: whatever the scheduler does to a job —
preempt it, crash it, requeue it, restart the whole service from the
journal — the job's scientific results are **bit-identical** to an
undisturbed run of the same submission, because progress only ever moves
through the engine's checksummed checkpoints.  ``_clean_rmse`` computes
that undisturbed oracle by running the same OSSE directly, with no
checkpointing and no service machinery at all.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.utils.faults import FaultPlan
from repro.workflow.scheduler import (
    JOB_STATES,
    TERMINAL_STATES,
    ExperimentService,
    JobSpec,
    ServiceConfig,
    lorenz96_ensf_job,
)

RUNNER = "repro.workflow.scheduler:lorenz96_ensf_job"

# Small-but-real OSSE workloads: SHORT finishes fast, LONG spans enough
# cycle boundaries for a preemption/crash to land mid-run.
SHORT = {"dim": 12, "n_cycles": 4, "ensemble_size": 6, "n_sde_steps": 5, "spinup": 30}
LONG = dict(SHORT, n_cycles=40)

_CLEAN_CACHE: dict = {}


def _clean_rmse(params) -> list:
    """Oracle: the same OSSE run directly — no service, no checkpoints."""
    key = tuple(sorted(params.items()))
    if key not in _CLEAN_CACHE:
        from repro.core.ensf import EnSF, EnSFConfig
        from repro.core.observations import IdentityObservation
        from repro.da.cycling import OSSEConfig, run_osse
        from repro.models.lorenz96 import Lorenz96

        p = dict(params)
        dim = int(p.get("dim", 12))
        seed = int(p.get("seed", 0))
        model = Lorenz96(dim=dim)
        truth0 = model.spinup(int(p.get("spinup", 50)), rng=seed)
        operator = IdentityObservation(dim, obs_error_var=float(p.get("obs_error_var", 0.5)))
        filter_ = EnSF(EnSFConfig(n_sde_steps=int(p.get("n_sde_steps", 8))), rng=seed + 5)
        config = OSSEConfig(
            n_cycles=int(p.get("n_cycles", 8)),
            steps_per_cycle=int(p.get("steps_per_cycle", 2)),
            ensemble_size=int(p.get("ensemble_size", 8)),
            seed=seed,
        )
        result = run_osse(model, model, filter_, operator, truth0, config)
        _CLEAN_CACHE[key] = [float(v) for v in result.analysis_rmse]
    return _CLEAN_CACHE[key]


def _service(tmp_path, **kwargs) -> ExperimentService:
    config = kwargs.pop("config", None) or ServiceConfig(
        max_running=2, retry_backoff_s=0.01, poll_s=0.01
    )
    return ExperimentService(tmp_path / "journal.json", config=config, **kwargs)


def _wait_until(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.002)


def _wait_for_state(service, name, state, timeout=20.0):
    _wait_until(lambda: service.state(name) == state, f"job {name!r} to be {state!r}", timeout)


def _always_crash(ctx):
    raise RuntimeError("synthetic job bug")


def _slow_job(ctx):
    time.sleep(0.2)
    return {"ok": True}


# --------------------------------------------------------------------------- #
# validation / submission
# --------------------------------------------------------------------------- #


class TestValidation:
    def test_service_config_bounds(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_running=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_queued=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ServiceConfig(checkpoint_every=0)
        with pytest.raises(ValueError):
            ServiceConfig(keep_last=0)

    def test_job_spec_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            JobSpec(name="", runner=RUNNER)
        with pytest.raises(ValueError, match="module:qualname"):
            JobSpec(name="x", runner="not-a-ref")
        with pytest.raises(ValueError, match="not importable"):
            JobSpec(name="x", runner=lambda ctx: None)
        with pytest.raises(TypeError):
            JobSpec(name="x", runner=RUNNER, params={"bad": object()})
        with pytest.raises(ValueError):
            JobSpec(name="x", runner=RUNNER, max_attempts=0)
        # a module-level callable normalizes to its importable reference
        assert JobSpec(name="x", runner=lorenz96_ensf_job).runner == RUNNER

    def test_submit_rejects_unimportable_runner_early(self, tmp_path):
        with _service(tmp_path) as svc:
            with pytest.raises(ValueError, match="not importable"):
                svc.submit("job", "no.such.module:fn")

    def test_duplicate_name_rejected(self, tmp_path):
        with _service(tmp_path) as svc:
            assert svc.submit("job", RUNNER, params=SHORT) == "pending"
            with pytest.raises(ValueError, match="already submitted"):
                svc.submit("job", RUNNER, params=SHORT)

    def test_lifecycle_constants(self):
        assert set(TERMINAL_STATES) <= set(JOB_STATES)
        assert "running" not in TERMINAL_STATES


# --------------------------------------------------------------------------- #
# happy path
# --------------------------------------------------------------------------- #


class TestCompletion:
    def test_jobs_complete_with_clean_results(self, tmp_path):
        with _service(tmp_path) as svc:
            for i in range(3):
                params = dict(SHORT, seed=i)
                assert svc.submit(f"job-{i}", RUNNER, params=params) == "pending"
            states = svc.run_until_complete(timeout=120.0)
        assert states == {f"job-{i}": "done" for i in range(3)}
        for i in range(3):
            result = svc.result(f"job-{i}")
            # journal round-trips results through JSON: plain builtins only
            json.dumps(result)
            assert result["analysis_rmse"] == _clean_rmse(dict(SHORT, seed=i))
            assert result["final_rmse"] == result["analysis_rmse"][-1]

    def test_status_snapshot_and_accessors(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.submit("job", RUNNER, params=SHORT)
            assert svc.status() == {"job": "pending"}
            assert svc.result("job") is None
            assert len(svc.job_fault_log("job")) == 0
            svc.run_until_complete(timeout=60.0)
            assert svc.status() == {"job": "done"}


# --------------------------------------------------------------------------- #
# preemption
# --------------------------------------------------------------------------- #


class TestPreemption:
    def test_high_priority_preempts_and_both_finish_bit_identically(self, tmp_path):
        config = ServiceConfig(max_running=1, retry_backoff_s=0.01, poll_s=0.01)
        low_params = dict(LONG, seed=1)
        high_params = dict(SHORT, seed=2)
        with _service(tmp_path, config=config) as svc:
            svc.start()
            svc.submit("low", RUNNER, params=low_params, priority=0)
            _wait_for_state(svc, "low", "running")
            svc.submit("high", RUNNER, params=high_params, priority=10)
            states = svc.run_until_complete(timeout=180.0)
        assert states == {"low": "done", "high": "done"}
        # the yield is visible in both ledgers...
        assert svc.fault_log.count(action="preempt") >= 1
        assert svc.job_fault_log("low").count(action="preempt") >= 1
        # ...and checkpoint-resume kept the interrupted job bit-identical
        assert svc.result("low")["analysis_rmse"] == _clean_rmse(low_params)
        assert svc.result("high")["analysis_rmse"] == _clean_rmse(high_params)
        # preemption never consumes the crash budget
        assert svc.job_fault_log("low").count(action="job-retry") == 0

    def test_equal_priority_never_preempts(self, tmp_path):
        config = ServiceConfig(max_running=1, retry_backoff_s=0.01, poll_s=0.01)
        with _service(tmp_path, config=config) as svc:
            svc.start()
            svc.submit("first", RUNNER, params=dict(SHORT, seed=3), priority=5)
            svc.submit("second", RUNNER, params=dict(SHORT, seed=4), priority=5)
            states = svc.run_until_complete(timeout=120.0)
        assert states == {"first": "done", "second": "done"}
        assert svc.fault_log.count(action="preempt") == 0


# --------------------------------------------------------------------------- #
# crash isolation + resume-on-failure
# --------------------------------------------------------------------------- #


class TestCrashRecovery:
    def test_injected_crash_heals_bit_identically(self, tmp_path):
        params = dict(LONG, seed=5)
        # scheduler-site visits count journal writes: #0 submit, #1 the
        # pending->running transition -- so occurrence 1 arms the crash just
        # as the job starts and it fires at the next cycle boundary
        plan = FaultPlan.from_spec("job-crash@scheduler:1,job=victim")
        with _service(tmp_path, fault_plan=plan) as svc:
            svc.submit("victim", RUNNER, params=params)
            states = svc.run_until_complete(timeout=180.0)
        assert states == {"victim": "done"}
        log = svc.job_fault_log("victim").summary()
        assert log.get("job-crash") == 1
        assert log.get("job-retry") == 1
        assert svc.result("victim")["analysis_rmse"] == _clean_rmse(params)

    def test_crash_in_one_job_never_touches_siblings(self, tmp_path):
        params = dict(SHORT, seed=6)
        with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as pool:
            with _service(tmp_path, executor=pool) as svc:
                svc.submit("crasher", "test_scheduler:_always_crash", max_attempts=2)
                svc.submit("healthy", RUNNER, params=params)
                states = svc.run_until_complete(timeout=120.0)
        assert states == {"crasher": "failed", "healthy": "done"}
        assert svc.result("healthy")["analysis_rmse"] == _clean_rmse(params)

    def test_retry_budget_exhaustion_is_terminal(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.submit("doomed", "test_scheduler:_always_crash", max_attempts=3)
            states = svc.run_until_complete(timeout=60.0)
        assert states == {"doomed": "failed"}
        assert svc.job_fault_log("doomed").count(action="job-retry") == 2
        assert svc.fault_log.count(action="job-failed") == 1
        with svc._lock:
            rec = svc._jobs["doomed"]
        assert rec.attempts == 3
        assert "synthetic job bug" in rec.error


# --------------------------------------------------------------------------- #
# journal durability + restart recovery
# --------------------------------------------------------------------------- #


class TestJournal:
    def test_checksum_rejects_tampering(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.submit("job", RUNNER, params=SHORT)
        path = tmp_path / "journal.json"
        payload = ExperimentService.load_journal(path)
        assert payload["jobs"][0]["name"] == "job"
        wrapper = json.loads(path.read_text())
        wrapper["payload"]["jobs"][0]["state"] = "done"  # tamper
        path.write_text(json.dumps(wrapper))
        assert ExperimentService.load_journal(path) is None

    def test_restart_requeues_non_terminal_and_keeps_results(self, tmp_path):
        params = dict(SHORT, seed=7)
        with _service(tmp_path) as svc:
            svc.submit("finished", RUNNER, params=params)
            svc.run_until_complete(timeout=60.0)
            svc.submit("waiting", RUNNER, params=dict(SHORT, seed=8))
        # new service, same journal: the finished job keeps its result, the
        # pending one is requeued (with resume=True) and completes
        with _service(tmp_path) as svc2:
            assert svc2.status() == {"finished": "done", "waiting": "pending"}
            assert svc2.result("finished")["analysis_rmse"] == _clean_rmse(params)
            states = svc2.run_until_complete(timeout=60.0)
        assert states["waiting"] == "done"
        assert svc2.result("waiting")["analysis_rmse"] == _clean_rmse(dict(SHORT, seed=8))

    def test_torn_journal_falls_back_to_previous_generation(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.submit("a", RUNNER, params=SHORT)
            svc.submit("b", RUNNER, params=dict(SHORT, seed=9))
        path = tmp_path / "journal.json"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])  # tear the newest write
        with _service(tmp_path) as svc2:
            assert svc2.fault_log.count(action="journal-fallback") == 1
            # the .prev generation predates submission of "b" by one write,
            # but both jobs were journaled at least once
            assert "a" in svc2.status()

    def test_recover_false_starts_empty(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.submit("job", RUNNER, params=SHORT)
        with _service(tmp_path, recover=False) as svc2:
            assert svc2.status() == {}


# --------------------------------------------------------------------------- #
# drain + backpressure
# --------------------------------------------------------------------------- #


class TestDrainAndBackpressure:
    def test_backpressure_rejects_beyond_max_queued(self, tmp_path):
        config = ServiceConfig(max_running=1, max_queued=2, poll_s=0.01)
        with _service(tmp_path, config=config) as svc:
            assert svc.submit("a", RUNNER, params=SHORT) == "pending"
            assert svc.submit("b", RUNNER, params=SHORT) == "pending"
            assert svc.submit("c", RUNNER, params=SHORT) == "rejected"
            assert svc.state("c") == "rejected"
            assert svc.fault_log.count(action="reject") == 1
        # rejected is terminal: a restarted service does not resurrect it
        with _service(tmp_path) as svc2:
            assert svc2.status()["c"] == "rejected"

    def test_drain_checkpoints_running_jobs_then_restart_completes(self, tmp_path):
        params = dict(LONG, seed=10)
        config = ServiceConfig(max_running=1, retry_backoff_s=0.01, poll_s=0.01)
        with _service(tmp_path, config=config) as svc:
            svc.start()
            svc.submit("job", RUNNER, params=params)
            _wait_for_state(svc, "job", "running")
            assert svc.drain(timeout=60.0)
            # drained mid-run: preempted (checkpointed), not failed/pending
            assert svc.state("job") == "preempted"
        with _service(tmp_path, config=config) as svc2:
            assert svc2.status() == {"job": "pending"}
            states = svc2.run_until_complete(timeout=180.0)
        assert states == {"job": "done"}
        assert svc2.result("job")["analysis_rmse"] == _clean_rmse(params)

    def test_run_until_complete_timeout(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.submit("slow", "test_scheduler:_slow_job")
            with pytest.raises(TimeoutError, match="slow"):
                svc.run_until_complete(timeout=0.01)


def _nonfinite_result_job(ctx):
    return {"final_rmse": float("nan"), "worst_member": float("inf"), "ok": 1.0}


# Runners below rendezvous through files in the service's job directory, so
# they work the same on a service thread and in a pool worker.


def _gated_job(ctx):
    """Log the launch, then hold the slot until the test opens this job's gate."""
    with open(ctx.workdir.parent / "launched.log", "a") as log:
        log.write(ctx.name + "\n")
    _wait_until((ctx.workdir / "go").exists, f"the gate of {ctx.name!r}")
    return {"ok": True}


def _held_job(ctx):
    """``lorenz96_ensf_job`` that stops at its ``hold_at``-th cycle boundary
    until the test releases it — so a preemption or a drain lands at a
    cycle the test chose, not at one the host's speed chose."""
    release, poll, calls = ctx.workdir / "release", ctx.should_preempt, 0

    def held():
        nonlocal calls
        calls += 1
        if calls == ctx.params["hold_at"] and not release.exists():
            (ctx.workdir / "held").touch()
            _wait_until(release.exists, f"the release of {ctx.name!r}")
        return poll()

    ctx.should_preempt = held
    return lorenz96_ensf_job(ctx)


def _pid_job(ctx):
    """Report this attempt's pid once every job of the campaign is running."""
    (ctx.workdir / "started").touch()
    _wait_until(
        lambda: len(list(ctx.workdir.parent.glob("*/started"))) == ctx.params["n_jobs"],
        "every sibling to be running at once",
    )
    return {"pid": os.getpid()}


def _hard_exit(ctx):
    os._exit(1)  # no exception, no cleanup: the worker is simply gone


def _strict_loads(body: bytes):
    def _reject(token):
        raise AssertionError(f"non-strict JSON token {token!r} in response")

    return json.loads(body.decode("utf-8"), parse_constant=_reject)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return _strict_loads(resp.read())


# --------------------------------------------------------------------------- #
# strict-JSON journal (NaN poisoning regression)
# --------------------------------------------------------------------------- #


class TestStrictJournal:
    def test_nonfinite_result_is_sanitized_not_poisonous(self, tmp_path):
        """A runner returning NaN/Inf must not poison the journal: the job
        completes, non-finite fields become null and are flagged, and the
        journal file never carries a non-strict token."""
        with _service(tmp_path) as svc:
            svc.submit("nanjob", "test_scheduler:_nonfinite_result_job")
            states = svc.run_until_complete(timeout=60.0)
        assert states == {"nanjob": "done"}
        result = svc.result("nanjob")
        assert result["ok"] == 1.0
        assert result["final_rmse"] is None
        assert result["worst_member"] is None
        assert result["nonfinite_fields"] == ["final_rmse", "worst_member"]
        assert svc.job_fault_log("nanjob").count(action="nonfinite-result") == 1
        # the on-disk journal is strict JSON end to end...
        text = (tmp_path / "journal.json").read_text()
        _strict_loads(text.encode("utf-8"))
        assert "NaN" not in text and "Infinity" not in text
        # ...and verifies + round-trips through load_journal
        payload = ExperimentService.load_journal(tmp_path / "journal.json")
        (job,) = [j for j in payload["jobs"] if j["name"] == "nanjob"]
        assert job["result"]["final_rmse"] is None

    def test_nonfinite_result_survives_the_http_frontend(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.submit("nanjob", "test_scheduler:_nonfinite_result_job")
            svc.run_until_complete(timeout=60.0)
            server = svc.serve_status()
            detail = _get(f"{server.url}/jobs/nanjob")
        assert detail["state"] == "done"
        assert detail["result"]["final_rmse"] is None
        assert "final_rmse" in detail["result"]["nonfinite_fields"]

    def test_nonfinite_params_rejected_at_submission(self):
        with pytest.raises(ValueError):
            JobSpec(name="x", runner=RUNNER, params={"bad": float("nan")})
        with pytest.raises(ValueError):
            JobSpec(name="x", runner=RUNNER, weight=float("inf"))
        with pytest.raises(ValueError):
            JobSpec(name="x", runner=RUNNER, weight=0.0)

    def test_pre_fix_nan_journal_treated_as_corrupt(self, tmp_path):
        """A journal written by the pre-fix service (checksum over a
        NaN-carrying canonical form) must fail verification, not load."""
        import hashlib

        payload = {"jobs": [{"name": "old", "state": "done", "result": float("nan")}]}
        canonical = json.dumps(payload, sort_keys=True)  # pre-fix: allow_nan=True
        wrapper = {
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "payload": payload,
        }
        path = tmp_path / "journal.json"
        path.write_text(json.dumps(wrapper))
        assert ExperimentService.load_journal(path) is None


# --------------------------------------------------------------------------- #
# rejected-name resubmission (poisoned-forever regression)
# --------------------------------------------------------------------------- #


class TestResubmission:
    def test_rejected_name_can_resubmit_once_capacity_frees(self, tmp_path):
        config = ServiceConfig(max_running=1, max_queued=1, retry_backoff_s=0.01, poll_s=0.01)
        with _service(tmp_path, config=config) as svc:
            assert svc.submit("a", RUNNER, params=dict(SHORT, seed=11)) == "pending"
            assert svc.submit("b", RUNNER, params=dict(SHORT, seed=12)) == "rejected"
            assert svc.run_until_complete(timeout=120.0)["a"] == "done"
            # capacity freed: the bounced name is usable again...
            assert svc.submit("b", RUNNER, params=dict(SHORT, seed=12)) == "pending"
            states = svc.run_until_complete(timeout=120.0)
        assert states["b"] == "done"
        assert svc.result("b")["analysis_rmse"] == _clean_rmse(dict(SHORT, seed=12))
        # ...while any non-rejected record still owns its name
        with pytest.raises(ValueError, match="already submitted"):
            svc.submit("b", RUNNER, params=SHORT)

    def test_resubmission_survives_restart(self, tmp_path):
        config = ServiceConfig(max_running=1, max_queued=1, poll_s=0.01)
        with _service(tmp_path, config=config) as svc:
            svc.submit("a", RUNNER, params=dict(SHORT, seed=13))
            assert svc.submit("b", RUNNER, params=dict(SHORT, seed=14)) == "rejected"
            svc.run_until_complete(timeout=120.0)
        with _service(tmp_path) as svc2:  # default config: capacity available
            assert svc2.status()["b"] == "rejected"
            assert svc2.submit("b", RUNNER, params=dict(SHORT, seed=14)) == "pending"
            assert svc2.run_until_complete(timeout=120.0)["b"] == "done"


# --------------------------------------------------------------------------- #
# fair-share arbitration
# --------------------------------------------------------------------------- #


class TestFairShare:
    """What tenants compete for is the next free slot: ``fair_share`` orders
    the pending queue, it caps nothing."""

    A, B = "tenant-a", "tenant-b"

    @staticmethod
    def _launches(svc) -> list:
        log = svc.workdir / "launched.log"
        return log.read_text().split() if log.exists() else []

    def _run_releasing_in_launch_order(self, svc, n_jobs) -> list:
        """Open the gates one at a time, oldest launch first; the launch log."""
        svc.start()
        for released in range(n_jobs):
            _wait_until(lambda: len(self._launches(svc)) > released, "the next launch")
            name = self._launches(svc)[released]
            (svc.workdir / name / "go").touch()
            _wait_for_state(svc, name, "done")
        return self._launches(svc)

    def _submit_two_tenants(self, svc) -> None:
        for tenant in (self.A, self.B):
            for i in range(3):
                svc.submit(f"{tenant}-{i}", "test_scheduler:_gated_job", tenant=tenant)

    def test_equal_priority_tenants_alternate(self, tmp_path):
        with _service(tmp_path) as svc:  # two slots, one frees at a time
            self._submit_two_tenants(svc)
            order = self._run_releasing_in_launch_order(svc, 6)
        # tenant A submitted everything first and still gets every other slot
        assert order == [f"{t}-{i}" for i in range(3) for t in (self.A, self.B)]

    def test_fair_share_off_is_submission_order(self, tmp_path):
        config = ServiceConfig(max_running=2, poll_s=0.01, fair_share=False)
        with _service(tmp_path, config=config) as svc:
            self._submit_two_tenants(svc)
            order = self._run_releasing_in_launch_order(svc, 6)
        assert order == [f"{t}-{i}" for t in (self.A, self.B) for i in range(3)]

    @pytest.mark.parametrize("weight, first_three", [(2.0, "b0 a0 a1"), (1.0, "b0 a0 b1")])
    def test_weight_lets_a_tenant_hold_more_slots(self, tmp_path, weight, first_three):
        config = ServiceConfig(max_running=3, poll_s=0.01)
        with _service(tmp_path, config=config) as svc:
            for i in range(2):
                svc.submit(f"b{i}", "test_scheduler:_gated_job", tenant=self.B)
            for i in range(2):
                svc.submit(f"a{i}", "test_scheduler:_gated_job", tenant=self.A, weight=weight)
            svc.start()
            _wait_until(lambda: len(self._launches(svc)) == 3, "three launches")
            # b0 first (nobody runs yet), a0 next (B is loaded); the third slot
            # goes to A again only if two of its attempts weigh what one of B's does
            assert self._launches(svc) == first_three.split()
            for name in ("a0", "a1", "b0", "b1"):
                (svc.workdir / name).mkdir(exist_ok=True)
                (svc.workdir / name / "go").touch()
            assert set(svc.run_until_complete(timeout=60.0).values()) == {"done"}

    def test_higher_priority_still_jumps_the_queue(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.submit("a0", "test_scheduler:_gated_job", tenant=self.A)
            svc.submit("b0", "test_scheduler:_gated_job", tenant=self.B)
            svc.start()
            _wait_until(lambda: len(self._launches(svc)) == 2, "two launches")
            svc.submit("b1", "test_scheduler:_gated_job", tenant=self.B)
            svc.submit("a1", "test_scheduler:_gated_job", tenant=self.A, priority=5)
            (svc.workdir / "b0" / "go").touch()
            # a0 still runs, so tenant B is the idle one — and a1 goes first
            _wait_until(lambda: len(self._launches(svc)) == 3, "the third launch")
            assert self._launches(svc) == ["a0", "b0", "a1"]
            for name in ("a0", "a1", "b1"):
                (svc.workdir / name).mkdir(exist_ok=True)
                (svc.workdir / name / "go").touch()
            assert set(svc.run_until_complete(timeout=60.0).values()) == {"done"}

    def test_slots_are_capped_by_the_pool(self, tmp_path):
        config = ServiceConfig(max_running=4, poll_s=0.01)
        with EnsembleExecutor(n_workers=2) as pool:
            with _service(tmp_path, config=config, executor=pool) as svc:
                for i in range(3):
                    svc.submit(f"job-{i}", "test_scheduler:_gated_job")
                svc.start()
                _wait_until(lambda: len(self._launches(svc)) == 2, "two launches")
                time.sleep(0.05)  # several supervisor polls: a third would show
                assert svc.status_details()["running"] == ["job-0", "job-1"]
                for i in range(3):
                    (svc.workdir / f"job-{i}").mkdir(exist_ok=True)
                    (svc.workdir / f"job-{i}" / "go").touch()
                assert set(svc.run_until_complete(timeout=60.0).values()) == {"done"}

    def test_fair_share_results_bit_identical_to_unshared(self, tmp_path):
        """Ordering the queue touches no result: tenanted jobs on a shared
        pool match the untenanted no-executor service exactly."""
        params = [dict(SHORT, seed=20 + i) for i in range(2)]
        with _service(tmp_path / "serial") as svc:
            for i, p in enumerate(params):
                svc.submit(f"job-{i}", RUNNER, params=p)
            svc.run_until_complete(timeout=120.0)
            serial = [svc.result(f"job-{i}")["analysis_rmse"] for i in range(2)]
        with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as pool:
            with _service(tmp_path / "shared", executor=pool) as svc2:
                for i, p in enumerate(params):
                    svc2.submit(f"job-{i}", RUNNER, params=p, tenant=f"t{i}")
                svc2.run_until_complete(timeout=120.0)
                shared = [svc2.result(f"job-{i}")["analysis_rmse"] for i in range(2)]
        assert shared == serial == [_clean_rmse(p) for p in params]


# --------------------------------------------------------------------------- #
# SIGTERM chaining
# --------------------------------------------------------------------------- #


class TestCheapJobs:
    """Millisecond-cycle jobs on a pool: the ring written far less often
    than once a cycle — results untouched."""

    PARAMS = dict(LONG, n_cycles=120, ensemble_size=8)  # two 4-member chunks

    @staticmethod
    def _ring_cycles(svc, name) -> list:
        from repro.workflow.engine import CheckpointRing

        paths = CheckpointRing(svc.workdir / name / "engine.ckpt").paths()
        return [int(p.name.rsplit(".c", 1)[1]) for p in paths]

    def _assert_amortised_and_clean(self, svc, gathers, name):
        cycles = self._ring_cycles(svc, name)
        # keep_last members spanning more cycles than members: writes were skipped
        assert cycles and cycles[-1] - cycles[0] > len(cycles) - 1
        assert not list(svc.workdir.rglob("*.tmp"))
        assert gathers == []  # a job in the service gathers nothing over the pool

    def test_crashed_mid_run_resumes_from_an_older_checkpoint(self, tmp_path, gathers):
        params = dict(self.PARAMS, seed=21)
        # visit #0 submit, #1 launch, #2 the bystander's submission: the crash
        # is armed while the victim is cycling and fires at its next boundary
        plan = FaultPlan.from_spec("job-crash@scheduler:2,job=victim")
        with EnsembleExecutor(n_workers=2) as pool:
            with _service(tmp_path, executor=pool, fault_plan=plan) as svc:
                svc.start()
                svc.submit("victim", RUNNER, params=params)
                _wait_for_state(svc, "victim", "running")
                svc.submit("bystander", RUNNER, params=dict(SHORT, seed=22))
                states = svc.run_until_complete(timeout=180.0)
            self._assert_amortised_and_clean(svc, gathers, "victim")
        assert states == {"victim": "done", "bystander": "done"}
        log = svc.job_fault_log("victim").summary()
        assert log.get("job-crash") == 1 and log.get("job-retry") == 1
        assert svc.result("victim")["analysis_rmse"] == _clean_rmse(params)

    def test_preempted_resumes_from_its_last_completed_cycle(self, tmp_path, gathers):
        params = dict(self.PARAMS, seed=23)
        config = ServiceConfig(max_running=1, retry_backoff_s=0.01, poll_s=0.01)
        with EnsembleExecutor(n_workers=2) as pool:
            with _service(tmp_path, executor=pool, config=config) as svc:
                svc.start()
                svc.submit("low", RUNNER, params=params, priority=0)
                _wait_for_state(svc, "low", "running")
                svc.submit("high", RUNNER, params=dict(SHORT, seed=24), priority=10)
                states = svc.run_until_complete(timeout=180.0)
            self._assert_amortised_and_clean(svc, gathers, "low")
        assert states == {"low": "done", "high": "done"}
        log = svc.job_fault_log("low")
        assert log.count(action="preempt") >= 1
        # the forced checkpoint was there and intact: nothing to fall back past
        assert log.count(action="checkpoint-fallback") == 0
        assert svc.result("low")["analysis_rmse"] == _clean_rmse(params)


# --------------------------------------------------------------------------- #
# thread slots ≡ process slots
# --------------------------------------------------------------------------- #


HELD = "test_scheduler:_held_job"


def _release(svc, name):
    _wait_until((svc.workdir / name / "held").exists, f"{name!r} to reach its hold")
    (svc.workdir / name / "release").touch()


def _observed(svc, names) -> dict:
    """What a layout may not change: per job, the result and the recovery ledger."""
    return {
        name: (svc.result(name), svc.job_fault_log(name).summary()) for name in names
    }


# Each scenario returns what it observed and, per job, what that must be:
# the params of the undisturbed oracle run, the recovery ledger, and the
# ``fault_recoveries`` the runner counted (the ledger's length as the last
# attempt saw it, the service's own entries included).


def _scenario_clean(root, pool):
    params = {f"job-{i}": dict(SHORT, seed=40 + i) for i in range(2)}
    with _service(root, executor=pool) as svc:
        for name, p in params.items():
            svc.submit(name, RUNNER, params=p)
        assert set(svc.run_until_complete(timeout=120.0).values()) == {"done"}
    return _observed(svc, params), {name: (p, {}, 0) for name, p in params.items()}


def _scenario_preempted(root, pool):
    low, high = dict(LONG, seed=42), dict(SHORT, seed=43)
    config = ServiceConfig(max_running=1, retry_backoff_s=0.01, poll_s=0.01)
    with _service(root, executor=pool, config=config) as svc:
        svc.start()
        svc.submit("low", HELD, params=dict(low, hold_at=5))
        _wait_until((svc.workdir / "low" / "held").exists, "low to reach its hold")
        svc.submit("high", RUNNER, params=high, priority=10)
        _wait_until(lambda: svc.fault_log.count("preempt") == 1, "the preempt request")
        _release(svc, "low")
        assert set(svc.run_until_complete(timeout=120.0).values()) == {"done"}
    return _observed(svc, ["low", "high"]), {
        "low": (low, {"preempt": 1}, 1),
        "high": (high, {}, 0),
    }


def _scenario_crashed(root, pool):
    params = dict(LONG, seed=48)
    # visit #0 the submission, #1 the launch: armed as the attempt starts,
    # fired at its first cycle boundary -- inside the worker, on a pool
    plan = FaultPlan.from_spec("job-crash@scheduler:1,job=victim")
    with _service(root, executor=pool, fault_plan=plan) as svc:
        svc.submit("victim", RUNNER, params=params)
        assert svc.run_until_complete(timeout=120.0) == {"victim": "done"}
    return _observed(svc, ["victim"]), {
        "victim": (params, {"job-crash": 1, "job-retry": 1}, 2)
    }


def _scenario_drained_and_restarted(root, pool):
    from repro.workflow.engine import CheckpointRing

    params = dict(LONG, seed=45)
    config = ServiceConfig(max_running=1, retry_backoff_s=0.01, poll_s=0.01)
    with _service(root, executor=pool, config=config) as svc:
        svc.start()
        svc.submit("job", HELD, params=dict(params, hold_at=5))
        _wait_until((svc.workdir / "job" / "held").exists, "the job to reach its hold")
        svc.request_drain()
        _release(svc, "job")
        assert svc.drain(timeout=60.0)
        assert svc.state("job") == "preempted"
        # Tear the checkpoint the drain forced: the restarted attempt falls
        # back past it, and says so in a ledger that lives in the worker.
        newest = CheckpointRing(svc.workdir / "job" / "engine.ckpt").paths()[-1]
        newest.write_bytes(newest.read_bytes()[:100])
    with _service(root, executor=pool, config=config) as svc2:
        assert svc2.run_until_complete(timeout=120.0) == {"job": "done"}
    # the in-memory ledger does not outlive a service: only the restarted
    # attempt's fallback is in it
    return _observed(svc2, ["job"]), {"job": (params, {"checkpoint-fallback": 1}, 1)}


class TestLayoutMatrix:
    """{no pool, 2-worker pool} x {clean, preempted, crashed, drained +
    restarted}: the same results as the undisturbed oracle, and as each
    other, bit for bit — and the same recovery ledger per job, although
    with a pool half of it was written in another process."""

    @pytest.mark.parametrize(
        "scenario",
        [_scenario_clean, _scenario_preempted, _scenario_crashed, _scenario_drained_and_restarted],
        ids=["clean", "preempted", "crashed", "drained-restarted"],
    )
    def test_threads_and_processes_agree(self, tmp_path, scenario, gathers):
        threads, expected = scenario(tmp_path / "threads", None)
        with EnsembleExecutor(n_workers=2) as pool:
            processes, _ = scenario(tmp_path / "processes", pool)
            assert gathers == []
        assert processes == threads
        for name, (params, ledger, recoveries) in expected.items():
            result, seen = threads[name]
            assert seen == ledger, name
            assert result["fault_recoveries"] == recoveries, name
            assert result["analysis_rmse"] == _clean_rmse(params), name
        assert not list(tmp_path.rglob("*.tmp"))

    def test_two_running_attempts_are_two_processes(self, tmp_path):
        with EnsembleExecutor(n_workers=2) as pool:
            with _service(tmp_path, executor=pool) as svc:
                for name in ("left", "right"):
                    svc.submit(name, "test_scheduler:_pid_job", params={"n_jobs": 2})
                assert set(svc.run_until_complete(timeout=60.0).values()) == {"done"}
        pids = {svc.result(name)["pid"] for name in ("left", "right")}
        assert len(pids) == 2 and os.getpid() not in pids
        # without a pool the same two attempts are two threads of this process
        with _service(tmp_path / "threads") as svc:
            for name in ("left", "right"):
                svc.submit(name, "test_scheduler:_pid_job", params={"n_jobs": 2})
            svc.run_until_complete(timeout=60.0)
        assert {svc.result(n)["pid"] for n in ("left", "right")} == {os.getpid()}

    def test_a_dying_worker_fails_its_job_not_its_sibling(self, tmp_path):
        params = dict(LONG, seed=46)
        with EnsembleExecutor(n_workers=2) as pool:
            with _service(tmp_path, executor=pool) as svc:
                svc.submit("dies", "test_scheduler:_hard_exit", max_attempts=2)
                # each death breaks the pool under the sibling too
                svc.submit("sibling", RUNNER, params=params, max_attempts=4)
                states = svc.run_until_complete(timeout=120.0)
            assert pool.fault_log.count("pool-rebuild") >= 1
        assert states == {"dies": "failed", "sibling": "done"}
        assert "BrokenProcessPool" in svc.job_details("dies")["error"]
        assert svc.job_fault_log("dies").count("job-retry") == 1
        assert svc.result("sibling")["analysis_rmse"] == _clean_rmse(params)

    def test_oversubscribed_pool_under_priority_churn(self, tmp_path):
        """More slots than cores, three priority tiers arriving while the
        campaign runs, a status poller beside it: however often attempts are
        preempted between processes, every result is the oracle's."""
        config = ServiceConfig(max_running=3, retry_backoff_s=0.01, poll_s=0.005)
        params = {f"job-{i}": dict(LONG, seed=60 + i) for i in range(9)}
        with EnsembleExecutor(n_workers=3) as pool:
            with _service(tmp_path, executor=pool, config=config) as svc:
                svc.start()
                stop = threading.Event()

                def poll():
                    while not stop.wait(0.001):
                        svc.status_details()

                poller = threading.Thread(target=poll)
                poller.start()
                try:
                    for i, (name, p) in enumerate(params.items()):
                        svc.submit(name, RUNNER, params=p, priority=i % 3, tenant=f"t{i % 2}")
                        time.sleep(0.01)
                    states = svc.run_until_complete(timeout=120.0)
                finally:
                    stop.set()
                    poller.join(timeout=10)
                assert not poller.is_alive()
        assert set(states.values()) == {"done"}
        for name, p in params.items():
            assert svc.result(name)["analysis_rmse"] == _clean_rmse(p), name
            assert svc.job_fault_log(name).count("job-retry") == 0
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("workers", [None, 2], ids=["threads", "processes"])
    def test_close_leaves_no_attempt_running(self, tmp_path, workers):
        pool = None if workers is None else EnsembleExecutor(n_workers=workers)
        try:
            svc = _service(tmp_path, executor=pool)
            svc.start()
            svc.submit("job", HELD, params=dict(LONG, seed=47, hold_at=3))
            _wait_until((svc.workdir / "job" / "held").exists, "the job to reach its hold")
            closer = threading.Thread(target=svc.close)
            closer.start()  # close() asks the attempt to yield, then waits for it
            _release(svc, "job")
            closer.join(timeout=60.0)
            assert not closer.is_alive()
            assert svc.state("job") == "preempted" and svc.status_details()["running"] == []
        finally:
            if pool is not None:
                pool.close()


_KILL_DRIVER = """
import json, sys
from pathlib import Path
from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.workflow import ExperimentService, ServiceConfig

journal, params = Path(sys.argv[1]), json.loads(sys.argv[2])
config = ServiceConfig(max_running=2, retry_backoff_s=0.01, poll_s=0.01)
with EnsembleExecutor(n_workers=2) as pool:
    with ExperimentService(journal, executor=pool, config=config) as svc:
        for i in range(6):
            if f"job-{i}" not in svc.status():
                svc.submit(f"job-{i}", "repro.workflow.scheduler:lorenz96_ensf_job",
                           params=dict(params, seed=50 + i))
        svc.run_until_complete(timeout=300.0)
        print(json.dumps({n: svc.result(n)["analysis_rmse"] for n in svc.status()}))
"""


def _children_of(pid: int) -> list:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            if int(stat[stat.rindex(")") + 2 :].split()[1]) == pid:
                found.append(int(entry))
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc to see the workers")
class TestKilledService:
    def test_sigkill_leaves_no_attempt_behind_and_restart_is_bit_identical(self, tmp_path):
        """SIGKILL a service mid-campaign, with attempts running in its pool
        workers: they must be gone before a restarted service resumes the
        same checkpoint rings, or a ring would have two writers."""
        from pathlib import Path

        params = dict(LONG, n_cycles=200)
        journal = tmp_path / "journal.json"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[2] / "src"))
        env.pop("REPRO_FAULT_PLAN", None)
        command = [sys.executable, "-c", _KILL_DRIVER, str(journal), json.dumps(params)]

        def states():
            payload = ExperimentService.load_journal(journal) or {"jobs": []}
            return [job["state"] for job in payload["jobs"]]

        first = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        try:
            _wait_until(
                lambda: "done" in states() and states().count("running") == 2,
                "the campaign to be mid-flight",
                timeout=60.0,
            )
            workers = _children_of(first.pid)
            assert len(workers) >= 2
        finally:
            first.kill()
            first.wait()
        # the killed generation: idle workers and workers mid-attempt alike
        _wait_until(lambda: not any(map(_alive, workers)), "the orphaned workers to exit")

        second = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
        assert second.returncode == 0, second.stderr
        results = json.loads(second.stdout.strip().splitlines()[-1])
        assert results == {
            f"job-{i}": _clean_rmse(dict(params, seed=50 + i)) for i in range(6)
        }
        assert not list(tmp_path.rglob("*.tmp"))


class TestSignalChaining:
    def test_sigterm_handler_chains_to_previous(self, tmp_path):
        seen = []
        original = signal.getsignal(signal.SIGTERM)
        try:
            signal.signal(signal.SIGTERM, lambda s, f: seen.append(s))
            with _service(tmp_path) as svc:
                svc.install_signal_handlers()
                handler = signal.getsignal(signal.SIGTERM)
                handler(signal.SIGTERM, None)
                assert svc._draining  # drain ran first...
            assert seen == [signal.SIGTERM]  # ...then the previous handler
        finally:
            signal.signal(signal.SIGTERM, original)

    def test_sigterm_default_disposition_not_invoked(self, tmp_path):
        original = signal.getsignal(signal.SIGTERM)
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            with _service(tmp_path) as svc:
                svc.install_signal_handlers()
                # SIG_DFL is not callable — chaining must skip it, not crash
                signal.getsignal(signal.SIGTERM)(signal.SIGTERM, None)
                assert svc._draining
        finally:
            signal.signal(signal.SIGTERM, original)


# --------------------------------------------------------------------------- #
# HTTP status frontend
# --------------------------------------------------------------------------- #


class TestStatusFrontend:
    def test_routes_and_strict_payloads(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.submit("job", RUNNER, params=SHORT)
            svc.run_until_complete(timeout=60.0)
            server = svc.serve_status()
            assert svc.serve_status() is server  # cached, one socket
            listing = _get(f"{server.url}/jobs")
            assert listing["counts"] == {"done": 1}
            assert listing["jobs"]["job"]["state"] == "done"
            assert "result" not in listing["jobs"]["job"]  # cheap poll path
            detail = _get(f"{server.url}/jobs/job")
            assert detail["result"]["analysis_rmse"] == _clean_rmse(SHORT)
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/jobs/nope")
            assert err.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/unknown")
            assert err.value.code == 404
        # service close shuts the frontend down with it
        with pytest.raises(urllib.error.URLError):
            _get(f"{server.url}/jobs")

    def test_journal_mode_serves_a_dead_service(self, tmp_path):
        from repro.workflow.statusd import StatusServer

        with _service(tmp_path) as svc:
            svc.submit("job", RUNNER, params=SHORT)
            svc.run_until_complete(timeout=60.0)
        with StatusServer(journal_path=tmp_path / "journal.json") as server:
            listing = _get(f"{server.url}/jobs")
            assert listing["source"] == "journal"
            assert listing["jobs"]["job"]["state"] == "done"
            detail = _get(f"{server.url}/jobs/job")
            assert detail["result"]["analysis_rmse"] == _clean_rmse(SHORT)
        with pytest.raises(ValueError):
            StatusServer()  # exactly one of service/journal_path

    def test_concurrent_polling_during_a_live_campaign(self, tmp_path):
        """Journal writes and HTTP snapshots race by design: every poll that
        lands mid-campaign must still return strict, parseable JSON."""
        with _service(tmp_path) as svc:
            server = svc.serve_status()
            stop = threading.Event()
            bodies, errors = [], []

            def poll():
                while not stop.is_set():
                    try:
                        bodies.append(_get(f"{server.url}/jobs"))
                    except urllib.error.URLError as exc:
                        errors.append(exc)
                    time.sleep(0.002)

            pollers = [threading.Thread(target=poll) for _ in range(3)]
            for t in pollers:
                t.start()
            try:
                for i in range(3):
                    svc.submit(f"job-{i}", RUNNER, params=dict(SHORT, seed=30 + i))
                states = svc.run_until_complete(timeout=120.0)
            finally:
                stop.set()
                for t in pollers:
                    t.join(timeout=10)
            final = _get(f"{server.url}/jobs")
        assert states == {f"job-{i}": "done" for i in range(3)}
        assert not errors
        assert len(bodies) >= 3  # saw the campaign, not just the end state
        assert final["counts"] == {"done": 3}
