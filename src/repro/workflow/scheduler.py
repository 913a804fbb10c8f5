"""Supervised multi-job experiment service over the cycling runtime.

The paper's framing is a *continuously operating* assimilation service:
hundreds of cycling experiments (parameter sweeps, per-user scenario
streams) share one machine and must survive job crashes, host restarts and
oversubscription.  :class:`ExperimentService` is that control plane, built
on the two guarantees the runtime already provides — bit-identical
checkpoint/restart (:class:`~repro.workflow.engine.EngineCheckpoint`,
``resume="auto"``) and deterministic fault injection
(:mod:`repro.utils.faults`):

**A slot is a process.**  Given an
:class:`~repro.hpc.ensemble_parallel.EnsembleExecutor`, every job attempt
runs whole on one worker of its pool
(:meth:`~repro.hpc.ensemble_parallel.EnsembleExecutor.run_task`), at most
``min(max_running, n_workers)`` at once, each on its own core and its own
interpreter lock.  The attempt's service-side thread only waits for the
answer — ``done`` + result, ``preempted`` + next cycle, or the error text —
and merges the recovery actions recorded meanwhile into the job's
:class:`~repro.utils.faults.FaultLog`.  Without an executor the same
attempt function runs on that thread, with the same bits.  Jobs do not fan
shards over the pool (``ctx.executor`` is ``None``): at service sizes the
job is what parallelises — two batches of Lorenz-96 jobs took 1.7–2.1 s on
two threads and 0.76–0.97 s in two processes, while sharding one such job is
slower than not (``analysis_speedup`` 0.80).

**Crash isolation.**  An exception (or injected fault) in one job
transitions *that* job to ``backoff``/``failed`` and never touches its
siblings.  A worker that dies outright breaks the pool: the attempts it
took down fail like any crash and the next launch builds a fresh pool.  No
attempt outlives its service: an orphaned worker exits at its next cycle
boundary, before a restarted service resumes the same checkpoint ring.

**Checkpoint-based preemption.**  Jobs are queued by priority.  When a
higher-priority job is waiting and every slot is busy, the lowest-priority
running job is asked to yield — a marker file in its workdir, which
:meth:`JobContext.should_preempt` stats at every cycle boundary, reaches a
thread and a worker process alike: the engine writes a checkpoint there and
raises :class:`~repro.workflow.engine.EnginePreempted`; the job re-enters
the queue and later resumes **bit-identically** via ``resume="auto"``.

**Resume-on-failure.**  A crashed job is requeued from its newest intact
checkpoint after a jittered exponential backoff
(``retry_backoff_s * 2**(attempt-1) * uniform(0.5, 1.5)``, drawn from a
dedicated non-experiment rng), escalating to the terminal ``failed`` state
when ``max_attempts`` is exhausted.

**Durable journal.**  Every lifecycle transition rewrites a checksummed
JSON journal with the same tmp+fsync+``os.replace`` discipline as
:meth:`EngineCheckpoint.save`, keeping the previous generation as
``<journal>.prev``.  A killed-and-restarted service reloads the journal
(falling back to ``.prev`` if the newest write was torn) and requeues every
non-terminal job; combined with checkpoint resume this makes a
SIGKILL-mid-sweep recoverable with bit-identical per-job results.

**Drain and backpressure.**  ``request_drain()`` (wired to SIGTERM by
:meth:`install_signal_handlers`) stops launching, preempts all running
jobs so their progress is checkpointed, and flushes the journal.
Submissions beyond ``max_queued`` live jobs are journaled in the explicit
terminal state ``rejected`` instead of growing the queue without bound.

Job lifecycle::

                 submit                    launch
    (rejected) <-------- [pending] ------------------> [running]
                           ^   ^                        |  |  |
                 backoff   |   |  preempt (checkpoint)  |  |  |
          [backoff] -------+   +------ [preempted] <----+  |  +--> [done]
              ^                                            v
              +------------------ crash (retry left) --- [failed]
                                                          (budget exhausted)

Chaos testing hooks live at the ``"scheduler"`` fault site, visited once
per journal write under the service lock (see :mod:`repro.utils.faults`):
``job-crash`` arms an injected crash of one job at its next cycle
boundary (a marker file again, consumed by the attempt it crashes),
``journal-torn`` truncates the just-written journal, and
``service-kill`` hard-kills the process — the recorded recovery path must
reproduce the clean run's results bit for bit.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.utils.faults import FaultInjected, FaultLog, FaultPlan, jittered_backoff
from repro.workflow.engine import CheckpointCadence, EnginePreempted

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "ServiceConfig",
    "JobSpec",
    "JobContext",
    "ExperimentService",
    "lorenz96_ensf_job",
]

JOB_STATES = ("pending", "running", "preempted", "backoff", "done", "failed", "rejected")
TERMINAL_STATES = ("done", "failed", "rejected")

_JOURNAL_VERSION = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Operating limits of an :class:`ExperimentService`.

    ``max_running`` bounds concurrent jobs (with a pool, so does its worker
    count: a running attempt occupies one worker); ``max_queued`` bounds
    *live* (non-terminal) jobs — submissions beyond it are journaled as
    ``rejected``.
    ``max_attempts`` is the per-job crash budget (a preemption is not a
    crash and never consumes it).  ``checkpoint_every``/``keep_last``
    configure each job's checkpoint ring, which is what makes preemption
    and crash recovery bit-identical: a checkpoint is *due* every
    ``checkpoint_every`` cycles and written unless the previous write
    ended less than ten write-times ago
    (:class:`~repro.workflow.engine.CheckpointCadence`) — millisecond
    cycles spend ~10 % of their time checkpointing and a crash recomputes
    about ten write-times of them; long cycles are written at every due
    boundary, a preempted job always at its last completed cycle.
    ``fair_share`` orders what tenants compete for, the next free slot:
    among pending jobs of equal priority the one whose tenant has the least
    running load (Σ 1/``weight`` over the tenant's running attempts) launches
    first, then the earliest submitted; when off, submission order alone.
    """

    max_running: int = 2
    max_queued: int = 64
    max_attempts: int = 3
    retry_backoff_s: float = 0.05
    backoff_seed: int | None = None
    checkpoint_every: int = 1
    keep_last: int = 3
    poll_s: float = 0.05
    fair_share: bool = True

    def __post_init__(self) -> None:
        if self.max_running < 1:
            raise ValueError("max_running must be positive")
        if self.max_queued < 1:
            raise ValueError("max_queued must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        if self.keep_last < 1:
            raise ValueError("keep_last must be positive")


def _runner_ref(runner) -> str:
    """Normalize ``runner`` to an importable ``"module:qualname"`` string."""
    if isinstance(runner, str):
        ref = runner
    else:
        module = getattr(runner, "__module__", None)
        qualname = getattr(runner, "__qualname__", None)
        if not module or not qualname:
            raise ValueError(f"runner {runner!r} is not an importable callable")
        ref = f"{module}:{qualname}"
    if ":" not in ref:
        raise ValueError(f"runner reference {ref!r} must look like 'module:qualname'")
    if "<" in ref:
        raise ValueError(
            f"runner reference {ref!r} is not importable (lambdas and local "
            "functions cannot be resumed after a service restart)"
        )
    return ref


def _resolve_runner(ref: str):
    """Import the callable behind a ``"module:qualname"`` reference."""
    module_name, _, qualname = ref.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError as exc:
        raise ValueError(f"runner module {module_name!r} is not importable: {exc}") from None
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise ValueError(f"runner {ref!r} does not resolve to an attribute") from None
    if not callable(obj):
        raise ValueError(f"runner {ref!r} is not callable")
    return obj


def _jsonable(value, dropped: list | None = None, path: str = ""):
    """Recursively convert a runner result into **strict**-JSON builtins.

    Non-finite floats (a diverged job's ``final_rmse`` is the canonical
    case) are sanitized to ``None`` rather than passed through: ``NaN`` /
    ``Infinity`` are not JSON, and letting :func:`json.dumps` emit its
    non-strict tokens would poison the checksummed journal for every
    strict parser that later reads it.  When ``dropped`` is given, the
    dotted path of each sanitized field is appended to it so the caller
    can flag the loss instead of silently serving ``null``.
    """
    if isinstance(value, dict):
        return {
            str(k): _jsonable(v, dropped, f"{path}.{k}" if path else str(k))
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, dropped, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist(), dropped, path)
    if isinstance(value, (np.floating,)):
        value = float(value)
    elif isinstance(value, (np.integer,)):
        return int(value)
    elif isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, float) and not math.isfinite(value):
        if dropped is not None:
            dropped.append(path or "<root>")
        return None
    return value


@dataclass(frozen=True)
class JobSpec:
    """One experiment submission.

    ``runner`` is an importable ``"module:qualname"`` reference (or a
    module-level callable, normalized to one) with signature
    ``runner(ctx: JobContext) -> dict``; it must be importable because a
    restarted service re-resolves runners from the journal.  ``params`` is
    the strict-JSON-serializable argument payload handed to the runner via
    ``ctx.params``.  Higher ``priority`` preempts lower.  ``tenant``
    groups jobs for the fair-share launch order (an untenanted job is its
    own tenant) and a running attempt adds 1/``weight`` to its tenant's
    load, so ``weight=2`` jobs hold two slots for the load of one.
    """

    name: str
    runner: str
    params: dict = field(default_factory=dict)
    priority: int = 0
    max_attempts: int | None = None
    tenant: str = ""
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        object.__setattr__(self, "runner", _runner_ref(self.runner))
        # Fail early: the journal must serialize it, strictly (no NaN tokens).
        json.dumps(self.params, allow_nan=False)
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        object.__setattr__(self, "weight", float(self.weight))
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError("weight must be a positive finite float")


class _JobRecord:
    """Internal per-job state: journaled fields plus runtime machinery."""

    def __init__(self, spec: JobSpec, index: int):
        self.spec = spec
        self.index = index
        self.state = "pending"
        self.attempts = 0  # crash count (preemptions don't consume the budget)
        self.resume = False
        self.result: dict | None = None
        self.error: str | None = None
        self.backoff_until = 0.0  # monotonic deadline while in "backoff"
        self.fault_log = FaultLog()
        self.preempting = False  # its preempt flag is up (see JobContext.should_preempt)
        self.thread: threading.Thread | None = None

    def to_payload(self) -> dict:
        return {
            "name": self.spec.name,
            "runner": self.spec.runner,
            "params": self.spec.params,
            "priority": self.spec.priority,
            "max_attempts": self.spec.max_attempts,
            "tenant": self.spec.tenant,
            "weight": self.spec.weight,
            "index": self.index,
            "state": self.state,
            "attempts": self.attempts,
            "resume": self.resume,
            "result": self.result,
            "error": self.error,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "_JobRecord":
        spec = JobSpec(
            name=payload["name"],
            runner=payload["runner"],
            # Sanitize on the way in: a journal written before the strict-
            # JSON fix (or edited by hand) may carry non-finite floats that
            # JobSpec validation and the next journal write would reject.
            params=_jsonable(payload.get("params") or {}),
            priority=int(payload.get("priority", 0)),
            max_attempts=payload.get("max_attempts"),
            tenant=str(payload.get("tenant", "") or ""),
            weight=float(payload.get("weight", 1.0)),
        )
        rec = cls(spec, int(payload["index"]))
        rec.state = payload["state"]
        rec.attempts = int(payload.get("attempts", 0))
        rec.resume = bool(payload.get("resume", False))
        rec.result = _jsonable(payload.get("result"))
        rec.error = payload.get("error")
        return rec


# Marker files in a job's workdir: how the service reaches a running attempt,
# which may be a thread of this process or a pool worker.
_PREEMPT_FLAG = "preempt.flag"
_CRASH_FLAG = "crash.flag"


class JobContext:
    """What a runner gets: identity, parameters, workdir, and the hooks
    that make it preemptible and crash-recoverable.

    One context is one attempt.  It holds plain data only, so it pickles:
    with a pool it is shipped to the worker that runs the attempt, without
    one it is used on the service's thread — the same class, the same hooks.
    ``fault_log`` starts as a copy of the job's ledger and what the attempt
    appends is merged back when it ends.  ``executor`` is always ``None``:
    inside the service the pool's workers run whole attempts, not shards.

    Runners should forward ``**ctx.engine_kwargs()`` to
    :func:`~repro.da.cycling.run_osse` /
    :meth:`~repro.workflow.engine.CycleEngine.run` — it wires up
    ``resume="auto"`` against the job's checkpoint ring and the service's
    preemption hook.
    """

    executor = None

    def __init__(self, service: "ExperimentService", record: _JobRecord):
        self.name = record.spec.name
        self.params = dict(record.spec.params)
        self.attempt = record.attempts + 1
        self.resume = record.resume
        self.fault_log = FaultLog()
        self.fault_log.actions = record.fault_log.snapshot()
        self.workdir = service.workdir / record.spec.name
        self.checkpoint_path = self.workdir / "engine.ckpt"
        self.checkpoint_every = service.config.checkpoint_every
        self.keep_last = service.config.keep_last
        self._service_pid = os.getpid()
        self._preempt_flag = str(self.workdir / _PREEMPT_FLAG)
        self._crash_flag = str(self.workdir / _CRASH_FLAG)
        self.workdir.mkdir(parents=True, exist_ok=True)
        # This attempt is the ring's only writer: a half-written checkpoint
        # here belongs to an attempt that was killed, not to a live one.
        for stale in self.workdir.glob("*.tmp"):
            stale.unlink(missing_ok=True)

    def should_preempt(self) -> bool:
        """Cycle-boundary hook: injected crashes fire here, preemption polls here.

        In a pool worker it first checks that the service which dispatched
        the attempt is still the worker's parent: a killed service is
        restarted onto the same checkpoint ring, which must not have two
        writers.
        """
        if os.getpid() != self._service_pid and os.getppid() != self._service_pid:
            os._exit(1)
        if os.path.exists(self._crash_flag):
            os.unlink(self._crash_flag)
            self.fault_log.record(
                "scheduler", "job-crash", f"injected crash of job {self.name!r}"
            )
            raise FaultInjected(f"injected job crash in {self.name!r}")
        return os.path.exists(self._preempt_flag)

    def engine_kwargs(self) -> dict:
        """Engine keywords wiring a run to this job's ring and preempt hook.

        ``checkpoint_every`` is a fresh
        :class:`~repro.workflow.engine.CheckpointCadence`, so millisecond
        cycles are not each followed by an fsynced checkpoint.
        """
        return {
            "resume": "auto",
            "checkpoint_every": CheckpointCadence(self.checkpoint_every),
            "checkpoint_path": self.checkpoint_path,
            "keep_last": self.keep_last,
            "preempt": self.should_preempt,
        }


def _run_attempt(runner_ref: str, ctx: JobContext) -> dict:
    """One attempt of one job, wherever it runs: a service thread or a pool worker.

    Nothing escapes: the outcome is ``state`` ``"done"`` with the
    strict-JSON ``result``, ``"preempted"`` with ``next_cycle``, or
    ``"error"`` with the ``error`` text — plus ``actions``, what the attempt
    appended to its copy of the job's fault ledger.
    """
    known = len(ctx.fault_log)
    try:
        result = _resolve_runner(runner_ref)(ctx)
    except EnginePreempted as exc:
        outcome = {"state": "preempted", "next_cycle": exc.next_cycle}
    except BaseException as exc:  # crash isolation: a failed attempt is an outcome
        outcome = {"state": "error", "error": f"{type(exc).__name__}: {exc}"}
    else:
        payload = None
        if isinstance(result, dict):
            dropped: list[str] = []
            payload = _jsonable(result, dropped)
            if dropped:
                # Sanitized non-finite floats: keep the journal strict but
                # make the loss visible in the result and the fault ledger.
                payload["nonfinite_fields"] = sorted(dropped)
                ctx.fault_log.record(
                    "scheduler",
                    "nonfinite-result",
                    f"sanitized {len(dropped)} non-finite result "
                    f"field(s): {', '.join(sorted(dropped))}",
                )
        outcome = {"state": "done", "result": payload}
    outcome["actions"] = ctx.fault_log.snapshot()[known:]
    return outcome


class ExperimentService:
    """Run many cycling experiments concurrently over one shared pool.

    Parameters
    ----------
    journal_path:
        The durable job-state store.  If the file (or its ``.prev``
        generation) exists and ``recover=True``, the queue is reloaded:
        terminal jobs keep their results, everything else is requeued with
        ``resume=True`` and continues from its newest intact checkpoint.
    executor:
        Optional :class:`~repro.hpc.ensemble_parallel.EnsembleExecutor` whose
        workers become the service's slots: each attempt runs on one of
        them.  Without it attempts run on threads of this process.  The
        service never closes it — the caller owns the pool.
    config:
        :class:`ServiceConfig` operating limits.
    fault_plan / fault_log:
        Deterministic chaos hooks (``"scheduler"`` site) and the service's
        own recovery ledger; per-job recoveries land in each job's log.
    """

    def __init__(
        self,
        journal_path,
        executor: EnsembleExecutor | None = None,
        config: ServiceConfig | None = None,
        workdir=None,
        recover: bool = True,
        fault_plan: FaultPlan | None = None,
        fault_log: FaultLog | None = None,
    ):
        self.journal_path = Path(journal_path)
        self.executor = executor
        self.config = config if config is not None else ServiceConfig()
        self._slots = self.config.max_running
        if executor is not None:
            self._slots = min(self._slots, executor.n_workers)
        self.workdir = (
            Path(workdir) if workdir is not None else self.journal_path.parent / "jobs"
        )
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, _JobRecord] = {}
        self._order: list[_JobRecord] = []
        self._running: list[_JobRecord] = []
        self._draining = False
        self._stop = False
        self._supervisor: threading.Thread | None = None
        self._backoff_rng = np.random.default_rng(self.config.backoff_seed)
        self._seq = 0  # monotonic job index (never reused, even after resubmits)
        self._status_server = None
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        self.workdir.mkdir(parents=True, exist_ok=True)
        if recover:
            self._recover()

    # -- journal ------------------------------------------------------------ #
    def _journal_payload(self) -> dict:
        return {
            "version": _JOURNAL_VERSION,
            "jobs": [rec.to_payload() for rec in self._order],
        }

    def _write_journal_locked(self) -> None:
        """Atomically persist the queue, then visit the chaos site.

        Same durability discipline as ``EngineCheckpoint.save``: tmp +
        fsync + ``os.replace``, with the previous generation kept as
        ``.prev`` so a torn write (only reachable through injected faults
        or storage-level corruption) still leaves a loadable journal.
        """
        payload = self._journal_payload()
        # allow_nan=False end to end: a non-finite float that slipped past
        # result sanitization must fail the write loudly, never land as a
        # non-strict NaN/Infinity token inside the checksummed journal.
        canonical = json.dumps(payload, sort_keys=True, allow_nan=False)
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        body = json.dumps(
            {"sha256": digest, "payload": payload}, sort_keys=True, allow_nan=False
        )
        path = self.journal_path
        if path.exists():
            prev_tmp = path.with_name(path.name + ".prev.tmp")
            prev_tmp.write_bytes(path.read_bytes())
            os.replace(prev_tmp, path.with_name(path.name + ".prev"))
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w") as fh:
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._chaos_after_journal_write(path)

    def _chaos_after_journal_write(self, path: Path) -> None:
        """One ``"scheduler"`` fault-site visit per journal write (see module doc)."""
        if self.fault_plan is None:
            return
        for event in self.fault_plan.visit("scheduler"):
            if event.kind == "journal-torn":
                keep = float(event.payload.get("keep", 0.5))
                data = path.read_bytes()
                with open(path, "wb") as fh:
                    fh.write(data[: max(0, int(len(data) * keep))])
                self.fault_log.record(
                    "scheduler", "journal-torn", f"truncated journal to keep={keep}"
                )
            elif event.kind == "job-crash":
                rec = self._match_job(event.payload.get("job", 0))
                if rec is not None:
                    self._flag(rec, _CRASH_FLAG, up=True)
                    self.fault_log.record(
                        "scheduler", "job-crash", f"armed injected crash of {rec.spec.name!r}"
                    )
            elif event.kind == "service-kill":
                code = int(event.payload.get("code", 137))
                os._exit(code)  # the SIGKILL shape: no cleanup, no journal flush

    def _flag(self, rec: _JobRecord, flag: str, up: bool) -> None:
        """Raise or lower a marker file of ``rec`` (see :meth:`JobContext.should_preempt`)."""
        path = self.workdir / rec.spec.name / flag
        if up:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.touch()
        else:
            path.unlink(missing_ok=True)

    def _preempt_locked(self, rec: _JobRecord) -> None:
        if not rec.preempting:
            rec.preempting = True
            self._flag(rec, _PREEMPT_FLAG, up=True)

    def _match_job(self, which) -> _JobRecord | None:
        if isinstance(which, str) and which in self._jobs:
            return self._jobs[which]
        try:
            return self._order[int(which) % len(self._order)] if self._order else None
        except (TypeError, ValueError):
            return None

    @staticmethod
    def load_journal(path) -> dict | None:
        """Verified journal payload at ``path``, or ``None`` if unloadable."""
        path = Path(path)
        try:
            wrapper = json.loads(path.read_text())
            payload = wrapper["payload"]
            # allow_nan=False: a journal carrying non-strict NaN/Infinity
            # tokens (pre-fix writes) fails re-canonicalization here and is
            # treated as corrupt, falling back to the .prev generation.
            canonical = json.dumps(payload, sort_keys=True, allow_nan=False)
            if hashlib.sha256(canonical.encode()).hexdigest() != wrapper["sha256"]:
                return None
            return payload
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _recover(self) -> None:
        payload = self.load_journal(self.journal_path)
        if payload is None:
            prev = self.journal_path.with_name(self.journal_path.name + ".prev")
            payload = self.load_journal(prev)
            if payload is not None:
                self.fault_log.record(
                    "scheduler",
                    "journal-fallback",
                    f"journal unreadable; recovered previous generation {prev.name!r}",
                )
        if payload is None:
            return
        with self._cond:
            for job_payload in payload.get("jobs", ()):
                rec = _JobRecord.from_payload(job_payload)
                if rec.state not in TERMINAL_STATES:
                    # Anything in flight when the service died resumes from
                    # its newest intact checkpoint.
                    rec.state = "pending"
                    rec.resume = True
                    # Flags are requests to a running attempt; none survived.
                    self._flag(rec, _PREEMPT_FLAG, up=False)
                    self._flag(rec, _CRASH_FLAG, up=False)
                self._jobs[rec.spec.name] = rec
                self._order.append(rec)
                self._seq = max(self._seq, rec.index + 1)
            if self._order:
                self._write_journal_locked()

    # -- submission / status ------------------------------------------------ #
    def submit(
        self,
        name: str,
        runner,
        params: dict | None = None,
        priority: int = 0,
        max_attempts: int | None = None,
        tenant: str = "",
        weight: float = 1.0,
    ) -> str:
        """Queue a job; returns its state (``"pending"`` or ``"rejected"``).

        The runner is resolved immediately so an unimportable reference
        fails at submission, not deep inside a worker thread.  A name whose
        only record is terminal-``rejected`` may be resubmitted — a
        backpressure bounce is a statement about queue capacity at that
        moment, not a permanent claim on the name (any other state still
        raises: the name's history must stay unambiguous).
        """
        spec = JobSpec(
            name=name,
            runner=runner,
            params=dict(params or {}),
            priority=priority,
            max_attempts=max_attempts,
            tenant=tenant,
            weight=weight,
        )
        _resolve_runner(spec.runner)
        with self._cond:
            existing = self._jobs.get(spec.name)
            if existing is not None:
                if existing.state != "rejected":
                    raise ValueError(f"job {spec.name!r} already submitted")
                self._order.remove(existing)
                del self._jobs[spec.name]
            rec = _JobRecord(spec, index=self._seq)
            self._seq += 1
            live = sum(1 for r in self._order if r.state not in TERMINAL_STATES)
            if live >= self.config.max_queued:
                rec.state = "rejected"
                rec.error = f"queue full ({live} live jobs >= max_queued={self.config.max_queued})"
                self.fault_log.record("scheduler", "reject", rec.error)
            self._jobs[spec.name] = rec
            self._order.append(rec)
            self._write_journal_locked()
            self._cond.notify_all()
            return rec.state

    def state(self, name: str) -> str:
        with self._lock:
            return self._jobs[name].state

    def result(self, name: str) -> dict | None:
        with self._lock:
            return self._jobs[name].result

    def job_fault_log(self, name: str) -> FaultLog:
        with self._lock:
            return self._jobs[name].fault_log

    def status(self) -> dict[str, str]:
        """Cheap name → state snapshot (what a frontend would poll)."""
        with self._lock:
            return {rec.spec.name: rec.state for rec in self._order}

    def _job_details_locked(self, rec: _JobRecord) -> dict:
        now = time.monotonic()
        return _jsonable(
            {
                "name": rec.spec.name,
                "state": rec.state,
                "priority": rec.spec.priority,
                "tenant": rec.spec.tenant,
                "weight": rec.spec.weight,
                "index": rec.index,
                "attempts": rec.attempts,
                "max_attempts": rec.spec.max_attempts or self.config.max_attempts,
                "resume": rec.resume,
                "backoff_remaining_s": (
                    max(0.0, rec.backoff_until - now) if rec.state == "backoff" else 0.0
                ),
                "error": rec.error,
                "fault_summary": {
                    str(k): int(v) for k, v in rec.fault_log.summary().items()
                },
                "result": rec.result,
            }
        )

    def job_details(self, name: str) -> dict:
        """Full strict-JSON detail for one job (the ``/jobs/<name>`` payload)."""
        with self._lock:
            return self._job_details_locked(self._jobs[name])

    def status_details(self) -> dict:
        """Service-wide strict-JSON snapshot (the ``/jobs`` payload).

        Per-job summaries (state/attempts/backoff/fault counts, no
        result arrays — those stay behind ``/jobs/<name>``) plus scheduler
        counters, cheap enough for high-frequency polling.
        """
        with self._lock:
            jobs = {}
            for rec in self._order:
                detail = self._job_details_locked(rec)
                detail.pop("result", None)
                jobs[rec.spec.name] = detail
            counts: dict[str, int] = {}
            for rec in self._order:
                counts[rec.state] = counts.get(rec.state, 0) + 1
            return {
                "jobs": jobs,
                "counts": counts,
                "running": [rec.spec.name for rec in self._running],
                "draining": self._draining,
                "fair_share": self.config.fair_share,
                "max_running": self.config.max_running,
                "pool_workers": None if self.executor is None else self.executor.n_workers,
            }

    def serve_status(self, host: str = "127.0.0.1", port: int = 0):
        """Start (or return) the HTTP status frontend bound to this service.

        Lazily imports :mod:`repro.workflow.statusd`; the server lives on a
        daemon thread and is closed with the service.  ``port=0`` binds an
        ephemeral port — read it back from the returned server's ``port``.
        """
        from repro.workflow.statusd import StatusServer

        with self._lock:
            if self._status_server is None:
                self._status_server = StatusServer(service=self, host=host, port=port)
            return self._status_server

    # -- scheduling --------------------------------------------------------- #
    def _transition_locked(self, rec: _JobRecord, state: str) -> None:
        rec.state = state
        self._write_journal_locked()

    def _ready_locked(self, now: float) -> list[_JobRecord]:
        for rec in self._order:
            if rec.state == "backoff" and now >= rec.backoff_until:
                self._transition_locked(rec, "pending")
        return [rec for rec in self._order if rec.state == "pending"]

    def _launch_key_locked(self):
        """Order of the pending queue, given who is running right now.

        Priority first; then, with ``fair_share``, the running load of the
        job's tenant (an untenanted job is its own tenant, so its load is
        zero); then submission order.  The load changes with every launch,
        so the key is rebuilt for each free slot.
        """
        load: dict[str, float] = {}
        if self.config.fair_share:
            for rec in self._running:
                if rec.spec.tenant:
                    load[rec.spec.tenant] = load.get(rec.spec.tenant, 0.0) + 1.0 / rec.spec.weight
        return lambda r: (-r.spec.priority, load.get(r.spec.tenant, 0.0), r.index)

    def _launch_locked(self, rec: _JobRecord) -> None:
        # Only the preempt request is cleared: an injected crash armed while
        # the job sat in the queue must still fire once it runs.
        rec.preempting = False
        self._flag(rec, _PREEMPT_FLAG, up=False)
        ctx = JobContext(self, rec)
        self._transition_locked(rec, "running")
        self._running.append(rec)
        rec.thread = threading.Thread(
            target=self._run_job, args=(rec, ctx), name=f"job-{rec.spec.name}", daemon=True
        )
        rec.thread.start()

    def _supervise(self) -> None:
        with self._cond:
            while True:
                if self._stop:
                    return
                now = time.monotonic()
                ready = self._ready_locked(now)
                if not self._draining:
                    while ready and len(self._running) < self._slots:
                        rec = min(ready, key=self._launch_key_locked())
                        ready.remove(rec)
                        self._launch_locked(rec)
                    if ready and self._running:
                        # Full house: ask the weakest running job to yield if
                        # something strictly more important is waiting.
                        best = min(ready, key=self._launch_key_locked())
                        victim = min(self._running, key=lambda r: (r.spec.priority, -r.index))
                        if victim.spec.priority < best.spec.priority and not victim.preempting:
                            self._preempt_locked(victim)
                            self.fault_log.record(
                                "scheduler",
                                "preempt",
                                f"preempting {victim.spec.name!r} (priority "
                                f"{victim.spec.priority}) for {best.spec.name!r} "
                                f"(priority {best.spec.priority})",
                            )
                else:
                    for rec in self._running:
                        self._preempt_locked(rec)
                timeout = self.config.poll_s
                pending_backoff = [
                    rec.backoff_until - now for rec in self._order if rec.state == "backoff"
                ]
                if pending_backoff:
                    timeout = max(0.0, min(timeout, min(pending_backoff)))
                self._cond.wait(timeout)

    def _run_job(self, rec: _JobRecord, ctx: JobContext) -> None:
        """Run one attempt — here, or on a pool worker — and book its outcome."""
        try:
            if self.executor is None:
                outcome = _run_attempt(rec.spec.runner, ctx)
            else:
                outcome = self.executor.run_task(_run_attempt, rec.spec.runner, ctx)
        except Exception as exc:  # the worker died under the attempt, or the pool is gone
            outcome = {"state": "error", "error": f"{type(exc).__name__}: {exc}", "actions": ()}
        with self._cond:
            self._running.remove(rec)
            for action in outcome["actions"]:
                rec.fault_log.record(action.site, action.action, action.detail, action.cycle)
            if outcome["state"] == "preempted":
                rec.resume = True
                rec.fault_log.record(
                    "scheduler", "preempt", f"checkpointed; resumes at cycle {outcome['next_cycle']}"
                )
                self._transition_locked(rec, "preempted")
                # Outside a drain the job immediately re-enters the queue.
                if not self._draining:
                    self._transition_locked(rec, "pending")
            elif outcome["state"] == "error":
                rec.attempts += 1
                rec.resume = True
                rec.error = outcome["error"]
                budget = rec.spec.max_attempts or self.config.max_attempts
                if rec.attempts >= budget:
                    self.fault_log.record(
                        "scheduler",
                        "job-failed",
                        f"{rec.spec.name!r} exhausted {budget} attempts: {rec.error}",
                    )
                    self._transition_locked(rec, "failed")
                else:
                    delay = jittered_backoff(
                        self.config.retry_backoff_s, rec.attempts, self._backoff_rng
                    )
                    rec.backoff_until = time.monotonic() + delay
                    rec.fault_log.record(
                        "scheduler",
                        "job-retry",
                        f"attempt {rec.attempts}/{budget} crashed ({rec.error}); "
                        f"requeued after {delay:.3f}s backoff",
                    )
                    self._transition_locked(rec, "backoff")
            else:
                rec.result = outcome["result"]
                rec.error = None
                self._transition_locked(rec, "done")
            self._cond.notify_all()

    # -- lifecycle ---------------------------------------------------------- #
    def start(self) -> None:
        """Start the supervisor thread (idempotent)."""
        with self._cond:
            if self._supervisor is not None and self._supervisor.is_alive():
                return
            self._stop = False
            self._supervisor = threading.Thread(
                target=self._supervise, name="experiment-supervisor", daemon=True
            )
            self._supervisor.start()

    def request_drain(self) -> None:
        """Signal-safe: stop launching and preempt running jobs (non-blocking)."""
        with self._cond:
            self._draining = True
            for rec in self._running:
                self._preempt_locked(rec)
            self._cond.notify_all()

    def drain(self, timeout: float | None = None) -> bool:
        """Checkpoint-preempt everything, flush the journal, stop the supervisor.

        Returns ``True`` once no attempt is executing any more, on a thread
        or on a pool worker (all progress durably in checkpoints + journal),
        ``False`` on timeout.
        """
        self.request_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._running:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining if remaining is not None else self.config.poll_s)
            self._write_journal_locked()
        self._shutdown_supervisor()
        return True

    def install_signal_handlers(self) -> None:
        """SIGTERM → graceful drain request (main thread only).

        Chains to whatever handler was installed before: embedding hosts
        (test harnesses, process supervisors, a second service in the same
        process) keep their SIGTERM behaviour — this service's drain runs
        first, then the previous handler fires with the same arguments.
        """
        previous = signal.getsignal(signal.SIGTERM)

        def _drain_then_chain(signum, frame):
            self.request_drain()
            if callable(previous) and previous not in (signal.SIG_IGN, signal.SIG_DFL):
                previous(signum, frame)

        signal.signal(signal.SIGTERM, _drain_then_chain)

    def _shutdown_supervisor(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None

    def run_until_complete(self, timeout: float | None = None) -> dict[str, str]:
        """Start, wait for every job to reach a terminal state, and stop.

        A drain request (e.g. SIGTERM) also ends the wait once running jobs
        have checkpointed out.  Returns the final name → state map.
        """
        self.start()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                live = [rec for rec in self._order if rec.state not in TERMINAL_STATES]
                if not live:
                    break
                if self._draining and not self._running:
                    break
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self._shutdown_supervisor_from_wait()
                    raise TimeoutError(
                        f"{len(live)} job(s) not terminal after {timeout}s: "
                        f"{[rec.spec.name for rec in live]}"
                    )
                self._cond.wait(min(self.config.poll_s, remaining) if remaining else self.config.poll_s)
        self._shutdown_supervisor()
        return self.status()

    def _shutdown_supervisor_from_wait(self) -> None:
        # Called with the lock held: flip the flag here, join outside.
        self._stop = True
        self._cond.notify_all()

    def close(self) -> None:
        """Stop the service; attempts still running are drained out first."""
        with self._lock:
            busy = bool(self._running)
        if busy:
            self.drain()
        self._shutdown_supervisor()
        server, self._status_server = self._status_server, None
        if server is not None:
            server.close()

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# A built-in job runner: a small Lorenz-96 + EnSF OSSE.  Importable as
# "repro.workflow.scheduler:lorenz96_ensf_job", which is what the examples,
# the chaos soak and the scheduler tests submit.
# --------------------------------------------------------------------------- #


def lorenz96_ensf_job(ctx: JobContext) -> dict:
    """Run a checkpointed Lorenz-96/EnSF OSSE as an experiment-service job.

    ``ctx.params``: ``dim`` (default 12), ``n_cycles`` (8),
    ``steps_per_cycle`` (2), ``ensemble_size`` (8), ``seed`` (0),
    ``n_sde_steps`` (8), ``obs_error_var`` (0.5), ``spinup`` (50).
    Deterministic in its params: the same submission always produces the
    same RMSE history, which is what the chaos certification compares.
    """
    from repro.core.ensf import EnSF, EnSFConfig
    from repro.core.observations import IdentityObservation
    from repro.da.cycling import OSSEConfig, run_osse
    from repro.models.lorenz96 import Lorenz96

    p = ctx.params
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
    result = run_osse(
        model,
        model,
        filter_,
        operator,
        truth0,
        config,
        executor=ctx.executor,
        fault_log=ctx.fault_log,
        **ctx.engine_kwargs(),
    )
    return {
        "analysis_rmse": [float(v) for v in result.analysis_rmse],
        "forecast_rmse": [float(v) for v in result.forecast_rmse],
        "final_rmse": float(result.analysis_rmse[-1]),
        "fault_recoveries": len(ctx.fault_log),
    }
