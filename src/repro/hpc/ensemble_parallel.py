"""Ensemble-parallel execution of forecasts.

The paper parallelises over the ensemble dimension because it "incurs
minimal communication overhead" (§III-A3).  This module provides that
decomposition on a workstation: forecast member slices are processed by a
persistent pool of worker processes (or serially when ``n_workers == 1``)
and the results are gathered in order — the local equivalent of the
per-rank work plus final MPI gather of the paper's implementation.  The
pool also runs whole experiment-service attempts
(:meth:`EnsembleExecutor.run_task`) and any caller's independent
work-units (:meth:`EnsembleExecutor.map_blocks`).  Both analyses run
in-process: the LETKF's column solves and the EnSF's reverse SDE have not
beaten their in-process runs when shipped on the hosts measured.

Reproducibility contract: every parallel path must be **worker-count
invariant** — the gathered result is bit-identical for any ``n_workers``
(including the serial in-process fallback).  A forecast chunk is a pure
function of its members, so any slicing gives the same bits.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.hpc.shm import HAVE_SHM, SharedPayloadArena, resolve_payloads
from repro.utils.faults import FaultInjected, FaultLog, FaultPlan, jittered_backoff

__all__ = [
    "ensemble_slices",
    "EnsembleExecutor",
    "ShardRetryError",
]

# Failures worth recomputing the shard for: a dead worker pool, a shard that
# blew its deadline, or an injected fault.  Anything else (a ValueError from
# the job function, say) is a real bug and propagates immediately.
_RETRYABLE = (BrokenProcessPool, TimeoutError, FaultInjected)


class ShardRetryError(RuntimeError):
    """A shard kept failing after exhausting the executor's retry budget."""


# How often an idle pool worker checks that the process owning the pool lives.
_ORPHAN_POLL_S = 0.5

# Arrays of at least this many bytes inside a shipped work-unit cross to the
# workers through shared memory (when the platform has it); smaller ones ride
# the pickle, where the pipe is already cheaper than a segment round-trip.
_SHM_MIN_BYTES = 1 << 18


def _worker_init(owner_pid: int) -> None:
    """Pool-worker initializer: die on SIGTERM, and never outlive the owner.

    A forked worker inherits the owner's signal handlers (a service's drain
    hook must not run in a worker that ``_discard_pool`` terminates) and the
    write end of its own call queue, so a hard-killed owner closes no pipe a
    blocked worker would notice: a watcher thread polls ``os.getppid()``.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def watch() -> None:
        while os.getppid() == owner_pid:
            time.sleep(_ORPHAN_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="orphan-watch", daemon=True).start()


def _guarded_call(fn, job, fault, parent_pid: int):
    """Worker entry point: optionally trigger an injected fault, then run ``fn``.

    ``fault`` is consumed *before* the computation, so a retried shard (the
    plan only fires each event once) recomputes exactly ``fn(job)`` — which
    is what makes recovery bit-identical for deterministic shards.

    Any :class:`~repro.hpc.shm.SharedArrayHandle` inside the work-unit is
    materialized here (copied out of its shared segment into a private
    array) before ``fn`` ever sees the job, so worker functions are
    transport-agnostic: they receive exactly the arrays a pickled payload
    would have delivered, whichever path shipped them.
    """
    if fault is not None:
        if fault.kind == "worker-crash":
            if os.getpid() != parent_pid:
                os._exit(3)  # hard kill: the pool sees a vanished worker
            raise FaultInjected("injected worker crash (serial in-process shard)")
        elif fault.kind == "task-hang":
            time.sleep(float(fault.payload.get("hang_s", 0.25)))
    return fn(resolve_payloads(job))


def _swap_payloads(obj, names: list, arena, memo: dict, shareable):
    """``obj`` with every array ``shareable`` accepts swapped for a handle
    into ``arena``.

    Each swap retains its segment once and appends the segment's name to
    ``names``.  ``memo`` maps ``id(array) -> handle``, so a broadcast array
    lands in one segment (the jobs hold every array for the whole swap, so
    no id is reused meanwhile).  Module-level rather than a closure: a
    self-recursive closure is a reference cycle, which would keep each
    gather's arena and the arrays its jobs slice alive until the cyclic
    collector runs.
    """
    if shareable(obj):
        handle = memo.get(id(obj))
        if handle is None:
            handle = memo[id(obj)] = arena.share(obj)
        arena.retain(handle.name)
        names.append(handle.name)
        return handle
    if isinstance(obj, tuple):
        return tuple(_swap_payloads(v, names, arena, memo, shareable) for v in obj)
    if isinstance(obj, list):
        return [_swap_payloads(v, names, arena, memo, shareable) for v in obj]
    if isinstance(obj, dict):
        return {k: _swap_payloads(v, names, arena, memo, shareable) for k, v in obj.items()}
    return obj


def ensemble_slices(n_members: int, n_workers: int) -> list[slice]:
    """Split ``n_members`` into ``n_workers`` contiguous, near-equal slices.

    The first ``n_members % n_workers`` slices get one extra member, so the
    imbalance is at most one — the same block decomposition an MPI rank
    layout would use.
    """
    if n_members < 1 or n_workers < 1:
        raise ValueError("n_members and n_workers must be positive")
    n_workers = min(n_workers, n_members)
    base = n_members // n_workers
    remainder = n_members % n_workers
    slices = []
    start = 0
    for w in range(n_workers):
        count = base + (1 if w < remainder else 0)
        slices.append(slice(start, start + count))
        start += count
    return slices


def _forecast_chunk(args):
    """Worker entry point: propagate a chunk of members through the model."""
    model, chunk, n_steps = args
    return model.forecast(chunk, n_steps=n_steps)


class EnsembleExecutor:
    """Map ensemble-member work over worker processes.

    The worker pool is created lazily, at ``n_workers`` whatever the first
    gather needs, and **reused across calls** (and hence across OSSE
    cycles): process start-up plus re-importing numpy costs far
    more than a cycle's worth of forecast work for small ensembles, so a
    fresh pool per cycle would swamp the parallel speedup; :meth:`close` (or
    the context-manager form) releases the workers.  Models that carry
    derived constants and forecast workspaces (e.g. the SQG model) pickle as
    their parameters and rebuild the rest in the worker, so shipping a model
    per chunk stays cheap.

    **Routing.**  A gather's route is set by its worker count alone: one
    worker (``n_workers == 1``, a single job, or an ensemble too small to
    split) runs the jobs in-process, anything wider ships them to the pool.
    The job list never depends on the route, and serial and pool runs of
    one job list are bit-identical.

    Large read-only arrays inside shipped work-units (at least
    ``_SHM_MIN_BYTES``, 256 KiB) cross through
    :mod:`multiprocessing.shared_memory` segments instead of per-shard
    pickles whenever the platform has shared memory (``HAVE_SHM``); smaller
    arrays, platforms without it and a gather whose segments could not be
    created keep pickling.  Workers copy the bytes out before computing,
    so results are bit-identical to pickle transport by construction;
    in-process gathers never touch shared memory.

    Parameters
    ----------
    n_workers:
        Number of worker processes; defaults to the CPU count (capped at 8 to
        stay friendly on shared machines).  ``1`` disables multiprocessing
        and runs serially in-process.
    min_members_per_worker:
        Shapes the decomposition: an ensemble is split into at most
        ``n_members // min_members_per_worker`` chunks (at least 1).
    max_retries:
        How many times a failed shard batch is recomputed before
        :class:`ShardRetryError`.  Only *infrastructure* failures are
        retried (dead pool, blown deadline, injected fault) — exceptions
        raised by the job function itself always propagate.
    retry_backoff_s:
        Base of the exponential backoff between retry attempts:
        ``retry_backoff_s * 2**(attempt-1) * uniform(0.5, 1.5)`` seconds.
        The jitter factor decorrelates the retry storms of co-scheduled
        jobs sharing one machine (without it, jobs that crashed together —
        e.g. on a pool death — retry in lockstep and collide again).  It is
        drawn from a **dedicated** backoff rng private to this executor:
        no experiment rng stream (filter noise, observation noise,
        seed-sequence factories) is ever touched, so results remain
        bit-identical regardless of how many retries were jittered.
    backoff_seed:
        Optional seed for the dedicated backoff rng (default: fresh OS
        entropy).  Only timing is affected — results never depend on it.
    task_deadline_s:
        Wall-clock budget (positive, or ``None`` for none) for one gather
        attempt on the pool.  Shards still
        running when it expires are treated as hung: the pool is terminated,
        rebuilt, and the shards recomputed (serial in-process shards cannot
        be interrupted, so the deadline only applies to pool runs).
    fault_plan / fault_log:
        Deterministic fault injection (see :mod:`repro.utils.faults`).  The
        plan defaults to ``FaultPlan.from_env()`` (the ``REPRO_FAULT_PLAN``
        variable, usually unset); every recovery the executor performs is
        appended to the log.
    """

    def __init__(
        self,
        n_workers: int | None = None,
        min_members_per_worker: int = 4,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        task_deadline_s: float | None = None,
        fault_plan: FaultPlan | None = None,
        fault_log: FaultLog | None = None,
        backoff_seed: int | None = None,
    ):
        if n_workers is None:
            n_workers = min(8, os.cpu_count() or 1)
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if min_members_per_worker < 1:
            raise ValueError("min_members_per_worker must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if task_deadline_s is not None and task_deadline_s <= 0:
            raise ValueError("task_deadline_s must be positive (or None)")
        self.n_workers = int(n_workers)
        self.min_members_per_worker = int(min_members_per_worker)
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.task_deadline_s = None if task_deadline_s is None else float(task_deadline_s)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        # Dedicated, non-experiment rng for backoff jitter (see class doc).
        self._backoff_rng = np.random.default_rng(backoff_seed)
        self._backoff_lock = threading.Lock()
        # Pool management must be serialized: an experiment service runs
        # concurrent attempts on one pool, and an unlocked rebuild racing a
        # concurrent acquire would leak (or double-kill) worker processes.
        # Submission/gather stay lock-free — only acquire/discard/close take
        # the lock.
        self._pool_lock = threading.RLock()
        self._pool: ProcessPoolExecutor | None = None
        # Live per-gather shm arenas (released in each gather's finally; this
        # set is the close()-time backstop).
        self._arena_lock = threading.Lock()
        self._arenas: set[SharedPayloadArena] = set()

    # ------------------------------------------------------------------ #
    def _effective_workers(self, n_members: int) -> int:
        by_size = max(1, n_members // self.min_members_per_worker)
        return max(1, min(self.n_workers, by_size))

    def _faults_for(self, pending: list[int]) -> dict:
        """Injected faults for this gather attempt, keyed by job index.

        One ``"executor"`` site visit per attempt — the counter advances
        identically for serial and pool gathers, so a fault plan hits the
        same logical shard batch under any worker layout.
        """
        if self.fault_plan is None:  # REPRO_FAULT_PLAN unset
            return {}
        faults = {}
        for event in self.fault_plan.visit("executor"):
            if event.kind in ("worker-crash", "task-hang"):
                target = pending[int(event.payload.get("job", 0)) % len(pending)]
                faults[target] = event
        return faults

    def _acquire_pool(self) -> ProcessPoolExecutor:
        """The shared pool, built once at ``n_workers`` whatever a caller needs.

        A gather caps its own in-flight shards, so a pool wider than it needs
        costs it nothing — while growing a narrower pool meant shutting it
        down, which waits for every in-flight future of every other user
        (seconds, once service attempts live on the pool).
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    initializer=_worker_init,
                    initargs=(os.getpid(),),
                )
            return self._pool

    def _discard_pool(self, pool: ProcessPoolExecutor, hung: bool) -> bool:
        """Drop a broken or hung pool without ever blocking on its workers.

        Returns whether ``pool`` was still the live one (several users of a
        broken pool each report it; only the first replaces it).
        """
        with self._pool_lock:
            live = pool is self._pool
            if live:
                self._pool = None
        if hung:
            # shutdown(wait=False) would leave hung workers running (and
            # clears the pool's process table); kill them first so they
            # cannot hold the machine (or pytest) hostage.
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass  # pool management threads may already be dead
        return live

    def _attempt_serial(self, fn, jobs, results, pending, faults):
        failed, error = [], None
        for idx in pending:
            try:
                results[idx] = _guarded_call(fn, jobs[idx], faults.get(idx), os.getpid())
            except _RETRYABLE as exc:
                failed.append(idx)
                error = exc
        return failed, error

    def _attempt_pool(self, fn, jobs, results, pending, faults, workers, on_success):
        """One pool attempt over ``pending``, at most ``workers`` shards in flight.

        A shard is submitted only while fewer than ``workers`` are in flight
        (merely capping the submit batch would still let queued futures spread
        over every pool process).  The job decomposition — and hence the
        results — is never touched.  ``task_deadline_s`` bounds the whole
        attempt; if it expires with shards still running they are treated as
        hung.  ``on_success`` fires per completed shard (the gather uses it to
        release that shard's shared-memory payloads early).
        """
        pool = self._acquire_pool()
        parent_pid = os.getpid()
        failed, error = [], None
        broken = hung = False
        inflight: dict = {}
        queue = list(pending)
        deadline = (
            None if self.task_deadline_s is None
            else time.monotonic() + self.task_deadline_s
        )
        while queue or inflight:
            while queue and not broken and len(inflight) < workers:
                try:
                    fut = pool.submit(
                        _guarded_call, fn, jobs[queue[0]], faults.get(queue[0]), parent_pid
                    )
                except (BrokenProcessPool, RuntimeError) as exc:
                    broken, error = True, exc
                    break
                inflight[fut] = queue.pop(0)
            if not inflight:
                break  # pool broke with nothing submitted
            timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
            done, not_done = wait(set(inflight), timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                hung = True
                failed.extend(inflight.values())
                inflight.clear()
                error = TimeoutError(
                    f"{len(not_done)} shard(s) exceeded the "
                    f"{self.task_deadline_s}s task deadline"
                )
                self.fault_log.record("executor", "deadline-kill", str(error))
                break
            for fut in done:
                idx = inflight.pop(fut)
                exc = fut.exception()
                if exc is None:
                    results[idx] = fut.result()
                    on_success(idx)
                elif isinstance(exc, _RETRYABLE):
                    failed.append(idx)
                    error = exc
                    broken = broken or isinstance(exc, BrokenProcessPool)
                else:
                    raise exc  # a genuine job-function error: not the executor's to heal
            # A broken pool fails its remaining futures promptly, so the loop
            # keeps draining `inflight` without submitting anything new.
        failed.extend(queue)  # never submitted (pool broke first)
        if broken or hung:
            self._discard_pool(pool, hung=hung)
            self.fault_log.record(
                "executor",
                "pool-rebuild",
                "terminated hung worker pool" if hung else "replaced broken worker pool",
            )
        return failed, error

    def _retry_delay(self, attempt: int) -> float:
        """Jittered exponential backoff before retry ``attempt`` (1-based).

        ``retry_backoff_s * 2**(attempt-1) * uniform(0.5, 1.5)``, drawn from
        the executor's dedicated backoff rng — never from an experiment
        stream (the draw happens only on the retry path, and even there it
        influences timing alone).
        """
        with self._backoff_lock:
            return jittered_backoff(self.retry_backoff_s, attempt, self._backoff_rng)

    # ------------------------------------------------------------------ #
    # Shared-memory payload transport
    def _shareable(self, obj) -> bool:
        return (
            isinstance(obj, np.ndarray)
            and not obj.dtype.hasobject
            and obj.flags["C_CONTIGUOUS"]
            and obj.nbytes >= _SHM_MIN_BYTES
        )

    def _prepare_payloads(self, jobs):
        """Swap large arrays in ``jobs`` for shared-memory handles.

        Returns ``(arena, shipped_jobs, names_per_job)``.  Arrays are
        deduplicated by identity — a broadcast payload (an array every
        work-unit receives) lands in **one** segment no matter how many
        work-units reference it — and each segment's
        refcount equals the number of work-units holding a handle to it, so
        the gather can release memory shard-by-shard as results land.
        """
        arena = SharedPayloadArena()
        memo: dict[int, object] = {}
        names_per_job: list[list[str]] = []
        try:
            shipped = []
            for job in jobs:
                names: list[str] = []
                shipped.append(_swap_payloads(job, names, arena, memo, self._shareable))
                names_per_job.append(names)
        except Exception:
            arena.release_all()
            raise
        return arena, shipped, names_per_job

    def _gather(self, fn, jobs, workers: int) -> list:
        """Run ``jobs`` (in-process when ``workers == 1``, else on the pool),
        retrying failed shards.

        Results are returned in job order.  Failed shards are recomputed with
        jittered exponential backoff up to ``max_retries`` extra attempts;
        because the shards are deterministic and injected faults fire at most
        once, the recovered gather is bit-identical to a fault-free one.
        Injected faults come from :attr:`fault_plan` and every recovery is
        recorded in :attr:`fault_log`.  ``workers`` caps the shards in flight
        at once, never the decomposition, which the caller fixes before this
        method runs.

        Pool gathers on a platform with shared memory ship large arrays
        through a per-gather :class:`~repro.hpc.shm.SharedPayloadArena`; segments are
        refcount-released as their shards succeed and the arena is drained
        unconditionally in the ``finally`` below, so neither failures nor
        retries can leak ``/dev/shm`` segments.  Retried shards re-read the
        still-retained segments — the recompute sees the same bytes.
        """
        arena, shipped = None, jobs
        names_per_job: list[list[str]] | None = None
        if workers > 1 and HAVE_SHM:
            try:
                arena, shipped, names_per_job = self._prepare_payloads(jobs)
            except Exception:
                arena, shipped, names_per_job = None, jobs, None  # pickle fallback
        if arena is not None:
            with self._arena_lock:
                self._arenas.add(arena)

        def on_success(idx: int) -> None:
            if arena is not None:
                for name in names_per_job[idx]:
                    arena.release(name)

        try:
            results: list = [None] * len(jobs)
            pending = list(range(len(jobs)))
            attempt = 0
            while True:
                faults = self._faults_for(pending)
                if workers == 1:
                    failed, error = self._attempt_serial(fn, jobs, results, pending, faults)
                else:
                    failed, error = self._attempt_pool(
                        fn, shipped, results, pending, faults, workers, on_success
                    )
                if not failed:
                    return results
                attempt += 1
                if attempt > self.max_retries:
                    raise ShardRetryError(
                        f"{len(failed)} shard(s) still failing after "
                        f"{self.max_retries} retries: {error!r}"
                    ) from error
                self.fault_log.record(
                    "executor",
                    "retry",
                    f"recomputing {len(failed)} shard(s), attempt {attempt + 1} "
                    f"after {type(error).__name__}",
                )
                delay = self._retry_delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                failed.sort()
                pending = failed
        finally:
            if arena is not None:
                arena.release_all()
                with self._arena_lock:
                    self._arenas.discard(arena)

    def close(self) -> None:
        """Shut down the persistent worker pool (no-op when none is open).

        Teardown is deliberately forgiving: ``close()`` may run from
        ``__del__`` during interpreter shutdown (attributes may never have
        been assigned if ``__init__`` raised) or against a pool whose workers
        are already dead, where ``shutdown()`` can raise :class:`OSError`
        on the broken pipes.  Swallowing those here keeps teardown from
        masking the real failure a test is about to report.
        """
        pool = getattr(self, "_pool", None)
        self._pool = None
        if pool is not None:
            try:
                pool.shutdown()
            except (OSError, RuntimeError):
                pass  # workers already gone / interpreter shutting down
        # Backstop for shm arenas whose gather never reached its finally
        # (a job thread killed mid-flight): unlink them now rather than
        # leaking /dev/shm segments for the interpreter's lifetime.  Pool
        # *replacement* (_discard_pool dropping a broken pool mid-gather) must
        # not do this — live gathers keep their arenas across rebuilds —
        # which is why only full close() drains the set.
        lock = getattr(self, "_arena_lock", None)
        if lock is not None:
            with lock:
                leftovers, self._arenas = list(self._arenas), set()
            for arena in leftovers:
                try:
                    arena.release_all()
                except Exception:
                    pass

    def __enter__(self) -> "EnsembleExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass  # interpreter tear-down: the pool reaps itself

    def run_task(self, fn, *args):
        """Run ``fn(*args)`` on one pool worker and return what it returns.

        The single-task entry the experiment service runs its job attempts
        through: no decomposition, no fault site, no retry —
        the caller owns the retry policy.  A worker that dies takes the
        whole pool with it (:class:`BrokenProcessPool`, raised to every
        task in flight); the pool is dropped so the next call builds a
        fresh one, and the error propagates.  With ``n_workers == 1`` the
        call runs in-process, as every other entry does.
        """
        if self.n_workers == 1:
            return fn(*args)
        pool = self._acquire_pool()
        try:
            return pool.submit(fn, *args).result()
        except BrokenProcessPool:
            if self._discard_pool(pool, hung=False):
                self.fault_log.record("executor", "pool-rebuild", "replaced broken worker pool")
            raise

    def map_blocks(self, fn, jobs: list) -> list:
        """Map independent, picklable work-units over the pool, in order.

        The generic sharding primitive: ``fn`` must be a module-level
        function and each element of ``jobs`` a picklable work-unit.
        Results are returned in job order.  The caller owns the
        decomposition; to guarantee worker-count invariance the job list
        must not depend on ``n_workers`` (the pool only changes *where* a
        job runs, never what it computes).  With one job or one worker the
        jobs run serially in-process; otherwise they always go to the pool.
        """
        if not jobs:
            return []
        workers = min(self.n_workers, len(jobs))
        return self._gather(fn, jobs, workers)

    def map_states(self, model, ensemble: np.ndarray, n_steps: int = 1) -> np.ndarray:
        """Propagate an ``(m, d)`` ensemble through ``model`` member-parallel."""
        ensemble = np.asarray(ensemble, dtype=float)
        if ensemble.ndim != 2:
            raise ValueError("ensemble must have shape (m, state_size)")
        workers = self._effective_workers(ensemble.shape[0])
        slices = ensemble_slices(ensemble.shape[0], workers)
        jobs = [(model, ensemble[s], n_steps) for s in slices]
        results = self._gather(_forecast_chunk, jobs, workers)
        return np.concatenate(results, axis=0)
