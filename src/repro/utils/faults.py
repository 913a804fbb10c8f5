"""Deterministic fault injection for the cycling runtime.

A *real-time* assimilation system must survive lost workers, hung shards,
corrupted observation batches and half-written checkpoints.  This module
provides the failure model the fault-tolerant runtime is tested against:

``FaultPlan``
    A reproducible schedule of :class:`FaultEvent`\\ s.  Each event names a
    fault *kind*, an injection *site* and the *occurrence* (the how-many-eth
    visit of that site) at which it fires.  Plans are built explicitly, from
    a compact spec string (also accepted via the ``REPRO_FAULT_PLAN``
    environment variable, so smoke tests can replay an exact failure
    sequence against an unmodified driver), or seed-derived with
    :meth:`FaultPlan.seeded`.
``FaultLog``
    The flight recorder: every recovery action the runtime takes (shard
    retry, pool rebuild, QC rejection, checkpoint fallback, divergence
    reset, ...) is appended as a :class:`RecoveryAction`, so tests can
    assert not only that a faulted run produced correct results but that it
    actually *recovered* rather than silently never failing.

Injection sites
---------------
``"executor"``
    Visited once per :class:`~repro.hpc.ensemble_parallel.EnsembleExecutor`
    gather attempt (each batch of shard jobs, including retry batches).
    Supported kinds: ``"worker-crash"`` (the targeted shard's worker calls
    ``os._exit`` — in the serial in-process fallback the shard raises
    :class:`FaultInjected` instead) and ``"task-hang"`` (the shard sleeps
    ``payload["hang_s"]`` seconds before computing, so a task deadline can
    catch it).  ``payload["job"]`` selects the shard (index into the batch,
    default 0).
``"observations"``
    Visited once per measurement (once per cycle) taken by an
    :class:`~repro.core.observations.ObservationStream`.  Kind
    ``"obs-corrupt"``: ``payload["mode"]`` is ``"spurious"`` (default —
    deliver an *additional* corrupted duplicate of the measurement, the
    garbage-retransmission case QC must reject) or ``"in-place"`` (corrupt
    the real measurement's values).  ``payload["value"]`` is ``"nan"``
    (default), ``"inf"`` or ``"gross"``; ``payload["fraction"]`` the
    fraction of components corrupted (default 1.0).
``"checkpoint"``
    Visited once per *due* engine checkpoint boundary (every
    ``checkpoint_every``-th completed cycle; a preemption's forced write
    does not count).  With an integer cadence that is every periodic
    write; a :class:`~repro.workflow.engine.CheckpointCadence` may skip a
    due write but still visits, and always writes a boundary an event
    targets, so occurrences never depend on host speed.  Kind
    ``"checkpoint-truncate"``:
    the just-written file is truncated to ``payload["keep"]`` of its bytes
    (default 0.5), simulating a crash the atomic-write path cannot see
    (e.g. torn storage) — the checksum verification and ``resume="auto"``
    fallback must recover.
``"scheduler"``
    Visited once per :class:`~repro.workflow.scheduler.ExperimentService`
    journal write (every job lifecycle transition — submission, launch,
    completion, preemption, drain — writes the journal, so occurrences
    index the service's serialized event stream).  Kinds:
    ``"job-crash"`` arms an injected crash of one job (``payload["job"]``
    names it) which fires at that job's next cycle boundary — in the pool
    worker running the attempt, when the service has a pool — and lands in
    the job's own :class:`FaultLog`; ``"journal-torn"`` truncates the
    just-written journal to ``payload["keep"]`` of its bytes (recovery
    must fall back to the previous journal generation); ``"service-kill"``
    hard-kills the whole service process with ``os._exit`` (exit code
    ``payload["code"]``, default 137 — the SIGKILL shape), so a chaos test
    can assert that a restarted service recovers its entire queue.

Determinism contract: a plan never draws random numbers at injection time
(corruption patterns are derived from the event itself), so an injected run
consumes exactly the same rng streams as a clean run — which is what makes
"faulted results must be bit-identical wherever recovery recomputes
deterministic work" a testable property.

Spec grammar (``REPRO_FAULT_PLAN``)::

    spec    := entry (";" entry)*
    entry   := kind "@" site ":" occurrence ("," key "=" value)*

e.g. ``worker-crash@executor:1;checkpoint-truncate@checkpoint:0,keep=0.25``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultEvent",
    "FaultPlan",
    "FaultInjected",
    "RecoveryAction",
    "FaultLog",
    "jittered_backoff",
]

ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

FAULT_KINDS = (
    "worker-crash",
    "task-hang",
    "obs-corrupt",
    "checkpoint-truncate",
    "job-crash",
    "journal-torn",
    "service-kill",
)
FAULT_SITES = ("executor", "observations", "checkpoint", "scheduler")

# Which site each kind belongs to (used by seeded plans and validation).
_KIND_SITE = {
    "worker-crash": "executor",
    "task-hang": "executor",
    "obs-corrupt": "observations",
    "checkpoint-truncate": "checkpoint",
    "job-crash": "scheduler",
    "journal-torn": "scheduler",
    "service-kill": "scheduler",
}

# Payload keys each kind understands.  An unknown key in a spec is almost
# always a typo that would otherwise silently change nothing deep inside a
# run; reject it up front instead.
_KIND_PAYLOAD_KEYS = {
    "worker-crash": frozenset({"job"}),
    "task-hang": frozenset({"job", "hang_s"}),
    "obs-corrupt": frozenset({"mode", "value", "fraction"}),
    "checkpoint-truncate": frozenset({"keep"}),
    "job-crash": frozenset({"job"}),
    "journal-torn": frozenset({"keep"}),
    "service-kill": frozenset({"code"}),
}


class FaultInjected(RuntimeError):
    """Raised in place of a hard crash when a fault fires in-process."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` fires at the ``occurrence``-th visit of ``site``."""

    kind: str
    site: str
    occurrence: int
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (known: {FAULT_KINDS})")
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r} (known: {FAULT_SITES})")
        if _KIND_SITE[self.kind] != self.site:
            raise ValueError(
                f"fault kind {self.kind!r} belongs to site {_KIND_SITE[self.kind]!r}, "
                f"not {self.site!r}"
            )
        if self.occurrence < 0:
            raise ValueError("occurrence must be non-negative")
        unknown = sorted(set(self.payload) - _KIND_PAYLOAD_KEYS[self.kind])
        if unknown:
            raise ValueError(
                f"unknown payload key(s) {unknown} for fault kind {self.kind!r} "
                f"(known: {sorted(_KIND_PAYLOAD_KEYS[self.kind])})"
            )

    def spec(self) -> str:
        """Compact spec form of this event (``kind@site:occurrence[,k=v...]``)."""
        parts = [f"{self.kind}@{self.site}:{self.occurrence}"]
        for key in sorted(self.payload):
            parts.append(f"{key}={self.payload[key]}")
        return ",".join(parts)


def _parse_value(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


class FaultPlan:
    """A deterministic, replayable schedule of fault events.

    The runtime calls :meth:`visit` at each injection site; the plan counts
    visits per site and returns the events scheduled for that visit.  Each
    event fires exactly once — a retried shard is rebuilt *without* its
    fault, which is what lets recovery recompute bit-identical results.

    Visit counting is thread-safe (a plan may be shared by the concurrent
    jobs of an experiment service), but determinism of *which* visit a
    concurrent site lands on is the caller's responsibility — the scheduler
    serializes its ``"scheduler"`` visits under the service lock.
    """

    def __init__(self, events: list[FaultEvent] | tuple[FaultEvent, ...] = ()) -> None:
        self.events = tuple(events)
        seen: set[tuple[str, str, int]] = set()
        for event in self.events:
            key = (event.kind, event.site, event.occurrence)
            if key in seen:
                raise ValueError(
                    f"duplicate fault event {event.spec()!r}: each (kind, site, "
                    "occurrence) may be scheduled at most once"
                )
            seen.add(key)
        self._visits: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- construction ------------------------------------------------------- #
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the ``kind@site:occurrence[,k=v...]`` grammar (see module doc)."""
        events = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            try:
                kind, rest = entry.split("@", 1)
                site, tail = rest.split(":", 1)
            except ValueError:
                raise ValueError(
                    f"malformed fault spec entry {entry!r} "
                    "(expected kind@site:occurrence[,key=value...])"
                ) from None
            fields = tail.split(",")
            payload = {}
            for item in fields[1:]:
                key, _, raw = item.partition("=")
                if not key or not raw:
                    raise ValueError(f"malformed fault payload item {item!r} in {entry!r}")
                payload[key.strip()] = _parse_value(raw.strip())
            try:
                occurrence = int(fields[0])
            except ValueError:
                raise ValueError(
                    f"malformed occurrence {fields[0]!r} in fault spec entry {entry!r} "
                    "(expected a non-negative integer)"
                ) from None
            try:
                events.append(
                    FaultEvent(
                        kind=kind.strip(),
                        site=site.strip(),
                        occurrence=occurrence,
                        payload=payload,
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{exc} (in fault spec entry {entry!r})") from None
        try:
            return cls(events)
        except ValueError as exc:
            raise ValueError(f"{exc} (in fault spec {spec!r})") from None

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """Plan from ``REPRO_FAULT_PLAN``, or ``None`` when the variable is unset/empty."""
        environ = os.environ if environ is None else environ
        spec = environ.get(ENV_FAULT_PLAN, "").strip()
        if not spec:
            return None
        return cls.from_spec(spec)

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_events: int = 3,
        kinds: tuple[str, ...] = FAULT_KINDS,
        max_occurrence: int = 8,
    ) -> "FaultPlan":
        """Seed-derived reproducible plan (same seed => same events).

        The generator is private to plan construction — building a seeded
        plan never touches any experiment rng stream.
        """
        if n_events < 0:
            raise ValueError("n_events must be non-negative")
        if n_events > len(kinds) * max_occurrence:
            raise ValueError(
                f"cannot draw {n_events} distinct events from {len(kinds)} kinds "
                f"x {max_occurrence} occurrences"
            )
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        seen: set[tuple[str, int]] = set()
        while len(events) < n_events:
            kind = kinds[int(rng.integers(0, len(kinds)))]
            occurrence = int(rng.integers(0, max_occurrence))
            if (kind, occurrence) in seen:
                continue  # redraw: a plan schedules each (kind, occurrence) once
            seen.add((kind, occurrence))
            events.append(
                FaultEvent(kind=kind, site=_KIND_SITE[kind], occurrence=occurrence)
            )
        return cls(events)

    # -- protocol ----------------------------------------------------------- #
    def spec(self) -> str:
        """Round-trippable spec string of the whole plan (for replay/recording)."""
        return ";".join(event.spec() for event in self.events)

    def visit(self, site: str) -> list[FaultEvent]:
        """Advance the ``site`` visit counter and return the events firing now."""
        if site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {site!r}")
        with self._lock:
            count = self._visits.get(site, 0)
            self._visits[site] = count + 1
        return [e for e in self.events if e.site == site and e.occurrence == count]

    def visits(self, site: str) -> int:
        """How many times ``site`` has been visited so far."""
        with self._lock:
            return self._visits.get(site, 0)

    def reset(self) -> None:
        """Rewind all visit counters (replay the plan from the start)."""
        with self._lock:
            self._visits.clear()

    def __getstate__(self) -> dict:
        with self._lock:
            return {"events": self.events, "visits": dict(self._visits)}

    def __setstate__(self, state: dict) -> None:
        self.events = state["events"]
        self._visits = dict(state["visits"])
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.spec()!r})"


@dataclass(frozen=True)
class RecoveryAction:
    """One recovery the runtime performed in response to a (possible) fault."""

    site: str
    action: str
    detail: str = ""
    cycle: int | None = None


class FaultLog:
    """Append-only record of every recovery action taken during a run.

    Actions used by the runtime: ``"retry"`` / ``"pool-rebuild"`` /
    ``"deadline-kill"`` (executor), ``"qc-reject"`` / ``"analysis-skipped"``
    (engine degradation), ``"obs-corrupt"`` (injected corruption),
    ``"checkpoint-truncate"`` (injected truncation),
    ``"checkpoint-fallback"`` (auto-resume skipped an invalid checkpoint),
    ``"divergence-<policy>"`` (divergence handling), plus the experiment
    service's ``"preempt"`` / ``"job-crash"`` / ``"job-retry"`` /
    ``"journal-torn"`` / ``"journal-fallback"`` (scheduler lifecycle).

    The log is thread-safe: a job's log is appended to by the service
    thread that books each attempt's outcome (the attempt's own recoveries,
    recorded on a copy where it ran, then preemption and retry scheduling)
    and read concurrently by status pollers.  ``__iter__``/``snapshot``
    iterate over a point-in-time copy.
    """

    def __init__(self) -> None:
        self.actions: list[RecoveryAction] = []
        self._lock = threading.Lock()

    def record(self, site: str, action: str, detail: str = "", cycle: int | None = None) -> None:
        entry = RecoveryAction(site=site, action=action, detail=detail, cycle=cycle)
        with self._lock:
            self.actions.append(entry)

    def snapshot(self) -> list[RecoveryAction]:
        """Point-in-time copy of the recorded actions."""
        with self._lock:
            return list(self.actions)

    def count(self, action: str | None = None, site: str | None = None) -> int:
        return sum(
            1
            for a in self.snapshot()
            if (action is None or a.action == action) and (site is None or a.site == site)
        )

    def summary(self) -> dict[str, int]:
        """Action-name → count (the compact shape diagnostics embed)."""
        out: dict[str, int] = {}
        for a in self.snapshot():
            out[a.action] = out.get(a.action, 0) + 1
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self.actions)

    def __iter__(self):
        return iter(self.snapshot())

    def __getstate__(self) -> dict:
        return {"actions": self.snapshot()}

    def __setstate__(self, state: dict) -> None:
        self.actions = list(state["actions"])
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultLog({self.summary()!r})"


def jittered_backoff(base_s: float, attempt: int, rng: np.random.Generator) -> float:
    """Seconds to wait before retry ``attempt`` (1-based).

    ``base_s * 2**(attempt-1) * uniform(0.5, 1.5)``: exponential, with
    multiplicative jitter so jobs that failed together do not retry in
    lockstep.  Exactly one draw from ``rng`` per call, even when ``base_s``
    is 0.  ``rng`` must be the caller's dedicated backoff generator, never
    an experiment stream, and the caller holds whatever lock guards it.
    """
    return base_s * (2 ** (attempt - 1)) * float(rng.uniform(0.5, 1.5))
