"""Unified streaming cycle engine behind every cycling workflow.

The paper's Fig. 1 loop — truth → observe → forecast → analyze →
(online-train) → diagnose — used to be hand-rolled three times
(:func:`repro.da.cycling.run_osse`, :func:`~repro.da.cycling.free_run` and
:meth:`repro.workflow.realtime.RealTimeDAWorkflow.run`), each hard-coding
the idealized protocol of one identity observation per cycle.
:class:`CycleEngine` owns that loop once, as a pipeline of pluggable stages:

``truth``
    :class:`TruthStage` — hidden-truth evolution plus the stochastic
    model-error mixture.
``observations``
    :class:`ObservationStage` — a scenario-driven
    :class:`~repro.core.observations.ObservationStream` (obs every k-th
    cycle, dropout, latency, alternating partial-coverage networks); omitted
    for free runs.
``forecast``
    :class:`EnsembleForecastStage` (member-parallel through an
    :class:`~repro.hpc.ensemble_parallel.EnsembleExecutor`) or
    :class:`DeterministicForecastStage` (single trajectory, the "SQG only" /
    "ViT only" free-run curves).
``analysis``
    :class:`FilterAnalysisStage` (any
    :class:`~repro.core.filters.EnsembleFilter`, run in-process) or
    :class:`EnSFWorkflowAnalysisStage` (the real-time workflow's
    member-seeded executor path).
``post_analysis``
    :class:`OnlineTrainingStage` — per-cycle surrogate fine-tuning.

All stages consume named rng streams only, so the engine-backed drivers are
*bit-identical* to the historical inlined loops (certified by the golden
equivalence suite in ``tests/unit/test_engine.py``) — except that an SQG
ensemble now steps at the coarser step its CFL allows (same law, not the
same bits; see :class:`EnsembleForecastStage`).  The engine also
checkpoints: :meth:`CycleEngine.checkpoint` serializes truth/ensemble state,
per-stage rng streams and in-flight observations, and
:meth:`CycleEngine.run` resumes from a checkpoint bit-identically — which is
what makes paper-scale 300-cycle runs restartable.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.filters import EnsembleStatistics, ensemble_statistics, relax_spread
from repro.core.observations import ObservationEvent, ObservationStream
from repro.models.base import propagate_ensemble
from repro.utils.faults import FaultLog, FaultPlan
from repro.utils.random import SeedSequenceFactory
from repro.utils.xp import StateHandle, as_host_array

__all__ = [
    "rmse",
    "CycleRecord",
    "CycleContext",
    "EngineResult",
    "EngineCheckpoint",
    "CheckpointCorruptError",
    "CheckpointRing",
    "CheckpointCadence",
    "EnginePreempted",
    "DivergencePolicy",
    "EnsembleDivergenceError",
    "TruthStage",
    "ObservationStage",
    "EnsembleForecastStage",
    "DeterministicForecastStage",
    "FilterAnalysisStage",
    "EnSFWorkflowAnalysisStage",
    "OnlineTrainingStage",
    "CycleEngine",
]


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square difference between two flattened states."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _rng_state(rng) -> dict | None:
    """Serializable bit-generator state of ``rng`` (``None`` when absent)."""
    if isinstance(rng, np.random.Generator):
        return copy.deepcopy(rng.bit_generator.state)
    return None


def _load_rng_state(rng, state: dict | None) -> None:
    if state is None:
        return
    if not isinstance(rng, np.random.Generator):
        raise ValueError("checkpoint carries an rng state but the stage has no rng")
    rng.bit_generator.state = copy.deepcopy(state)


@dataclass(frozen=True)
class CycleRecord:
    """Diagnostics of one completed cycle (immutable: checkpoints share them).

    Degraded-mode flags: ``qc_rejected`` counts observation events this
    cycle's QC stage refused to assimilate, ``deadline_skipped`` marks a
    forecast-only cycle whose remaining analyses were dropped at the cycle
    deadline, and ``divergence_action`` names the in-place divergence
    recovery applied (currently ``"reinflate"``; a checkpoint *reset*
    discards the diverged cycle entirely, so it appears in the
    :class:`~repro.utils.faults.FaultLog` instead).

    The ``*_s`` fields are each stage's wall seconds (the forecast includes
    its mean download, the analysis sums the cycle's events); ``0.0`` means
    the stage did not run, or a checkpoint predates the fields.  Records
    compare equal on the DA fields alone.
    """

    cycle: int
    forecast_rmse: float
    analysis_rmse: float
    analysis_spread: float
    observed: bool
    online_loss: float | None = None
    qc_rejected: int = 0
    deadline_skipped: bool = False
    divergence_action: str | None = None
    truth_s: float = field(default=0.0, compare=False)
    forecast_s: float = field(default=0.0, compare=False)
    analysis_s: float = field(default=0.0, compare=False)
    post_analysis_s: float = field(default=0.0, compare=False)


@dataclass
class CycleContext:
    """Mutable per-cycle state handed through the stage pipeline.

    ``state`` is the ensemble: a host array after an analysis, or a
    :class:`~repro.utils.xp.StateHandle` after a device-resident ensemble
    forecast (host consumers unwrap via
    :func:`~repro.utils.xp.as_host_array`, sharing the handle's single
    cached download).  ``truth`` and the diagnostics are always host arrays.
    """

    cycle: int
    executor: object | None
    truth: np.ndarray
    state: object
    events: list[ObservationEvent] = field(default_factory=list)
    forecast_mean: np.ndarray | None = None
    analysis_stats: EnsembleStatistics | None = None
    online_loss: float | None = None


@dataclass
class EngineResult:
    """Full-run diagnostics (resumed runs include the pre-checkpoint cycles)."""

    records: list[CycleRecord]
    truth_final: np.ndarray
    state_final: np.ndarray
    mean_final: np.ndarray
    history: np.ndarray | None
    fault_log: FaultLog | None = None

    def series(self, name: str) -> np.ndarray:
        """Per-cycle series of one :class:`CycleRecord` field."""
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    @property
    def forecast_rmse(self) -> np.ndarray:
        return self.series("forecast_rmse")

    @property
    def analysis_rmse(self) -> np.ndarray:
        return self.series("analysis_rmse")

    @property
    def analysis_spread(self) -> np.ndarray:
        return self.series("analysis_spread")


@dataclass
class EngineCheckpoint:
    """Everything needed to resume a cycling run bit-identically.

    ``stage_state`` maps pipeline-slot names to the owning stage's
    :meth:`state_dict` (rng bit-generator states, in-flight observation
    events, the online trainer's previous analysis mean).  Loading a
    checkpoint into an engine with a different slot layout — or whose
    ``fingerprint`` (stage classes, steps per cycle, observation-scenario
    parameters, model/filter types) drifted from the checkpointing engine —
    is refused, since a silently-accepted mismatch would void the
    bit-identical-resume contract.  The fingerprint is a drift tripwire,
    not a proof: numerical knobs it cannot see (e.g. a filter's SDE step
    count) remain the caller's responsibility.
    """

    next_cycle: int
    truth: np.ndarray
    state: np.ndarray
    records: list[CycleRecord]
    history: list[np.ndarray] | None
    stage_state: dict[str, dict]
    fingerprint: dict[str, dict]

    def save(self, path) -> None:
        """Write the checkpoint to ``path`` crash-consistently.

        The file layout is a magic line, the SHA-256 of the pickled payload,
        then the payload — so :meth:`load` can tell a torn/bit-rotted file
        from a valid one.  The bytes are written to a sibling temporary
        file, flushed and fsynced, then moved over ``path`` with
        :func:`os.replace` (atomic on POSIX).  A process killed mid-save
        therefore leaves either the old checkpoint or the new one — never a
        truncated file that would poison a later ``resume``.
        """
        payload = pickle.dumps(self)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(_CKPT_MAGIC)
                fh.write(digest)
                fh.write(b"\n")
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)  # the replace did not happen
            raise

    @classmethod
    def load(cls, path) -> "EngineCheckpoint":
        """Load and checksum-verify a checkpoint written by :meth:`save`.

        Raises :class:`CheckpointCorruptError` (a :class:`ValueError`) when
        the file is truncated, fails its checksum, or does not unpickle —
        the signal ``resume="auto"`` uses to fall back to an older
        checkpoint.  Pre-checksum checkpoints (raw pickles) still load.
        """
        data = Path(path).read_bytes()
        if data.startswith(_CKPT_MAGIC):
            head = len(_CKPT_MAGIC)
            digest, sep, payload = data[head : head + 64], data[head + 64 : head + 65], data[head + 65 :]
            if sep != b"\n" or hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
                raise CheckpointCorruptError(
                    f"checkpoint {str(path)!r} is corrupt (checksum mismatch or truncated)"
                )
        else:
            payload = data  # legacy raw-pickle checkpoint
        try:
            ckpt = pickle.loads(payload)
        except Exception as exc:
            raise CheckpointCorruptError(
                f"checkpoint {str(path)!r} does not unpickle: {exc!r}"
            ) from exc
        if not isinstance(ckpt, cls):
            raise ValueError(f"{path!r} does not contain an EngineCheckpoint")
        return ckpt


_CKPT_MAGIC = b"REPRO-CKPT-1\n"


class CheckpointCorruptError(ValueError):
    """A checkpoint file failed verification (truncated, bit-rot, bad pickle)."""


class EnginePreempted(Exception):
    """Raised by :meth:`CycleEngine.run` when a ``preempt`` hook fires.

    The engine checkpoints the just-completed cycle *before* raising, so the
    run can later continue bit-identically with ``resume="auto"``.
    ``next_cycle`` is the cycle the resumed run will execute first.
    """

    def __init__(self, next_cycle: int):
        super().__init__(f"run preempted at cycle boundary {next_cycle}")
        self.next_cycle = int(next_cycle)


class CheckpointRing:
    """Rotating ring of the last ``keep_last`` checkpoints of a run.

    Members live next to ``base_path`` as ``<name>.c<NNNNNN>`` (the cycle
    the checkpoint resumes at), newest last; :meth:`save` prunes the oldest
    beyond ``keep_last``.  :meth:`latest_valid` walks newest→oldest past
    corrupt members, which is what lets ``resume="auto"`` and the
    reset-from-checkpoint divergence policy survive a torn latest file.
    """

    def __init__(self, base_path, keep_last: int = 3) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be positive")
        self.base = Path(base_path)
        self.keep_last = int(keep_last)

    def path_for(self, next_cycle: int) -> Path:
        return self.base.with_name(f"{self.base.name}.c{int(next_cycle):06d}")

    def paths(self) -> list[Path]:
        """Ring members on disk, oldest first."""
        prefix = self.base.name + ".c"
        members = []
        if self.base.parent.is_dir():
            for p in self.base.parent.iterdir():
                if p.name.startswith(prefix) and p.name[len(prefix) :].isdigit():
                    members.append((int(p.name[len(prefix) :]), p))
        return [p for _, p in sorted(members)]

    def save(self, ckpt: EngineCheckpoint) -> Path:
        path = self.path_for(ckpt.next_cycle)
        ckpt.save(path)
        for stale in self.paths()[: -self.keep_last]:
            stale.unlink(missing_ok=True)
        return path

    def latest_valid(self, fault_log: FaultLog | None = None):
        """Newest loadable ``(checkpoint, path)``, or ``None`` if none is.

        Invalid members are skipped (and noted in ``fault_log`` as
        ``"checkpoint-fallback"`` actions), not deleted — they are evidence.
        """
        for path in reversed(self.paths()):
            try:
                return EngineCheckpoint.load(path), path
            except (CheckpointCorruptError, OSError, ValueError) as exc:
                if fault_log is not None:
                    fault_log.record(
                        "checkpoint", "checkpoint-fallback", f"skipping {path.name}: {exc}"
                    )
        return None


# A due checkpoint is written once this many write-times have passed since
# the previous write, which bounds checkpointing at ~1/10 of a run's wall time.
_WRITE_COST_MULTIPLE = 10.0


class CheckpointCadence:
    """Checkpoint every ``every`` cycles, but never faster than writes can pay off.

    Passed as ``CycleEngine.run(checkpoint_every=...)`` in place of the
    integer: a boundary is *due* every ``every`` completed cycles, and is
    written once the time since the previous write ended is at least
    ``_WRITE_COST_MULTIPLE`` times what that write took.  Cycles that dwarf
    the write are written at every due boundary, as with the integer;
    millisecond cycles spend ~10 % of their time writing and a crash loses
    about ten write-times of work plus one cycle — never a result, since
    resuming from any checkpoint is bit-identical.
    """

    def __init__(self, every: int = 1, clock=time.perf_counter) -> None:
        self.every = int(every)  # validated by CycleEngine.run, like the integer
        self.clock = clock
        self._write_ended: float | None = None
        self._write_cost = 0.0

    def worth_writing(self) -> bool:
        """Has enough time passed since the previous write (or was there none)?"""
        if self._write_ended is None:
            return True
        return self.clock() - self._write_ended >= _WRITE_COST_MULTIPLE * self._write_cost

    def written(self, started: float) -> None:
        """Record a write that began at ``started`` (on ``clock``) and just ended."""
        self._write_ended = self.clock()
        self._write_cost = self._write_ended - started


class EnsembleDivergenceError(RuntimeError):
    """The ensemble diverged and the policy could not (or must not) recover."""


@dataclass(frozen=True)
class DivergencePolicy:
    """What the engine does when the ensemble blows up.

    Divergence means a non-finite ensemble state, or a mean spread above
    ``spread_max`` (when set).  ``action`` is one of:

    ``"halt"``
        Raise :class:`EnsembleDivergenceError` (the default: fail loudly).
    ``"reinflate"``
        Deterministically rescale the perturbations around the ensemble
        mean down/up to ``reinflate_to`` (default ``spread_max``) and carry
        on; only possible while the state is still finite.
    ``"reset"``
        Reload the newest valid checkpoint and recompute from there —
        bit-identical recovery when the divergence was caused by a
        transient (e.g. a corrupted observation batch), since each injected
        fault fires only once.  Requires checkpointing with ``keep_last``;
        after ``max_resets`` reloads the engine halts instead of livelocking
        on a deterministic divergence.
    """

    spread_max: float | None = None
    action: str = "halt"
    reinflate_to: float | None = None
    max_resets: int = 3

    def __post_init__(self) -> None:
        if self.action not in ("halt", "reinflate", "reset"):
            raise ValueError(f"unknown divergence action {self.action!r}")
        if self.max_resets < 1:
            raise ValueError("max_resets must be positive")


# --------------------------------------------------------------------------- #
# Pipeline stages
# --------------------------------------------------------------------------- #


class TruthStage:
    """Hidden-truth evolution: physics model plus unknown model error."""

    def __init__(self, model, steps_per_cycle: int, model_error=None) -> None:
        self.model = model
        self.steps_per_cycle = int(steps_per_cycle)
        self.model_error = model_error

    def run(self, ctx: CycleContext) -> None:
        ctx.truth = self.model.forecast(ctx.truth, n_steps=self.steps_per_cycle)
        if self.model_error is not None:
            ctx.truth = self.model_error.perturb(ctx.truth)

    def state_dict(self) -> dict:
        if self.model_error is None:
            return {}
        return {"model_error_rng": _rng_state(getattr(self.model_error, "rng", None))}

    def load_state_dict(self, state: dict) -> None:
        if self.model_error is not None:
            _load_rng_state(self.model_error.rng, state.get("model_error_rng"))


class ObservationStage:
    """Measure and deliver this cycle's observation events from the stream."""

    def __init__(self, stream: ObservationStream) -> None:
        self.stream = stream

    def run(self, ctx: CycleContext) -> None:
        ctx.events = self.stream.advance(ctx.cycle, ctx.truth)

    def state_dict(self) -> dict:
        return self.stream.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self.stream.load_state_dict(state)


class EnsembleForecastStage:
    """Member-parallel ensemble forecast to the next analysis time.

    The stage owns the device-state seam: the incoming ensemble (a host
    array after an analysis, or a still-resident handle on unobserved
    cycles) is wrapped in a :class:`~repro.utils.xp.StateHandle` on the
    model's array backend, advanced device-side when the model supports it
    (``forecast_device``), and handed downstream as a handle whose single
    cached host mirror — materialised here for the forecast mean — serves
    every host consumer (diagnostics, QC, analysis input, checkpoints)
    without further downloads.

    A model with a ``coarse_step`` (the SQG model) chooses, from that host
    mirror of the cycle-start ensemble, how many model steps each of its
    RK4 steps spans — as many as the flow's CFL number allows (see
    :meth:`repro.models.sqg.SQGModel.coarse_step`).  The choice is a pure
    function of the ensemble, made here in the parent, so every executor
    layout and a resumed run take the same steps; the forecast obeys the
    same law as the model's own step, not the same bits.  Other models
    (Lorenz-96, surrogates) step as they always have.
    """

    def __init__(self, model, steps_per_cycle: int) -> None:
        self.model = model
        self.steps_per_cycle = int(steps_per_cycle)

    @property
    def xp(self):
        """The model's array backend (``None`` for pre-shim models)."""
        return getattr(self.model, "xp", None)

    def run(self, ctx: CycleContext) -> None:
        state = StateHandle.wrap(ctx.state, self.xp)
        model, n_steps = self.model, self.steps_per_cycle
        coarse_step = getattr(model, "coarse_step", None)
        if coarse_step is not None:
            model, n_steps = coarse_step(state.host(), n_steps)
        ctx.state = propagate_ensemble(model, state, n_steps=n_steps, executor=ctx.executor)
        # The one scheduled download of the cycle: the handle caches this
        # host mirror, so everything downstream shares it.
        ctx.forecast_mean = ctx.state.host().mean(axis=0)

    def statistics(self, state) -> EnsembleStatistics:
        return ensemble_statistics(as_host_array(state))

    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass


class DeterministicForecastStage:
    """Single-trajectory forecast (free runs: the Fig. 4 no-DA curves)."""

    def __init__(self, model, steps_per_cycle: int) -> None:
        self.model = model
        self.steps_per_cycle = int(steps_per_cycle)

    def run(self, ctx: CycleContext) -> None:
        # The state *is* the diagnosed mean here, so it stays a host
        # array (the model's own forecast pays one up/down per cycle).
        ctx.state = self.model.forecast(ctx.state, n_steps=self.steps_per_cycle)
        ctx.forecast_mean = ctx.state

    def statistics(self, state) -> EnsembleStatistics:
        state = as_host_array(state)
        return EnsembleStatistics(mean=state, spread=np.zeros_like(state))

    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass


class FilterAnalysisStage:
    """Analysis through any :class:`~repro.core.filters.EnsembleFilter`.

    Called through
    :meth:`~repro.core.filters.EnsembleFilter.analyze_parallel`, the hook a
    caller can wrap to time the analysis; it runs the filter's ``analyze``
    in-process, whatever executor the engine holds.
    """

    def __init__(self, filter_) -> None:
        self.filter = filter_

    def analyze(self, ctx: CycleContext, event: ObservationEvent) -> np.ndarray:
        # Filters take the host mirror (cached by the forecast stage — no
        # extra download); their internal kernels manage their own fixed
        # per-analysis device staging.
        return self.filter.analyze_parallel(
            as_host_array(ctx.state), event.observation, event.operator
        )

    def state_dict(self) -> dict:
        return {"filter_rng": _rng_state(getattr(self.filter, "rng", None))}

    def load_state_dict(self, state: dict) -> None:
        rng_state = state.get("filter_rng")
        if rng_state is not None:
            _load_rng_state(getattr(self.filter, "rng", None), rng_state)


class EnSFWorkflowAnalysisStage:
    """The real-time workflow's EnSF analysis semantics.

    Serial runs use the filter's own rng (``EnSF.analyze``); with an
    executor the analysis is member-seeded through
    :meth:`~repro.hpc.ensemble_parallel.EnsembleExecutor.analyze_ensf`, with
    the per-cycle seed derived from the workflow's root via the named
    ``"ensf-parallel"`` stream, followed by the global spread relaxation the
    executor path cannot apply per worker.
    """

    def __init__(self, ensf, seeds: SeedSequenceFactory, stream_name: str = "ensf-parallel") -> None:
        self.ensf = ensf
        self.seeds = seeds
        self.stream_name = stream_name

    def analyze(self, ctx: CycleContext, event: ObservationEvent) -> np.ndarray:
        forecast = as_host_array(ctx.state)
        if ctx.executor is None:
            return self.ensf.analyze(forecast, event.observation, event.operator)
        analysis = ctx.executor.analyze_ensf(
            self.ensf,
            forecast,
            event.observation,
            event.operator,
            seed=self.seeds.seed_for(self.stream_name, ctx.cycle),
        )
        return relax_spread(analysis, forecast, factor=self.ensf.config.spread_relaxation)

    def state_dict(self) -> dict:
        return {"filter_rng": _rng_state(getattr(self.ensf, "rng", None))}

    def load_state_dict(self, state: dict) -> None:
        rng_state = state.get("filter_rng")
        if rng_state is not None:
            _load_rng_state(getattr(self.ensf, "rng", None), rng_state)


class OnlineTrainingStage:
    """Per-cycle surrogate fine-tuning on the newly observed transition.

    Checkpoint note: the stage state carries only the previous analysis mean
    — the surrogate weights and optimizer moments live in the (shared)
    surrogate object, so an in-process resume is exact, while a cross-process
    restart must persist the surrogate alongside the engine checkpoint.
    """

    def __init__(self, trainer) -> None:
        self.trainer = trainer
        self.previous: np.ndarray | None = None

    def prime(self, previous_mean: np.ndarray) -> None:
        """Set the transition input for the first cycle (initial ensemble mean)."""
        self.previous = np.asarray(previous_mean, dtype=float)

    def run(self, ctx: CycleContext) -> None:
        if self.previous is None:
            raise ValueError("OnlineTrainingStage.prime() must be called before run()")
        ctx.online_loss = self.trainer.update(self.previous, ctx.analysis_stats.mean)
        self.previous = ctx.analysis_stats.mean

    def state_dict(self) -> dict:
        return {"previous": None if self.previous is None else np.array(self.previous)}

    def load_state_dict(self, state: dict) -> None:
        previous = state.get("previous")
        self.previous = None if previous is None else np.array(previous)


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #

_SLOTS = ("truth", "observations", "forecast", "analysis", "post_analysis")


class CycleEngine:
    """Run the truth→observe→forecast→analyze→(train)→diagnose loop.

    Parameters
    ----------
    truth:
        :class:`TruthStage`.
    forecast:
        :class:`EnsembleForecastStage` or :class:`DeterministicForecastStage`.
    observations:
        :class:`ObservationStage` or ``None`` (free runs).
    analysis:
        :class:`FilterAnalysisStage` / :class:`EnSFWorkflowAnalysisStage` or
        ``None``; each delivered observation event triggers one analysis
        (late arrivals can yield several per cycle, schedule gaps none),
        and ``CycleRecord.analysis_s`` sums their wall time.
    post_analysis:
        :class:`OnlineTrainingStage` or ``None``.
    executor:
        Optional :class:`~repro.hpc.ensemble_parallel.EnsembleExecutor`:
        the forecast stage member-shards over it, and so does
        :class:`EnSFWorkflowAnalysisStage`; :class:`FilterAnalysisStage`
        runs in-process.
    store_history:
        Keep the per-cycle analysis-mean states in the result.
    on_cycle:
        Optional callback invoked with each completed :class:`CycleRecord`
        (the real-time workflow appends them to its ``history``).  Cycles
        replayed after a divergence *reset* recompute records the callback
        already saw — equal on every DA field, only the stage seconds
        differ — so they are not re-delivered.
    qc:
        Optional :class:`~repro.core.observations.ObservationQC`; events it
        rejects are counted in ``CycleRecord.qc_rejected`` and skipped.
    cycle_deadline_s:
        Optional per-cycle wall-clock budget.  Once exceeded, the cycle's
        remaining analyses are skipped (forecast-only cycle, flagged as
        ``CycleRecord.deadline_skipped``) — the real-time degraded mode.
    divergence:
        Optional :class:`DivergencePolicy`.
    fault_plan / fault_log:
        Deterministic fault injection (see :mod:`repro.utils.faults`); the
        engine owns the ``"checkpoint"`` site.  The plan defaults to
        ``FaultPlan.from_env()``; every degradation/recovery (QC reject,
        deadline skip, checkpoint fallback, divergence handling) is appended
        to the log.
    """

    def __init__(
        self,
        *,
        truth: TruthStage,
        forecast,
        observations: ObservationStage | None = None,
        analysis=None,
        post_analysis: OnlineTrainingStage | None = None,
        executor=None,
        store_history: bool = False,
        on_cycle=None,
        qc=None,
        cycle_deadline_s: float | None = None,
        divergence: DivergencePolicy | None = None,
        fault_plan: FaultPlan | None = None,
        fault_log: FaultLog | None = None,
    ) -> None:
        self.truth_stage = truth
        self.forecast_stage = forecast
        self.observation_stage = observations
        self.analysis_stage = analysis
        self.post_analysis_stage = post_analysis
        self.executor = executor
        self.store_history = bool(store_history)
        self.on_cycle = on_cycle
        self.qc = qc
        self.cycle_deadline_s = None if cycle_deadline_s is None else float(cycle_deadline_s)
        self.divergence = divergence
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        # run state (populated by run()/checkpoint loading)
        self._truth: np.ndarray | None = None
        self._state: np.ndarray | None = None
        self._next_cycle = 0
        self._records: list[CycleRecord] = []
        self._history: list[np.ndarray] | None = [] if self.store_history else None

    # -- stage bookkeeping ------------------------------------------------- #
    def _stages(self) -> dict[str, object]:
        slots = {
            "truth": self.truth_stage,
            "observations": self.observation_stage,
            "forecast": self.forecast_stage,
            "analysis": self.analysis_stage,
            "post_analysis": self.post_analysis_stage,
        }
        return {name: stage for name, stage in slots.items() if stage is not None}

    def _fingerprint(self) -> dict[str, dict]:
        """Structural descriptor of the pipeline, stored with checkpoints.

        Captures what a resuming engine must not have drifted on for the
        bit-identical contract to be meaningful: stage classes, steps per
        cycle, the model/filter types and the observation-scenario
        parameters (schedule, dropout, latency, operator network shape).
        """
        fingerprint: dict[str, dict] = {}
        for name, stage in self._stages().items():
            desc: dict = {"stage": type(stage).__name__}
            steps = getattr(stage, "steps_per_cycle", None)
            if steps is not None:
                desc["steps_per_cycle"] = int(steps)
            for attr in ("model", "filter", "ensf"):
                obj = getattr(stage, attr, None)
                if obj is not None:
                    desc[attr] = type(obj).__name__
            stream = getattr(stage, "stream", None)
            if stream is not None:
                scenario = stream.scenario
                desc["scenario"] = {
                    "name": scenario.name,
                    "every": scenario.every,
                    "dropout": scenario.dropout,
                    "latency": scenario.latency,
                    "start": scenario.start,
                }
                desc["operators"] = [
                    (type(op).__name__, op.state_dim, op.obs_dim) for op in stream.operators
                ]
            fingerprint[name] = desc
        return fingerprint

    # -- checkpointing ----------------------------------------------------- #
    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot the run state for a bit-identical resume."""
        if self._truth is None or self._state is None:
            raise ValueError("nothing to checkpoint: run() has not started")
        # Device-resident state converts to a plain host array here:
        # checkpoints are backend-portable by construction, so resume="auto"
        # works across REPRO_ARRAY_BACKEND changes (the load path rehydrates
        # onto whatever backend the resuming engine is configured with).
        return EngineCheckpoint(
            next_cycle=self._next_cycle,
            truth=np.array(self._truth),
            state=np.array(as_host_array(self._state)),
            records=list(self._records),  # append-only, frozen records
            history=None if self._history is None else [h.copy() for h in self._history],
            stage_state={name: stage.state_dict() for name, stage in self._stages().items()},
            fingerprint=self._fingerprint(),
        )

    def _load_checkpoint(self, ckpt: EngineCheckpoint) -> None:
        stages = self._stages()
        if set(ckpt.stage_state) != set(stages):
            raise ValueError(
                f"checkpoint stages {sorted(ckpt.stage_state)} do not match "
                f"engine stages {sorted(stages)}"
            )
        fingerprint = self._fingerprint()
        if ckpt.fingerprint != fingerprint:
            drifted = sorted(
                name
                for name in fingerprint
                if ckpt.fingerprint.get(name) != fingerprint[name]
            )
            raise ValueError(
                "checkpoint pipeline fingerprint does not match this engine "
                f"(drifted slots: {drifted}); resuming would not be "
                "bit-identical to the checkpointing run"
            )
        for name, stage in stages.items():
            stage.load_state_dict(ckpt.stage_state[name])
        self._truth = np.array(ckpt.truth)
        # Checkpoint state is a host array; rehydrate it onto the engine's
        # configured array backend so a resumed run is device-resident from
        # its first forecast (identity for host-only forecast stages).
        state = np.array(ckpt.state)
        xp = getattr(self.forecast_stage, "xp", None)
        self._state = state if xp is None else StateHandle.from_host(xp, state)
        self._next_cycle = int(ckpt.next_cycle)
        self._records = copy.deepcopy(ckpt.records)
        if self.store_history:
            if ckpt.history is None:
                raise ValueError("checkpoint has no history but store_history is set")
            self._history = [np.array(h) for h in ckpt.history]
        else:
            self._history = None

    # -- degraded modes ---------------------------------------------------- #
    def _divergence_reason(self, stats: EnsembleStatistics, state) -> str | None:
        """Why the ensemble counts as diverged, or ``None`` when healthy."""
        if not np.all(np.isfinite(as_host_array(state))):
            return "non-finite ensemble state"
        limit = self.divergence.spread_max
        if limit is not None and stats.mean_spread > limit:
            return f"mean spread {stats.mean_spread:.6g} above limit {limit:.6g}"
        return None

    def _latest_valid_checkpoint(self, checkpoint_path, ring: "CheckpointRing | None"):
        """Newest loadable ``(checkpoint, path)`` on disk, or ``None``."""
        if ring is not None:
            return ring.latest_valid(self.fault_log)
        if checkpoint_path is None:
            return None
        path = Path(checkpoint_path)
        try:
            return EngineCheckpoint.load(path), path
        except FileNotFoundError:
            return None
        except (CheckpointCorruptError, OSError, ValueError) as exc:
            self.fault_log.record(
                "checkpoint", "checkpoint-fallback", f"skipping {path.name}: {exc}"
            )
            return None

    # -- the loop ---------------------------------------------------------- #
    def run(
        self,
        truth0: np.ndarray | None = None,
        state0: np.ndarray | None = None,
        n_cycles: int | None = None,
        *,
        resume: EngineCheckpoint | str | Path | None = None,
        checkpoint_every: "int | CheckpointCadence | None" = None,
        checkpoint_path=None,
        keep_last: int | None = None,
        preempt=None,
    ) -> EngineResult:
        """Run cycles until ``n_cycles`` total have completed.

        Fresh runs start from ``truth0``/``state0`` at cycle 0; with
        ``resume`` (a checkpoint or a path to one) the initial states are
        taken from the checkpoint and cycling continues at its
        ``next_cycle``.  ``resume="auto"`` resumes from the newest *valid*
        checkpoint on disk — walking past truncated/corrupt files — and
        starts fresh (from ``truth0``/``state0``) when none exists.

        ``checkpoint_every``/``checkpoint_path`` write a rolling checkpoint
        after every so-many completed cycles: to a single self-replacing
        file by default, or — with ``keep_last=k`` — to a
        :class:`CheckpointRing` of the ``k`` newest ``<path>.c<NNNNNN>``
        files (which is what makes ``resume="auto"`` and the ``"reset"``
        divergence policy robust to a torn latest checkpoint).  A
        :class:`CheckpointCadence` skips due writes that cannot pay off.

        ``preempt`` is an optional zero-argument callable polled once per
        **cycle boundary** (after the cycle's bookkeeping and ``on_cycle``
        delivery).  When it returns true the engine writes a checkpoint of
        the completed cycle — unless the periodic checkpoint already covered
        it — and raises :class:`EnginePreempted`; a later
        ``run(resume="auto")`` continues bit-identically.  Requires
        ``checkpoint_every``/``checkpoint_path``.  Exceptions raised by the
        hook itself (e.g. an injected job crash) propagate unchanged.
        """
        if preempt is not None and checkpoint_path is None:
            raise ValueError("preempt needs checkpoint_every/checkpoint_path")
        if n_cycles is None or n_cycles < 1:
            raise ValueError("n_cycles must be positive")
        cadence = checkpoint_every if isinstance(checkpoint_every, CheckpointCadence) else None
        if cadence is not None:
            checkpoint_every = cadence.every
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        if (checkpoint_every is None) != (checkpoint_path is None):
            raise ValueError("checkpoint_every and checkpoint_path go together")
        if keep_last is not None and checkpoint_path is None:
            raise ValueError("keep_last needs checkpoint_every/checkpoint_path")
        ring = None if keep_last is None else CheckpointRing(checkpoint_path, keep_last)

        if isinstance(resume, str) and resume == "auto":
            found = self._latest_valid_checkpoint(checkpoint_path, ring)
            resume = found[0] if found is not None else None
        if resume is not None:
            if isinstance(resume, (str, Path)):
                resume = EngineCheckpoint.load(resume)
            self._load_checkpoint(resume)
        else:
            if truth0 is None or state0 is None:
                raise ValueError("a fresh run needs truth0 and state0")
            self._truth = np.array(truth0, dtype=float)
            self._state = np.array(state0, dtype=float)
            self._next_cycle = 0
            self._records = []
            self._history = [] if self.store_history else None
        start = self._next_cycle
        if n_cycles == start and resume is not None:
            # The checkpoint already covers the whole request — possible when
            # an experiment service is killed between a job's final
            # checkpoint write and its "done" journal entry.  Nothing to
            # recompute: the completed result lives in the checkpoint.
            stats_final = self.forecast_stage.statistics(self._state)
            return EngineResult(
                records=list(self._records),
                truth_final=self._truth,
                state_final=as_host_array(self._state),
                mean_final=stats_final.mean,
                history=None if self._history is None else np.array(self._history),
                fault_log=self.fault_log,
            )
        if n_cycles <= start:
            raise ValueError(
                f"n_cycles={n_cycles} already completed (checkpoint at cycle {start})"
            )

        resets = 0
        reported_high = start - 1  # highest cycle already delivered to on_cycle
        while self._next_cycle < n_cycles:
            cycle = self._next_cycle
            ctx = CycleContext(
                cycle=cycle,
                executor=self.executor,
                truth=self._truth,
                state=self._state,
            )
            cycle_started = time.perf_counter()
            self.truth_stage.run(ctx)
            truth_s = time.perf_counter() - cycle_started
            if self.observation_stage is not None:
                self.observation_stage.run(ctx)
            started = time.perf_counter()
            self.forecast_stage.run(ctx)
            forecast_s = time.perf_counter() - started
            forecast_rmse = rmse(ctx.forecast_mean, ctx.truth)

            observed = False
            qc_rejected = 0
            deadline_skipped = False
            analysis_s = post_analysis_s = 0.0
            if self.analysis_stage is not None:
                for event in ctx.events:
                    if (
                        self.cycle_deadline_s is not None
                        and time.perf_counter() - cycle_started > self.cycle_deadline_s
                    ):
                        deadline_skipped = True
                        self.fault_log.record(
                            "observations",
                            "analysis-skipped",
                            f"cycle deadline {self.cycle_deadline_s}s exceeded; "
                            "remaining analyses dropped (forecast-only cycle)",
                            cycle=cycle,
                        )
                        break
                    if self.qc is not None:
                        report = self.qc.check(event, ctx.forecast_mean)
                        if not report.ok:
                            qc_rejected += 1
                            self.fault_log.record(
                                "observations", "qc-reject", report.reason, cycle=cycle
                            )
                            continue
                    started = time.perf_counter()
                    ctx.state = self.analysis_stage.analyze(ctx, event)
                    analysis_s += time.perf_counter() - started
                    observed = True

            stats = self.forecast_stage.statistics(ctx.state)
            divergence_action = None
            if self.divergence is not None:
                reason = self._divergence_reason(stats, ctx.state)
                if reason is not None:
                    stats, divergence_action = self._handle_divergence(
                        ctx, stats, reason, checkpoint_path, ring, resets
                    )
                    if divergence_action == "reset":
                        resets += 1
                        continue  # state rewound; recompute from the checkpoint
            ctx.analysis_stats = stats
            if self.post_analysis_stage is not None:
                started = time.perf_counter()
                self.post_analysis_stage.run(ctx)
                post_analysis_s = time.perf_counter() - started

            record = CycleRecord(
                cycle=cycle,
                forecast_rmse=forecast_rmse,
                analysis_rmse=rmse(stats.mean, ctx.truth),
                analysis_spread=stats.mean_spread,
                observed=observed,
                online_loss=ctx.online_loss,
                qc_rejected=qc_rejected,
                deadline_skipped=deadline_skipped,
                divergence_action=divergence_action,
                truth_s=truth_s,
                forecast_s=forecast_s,
                analysis_s=analysis_s,
                post_analysis_s=post_analysis_s,
            )
            self._truth = ctx.truth
            self._state = ctx.state
            self._records.append(record)
            if self._history is not None:
                self._history.append(stats.mean.copy())
            self._next_cycle = cycle + 1
            wrote_checkpoint = False
            if checkpoint_every is not None and (cycle + 1 - start) % checkpoint_every == 0:
                # One "checkpoint" site visit per *due* boundary, and a
                # boundary a truncation targets is always written, so fault
                # plans hit the same cycle however fast the host is.
                truncations = self._checkpoint_faults()
                if cadence is None or truncations or cadence.worth_writing():
                    started = None if cadence is None else cadence.clock()
                    written = self._write_checkpoint(checkpoint_path, ring)
                    if cadence is not None:
                        cadence.written(started)
                    self._truncate_checkpoint(written, cycle, truncations)
                    wrote_checkpoint = True
            if self.on_cycle is not None and cycle > reported_high:
                reported_high = cycle
                self.on_cycle(record)
            if preempt is not None and preempt():
                if not wrote_checkpoint:
                    # The preempt save must not visit the "checkpoint" fault
                    # site: preemption is scheduling, and shifting the site's
                    # occurrence counter would make fault plans fire at
                    # different cycles depending on when jobs were preempted.
                    self._write_checkpoint(checkpoint_path, ring)
                raise EnginePreempted(cycle + 1)

        stats_final = self.forecast_stage.statistics(self._state)
        return EngineResult(
            records=list(self._records),
            truth_final=self._truth,
            state_final=as_host_array(self._state),
            mean_final=stats_final.mean,
            history=None if self._history is None else np.array(self._history),
            fault_log=self.fault_log,
        )

    def _handle_divergence(
        self, ctx, stats, reason, checkpoint_path, ring, resets_done
    ):
        """Apply the divergence policy; returns ``(stats, action_taken)``.

        ``"reinflate"`` rescales in place and returns fresh statistics;
        ``"reset"`` rewinds the engine to the newest valid checkpoint (the
        caller restarts the cycle); anything unrecoverable raises
        :class:`EnsembleDivergenceError`.
        """
        policy = self.divergence
        cycle = ctx.cycle
        if policy.action == "reinflate":
            target = policy.reinflate_to if policy.reinflate_to is not None else policy.spread_max
            state = as_host_array(ctx.state)
            finite = bool(np.all(np.isfinite(state)))
            if finite and target is not None and stats.mean_spread > 0:
                factor = float(target) / float(stats.mean_spread)
                # Host arithmetic on the cached mirror; the next forecast
                # re-wraps (and re-uploads) the corrected ensemble.
                ctx.state = stats.mean + (state - stats.mean) * factor
                self.fault_log.record(
                    "observations",
                    "divergence-reinflate",
                    f"{reason}; rescaled perturbations by {factor:.3g}",
                    cycle=cycle,
                )
                return self.forecast_stage.statistics(ctx.state), "reinflate"
            raise EnsembleDivergenceError(
                f"cycle {cycle}: {reason}; reinflation impossible "
                f"({'non-finite state' if not finite else 'no target spread'})"
            )
        if policy.action == "reset":
            if resets_done >= policy.max_resets:
                raise EnsembleDivergenceError(
                    f"cycle {cycle}: {reason}; divergence persisted through "
                    f"{policy.max_resets} checkpoint reset(s)"
                )
            found = self._latest_valid_checkpoint(checkpoint_path, ring)
            if found is None:
                raise EnsembleDivergenceError(
                    f"cycle {cycle}: {reason}; no valid checkpoint to reset from"
                )
            ckpt, path = found
            self._load_checkpoint(ckpt)
            self.fault_log.record(
                "checkpoint",
                "divergence-reset",
                f"{reason}; reset to {path.name} (resumes at cycle {ckpt.next_cycle})",
                cycle=cycle,
            )
            return stats, "reset"
        raise EnsembleDivergenceError(f"cycle {cycle}: {reason}")

    def _write_checkpoint(self, checkpoint_path, ring: "CheckpointRing | None") -> Path:
        ckpt = self.checkpoint()
        if ring is not None:
            return ring.save(ckpt)
        ckpt.save(checkpoint_path)
        return Path(checkpoint_path)

    def _checkpoint_faults(self) -> list:
        """Visit the ``"checkpoint"`` site; the truncations injected at this boundary."""
        events = () if self.fault_plan is None else self.fault_plan.visit("checkpoint")
        return [event for event in events if event.kind == "checkpoint-truncate"]

    def _truncate_checkpoint(self, path: Path, cycle: int, truncations: list) -> None:
        """Apply injected truncations to the file just written."""
        for event in truncations:
            keep = float(event.payload.get("keep", 0.5))
            size = path.stat().st_size
            with open(path, "r+b") as fh:
                fh.truncate(max(0, int(size * keep)))
            self.fault_log.record(
                "checkpoint",
                "checkpoint-truncate",
                f"injected truncation of {path.name} to {keep:.0%} of {size} bytes",
                cycle=cycle,
            )
