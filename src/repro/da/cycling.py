"""Observation System Simulation Experiment (OSSE) cycling driver.

This module implements the experimental protocol of §IV-A: a truth run of the
forecast model (optionally perturbed by the stochastic model-error mixture so
the DA system faces an imperfect model), synthetic observations generated
every analysis interval, and sequential prediction/update cycling of any
:class:`~repro.core.filters.EnsembleFilter`.  It also supports free runs (no
data assimilation) for the "SQG only" and "ViT only" curves of Fig. 4.

Both drivers are thin wrappers over the unified
:class:`~repro.workflow.engine.CycleEngine` (they configure its stage
pipeline and map the engine result back onto :class:`CyclingResult`) and
are bit-identical to the historical inlined loops.  :class:`OSSEConfig`
also carries a run's policies — observation QC, a cycle deadline and a
divergence policy — and :func:`run_osse` takes the engine checkpointing
knobs for restartable paper-scale runs.  Given an
``online_trainer``, :func:`run_osse` is the real-time workflow of Fig. 1:
surrogate forecast → EnSF analysis → online surrogate training, with each
stage's wall seconds on the cycle's record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.filters import EnsembleFilter
from repro.core.observations import (
    ObservationOperator,
    ObservationQC,
    ObservationStream,
)
from repro.models.base import ForecastModel
from repro.models.model_error import StochasticModelErrorMixture
from repro.utils.faults import FaultLog, FaultPlan
from repro.utils.random import SeedSequenceFactory
from repro.workflow.engine import (
    CycleEngine,
    CycleRecord,
    DeterministicForecastStage,
    DivergencePolicy,
    EngineCheckpoint,
    EnsembleForecastStage,
    FilterAnalysisStage,
    ObservationStage,
    OnlineTrainingStage,
    TruthStage,
    rmse,
)

__all__ = ["OSSEConfig", "CyclingResult", "run_osse", "free_run", "rmse"]


@dataclass(frozen=True)
class OSSEConfig:
    """Configuration of one OSSE cycling experiment.

    Every cycle observes the truth once, through :func:`run_osse`'s
    ``operator`` (the paper's protocol, §IV-A).

    Attributes
    ----------
    n_cycles:
        Number of analysis cycles (the paper runs 300: t ∈ [0, 3600] with
        12-hourly observations).
    steps_per_cycle:
        Forecast-model steps between consecutive analysis times.
    ensemble_size:
        Number of ensemble members (paper: 20 for both LETKF and EnSF).
    seed:
        Root seed; all stochastic sub-streams are derived from it by name.
    apply_model_error_to_truth:
        Add the stochastic model-error mixture to the truth between cycles
        (the paper's imperfect-model scenario).
    qc:
        Optional :class:`~repro.core.observations.ObservationQC` screening
        every observation event before its analysis.
    cycle_deadline_s:
        Optional per-cycle wall-clock budget; remaining analyses are
        skipped once exceeded (forecast-only cycle).
    divergence:
        Optional :class:`~repro.workflow.engine.DivergencePolicy` (halt /
        reinflate / reset-from-checkpoint on ensemble blow-up).
    """

    n_cycles: int = 20
    steps_per_cycle: int = 4
    ensemble_size: int = 20
    seed: int = 0
    apply_model_error_to_truth: bool = True
    qc: ObservationQC | None = None
    cycle_deadline_s: float | None = None
    divergence: DivergencePolicy | None = None

    def __post_init__(self) -> None:
        if self.n_cycles < 1 or self.steps_per_cycle < 1:
            raise ValueError("n_cycles and steps_per_cycle must be positive")
        if self.ensemble_size < 2:
            raise ValueError("ensemble_size must be at least 2")


@dataclass
class CyclingResult:
    """Time series produced by a cycling experiment.

    All arrays have length ``n_cycles``.  ``analysis_rmse`` equals
    ``forecast_rmse`` for free runs (no update is performed).  ``records``
    are the engine's per-cycle :class:`~repro.workflow.engine.CycleRecord`
    list, stage wall seconds included.
    """

    times: np.ndarray
    forecast_rmse: np.ndarray
    analysis_rmse: np.ndarray
    analysis_spread: np.ndarray
    truth_final: np.ndarray
    analysis_mean_final: np.ndarray
    analysis_mean_history: np.ndarray | None = None
    records: list[CycleRecord] = field(default_factory=list)
    fault_log: FaultLog | None = None

    @property
    def mean_analysis_rmse(self) -> float:
        """Time-mean analysis RMSE (skipping the first 10 % spin-up cycles).

        At least one cycle is skipped and at least one kept, so a 1-cycle
        run reports its only cycle.
        """
        n = len(self.analysis_rmse)
        skip = min(max(1, n // 10), n - 1)
        return float(np.mean(self.analysis_rmse[skip:]))

    def summary(self) -> dict:
        """Compact dictionary summary used by the benchmark harness."""
        out = {
            "cycles": int(len(self.times)),
            "mean_analysis_rmse": self.mean_analysis_rmse,
            "final_analysis_rmse": float(self.analysis_rmse[-1]),
            "final_spread": float(self.analysis_spread[-1]),
        }
        if self.records:
            out["stage_mean_s"] = {
                stage: float(np.mean([getattr(r, f"{stage}_s") for r in self.records]))
                for stage in ("truth", "forecast", "analysis", "post_analysis")
            }
        return out


def _initial_ensemble(
    truth_model: ForecastModel,
    truth0: np.ndarray,
    n_members: int,
    steps_per_cycle: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Initial ensemble drawn from a long model integration (paper §IV-A).

    States are sampled along a free run of the forecast model started from
    the (perturbed) truth, mimicking "random selection of model states from a
    long-term integration".
    """
    catalogue = []
    state = np.array(truth0, dtype=float)
    # Decorrelate the catalogue by taking snapshots a full cycle apart.
    for _ in range(n_members):
        state = truth_model.forecast(state, n_steps=steps_per_cycle)
        catalogue.append(state.copy())
    catalogue = np.array(catalogue)
    order = rng.permutation(n_members)
    return catalogue[order]


def run_osse(
    truth_model: ForecastModel,
    forecast_model: ForecastModel,
    filter_: EnsembleFilter | None,
    operator: ObservationOperator,
    truth0: np.ndarray,
    config: OSSEConfig,
    initial_ensemble: np.ndarray | None = None,
    executor=None,
    store_history: bool = False,
    resume: EngineCheckpoint | str | None = None,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    keep_last: int | None = None,
    fault_plan: FaultPlan | None = None,
    fault_log: FaultLog | None = None,
    preempt=None,
    online_trainer=None,
) -> CyclingResult:
    """Run one cycling DA experiment.

    Parameters
    ----------
    truth_model:
        Model used to evolve the (hidden) truth — always the physics model.
    forecast_model:
        Model used to evolve the ensemble — the physics model for SQG+LETKF,
        or the ViT surrogate for ViT+EnSF (the paper's proposed framework).
    filter_:
        Analysis algorithm, or ``None`` for a free run without assimilation.
    operator:
        Observation operator (identity with R = I in the paper's tests).
    truth0:
        Initial flattened truth state.
    config:
        Experiment configuration and run policies.  With
        ``config.apply_model_error_to_truth`` the paper's model-error
        mixture, drawn from the ``"model-error"`` stream of ``config.seed``,
        perturbs the truth between cycles.
    initial_ensemble:
        Optional pre-built initial ensemble of shape ``(m, d)``.
    executor:
        Optional :class:`~repro.hpc.ensemble_parallel.EnsembleExecutor`.  The
        ensemble forecast is member-sharded over its process pool; the
        filter's analysis runs in-process.  The forecast is worker-count
        invariant, so results never depend on the executor layout.
    store_history:
        Also record the analysis-mean state at every cycle (needed by the
        Fig. 5 snapshot benchmark).
    resume:
        :class:`~repro.workflow.engine.EngineCheckpoint` (or a path to one)
        from an earlier run with the same configuration; cycling continues
        at its ``next_cycle`` until ``config.n_cycles``, bit-identically to
        the uninterrupted run (``truth0``/``initial_ensemble`` are then
        ignored).  ``resume="auto"`` resumes from the newest *valid*
        checkpoint on disk (walking past truncated files) and starts fresh
        when none exists.
    checkpoint_every, checkpoint_path:
        Write a rolling engine checkpoint after every so-many cycles (an
        integer, or a :class:`~repro.workflow.engine.CheckpointCadence`).
    keep_last:
        Keep a rotating :class:`~repro.workflow.engine.CheckpointRing` of
        the ``k`` newest checkpoints instead of one self-replacing file.
    fault_plan, fault_log:
        Deterministic fault injection and its recovery log (see
        :mod:`repro.utils.faults`).  One shared log collects the stream's
        and engine's recoveries and is returned in
        ``CyclingResult.fault_log`` (an ``executor`` keeps its own
        ``executor.fault_log`` for shard-level recoveries).
    preempt:
        Optional zero-argument callable polled at every cycle boundary; see
        :meth:`~repro.workflow.engine.CycleEngine.run`.  Used by the
        experiment service for checkpoint-based preemption.
    online_trainer:
        Optional object with ``update(previous_mean, new_mean) -> loss``
        (e.g. :class:`~repro.surrogate.training.OnlineTrainer`), run after
        every analysis as the engine's ``post_analysis`` stage — the online
        surrogate fine-tuning of Fig. 1.  A fresh run primes it with the
        initial-ensemble mean; a resume restores the previous analysis mean
        from the checkpoint.  Each record then carries ``online_loss``.
    """
    fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    fault_log = fault_log if fault_log is not None else FaultLog()
    seeds = SeedSequenceFactory(config.seed)
    rng_obs = seeds.rng("observations")
    rng_init = seeds.rng("initial-ensemble")
    model_error = (
        StochasticModelErrorMixture(rng=seeds.rng("model-error"))
        if config.apply_model_error_to_truth
        else None
    )

    truth = ensemble = None
    if resume is None or (isinstance(resume, str) and resume == "auto"):
        truth = np.array(truth0, dtype=float)
        if initial_ensemble is None:
            ensemble = _initial_ensemble(
                truth_model, truth, config.ensemble_size, config.steps_per_cycle, rng_init
            )
        else:
            ensemble = np.array(initial_ensemble, dtype=float)
            if ensemble.shape[0] != config.ensemble_size:
                raise ValueError("initial ensemble size does not match config.ensemble_size")

    observations = analysis = None
    if filter_ is not None:
        stream = ObservationStream(
            operator, rng=rng_obs, fault_plan=fault_plan, fault_log=fault_log
        )
        observations = ObservationStage(stream)
        analysis = FilterAnalysisStage(filter_)

    post_analysis = None
    if online_trainer is not None:
        post_analysis = OnlineTrainingStage(online_trainer)
        if ensemble is not None:  # on a resume the checkpoint restores it
            post_analysis.prime(ensemble.mean(axis=0))

    engine = CycleEngine(
        truth=TruthStage(truth_model, config.steps_per_cycle, model_error),
        observations=observations,
        forecast=EnsembleForecastStage(forecast_model, config.steps_per_cycle),
        analysis=analysis,
        post_analysis=post_analysis,
        executor=executor,
        store_history=store_history,
        qc=config.qc,
        cycle_deadline_s=config.cycle_deadline_s,
        divergence=config.divergence,
        fault_plan=fault_plan,
        fault_log=fault_log,
    )
    result = engine.run(
        truth,
        ensemble,
        config.n_cycles,
        resume=resume,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        keep_last=keep_last,
        preempt=preempt,
    )

    return CyclingResult(
        times=np.arange(1, config.n_cycles + 1, dtype=float),
        forecast_rmse=result.forecast_rmse,
        analysis_rmse=result.analysis_rmse,
        analysis_spread=result.analysis_spread,
        truth_final=result.truth_final,
        analysis_mean_final=result.mean_final,
        analysis_mean_history=result.history,
        records=result.records,
        fault_log=fault_log,
    )


def free_run(
    truth_model: ForecastModel,
    forecast_model: ForecastModel,
    truth0: np.ndarray,
    config: OSSEConfig,
) -> CyclingResult:
    """Run a no-DA experiment (the "SQG only" / "ViT only" curves of Fig. 4).

    A single deterministic forecast started from the same initial state as
    the truth is compared against the (model-error-perturbed) truth; the
    growing RMSE illustrates the chaotic error growth that assimilation must
    control.  The records carry the same per-stage wall seconds as
    :func:`run_osse` (``analysis_s`` reads ``0.0``).  A free run has no
    observation or analysis stage, so a ``config`` that sets a run policy
    (``qc``, ``cycle_deadline_s`` or ``divergence``) is refused with
    ``ValueError``.
    """
    policies = ("qc", "cycle_deadline_s", "divergence")
    set_policies = [name for name in policies if getattr(config, name) is not None]
    if set_policies:
        raise ValueError(f"free_run has no analysis stage to apply {set_policies} to")
    seeds = SeedSequenceFactory(config.seed)
    model_error = (
        StochasticModelErrorMixture(rng=seeds.rng("model-error"))
        if config.apply_model_error_to_truth
        else None
    )

    engine = CycleEngine(
        truth=TruthStage(truth_model, config.steps_per_cycle, model_error),
        forecast=DeterministicForecastStage(forecast_model, config.steps_per_cycle),
    )
    truth = np.array(truth0, dtype=float)
    prediction = np.array(truth0, dtype=float)
    result = engine.run(truth, prediction, config.n_cycles)

    return CyclingResult(
        times=np.arange(1, config.n_cycles + 1, dtype=float),
        forecast_rmse=result.forecast_rmse,
        analysis_rmse=result.analysis_rmse.copy(),
        analysis_spread=np.zeros(config.n_cycles),
        truth_final=result.truth_final,
        analysis_mean_final=result.state_final,
        records=result.records,
    )
