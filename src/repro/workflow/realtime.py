"""The real-time sequential DA workflow of Fig. 1.

Each analysis cycle performs, in order:

1. **surrogate forecast** of the ensemble to the new observation time;
2. **EnSF analysis** blending the new observation into the ensemble;
3. **online ViT training** on the newly available analysis (the "real-time
   adaptation through the integration of observational data");

and records the wall-clock time of each stage.  The paper's central HPC
observation is that steps 2 and 3 run sequentially every cycle, so the
workflow time is their sum — which is why both must scale on the machine.

The loop itself lives in the unified
:class:`~repro.workflow.engine.CycleEngine`; :meth:`RealTimeDAWorkflow.run`
configures the stage pipeline (surrogate forecast, the executor-aware EnSF
analysis, online training) and appends each completed cycle's
:class:`~repro.workflow.engine.CycleRecord` — stage seconds included
(``forecast_s``, ``analysis_s``, ``post_analysis_s`` for online training) —
to ``history`` as it completes, so a run interrupted mid-stream still
reports every completed cycle.  Each ``run()`` call starts from a clean
``history``.
"""

from __future__ import annotations

import numpy as np

from repro.core.ensf import EnSF, EnSFConfig
from repro.core.filters import ensemble_statistics
from repro.core.observations import ObservationQC, ObservationScenario, ObservationStream
from repro.utils.faults import FaultLog, FaultPlan
from repro.models.base import ForecastModel
from repro.models.model_error import StochasticModelErrorMixture
from repro.surrogate.training import OnlineTrainer, TrainingConfig
from repro.surrogate.vit import SQGViTSurrogate
from repro.utils.random import SeedSequenceFactory
from repro.workflow.engine import (
    CycleEngine,
    CycleRecord,
    EnSFWorkflowAnalysisStage,
    EnsembleForecastStage,
    ObservationStage,
    OnlineTrainingStage,
    TruthStage,
    rmse,
)

__all__ = ["RealTimeDAWorkflow"]


class RealTimeDAWorkflow:
    """Couple a ViT surrogate with the EnSF in the Fig. 1 loop.

    Parameters
    ----------
    surrogate:
        The (pre-trained) ViT surrogate used for ensemble forecasts.
    truth_model:
        Physics model evolving the hidden truth (the "real atmosphere" of the
        OSSE).
    operator:
        Observation operator.
    ensf_config:
        EnSF configuration.
    training_config:
        Online-training hyper-parameters; ``online_iterations = 0`` disables
        the online-adaptation stage.
    executor:
        Optional :class:`repro.hpc.ensemble_parallel.EnsembleExecutor` to run
        forecasts and EnSF member-parallel.
    scenario:
        Optional :class:`~repro.core.observations.ObservationScenario`
        degrading the observation protocol (sparse / lossy / latent /
        multi-operator streaming networks); ``None`` keeps the idealized
        one-observation-per-cycle protocol bit-identically.
    qc:
        Optional :class:`~repro.core.observations.ObservationQC` screening
        every observation event before its EnSF analysis (a real-time
        system must reject a corrupted packet rather than assimilate it).
    cycle_deadline_s:
        Optional per-cycle wall-clock budget; once exceeded the remaining
        analyses of that cycle are skipped (forecast-only degraded cycle).
    fault_plan / fault_log:
        Deterministic fault injection and the recovery log (see
        :mod:`repro.utils.faults`); the log is shared by the observation
        stream and the engine and exposed as ``workflow.fault_log``.
    """

    def __init__(
        self,
        surrogate: SQGViTSurrogate,
        truth_model: ForecastModel,
        operator,
        ensf_config: EnSFConfig | None = None,
        training_config: TrainingConfig | None = None,
        model_error: StochasticModelErrorMixture | None = None,
        executor=None,
        seed: int = 0,
        scenario: ObservationScenario | None = None,
        qc: ObservationQC | None = None,
        cycle_deadline_s: float | None = None,
        fault_plan: FaultPlan | None = None,
        fault_log: FaultLog | None = None,
    ):
        self.surrogate = surrogate
        self.truth_model = truth_model
        self.operator = operator
        self.seeds = SeedSequenceFactory(seed)
        self.ensf = EnSF(ensf_config or EnSFConfig(), rng=self.seeds.rng("ensf"))
        self.training_config = training_config or TrainingConfig()
        self.online_trainer = (
            OnlineTrainer(surrogate, self.training_config)
            if self.training_config.online_iterations > 0
            else None
        )
        self.model_error = model_error
        self.executor = executor
        self.scenario = scenario
        self.qc = qc
        self.cycle_deadline_s = cycle_deadline_s
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        self.history: list[CycleRecord] = []

    # ------------------------------------------------------------------ #
    def run(
        self,
        truth0: np.ndarray,
        initial_ensemble: np.ndarray,
        n_cycles: int,
        steps_per_cycle: int,
        *,
        resume=None,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
        keep_last: int | None = None,
        preempt=None,
    ) -> dict:
        """Run ``n_cycles`` of the real-time workflow; returns a result summary.

        The checkpoint/resume/preempt knobs are forwarded verbatim to
        :meth:`~repro.workflow.engine.CycleEngine.run`, which lets the
        realtime workflow run as a preemptible, resumable experiment-service
        job.  A resumed run's ``history`` covers only the cycles executed by
        *this* call (completed cycles live in the checkpoint).
        """
        if n_cycles < 1 or steps_per_cycle < 1:
            raise ValueError("n_cycles and steps_per_cycle must be positive")
        truth = np.array(truth0, dtype=float)
        ensemble = np.array(initial_ensemble, dtype=float)

        # Fresh per-run history, appended from the engine's per-cycle
        # callback: an exception mid-run keeps every completed cycle.
        self.history = []

        stream = ObservationStream(
            self.operator,
            self.scenario,
            rng=self.seeds.rng("observations"),
            schedule_rng=self.seeds.rng("observation-schedule"),
            fault_plan=self.fault_plan,
            fault_log=self.fault_log,
        )
        post_analysis = None
        if self.online_trainer is not None:
            post_analysis = OnlineTrainingStage(self.online_trainer)
            post_analysis.prime(ensemble.mean(axis=0))

        engine = CycleEngine(
            truth=TruthStage(self.truth_model, steps_per_cycle, self.model_error),
            observations=ObservationStage(stream),
            forecast=EnsembleForecastStage(self.surrogate, steps_per_cycle),
            analysis=EnSFWorkflowAnalysisStage(self.ensf, self.seeds),
            post_analysis=post_analysis,
            executor=self.executor,
            on_cycle=self.history.append,
            qc=self.qc,
            cycle_deadline_s=self.cycle_deadline_s,
            fault_plan=self.fault_plan,
            fault_log=self.fault_log,
        )
        result = engine.run(
            truth,
            ensemble,
            n_cycles,
            resume=resume,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            keep_last=keep_last,
            preempt=preempt,
        )
        return self.summary(result.truth_final, result.state_final)

    # ------------------------------------------------------------------ #
    def summary(self, truth: np.ndarray, ensemble: np.ndarray) -> dict:
        """Final-state summary of the run."""
        stats = ensemble_statistics(ensemble)
        return {
            "final_analysis_rmse": rmse(stats.mean, truth),
            "final_spread": stats.mean_spread,
            "analysis_rmse": np.array([h.analysis_rmse for h in self.history]),
            "forecast_rmse": np.array([h.forecast_rmse for h in self.history]),
            "qc_rejected": int(sum(h.qc_rejected for h in self.history)),
            "deadline_skipped_cycles": int(sum(h.deadline_skipped for h in self.history)),
            "fault_recoveries": len(self.fault_log),
        }
