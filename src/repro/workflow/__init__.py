"""End-to-end real-time data-assimilation workflow (Fig. 1 of the paper).

Attribute access is lazy (PEP 562): the cycling drivers in
:mod:`repro.da.cycling` import the engine from this package, while
:mod:`repro.workflow.experiments` imports those drivers back — resolving
exports on first access keeps that dependency loop acyclic at import time.
"""

import importlib

_EXPORTS = {
    "ExperimentConfig": "repro.workflow.config",
    "rmse_series": "repro.workflow.metrics",
    "pattern_correlation": "repro.workflow.metrics",
    "error_field": "repro.workflow.metrics",
    "FourWayComparison": "repro.workflow.experiments",
    "run_four_experiments": "repro.workflow.experiments",
    "build_sqg_testbed": "repro.workflow.experiments",
    "RealTimeDAWorkflow": "repro.workflow.realtime",
    "ExperimentService": "repro.workflow.scheduler",
    "ServiceConfig": "repro.workflow.scheduler",
    "JobSpec": "repro.workflow.scheduler",
    "JobContext": "repro.workflow.scheduler",
    "lorenz96_ensf_job": "repro.workflow.scheduler",
    "StatusServer": "repro.workflow.statusd",
    "EnginePreempted": "repro.workflow.engine",
    "CycleEngine": "repro.workflow.engine",
    "CycleRecord": "repro.workflow.engine",
    "CycleContext": "repro.workflow.engine",
    "EngineResult": "repro.workflow.engine",
    "EngineCheckpoint": "repro.workflow.engine",
    "CheckpointCorruptError": "repro.workflow.engine",
    "CheckpointRing": "repro.workflow.engine",
    "CheckpointCadence": "repro.workflow.engine",
    "DivergencePolicy": "repro.workflow.engine",
    "EnsembleDivergenceError": "repro.workflow.engine",
    "TruthStage": "repro.workflow.engine",
    "ObservationStage": "repro.workflow.engine",
    "EnsembleForecastStage": "repro.workflow.engine",
    "DeterministicForecastStage": "repro.workflow.engine",
    "FilterAnalysisStage": "repro.workflow.engine",
    "EnSFWorkflowAnalysisStage": "repro.workflow.engine",
    "OnlineTrainingStage": "repro.workflow.engine",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
