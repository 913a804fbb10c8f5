"""Common ensemble-filter API and ensemble post-processing helpers.

Every DA method in this library implements :class:`EnsembleFilter`:
``analyze(forecast_ensemble, observation, operator)`` maps the forecast
(prior) ensemble to the analysis (posterior) ensemble.  The cycling drivers
in :mod:`repro.da.cycling` only depend on this interface, so EnSF and LETKF
are interchangeable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.observations import ObservationOperator

__all__ = ["EnsembleFilter", "relax_spread", "ensemble_statistics", "EnsembleStatistics"]


@dataclass(frozen=True)
class EnsembleStatistics:
    """Summary statistics of an ensemble."""

    mean: np.ndarray
    spread: np.ndarray

    @property
    def mean_spread(self) -> float:
        """Domain-averaged ensemble spread (scalar)."""
        return float(np.mean(self.spread))


def ensemble_statistics(ensemble: np.ndarray) -> EnsembleStatistics:
    """Mean and per-variable spread (std with ddof=1) of an ``(m, d)`` ensemble."""
    ensemble = np.asarray(ensemble, dtype=float)
    if ensemble.ndim != 2:
        raise ValueError("ensemble must have shape (m, d)")
    mean = ensemble.mean(axis=0)
    if ensemble.shape[0] > 1:
        spread = ensemble.std(axis=0, ddof=1)
    else:
        spread = np.zeros_like(mean)
    return EnsembleStatistics(mean=mean, spread=spread)


def relax_spread(
    analysis: np.ndarray,
    forecast: np.ndarray,
    factor: float = 1.0,
    floor: float = 1.0e-12,
) -> np.ndarray:
    """Relax the analysis ensemble spread towards the forecast (prior) spread.

    The paper stabilises the EnSF without localization by relaxing the
    analysis spread to the prior values (§IV-A: "the variance (spread) of the
    analysis ensemble is simply relaxed to the prior (forecast) values").
    With ``factor = 1`` the analysis perturbations are rescaled so that the
    per-variable spread equals the forecast spread; ``factor = 0`` leaves the
    analysis unchanged; intermediate values blend the two (the RTPS form of
    Whitaker & Hamill 2012).

    Parameters
    ----------
    analysis, forecast:
        Ensembles of shape ``(m, d)``.
    factor:
        Relaxation factor in ``[0, 1]``.
    floor:
        Lower bound applied to the analysis spread to avoid division by zero.
    """
    if not 0.0 <= factor <= 1.0:
        raise ValueError("relaxation factor must lie in [0, 1]")
    analysis = np.asarray(analysis, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    if analysis.shape != forecast.shape:
        raise ValueError("analysis and forecast ensembles must have the same shape")
    if factor == 0.0 or analysis.shape[0] < 2:
        return analysis

    a_stats = ensemble_statistics(analysis)
    f_stats = ensemble_statistics(forecast)
    a_spread = np.maximum(a_stats.spread, floor)
    # RTPS: σ_new = (1 − factor) σ_a + factor σ_f
    target = (1.0 - factor) * a_stats.spread + factor * f_stats.spread
    scale = target / a_spread
    perturbations = analysis - a_stats.mean
    return a_stats.mean + perturbations * scale


class EnsembleFilter(ABC):
    """Abstract base class for ensemble analysis updates."""

    @abstractmethod
    def analyze(
        self,
        forecast_ensemble: np.ndarray,
        observation: np.ndarray,
        operator: ObservationOperator,
    ) -> np.ndarray:
        """Return the analysis ensemble given the forecast ensemble and observation.

        Parameters
        ----------
        forecast_ensemble:
            Prior ensemble, shape ``(m, state_dim)``.
        observation:
            Observation vector ``y_k`` of length ``operator.obs_dim``.
        operator:
            Observation operator for the current analysis time.
        """

    def analyze_parallel(
        self,
        forecast_ensemble: np.ndarray,
        observation: np.ndarray,
        operator: ObservationOperator,
    ) -> np.ndarray:
        """The analysis call the cycle engine makes: :meth:`analyze`, unchanged.

        No filter overrides it.  It stays a separate method so a caller can
        wrap the engine's analysis span without touching ``analyze`` itself,
        which filters also call internally: the end-to-end benchmark
        (``benchmarks/e2e/osse.py``) shadows it on the filter instance to
        time each cycle's analysis.
        """
        return self.analyze(forecast_ensemble, observation, operator)

    @property
    def name(self) -> str:
        """Human-readable filter name (used in experiment reports)."""
        return type(self).__name__
