"""Ensemble inflation schemes.

Small ensembles systematically underestimate forecast uncertainty; inflation
compensates.  The paper's LETKF uses relaxation-to-prior-spread (RTPS,
Whitaker & Hamill 2012) with a tuned factor of 0.3; multiplicative inflation
and relaxation-to-prior-perturbation (RTPP) are provided for ablations.
"""

from __future__ import annotations

import numpy as np

__all__ = ["multiplicative_inflation", "rtps_inflation", "rtpp_inflation"]


def _check_ensemble(ensemble: np.ndarray) -> np.ndarray:
    ensemble = np.asarray(ensemble, dtype=float)
    if ensemble.ndim != 2:
        raise ValueError("ensemble must have shape (m, d)")
    return ensemble


def multiplicative_inflation(ensemble: np.ndarray, factor: float) -> np.ndarray:
    """Scale ensemble perturbations about the mean by ``factor`` (≥ 1 inflates)."""
    if factor <= 0:
        raise ValueError("inflation factor must be positive")
    ensemble = _check_ensemble(ensemble)
    mean = ensemble.mean(axis=0)
    return mean + factor * (ensemble - mean)


def rtps_inflation(
    analysis: np.ndarray,
    forecast: np.ndarray,
    factor: float,
    floor: float = 1.0e-12,
) -> np.ndarray:
    """Relaxation-to-prior-spread inflation (Whitaker & Hamill 2012).

    The analysis perturbations are rescaled so that the per-variable analysis
    spread ``σ_a`` is relaxed towards the forecast spread ``σ_f``:

    ``σ_new = σ_a + factor (σ_f − σ_a)``

    ``factor = 0`` leaves the analysis unchanged; ``factor = 1`` restores the
    forecast spread exactly.  The paper's tuned value for SQG-LETKF is 0.3.
    """
    if not 0.0 <= factor <= 1.0:
        raise ValueError("RTPS factor must lie in [0, 1]")
    analysis = _check_ensemble(analysis)
    forecast = _check_ensemble(forecast)
    if analysis.shape != forecast.shape:
        raise ValueError("analysis and forecast must have the same shape")
    if factor == 0.0 or analysis.shape[0] < 2:
        return analysis
    return _relax_spread(analysis.copy(), forecast, factor, floor)


def _relax_spread(
    analysis: np.ndarray, forecast: np.ndarray, factor: float, floor: float = 1.0e-12
) -> np.ndarray:
    """RTPS on an ``analysis`` the caller owns, in place, and returned.

    ``ā`` and ``scale`` come from the unmodified analysis, then
    ``(a − ā)·scale + ā`` is applied as ``-=``, ``*=``, ``+=``: the same
    bits as the out-of-place expression, and no ensemble-sized temporary
    beyond the one each ``std`` forms.  :func:`rtps_inflation` runs it on a
    copy; the LETKF on the analysis it has just built.
    """
    a_mean = analysis.mean(axis=0)
    sigma_a = np.maximum(analysis.std(axis=0, ddof=1), floor)
    sigma_f = forecast.std(axis=0, ddof=1)
    scale = 1.0 + factor * (sigma_f - sigma_a) / sigma_a
    analysis -= a_mean
    analysis *= scale
    analysis += a_mean
    return analysis


def rtpp_inflation(analysis: np.ndarray, forecast: np.ndarray, factor: float) -> np.ndarray:
    """Relaxation-to-prior-perturbation inflation (Zhang et al. 2004).

    Blends analysis and forecast perturbations:
    ``X'_new = (1 − factor) X'_a + factor X'_f``.
    """
    if not 0.0 <= factor <= 1.0:
        raise ValueError("RTPP factor must lie in [0, 1]")
    analysis = _check_ensemble(analysis)
    forecast = _check_ensemble(forecast)
    if analysis.shape != forecast.shape:
        raise ValueError("analysis and forecast must have the same shape")
    a_mean = analysis.mean(axis=0)
    f_mean = forecast.mean(axis=0)
    pert = (1.0 - factor) * (analysis - a_mean) + factor * (forecast - f_mean)
    return a_mean + pert
