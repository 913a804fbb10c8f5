"""Test-only oracle: the LETKF analysis as it stood before it went
allocation-lean.

``_update_statistics`` and ``analyze`` are the previous release's
:class:`~repro.da.letkf.LETKF` methods and ``rtps_inflation`` its
``repro.da.inflation`` function, bodies verbatim: separate observation
perturbations for every network, every staging array alive until the
analysis returns, and RTPS as a fresh ensemble.  :class:`HeadLETKF` overrides
just those two methods on :class:`~repro.da.letkf.LETKF`, so the geometry,
the assembly and the solve kernels are the live ones.  The analysis in
``repro/da/letkf.py`` must be ``array_equal`` to this for every network,
inflation, stride and array backend — it lives under ``tests/`` so that
``src/`` cannot import it.
"""

from __future__ import annotations

import numpy as np

from repro.core.observations import ObservationOperator
from repro.da.inflation import multiplicative_inflation
from repro.da.letkf import LETKF, _interpolate_apply, _solve_convolution


def _check_ensemble(ensemble: np.ndarray) -> np.ndarray:
    ensemble = np.asarray(ensemble, dtype=float)
    if ensemble.ndim != 2:
        raise ValueError("ensemble must have shape (m, d)")
    return ensemble


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
    a_mean = analysis.mean(axis=0)
    sigma_a = np.maximum(analysis.std(axis=0, ddof=1), floor)
    sigma_f = forecast.std(axis=0, ddof=1)
    scale = 1.0 + factor * (sigma_f - sigma_a) / sigma_a
    return a_mean + (analysis - a_mean) * scale


class HeadLETKF(LETKF):
    """:class:`LETKF` with the previous release's statistics and analysis."""

    def _update_statistics(
        self,
        forecast_ensemble: np.ndarray,
        observation: np.ndarray,
        operator: ObservationOperator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Global ensemble statistics, the pipeline's first step (host side).

        Returns ``(prior, x_mean, x_pert, y_pert, innovation)`` with prior
        multiplicative inflation already applied.
        """
        prior = forecast_ensemble
        if self.config.prior_inflation > 1.0:
            prior = multiplicative_inflation(prior, self.config.prior_inflation)

        x_mean = prior.mean(axis=0)
        x_pert = prior - x_mean
        y_ens = operator.apply(prior)
        y_mean = y_ens.mean(axis=0)
        y_pert = y_ens - y_mean
        innovation = observation - y_mean
        return prior, x_mean, x_pert, y_pert, innovation

    def analyze(
        self,
        forecast_ensemble: np.ndarray,
        observation: np.ndarray,
        operator: ObservationOperator,
    ) -> np.ndarray:
        """The analysis pipeline (see the module docstring): one kernel
        solves every analysis-grid column on device-resident statistics."""
        forecast_ensemble = self._validate(forecast_ensemble)
        observation = np.asarray(observation, dtype=float)

        prior, x_mean, x_pert, y_pert, innovation = self._update_statistics(
            forecast_ensemble, observation, operator
        )
        geometry = self.geometry(operator)
        xp = self.xp
        n_members = prior.shape[0]
        n_columns, n_levels = self.grid.ny * self.grid.nx, self.grid.nlev
        batch = self.config.shard_columns

        conv = self._convolution_channels(y_pert, innovation, geometry, n_members)
        weights = _solve_convolution(conv, n_members, batch, xp)

        # Column-major prior, member axis last: (n_columns, nlev, m).
        local_pert = xp.to_device(
            np.ascontiguousarray(x_pert.reshape(n_members, n_levels, n_columns).transpose(2, 1, 0))
        )
        local_mean = xp.to_device(np.ascontiguousarray(x_mean.reshape(n_levels, n_columns).T))
        analysis_t = xp.to_host(
            _interpolate_apply(
                weights, local_pert, local_mean, geometry.shape, geometry.stride, xp
            )
        )
        analysis = np.ascontiguousarray(analysis_t.transpose(2, 1, 0)).reshape(
            n_members, n_levels * n_columns
        )
        if geometry.prior_columns.size:
            # Columns no observation reaches keep the prior, bit for bit.
            keep = (geometry.prior_columns + np.arange(n_levels)[:, None] * n_columns).ravel()
            analysis[:, keep] = prior[:, keep]
        if self.config.rtps_factor > 0.0:
            analysis = rtps_inflation(analysis, forecast_ensemble, self.config.rtps_factor)
        return analysis
