"""Forecast-model protocol shared by physics models and the ViT surrogate.

Every DA algorithm in this library (EnSF, LETKF) only requires the
forecast model to expose :meth:`ForecastModel.forecast` mapping a (batch of)
state vector(s) to the next analysis time (Eq. 1 of the paper).  Both the
spectral SQG model and the ViT surrogate satisfy this protocol, which is what
lets the framework swap physics-based and AI-based forecast models (Fig. 1).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.utils.xp import StateHandle

__all__ = ["ForecastModel", "propagate_ensemble"]


@runtime_checkable
class ForecastModel(Protocol):
    """Protocol for forecast models ``X_k = f(X_{k-1})``.

    Attributes
    ----------
    state_size:
        Length of the flattened state vector.
    """

    state_size: int

    def forecast(self, state: np.ndarray, n_steps: int = 1) -> np.ndarray:
        """Advance flattened state(s) ``state`` by ``n_steps`` model steps.

        ``state`` may have shape ``(state_size,)`` or ``(m, state_size)``;
        the returned array has the same shape.
        """
        ...


def propagate_ensemble(
    model: ForecastModel,
    ensemble: np.ndarray,
    n_steps: int = 1,
    executor=None,
) -> np.ndarray:
    """Propagate an ensemble of flattened states through ``model``.

    Parameters
    ----------
    model:
        Any :class:`ForecastModel`.
    ensemble:
        Array of shape ``(m, state_size)``, or a
        :class:`~repro.utils.xp.StateHandle` wrapping one.  A handle comes
        back as a handle: when the model exposes ``forecast_device`` and the
        run is in-process, the ensemble is advanced entirely on the handle's
        device (an already-resident state re-uploads nothing); otherwise the
        host mirror is advanced and re-wrapped.
    n_steps:
        Number of model steps between analysis times.
    executor:
        Optional :class:`repro.hpc.ensemble_parallel.EnsembleExecutor`; when
        provided the members are distributed over worker processes (the
        ensemble dimension is the paper's chosen parallelisation axis because
        it incurs minimal communication — and the pool seam is a host
        boundary: chunks pickle to the workers, whose own backends manage
        device residency).  When ``None`` the model's own batched
        vectorisation is used in-process.
    """
    if isinstance(ensemble, StateHandle):
        if ensemble.ndim != 2:
            raise ValueError("ensemble must have shape (m, state_size)")
        if ensemble.shape[1] != model.state_size:
            raise ValueError(
                f"ensemble state size {ensemble.shape[1]} != model state size {model.state_size}"
            )
        if executor is None and hasattr(model, "forecast_device"):
            return StateHandle.from_device(
                ensemble.xp, model.forecast_device(ensemble.device(), n_steps=n_steps)
            )
        if executor is None:
            advanced = model.forecast(ensemble.host(), n_steps=n_steps)
        else:
            advanced = executor.map_states(model, ensemble.host(), n_steps=n_steps)
        return StateHandle.from_host(ensemble.xp, advanced)
    ensemble = np.asarray(ensemble)
    if ensemble.ndim != 2:
        raise ValueError("ensemble must have shape (m, state_size)")
    if ensemble.shape[1] != model.state_size:
        raise ValueError(
            f"ensemble state size {ensemble.shape[1]} != model state size {model.state_size}"
        )
    if executor is None:
        return model.forecast(ensemble, n_steps=n_steps)
    return executor.map_states(model, ensemble, n_steps=n_steps)
