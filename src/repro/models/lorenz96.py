"""Lorenz-96 model.

The EnSF method was originally demonstrated on a high-dimensional Lorenz-96
system with up to O(10⁶) variables (paper §I, refs. [24], [25]).  We include
the model both as a fast, well-understood testbed for unit and property tests
of the filters, and to reproduce the "EnSF scales to very high dimension"
behaviour without the cost of a large SQG grid.
"""

from __future__ import annotations

import numpy as np

from repro.utils.random import default_rng

__all__ = ["Lorenz96"]


class Lorenz96:
    """The standard Lorenz-96 model ``dx_i/dt = (x_{i+1} − x_{i−2}) x_{i−1} − x_i + F``.

    Parameters
    ----------
    dim:
        Number of state variables (≥ 4).
    forcing:
        Forcing constant ``F`` (8.0 gives chaotic dynamics).
    dt:
        RK4 time step.

    The periodic neighbours are gathered with ``take`` from three index
    arrays built once here: ``_ip1[i] = (i + 1) % dim``, ``_im2[i] = (i − 2)
    % dim`` and ``_im1[i] = (i − 1) % dim``.  They select the same values as
    ``np.roll(x, −1)``, ``np.roll(x, 2)`` and ``np.roll(x, 1)`` at a fraction
    of the call cost, so the tendency is bit-identical to the rolled form.
    """

    def __init__(self, dim: int = 40, forcing: float = 8.0, dt: float = 0.05):
        if dim < 4:
            raise ValueError("Lorenz-96 requires at least 4 variables")
        if dt <= 0:
            raise ValueError("time step must be positive")
        self.dim = int(dim)
        self.forcing = float(forcing)
        self.dt = float(dt)
        self.state_size = self.dim
        i = np.arange(self.dim)
        self._ip1 = (i + 1) % self.dim
        self._im2 = (i - 2) % self.dim
        self._im1 = (i - 1) % self.dim

    def tendency(self, x: np.ndarray) -> np.ndarray:
        """Right-hand side, vectorised over leading (ensemble) axes."""
        x = np.asarray(x, dtype=float)
        xp1 = x.take(self._ip1, axis=-1)
        xm2 = x.take(self._im2, axis=-1)
        xm1 = x.take(self._im1, axis=-1)
        return (xp1 - xm2) * xm1 - x + self.forcing

    def step(self, x: np.ndarray, n_steps: int = 1) -> np.ndarray:
        """Advance states by ``n_steps`` RK4 steps."""
        x = np.asarray(x, dtype=float)
        for _ in range(n_steps):
            k1 = self.tendency(x)
            k2 = self.tendency(x + 0.5 * self.dt * k1)
            k3 = self.tendency(x + 0.5 * self.dt * k2)
            k4 = self.tendency(x + self.dt * k3)
            x = x + (self.dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    def forecast(self, state: np.ndarray, n_steps: int = 1) -> np.ndarray:
        """ForecastModel protocol entry point (identical to :meth:`step`)."""
        return self.step(state, n_steps=n_steps)

    def equilibrium_state(self, perturb: float = 0.0, rng=None) -> np.ndarray:
        """The unstable fixed point ``x_i = F`` with optional random perturbation."""
        rng = default_rng(rng)
        x = np.full(self.dim, self.forcing)
        if perturb:
            x = x + perturb * rng.standard_normal(self.dim)
        return x

    def spinup(self, n_steps: int = 1000, rng=None) -> np.ndarray:
        """Return a state on the attractor after ``n_steps`` from a perturbed equilibrium."""
        x0 = self.equilibrium_state(perturb=0.01, rng=rng)
        return self.step(x0, n_steps=n_steps)
