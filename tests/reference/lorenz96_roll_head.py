"""Test-only oracle: the Lorenz-96 tendency and RK4 step on ``np.roll``.

``tendency`` and ``step`` are the bodies the model had before its periodic
shifts became precomputed ``take`` indices, verbatim.  :class:`RollLorenz96`
overrides just those two on :class:`~repro.models.lorenz96.Lorenz96`, so its
inherited ``forecast`` and ``spinup`` run the rolled kernel too.  The model
in ``repro/models/lorenz96.py`` must be ``array_equal`` to this for every
dimension and leading shape — it lives under ``tests/`` so that ``src/``
cannot import it.
"""

from __future__ import annotations

import numpy as np

from repro.models.lorenz96 import Lorenz96


class RollLorenz96(Lorenz96):
    """:class:`Lorenz96` with the rolled tendency and its RK4 step."""

    def tendency(self, x: np.ndarray) -> np.ndarray:
        """Right-hand side, vectorised over leading (ensemble) axes."""
        x = np.asarray(x, dtype=float)
        xp1 = np.roll(x, -1, axis=-1)
        xm2 = np.roll(x, 2, axis=-1)
        xm1 = np.roll(x, 1, axis=-1)
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
