"""Training-free Monte-Carlo estimator of the prior score function.

This is the key ingredient of the EnSF (paper §III-A2, Eqs. 13–16): instead of
training a neural network to represent the score ``s(z, t) = ∇ log Q(z_t)``,
the score is approximated directly from the forecast ensemble
``{x^m_{k|k−1}}`` using the closed-form conditional ``Q(z_t | z_0) =
N(α_t z_0, β²_t I)``:

``ŝ(z, t) = − Σ_j  (z − α_t x_j) / β²_t  ·  ŵ_t(z, x_j)``

where the weights ``ŵ_t`` are the self-normalised conditional densities
(Eq. 16).  The estimator is vectorised over a batch of evaluation points and
supports mini-batching over the ensemble (``J ≤ M`` members per evaluation),
as described in the paper.

Fused score path
----------------
The reverse-SDE sampler evaluates this estimator on every Euler step
(~100 times per analysis), so the hot path is fused: the ensemble statics
(``Σ_d x_j²``) are precomputed once (the per-step schedule constants are
precomputed by the buffered sampler, see :mod:`repro.core.sde`), and
``log_weights → weights → score`` collapse into a single in-place evaluation
(:meth:`MonteCarloScoreEstimator.score_into`) that performs one GEMM for the
cross terms and one for the weighted mean, writing every intermediate into
preallocated workspaces.  (The original allocating implementation served as
the numerical oracle through several releases and has been retired.)
"""

from __future__ import annotations

import numpy as np

from repro.core.schedules import LinearAlphaSchedule
from repro.utils.random import default_rng
from repro.utils.xp import ArrayBackend, resolve_backend

__all__ = ["MonteCarloScoreEstimator", "gaussian_reference_score"]


def gaussian_reference_score(z: np.ndarray, mean: np.ndarray, var: float | np.ndarray) -> np.ndarray:
    """Analytic score of a Gaussian ``N(mean, var I)`` — used as a test oracle."""
    return -(z - mean) / var


class MonteCarloScoreEstimator:
    """Estimate ``∇ log Q(z_t)`` from samples of ``Q(z_0)``.

    Parameters
    ----------
    ensemble:
        Samples of the target (prior) distribution, shape ``(M, d)``.
    schedule:
        Diffusion schedule providing ``α_t`` and ``β²_t``.
    minibatch:
        Number of ensemble members ``J`` used per score evaluation.  ``None``
        uses the full ensemble (the paper's default for moderate ``M``).
    rng:
        Random stream used to draw mini-batches.
    backend:
        Array backend name (``"numpy"``/``"mock-device"``), an
        :class:`~repro.utils.xp.ArrayBackend`, or ``None`` for the
        process-wide default (``REPRO_ARRAY_BACKEND``).  The fused score
        path runs entirely on the backend's device: the ensemble (and its
        statics) is moved once at construction, evaluation points are
        expected on-device, and the numpy backend is bit-identical to the
        pre-shim kernel.
    """

    def __init__(
        self,
        ensemble: np.ndarray,
        schedule: LinearAlphaSchedule | None = None,
        minibatch: int | None = None,
        rng: np.random.Generator | int | None = None,
        backend: str | ArrayBackend | None = None,
    ) -> None:
        ensemble = np.asarray(ensemble, dtype=float)
        if ensemble.ndim != 2:
            raise ValueError("ensemble must have shape (M, d)")
        if ensemble.shape[0] < 1:
            raise ValueError("ensemble must contain at least one member")
        self.ensemble = ensemble
        self.n_members, self.dim = ensemble.shape
        self.schedule = schedule or LinearAlphaSchedule()
        if minibatch is not None and not 1 <= minibatch <= self.n_members:
            raise ValueError(
                f"minibatch must lie in [1, {self.n_members}], got {minibatch}"
            )
        self.minibatch = minibatch
        self.rng = default_rng(rng)
        self.xp = resolve_backend(backend)
        xp = self.xp
        # Device-resident ensemble: moved once, reused by every evaluation.
        self._ensemble_dev = xp.to_device(ensemble)
        # Ensemble statics reused by every fused evaluation: ``Σ_d x_j²``
        # appears in the expanded ``‖z − α x_j‖²`` on each of the ~100
        # reverse-SDE score calls and never changes within an analysis.
        self._x_sq = xp.einsum("md,md->m", self._ensemble_dev, self._ensemble_dev)
        # Reusable workspaces keyed by the (n_points, J) evaluation shape.
        self._weight_buf: np.ndarray | None = None
        self._zsq_buf: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def _select_batch(self) -> np.ndarray:
        """Return the ensemble subset used for one evaluation (shape (J, d))."""
        if self.minibatch is None or self.minibatch == self.n_members:
            return self.ensemble
        idx = self.rng.choice(self.n_members, size=self.minibatch, replace=False)
        return self.ensemble[idx]

    def _select_batch_with_statics(self) -> tuple[np.ndarray, np.ndarray]:
        """Device batch plus its precomputed ``Σ_d x_j²`` statics."""
        if self.minibatch is None or self.minibatch == self.n_members:
            return self._ensemble_dev, self._x_sq
        idx = self.rng.choice(self.n_members, size=self.minibatch, replace=False)
        return self._ensemble_dev[idx], self._x_sq[idx]

    def log_weights(self, z: np.ndarray, t: float, batch: np.ndarray | None = None) -> np.ndarray:
        """Unnormalised log-weights ``log Q(z_t | x_j)`` for each batch member.

        Parameters
        ----------
        z:
            Evaluation points, shape ``(n, d)``.
        t:
            Pseudo-time in ``[0, 1]``.
        batch:
            Optional pre-selected ensemble subset ``(J, d)``.

        Returns
        -------
        Array of shape ``(n, J)``.
        """
        xp = self.xp
        z = np.atleast_2d(np.asarray(z, dtype=float))
        batch = self._select_batch() if batch is None else np.asarray(batch, dtype=float)
        alpha = float(self.schedule.alpha(t))
        beta_sq = float(self.schedule.beta_sq(t))
        z_dev = xp.to_device(z)
        batch_dev = xp.to_device(batch)
        # ||z - α x_j||² expanded to avoid materialising the (n, J, d) tensor
        # twice; a single broadcasted difference is still required for the
        # score itself, so we reuse the expansion trick only for the weights.
        z_sq = xp.sum(z_dev**2, axis=1)[:, None]
        x_sq = xp.sum(batch_dev**2, axis=1)[None, :]
        cross = z_dev @ batch_dev.T
        dist_sq = z_sq - 2.0 * alpha * cross + alpha**2 * x_sq
        # The expansion can go slightly negative in floating point when
        # z ≈ α x_j; clamp so the log-density never exceeds its peak.
        dist_sq = xp.maximum(dist_sq, 0.0)
        return xp.to_host(-0.5 * dist_sq / beta_sq)

    def weights(self, z: np.ndarray, t: float, batch: np.ndarray | None = None) -> np.ndarray:
        """Self-normalised weights ``ŵ_t(z, x_j)`` (Eq. 16); rows sum to one."""
        logw = self.log_weights(z, t, batch=batch)
        logw = logw - logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        return w / w.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------ #
    def score_into(self, z: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
        """Fused in-place estimate of the prior score ``ŝ(z, t)`` (Eq. 15).

        Computes weights and score in a single pass — one GEMM for the
        ``z xᵀ`` cross terms, an in-place softmax on a persistent ``(n, J)``
        workspace, and one GEMM for the weighted ensemble mean written
        directly into ``out`` — with no ``(n, d)`` temporaries.

        Parameters
        ----------
        z:
            Evaluation points, shape ``(n, d)`` (2-D, C-contiguous float64),
            resident on the backend's device (host arrays for the CPU
            backends; the reverse-SDE integrator keeps its state on-device).
        t:
            Pseudo-time in ``[0, 1]``.
        out:
            Device output array of shape ``(n, d)``; overwritten with the
            score.
        """
        xp = self.xp
        batch, x_sq = self._select_batch_with_statics()
        alpha = float(self.schedule.alpha(t))
        beta_sq = float(self.schedule.beta_sq(t))
        n = z.shape[0]
        j = batch.shape[0]

        if self._weight_buf is None or self._weight_buf.shape != (n, j):
            self._weight_buf = xp.empty((n, j))
            self._zsq_buf = xp.empty(n)
        w = self._weight_buf
        z_sq = self._zsq_buf

        xp.einsum("nd,nd->n", z, z, out=z_sq)
        xp.dot(z, batch.T, out=w)                     # cross terms (one GEMM)
        w *= -2.0 * alpha
        w += z_sq[:, None]
        w += (alpha * alpha) * x_sq[None, :]
        xp.maximum(w, 0.0, out=w)                     # clamp ‖z − α x‖² ≥ 0
        w *= -0.5 / beta_sq
        w -= w.max(axis=1, keepdims=True)
        xp.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)

        xp.dot(w, batch, out=out)                     # weighted mean (one GEMM)
        out *= alpha
        out -= z
        out *= 1.0 / beta_sq                          # ŝ = −(z − α Σ w x)/β²
        return out

    def score(self, z: np.ndarray, t: float) -> np.ndarray:
        """Estimate the prior score ``ŝ(z, t)`` at points ``z`` (Eq. 15).

        ``z`` may be ``(d,)`` or ``(n, d)``; the return matches the input
        shape.  A fresh output array is allocated; the fused intermediates
        reuse the estimator's workspaces.
        """
        xp = self.xp
        z_in = np.asarray(z, dtype=float)
        squeeze = z_in.ndim == 1
        z2d = np.ascontiguousarray(np.atleast_2d(z_in))
        if z2d.shape[1] != self.dim:
            raise ValueError(f"points have dimension {z2d.shape[1]}, ensemble has {self.dim}")
        z_dev = xp.to_device(z2d)
        out = xp.empty_like(z_dev)
        self.score_into(z_dev, t, out)
        out = xp.to_host(out)
        return out[0] if squeeze else out

    def __call__(self, z: np.ndarray, t: float) -> np.ndarray:
        return self.score(z, t)
