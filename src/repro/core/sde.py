"""Euler–Maruyama integrators for the reverse-time SDE (Eq. 7).

Samples from the target (posterior) distribution are produced by drawing
standard Gaussian vectors ``Z_T ∼ N(0, I)`` and integrating

``dZ_t = [ b(t) Z_t − σ²(t) s(Z_t, t) ] dt + σ(t) dW̄_t``

backwards from ``t = T = 1`` to ``t = 0``, where ``s`` is the (posterior)
score.  The paper discretises this with an Euler scheme; we additionally
expose a predictor-only (probability-flow ODE) mode for deterministic
ablations.  Two integrators share that discretisation:

**Full space** (:meth:`ReverseSDESampler.sample`) takes any score callable
and updates the ``(n, d)`` state in place, reusing one drift and one noise
buffer.  Nonlinear observation operators — the paper's stated reason for
the EnSF — non-uniform ``R`` and minibatched scores run on it.

**Ensemble space** (:meth:`ReverseSDESampler.sample_ensemble_space`) serves
the Monte-Carlo prior score of an ensemble ``X (M, d)`` plus a likelihood
score ``h(t)(y − z[idx])/R`` with scalar ``R``.  One Euler step is then
``z ← c_z z + c_x·W(z)·X + c_y·y + c_n·ξ`` with scalar ``c_*(t)`` (one
``c_z`` per coordinate group: observed / unobserved), and the softmax
weights ``W`` see ``z`` only through ``z Xᵀ``, so writing

``z_t = C_t X + ȳ_t y + E_t``,  ``E_t = Σ_s γ_s ξ_s``,  ``F_t = E_t Xᵀ``

the integration closes on ``C, F (n, M)`` and the scalars ``ȳ`` and
``Γ² = Σ γ²_s`` given ``K = X Xᵀ`` and ``X y``.  The increments
``ξ_s Xᵀ ∼ N(0, K)`` are drawn as ``(n, M)`` Gaussians times a factor of
``K``; one final full-size draw ``ζ`` supplies the part of ``E`` orthogonal
to the rows of ``X``.  Same discretisation and output law as the full-space
loop (fed the projections of a recorded full-space noise sequence it
reproduces that loop to rounding) at ``O(M²d + n_steps·n·M²)`` instead of
``O(n_steps·n·M·d)``.  Each member consumes a ``(blocks, groups, M)`` draw
then a ``(d,)`` draw, and every contraction over ``d`` or ``M`` is a
per-member-row product, so results never depend on how members are batched.

Full-size noise goes through the backend RNG hook
(:meth:`~repro.utils.xp.ArrayBackend.standard_normal`): host ``rng`` stream
bits staged to the device, so draws are bit-identical and worker-invariant
across backends.
Full-size state and contractions are device-resident; the ``(n, M)``
recursion of the ensemble-space integrator runs on the host.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from repro.core.schedules import LinearAlphaSchedule
from repro.utils.random import default_rng
from repro.utils.xp import ArrayBackend, resolve_backend

__all__ = ["ReverseSDESampler"]

ScoreFn = Callable[[np.ndarray, float], np.ndarray]


class _ClosureCoefficients(NamedTuple):
    """Per-step scalars of the affine Euler update (arrays over the steps)."""

    c_z: np.ndarray  # (2, n_steps): observed / unobserved coordinates
    c_x: np.ndarray
    c_y: np.ndarray
    c_n: np.ndarray
    logit_lin: np.ndarray  # softmax logits = logit_lin·(z Xᵀ) + logit_quad·‖x‖²
    logit_quad: np.ndarray


def _rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over the last axis of ``a``, one product per row.

    Every row is its own matrix product of fixed shape, so a member's
    result does not depend on which other members share the batch (a single
    GEMM over the stacked rows does, in the last bit).
    """
    return np.matmul(a[..., None, :], b)[..., 0, :]


def _colour_noise(grams: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn standard-normal blocks into ``N(0, K_g)`` rows; also return ``K_g⁺``.

    ``grams`` is ``(G, M, M)``, ``eta`` is ``(n, blocks, G, M)``.  With
    ``K = V Λ Vᵀ`` and ``S = Λ^½ Vᵀ`` the rows of ``η S`` have covariance
    ``SᵀS = K``; eigenvalues at rounding level (a centred ensemble always
    has one) are dropped from both the factor and the pseudo-inverse.
    Returns the coloured noise as ``(G, n, blocks, M)``.
    """
    eta = eta.transpose(2, 0, 1, 3)
    if not np.isfinite(grams).all():
        # LAPACK raises on non-finite input; a diverged ensemble must yield a
        # non-finite analysis instead, as it does in full space.
        return np.full(eta.shape, np.nan), np.full_like(grams, np.nan)
    lam, vec = np.linalg.eigh(grams)
    keep = lam > lam[:, -1:] * (grams.shape[-1] * np.finfo(float).eps)
    lam = np.where(keep, lam, 1.0)
    roots = np.where(keep, np.sqrt(lam), 0.0)[:, :, None] * vec.transpose(0, 2, 1)
    pinvs = np.matmul(vec * np.where(keep, 1.0 / lam, 0.0)[:, None, :], vec.transpose(0, 2, 1))
    # One (blocks, M) @ (M, M) product per member: grouping-independent.
    return np.matmul(eta, roots[:, None]), pinvs


class ReverseSDESampler:
    """Integrate the reverse-time SDE with a user-supplied score function.

    Parameters
    ----------
    schedule:
        Diffusion schedule providing ``b(t)`` and ``σ(t)``.
    n_steps:
        Number of Euler steps over the pseudo-time interval.
    stochastic:
        When ``True`` (default) the Brownian term is included (reverse SDE);
        when ``False`` the probability-flow ODE
        ``dZ = [b Z − ½ σ² s] dt`` is integrated instead.
    t_end, t_start:
        Pseudo-time integration limits (defaults: from 1 down to 0).
    backend:
        Array backend (name, :class:`~repro.utils.xp.ArrayBackend`, or
        ``None`` for the ``REPRO_ARRAY_BACKEND`` default) holding every
        full-size array.  The full-space state lives on the backend's device
        for the whole integration (the initial draw lands in a device
        buffer, one device→host move at the end); Gaussian increments go
        through the backend RNG hook — host ``rng`` stream bits, so the
        result never depends on the backend (see
        :meth:`ArrayBackend.standard_normal`).
    """

    def __init__(
        self,
        schedule: LinearAlphaSchedule | None = None,
        n_steps: int = 100,
        stochastic: bool = True,
        t_end: float = 1.0,
        t_start: float = 0.0,
        max_state_magnitude: float = 1.0e3,
        backend: str | ArrayBackend | None = None,
    ) -> None:
        if n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        self.schedule = schedule or LinearAlphaSchedule()
        self.n_steps = int(n_steps)
        self.stochastic = bool(stochastic)
        self.t_end = float(t_end)
        self.t_start = float(t_start)
        # Numerical safeguard: EnSF operates on normalised (O(1)) states, so
        # any Euler iterate beyond this magnitude signals stiffness-induced
        # overshoot; clamping prevents overflow while leaving well-resolved
        # integrations untouched.
        self.max_state_magnitude = float(max_state_magnitude)
        self.xp = resolve_backend(backend)
        self._closure_cache: tuple[tuple, tuple[np.ndarray, ...]] | None = None

    def sample(
        self,
        score_fn: ScoreFn,
        n_samples: int,
        dim: int,
        rng: np.random.Generator | int | None = None,
        initial: np.ndarray | None = None,
        return_trajectory: bool = False,
    ) -> np.ndarray:
        """Generate samples of the target distribution.

        Parameters
        ----------
        score_fn:
            Callable ``score_fn(z, t)`` returning the (posterior) score at the
            batch of points ``z`` (shape ``(n, d)``) and pseudo-time ``t``.
        n_samples, dim:
            Number of samples and state dimension.
        rng:
            Random stream for the initial Gaussian draw and Brownian noise.
        initial:
            Optional custom initial condition ``Z_T`` of shape ``(n, d)``;
            defaults to a standard Gaussian draw.
        return_trajectory:
            When ``True`` the full pseudo-time trajectory (``n_steps + 1``
            snapshots) is returned instead of only the final state.
        """
        rng = default_rng(rng)
        xp = self.xp
        if initial is None:
            # Initial Z_T lands directly in a device buffer via the backend
            # RNG hook (host stream bits, staged to the device).
            z = xp.standard_normal(rng, size=(n_samples, dim))
        else:
            host = np.array(initial, dtype=float, copy=True)
            if host.shape != (n_samples, dim):
                raise ValueError(f"initial shape {host.shape} != {(n_samples, dim)}")
            z = xp.to_device(host)

        grid = self.schedule.time_grid(self.n_steps, t_end=self.t_end, t_start=self.t_start)
        trajectory = [xp.to_host(z).copy()] if return_trajectory else None

        self._integrate_buffered(score_fn, z, grid, rng, trajectory)
        z = xp.to_host(z)

        if return_trajectory:
            return np.array(trajectory)
        return z

    # ------------------------------------------------------------------ #
    def _integrate_buffered(
        self,
        score_fn: ScoreFn,
        z: np.ndarray,
        grid: np.ndarray,
        rng: np.random.Generator,
        trajectory: list | None,
    ) -> np.ndarray:
        """In-place Euler loop with persistent buffers (mutates device ``z``)."""
        xp = self.xp
        t_vals = grid[:-1]
        dt = grid[:-1] - grid[1:]  # positive step sizes
        b = np.asarray(self.schedule.drift_coeff(t_vals), dtype=float)
        sigma_sq = np.asarray(self.schedule.diffusion_sq(t_vals), dtype=float)

        drift = xp.empty_like(z)
        noise = xp.empty_like(z) if self.stochastic else None

        for i in range(self.n_steps):
            t = float(t_vals[i])
            dti = float(dt[i])
            score = score_fn(z, t)
            diffusion_dt = float(sigma_sq[i]) * dti
            if self.stochastic:
                # z ← z(1 − b dt) + σ² dt s + √(σ² dt) ξ
                xp.multiply(score, diffusion_dt, out=drift)
                z *= 1.0 - float(b[i]) * dti
                z += drift
                xp.standard_normal(rng, out=noise)
                # math.sqrt on the python float is bit-identical to np.sqrt
                # and keeps the device loop free of host-array numpy calls.
                noise *= math.sqrt(diffusion_dt)
                z += noise
            else:
                xp.multiply(score, 0.5 * diffusion_dt, out=drift)
                z *= 1.0 - float(b[i]) * dti
                z += drift
            self._clip(z)
            if trajectory is not None:
                trajectory.append(xp.to_host(z.copy()))
        return z

    def _clip(self, z) -> None:
        """Apply the ``max_state_magnitude`` safeguard in place."""
        xp = self.xp
        bound = self.max_state_magnitude
        if bound > 0 and (float(xp.amax(z)) > bound or float(xp.amin(z)) < -bound):
            xp.clip(z, -bound, bound, out=z)

    # ------------------------------------------------------------------ #
    def sample_ensemble_space(
        self,
        ensemble: np.ndarray,
        observation: np.ndarray,
        obs_indices: np.ndarray | None,
        inv_var: float,
        damping: Callable[[float], float],
        n_samples: int,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Sample the EnSF posterior by integrating in ensemble space.

        The score is the Monte-Carlo prior score of ``ensemble`` ``(M, d)``
        plus ``damping(t)·inv_var·(y − z[obs_indices])`` (``obs_indices=None``
        observes every coordinate; otherwise unique indices).  See the
        module docstring for the closure.  Per member the stream yields a
        ``(blocks, groups, M)`` draw — ``n_steps + 1`` blocks for the SDE,
        one for the ODE — then a ``(d,)`` draw.  The ``max_state_magnitude``
        safeguard is applied to the materialised state.
        """
        rng = default_rng(rng)
        xp = self.xp
        n_members, dim = ensemble.shape
        if obs_indices is None:
            groups = [slice(None)]
        else:
            groups = [obs_indices, np.setdiff1d(np.arange(dim), obs_indices)]
        x_dev = xp.to_device(ensemble)
        # Fancy-indexed copies come back column-major; the per-row products
        # below need each member's row contiguous whatever the batch size.
        x_groups = [xp.ascontiguousarray(x_dev[:, cols]) for cols in groups]
        y_dev = xp.to_device(observation)
        grams = np.stack([xp.to_host(xp.dot(x, x.T)) for x in x_groups])
        xy = xp.to_host(xp.dot(x_groups[0], y_dev))

        n_blocks = 1 + (self.n_steps if self.stochastic else 0)
        eta = rng.standard_normal((n_samples, n_blocks, len(groups), n_members))
        noise, pinvs = _colour_noise(grams, eta)
        coefs, ybar, tracked, gamma = self._integrate_closure(
            grams, xy, noise, self._closure_coefficients(inv_var, damping)
        )

        # z = coef·X + ȳ y + Γ ζ, with ζ's component along the rows of X
        # swapped for the tracked one: coef = C + (F − Γ ζ Xᵀ) K⁺.
        z = xp.standard_normal(rng, size=(n_samples, dim))
        for g, (cols, x) in enumerate(zip(groups, x_groups)):
            zg = xp.ascontiguousarray(z[:, cols])
            zeta_proj = xp.to_host(xp.matmul(zg[:, None, :], x.T)[:, 0, :])
            coef = coefs[g] + _rowwise_matmul(tracked[g] - gamma[g] * zeta_proj, pinvs[g])
            zg *= float(gamma[g])
            zg += xp.matmul(xp.to_device(coef)[:, None, :], x)[:, 0, :]
            if g == 0:
                zg += ybar * y_dev
            z[:, cols] = zg
        self._clip(z)
        return xp.to_host(z)

    def _closure_coefficients(
        self, inv_var: float, damping: Callable[[float], float]
    ) -> _ClosureCoefficients:
        """Scalars of ``z ← c_z z + c_x W X + c_y y + c_n ξ`` for every step.

        Everything but ``inv_var`` depends on the schedule alone, so it is
        computed once per sampler and reused until the schedule, the step
        grid, the mode or the damping (a pure function of ``t``) changes;
        each call forms only ``c_y`` and ``c_z``.
        """
        key = (self.schedule, self.n_steps, self.t_end, self.t_start, self.stochastic, damping)
        if self._closure_cache is None or self._closure_cache[0] != key:
            self._closure_cache = (key, self._schedule_terms(damping))
        gain, damp, c_free, c_x, c_n, logit_lin, logit_quad = self._closure_cache[1]
        c_y = gain * inv_var * damp
        return _ClosureCoefficients(
            c_z=np.stack([c_free - c_y, c_free]),
            c_x=c_x,
            c_y=c_y,
            c_n=c_n,
            logit_lin=logit_lin,
            logit_quad=logit_quad,
        )

    def _schedule_terms(self, damping: Callable[[float], float]) -> tuple[np.ndarray, ...]:
        """The per-step arrays of :meth:`_closure_coefficients` that ``inv_var`` leaves alone."""
        grid = self.schedule.time_grid(self.n_steps, t_end=self.t_end, t_start=self.t_start)
        t = grid[:-1]
        dt = grid[:-1] - grid[1:]
        alpha = np.asarray(self.schedule.alpha(t), dtype=float)
        beta_sq = np.asarray(self.schedule.beta_sq(t), dtype=float)
        diffusion_dt = self.schedule.diffusion_sq(t) * dt
        gain = diffusion_dt if self.stochastic else 0.5 * diffusion_dt
        terms = (
            gain,
            np.array([float(damping(float(ti))) for ti in t]),
            1.0 - self.schedule.drift_coeff(t) * dt - gain / beta_sq,
            gain * alpha / beta_sq,
            diffusion_dt**0.5 if self.stochastic else np.zeros_like(dt),
            alpha / beta_sq,
            -0.5 * alpha**2 / beta_sq,
        )
        for term in terms:
            term.flags.writeable = False  # shared by every analysis of this sampler
        return terms

    def _integrate_closure(
        self,
        grams: np.ndarray,
        xy: np.ndarray,
        noise: np.ndarray,
        coef: _ClosureCoefficients,
    ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
        """Run the Euler recursion on the ``(n, M)`` closure variables.

        ``grams`` is ``(G, M, M)`` (observed group first), ``xy = X_obs y``,
        ``noise`` is ``(G, n, blocks, M)`` holding ``ξ_s X_gᵀ`` (block 0 is
        the initial state, block ``i + 1`` the increment of step ``i``).
        Returns ``C (G, n, M)``, ``ȳ``, ``F (G, n, M)`` and ``Γ (G,)``.
        """
        n_groups = grams.shape[0]
        x_sq = np.einsum("gmm->m", grams)
        coefs = np.zeros_like(noise[:, :, 0])
        tracked = noise[:, :, 0].copy()
        ybar = 0.0
        var = np.ones(n_groups)
        for i in range(self.n_steps):
            # z Xᵀ = Σ_g (C_g K_g + F_g) + ȳ (X y)ᵀ; ‖z‖² is constant across
            # members and cancels in the softmax.
            w = _rowwise_matmul(coefs, grams[:, None]).sum(axis=0)
            w += tracked.sum(axis=0)
            w += ybar * xy
            w *= coef.logit_lin[i]
            w += coef.logit_quad[i] * x_sq
            w -= w.max(axis=1, keepdims=True)
            np.exp(w, out=w)
            w /= w.sum(axis=1, keepdims=True)

            c_z = coef.c_z[:n_groups, i]
            coefs *= c_z[:, None, None]
            coefs += coef.c_x[i] * w
            tracked *= c_z[:, None, None]
            if self.stochastic:
                tracked += coef.c_n[i] * noise[:, :, i + 1]
            var = c_z**2 * var + coef.c_n[i] ** 2
            ybar = c_z[0] * ybar + coef.c_y[i]
        return coefs, float(ybar), tracked, np.sqrt(var)
