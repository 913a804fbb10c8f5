"""The Ensemble Score Filter (EnSF) — the paper's primary contribution.

The analysis step (paper §III-A2) proceeds as follows for each filtering
cycle ``k``:

1. *Prior score*: build the training-free Monte-Carlo estimator
   ``ŝ_{k|k−1}(z, t)`` from the forecast ensemble (Eqs. 13–16).
2. *Posterior score*: add the damped analytic likelihood score,
   ``ŝ_{k|k}(z, t) = ŝ_{k|k−1}(z, t) + h(t) ∇ log p(y_k | z)`` (Eq. 17).
3. *Sampling*: draw standard Gaussian vectors and integrate the reverse-time
   SDE (Eq. 7) with the posterior score to obtain the analysis ensemble —
   on ``(n, M)`` ensemble-space coefficients when the likelihood score
   allows it (:func:`_affine_likelihood`), in full space otherwise.
4. *Stabilisation*: relax the analysis spread to the forecast spread (the
   paper's only regularisation — no localization, no tuning).

The update is embarrassingly parallel over the ensemble (the paper shards
it over ranks); here it runs in-process, while the forecast member-shards
through :mod:`repro.hpc.ensemble_parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.filters import EnsembleFilter, relax_spread
from repro.core.likelihood import GaussianLikelihoodScore, LinearDamping
from repro.core.observations import (
    IdentityObservation,
    ObservationOperator,
    SubsampledObservation,
)
from repro.core.schedules import LinearAlphaSchedule
from repro.core.score import MonteCarloScoreEstimator
from repro.core.sde import ReverseSDESampler
from repro.utils.random import default_rng
from repro.utils.xp import as_host_array

__all__ = ["EnSFConfig", "EnSF"]


@dataclass(frozen=True)
class EnSFConfig:
    """Configuration of the EnSF analysis step.

    Attributes
    ----------
    n_sde_steps:
        Number of Euler steps used to discretise the reverse-time SDE.
    minibatch:
        Mini-batch size ``J`` for the Monte-Carlo score estimate (``None`` =
        full ensemble, the paper's default at M = 20).
    eps_alpha:
        Schedule floor (see :class:`~repro.core.schedules.LinearAlphaSchedule`).
    t_start:
        Pseudo-time at which the reverse integration stops.  With a finite
        ensemble the Monte-Carlo prior score becomes a sum of near-delta
        kernels as ``t → 0`` (bandwidth ``β_t → 0``), which collapses the
        analysis back onto individual forecast members and erases the
        observation information; stopping slightly above zero (the reference
        EnSF implementation uses a small ``ε``) keeps the Bayesian update
        intact.
    spread_relaxation:
        RTPS-style relaxation factor towards the forecast spread; 1.0
        reproduces the paper's "relax to prior spread" stabilisation.
    stochastic_sampler:
        Integrate the reverse SDE (True) or the probability-flow ODE (False).
    scale_states:
        Normalise the ensemble (per-variable affine map to roughly unit range)
        before diffusion and undo the scaling afterwards.  Score-based
        samplers assume the target lives on an O(1) scale; physical SQG
        states have O(10) amplitudes, so this keeps the method scale-free.
    damping:
        Damping function ``h(t)``; defaults to the paper's ``h(t) = T − t``.
    backend:
        Array backend name for the fused analysis kernels (``None`` = the
        ``REPRO_ARRAY_BACKEND`` process default).  Forwarded to the
        Monte-Carlo score estimator and the buffered reverse-SDE
        integrator; the numpy backend is bit-identical to the pre-shim
        kernels, and draws never depend on the backend (host stream
        semantics, see :mod:`repro.utils.xp`).
    """

    n_sde_steps: int = 100
    minibatch: int | None = None
    eps_alpha: float = 0.05
    t_start: float = 0.05
    spread_relaxation: float = 1.0
    stochastic_sampler: bool = True
    scale_states: bool = True
    obs_var_stability_factor: float = 2.0
    damping: object = field(default_factory=LinearDamping)
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.n_sde_steps < 1:
            raise ValueError("n_sde_steps must be at least 1")
        if self.minibatch is not None and self.minibatch < 1:
            raise ValueError("minibatch must be positive or None")
        if not 0.0 <= self.spread_relaxation <= 1.0:
            raise ValueError("spread_relaxation must lie in [0, 1]")
        if self.obs_var_stability_factor < 0.0:
            raise ValueError("obs_var_stability_factor must be non-negative")
        if not 0.0 <= self.t_start < 1.0:
            raise ValueError("t_start must lie in [0, 1)")

    @property
    def scaled_obs_var_floor(self) -> float:
        """Stability floor for the *scaled* observation-error variance.

        In normalised state space the explicit Euler discretisation of the
        reverse SDE becomes stiff when the damped likelihood coefficient
        ``Δt σ²(t) h(t) / R_scaled`` exceeds O(1); since ``σ²(t) h(t)`` stays
        below ≈1.5 for the paper's schedule, flooring ``R_scaled`` at
        ``obs_var_stability_factor / n_sde_steps`` keeps the update stable.
        Physically this acts as a mild observation-error inflation that only
        engages when the forecast ensemble variance vastly exceeds the
        observation error — a standard regularisation in ensemble DA.
        """
        return self.obs_var_stability_factor / float(self.n_sde_steps)


class _StateScaler:
    """Per-update affine normalisation of the state space.

    Maps the forecast ensemble to zero mean and unit scale (a single global
    scale, so spatial structure is preserved), and transports observations of
    linear operators consistently.  The observation error variance is scaled
    by the same factor squared so the Bayesian update is unchanged.
    """

    def __init__(self, ensemble: np.ndarray):
        self.center = ensemble.mean(axis=0)
        spread = ensemble.std()
        self.scale = float(spread) if spread > 0 else 1.0

    def forward(self, states: np.ndarray) -> np.ndarray:
        return (states - self.center) / self.scale

    def inverse(self, states: np.ndarray) -> np.ndarray:
        return states * self.scale + self.center


class _ScaledOperator(ObservationOperator):
    """Wrap an operator so it acts on scaler-normalised states."""

    def __init__(self, operator: ObservationOperator, scaler: _StateScaler, obs_var_floor: float = 0.0):
        super().__init__(
            operator.state_dim,
            operator.obs_dim,
            np.maximum(operator.obs_error_var / scaler.scale**2, obs_var_floor),
        )
        self._inner = operator
        self._scaler = scaler
        self._center_obs = operator.apply(scaler.center)

    def apply(self, state: np.ndarray) -> np.ndarray:
        physical = self._scaler.inverse(np.asarray(state, dtype=float))
        return (self._inner.apply(physical) - self._center_obs) / self._scaler.scale

    def adjoint(self, obs_vector: np.ndarray, state: np.ndarray | None = None) -> np.ndarray:
        physical_state = None if state is None else self._scaler.inverse(np.asarray(state, dtype=float))
        # Jacobian of the scaled map equals the inner Jacobian (the 1/scale on
        # the output cancels the scale on the input for the adjoint action on
        # R⁻¹-weighted innovations already expressed in scaled units).
        return self._inner.adjoint(np.asarray(obs_vector, dtype=float), state=physical_state)

    def scale_observation(self, observation: np.ndarray) -> np.ndarray:
        """Express a physical observation in scaled observation units."""
        return (np.asarray(observation, dtype=float) - self._center_obs) / self._scaler.scale


def _fixed_index_set(operator: ObservationOperator) -> tuple[str, np.ndarray | None]:
    """``(kind, indices)`` of the coordinates ``operator`` reads directly.

    ``"identity"`` / ``"subsampled"`` operators — also behind a
    :class:`_ScaledOperator`, whose affine maps cancel exactly for them —
    have the likelihood score ``(y − z[..., indices]) / R``; anything else
    is ``"generic"``.
    """
    inner = operator._inner if isinstance(operator, _ScaledOperator) else operator
    if isinstance(inner, IdentityObservation):
        return "identity", None
    if isinstance(inner, SubsampledObservation):
        return "subsampled", inner.indices
    return "generic", None


def _affine_likelihood(operator: ObservationOperator) -> tuple[np.ndarray | None, float] | None:
    """``(indices, 1/R)`` when the likelihood score is a scalar multiple of
    ``y − z`` on a fixed set of distinct coordinates, else ``None``.

    This is the condition under which the reverse SDE closes in ensemble
    space (:meth:`ReverseSDESampler.sample_ensemble_space`).
    """
    kind, indices = _fixed_index_set(operator)
    inv_var = 1.0 / operator.obs_error_var
    if kind == "generic" or not np.all(inv_var == inv_var[0]):
        return None
    if indices is not None and np.unique(indices).size != indices.size:
        return None
    return indices, float(inv_var[0])


class _FusedPosteriorScore:
    """Posterior score ``ŝ_{k|k}(z, t)`` evaluated into a reused workspace.

    Combines the fused Monte-Carlo prior score
    (:meth:`MonteCarloScoreEstimator.score_into`) with an in-place damped
    likelihood accumulation.  For identity / subsampled operators (see
    :func:`_fixed_index_set`) the likelihood score
    ``h(t) · (y − z[..., idx]) / R`` is applied with one subtraction and one
    broadcast multiply instead of the full inverse→apply→adjoint
    round-trip.  Other operators fall back to
    :meth:`GaussianLikelihoodScore.add_damped_score`.

    The returned array is a workspace owned by this object: it is valid
    until the next evaluation, which is exactly the lifetime the reverse-SDE
    integrator requires.
    """

    def __init__(
        self,
        prior: MonteCarloScoreEstimator,
        likelihood: GaussianLikelihoodScore,
        operator: ObservationOperator,
        observation: np.ndarray,
    ) -> None:
        self.prior = prior
        self.likelihood = likelihood
        self.xp = prior.xp
        self._out: np.ndarray | None = None
        self._lik_buf: np.ndarray | None = None

        self._kind, self._indices = _fixed_index_set(operator)
        self._observation = np.asarray(observation, dtype=float)
        self._observation_dev = self.xp.to_device(self._observation)
        inv_var = 1.0 / operator.obs_error_var
        # Uniform R collapses the broadcast multiply to a scalar scale.
        if np.all(inv_var == inv_var[0]):
            self._inv_var: float | np.ndarray = float(inv_var[0])
        else:
            self._inv_var = self.xp.to_device(inv_var)

    def __call__(self, z: np.ndarray, t: float) -> np.ndarray:
        xp = self.xp
        if self._out is None or self._out.shape != z.shape:
            self._out = xp.empty_like(z)
        out = self.prior.score_into(z, t, self._out)

        if self._kind == "generic":
            # Generic operators evaluate on the host (they are arbitrary
            # Python); round-trip the state once per call.  Identity on the
            # CPU backends.
            out_host = self.likelihood.add_damped_score(xp.to_host(z), t, xp.to_host(out))
            if out_host is not out:
                xp.copyto(out, xp.to_device(out_host))
            return out

        damping = float(self.likelihood.damping(t))
        if self._kind == "identity":
            if self._lik_buf is None or self._lik_buf.shape != z.shape:
                self._lik_buf = xp.empty_like(z)
            xp.subtract(self._observation_dev[None, :], z, out=self._lik_buf)
            self._lik_buf *= damping * self._inv_var
            out += self._lik_buf
        else:
            z_local = z[:, self._indices]
            xp.subtract(self._observation_dev[None, :], z_local, out=z_local)
            z_local *= damping * self._inv_var
            out[:, self._indices] += z_local
        return out


class EnSF(EnsembleFilter):
    """Ensemble Score Filter.

    Parameters
    ----------
    config:
        Algorithmic configuration; the defaults match the paper.
    rng:
        Random stream for mini-batching, the initial Gaussian draw and the
        Brownian increments of the reverse SDE.
    """

    def __init__(self, config: EnSFConfig | None = None, rng: np.random.Generator | int | None = None):
        self.config = config or EnSFConfig()
        self.rng = default_rng(rng)
        self.schedule = LinearAlphaSchedule(eps_alpha=self.config.eps_alpha)
        self.sampler = ReverseSDESampler(
            schedule=self.schedule,
            n_steps=self.config.n_sde_steps,
            stochastic=self.config.stochastic_sampler,
            t_start=self.config.t_start,
            backend=self.config.backend,
        )

    # ------------------------------------------------------------------ #
    def posterior_score_fn(
        self,
        forecast_ensemble: np.ndarray,
        observation: np.ndarray,
        operator: ObservationOperator,
    ):
        """Build the posterior score callable ``ŝ_{k|k}(z, t)`` (Eq. 17)."""
        prior = MonteCarloScoreEstimator(
            forecast_ensemble,
            schedule=self.schedule,
            minibatch=self.config.minibatch,
            rng=self.rng,
            backend=self.config.backend,
        )
        likelihood = GaussianLikelihoodScore(operator, observation, damping=self.config.damping)
        return _FusedPosteriorScore(prior, likelihood, operator, observation)

    def analyze(
        self,
        forecast_ensemble: np.ndarray,
        observation: np.ndarray,
        operator: ObservationOperator,
    ) -> np.ndarray:
        """EnSF analysis step mapping the forecast ensemble to the analysis ensemble.

        Accepts a host array or a :class:`~repro.utils.xp.StateHandle` (the
        cycle engine's device-state seam); the analysis itself needs the
        host mirror for the affine state scaler, and its device work — the
        score statics, the reverse-SDE state and the backend-RNG noise
        draws — is a fixed per-analysis budget independent of state
        dimension and member count.
        """
        forecast_ensemble = np.asarray(as_host_array(forecast_ensemble), dtype=float)
        if forecast_ensemble.ndim != 2:
            raise ValueError("forecast ensemble must have shape (m, state_dim)")
        observation = np.asarray(observation, dtype=float)
        n_members, dim = forecast_ensemble.shape
        if self.config.scale_states:
            scaler = _StateScaler(forecast_ensemble)
            work_ensemble = scaler.forward(forecast_ensemble)
            work_operator = _ScaledOperator(operator, scaler, self.config.scaled_obs_var_floor)
            work_observation = work_operator.scale_observation(observation)
        else:
            scaler = None
            work_ensemble = forecast_ensemble
            work_operator = operator
            work_observation = observation

        affine = _affine_likelihood(work_operator)
        if affine is not None and self.config.minibatch is None:
            # Full-ensemble prior score + scalar multiple of (y − z) on fixed
            # coordinates: the integration closes on (n, M) coefficients.
            analysis = self.sampler.sample_ensemble_space(
                work_ensemble, work_observation, *affine, self.config.damping, n_members, self.rng
            )
        else:
            # Nonlinear h, non-uniform R or a minibatched score: full-space loop.
            score_fn = self.posterior_score_fn(work_ensemble, work_observation, work_operator)
            analysis = self.sampler.sample(score_fn, n_samples=n_members, dim=dim, rng=self.rng)
        if scaler is not None:
            analysis = scaler.inverse(analysis)
        if self.config.spread_relaxation > 0.0:
            analysis = relax_spread(analysis, forecast_ensemble, factor=self.config.spread_relaxation)
        return analysis
