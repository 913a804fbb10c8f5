"""Observation operators, observation-error models (Eq. 2) and the
per-cycle observation stream.

All filters in this library (EnSF, LETKF) interact with observations
through :class:`ObservationOperator`, which bundles the forward map
``h_k(x)``, its adjoint action (needed by the EnSF likelihood score and by
the Kalman-gain algebra), and the Gaussian observation-error covariance
``R_k`` (assumed diagonal, as in the paper where ``R = I``).

:class:`ObservationStream` sits on top of one operator: it takes one
measurement of the truth per cycle (§IV-A: every 12-hour analysis time) as
an :class:`ObservationEvent` for the cycle engine
(:mod:`repro.workflow.engine`), on a reproducible noise stream, and owns the
``"observations"`` fault-injection site.  Partial networks are operators
(:meth:`SubsampledObservation.every_nth`, :class:`NonlinearObservation`).
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.utils.faults import FaultLog, FaultPlan
from repro.utils.random import default_rng

__all__ = [
    "ObservationOperator",
    "IdentityObservation",
    "LinearObservation",
    "SubsampledObservation",
    "NonlinearObservation",
    "ObservationEvent",
    "ObservationStream",
    "ObservationQC",
    "QCReport",
]


class ObservationOperator(ABC):
    """Abstract observation model ``y = h(x) + ε``, ``ε ∼ N(0, R)`` with diagonal ``R``."""

    def __init__(self, state_dim: int, obs_dim: int, obs_error_var: float | np.ndarray = 1.0):
        if state_dim <= 0 or obs_dim <= 0:
            raise ValueError("state_dim and obs_dim must be positive")
        self.state_dim = int(state_dim)
        self.obs_dim = int(obs_dim)
        var = np.asarray(obs_error_var, dtype=float)
        if var.ndim == 0:
            var = np.full(self.obs_dim, float(var))
        if var.shape != (self.obs_dim,):
            raise ValueError("obs_error_var must be a scalar or a vector of length obs_dim")
        if np.any(var <= 0):
            raise ValueError("observation error variances must be positive")
        self.obs_error_var = var

    # -- forward / adjoint ------------------------------------------------ #
    @abstractmethod
    def apply(self, state: np.ndarray) -> np.ndarray:
        """Map state(s) ``(..., state_dim)`` to observation space ``(..., obs_dim)``."""

    @abstractmethod
    def adjoint(self, obs_vector: np.ndarray, state: np.ndarray | None = None) -> np.ndarray:
        """Apply ``H(x)ᵀ`` (the Jacobian transpose at ``state``) to ``obs_vector``.

        For linear operators the Jacobian is state-independent and ``state``
        is ignored.
        """

    # -- derived quantities ------------------------------------------------ #
    def innovation(self, state: np.ndarray, observation: np.ndarray) -> np.ndarray:
        """``y − h(x)`` broadcast over leading state axes."""
        return np.asarray(observation, dtype=float) - self.apply(state)

    def log_likelihood_score(self, state: np.ndarray, observation: np.ndarray) -> np.ndarray:
        """``∇_x log p(y | x) = H(x)ᵀ R⁻¹ (y − h(x))`` (gradient of Eq. 5)."""
        innov = self.innovation(state, observation) / self.obs_error_var
        return self.adjoint(innov, state=state)

    def log_likelihood(self, state: np.ndarray, observation: np.ndarray) -> np.ndarray:
        """Log of Eq. 5 up to an additive constant (per state in the batch)."""
        innov = self.innovation(state, observation)
        return -0.5 * np.sum(innov**2 / self.obs_error_var, axis=-1)

    def sample_noise(self, rng: np.random.Generator | int | None = None, size: int | None = None) -> np.ndarray:
        """Draw observation-error realisations ``ε ∼ N(0, R)``."""
        rng = default_rng(rng)
        shape = (self.obs_dim,) if size is None else (size, self.obs_dim)
        return rng.standard_normal(shape) * np.sqrt(self.obs_error_var)

    def observe(self, true_state: np.ndarray, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Generate a synthetic observation of ``true_state`` (OSSE, §IV-A)."""
        return self.apply(true_state) + self.sample_noise(rng=rng)


class IdentityObservation(ObservationOperator):
    """Fully observed state, ``h(x) = x`` — the paper's accuracy-test setting."""

    def __init__(self, state_dim: int, obs_error_var: float | np.ndarray = 1.0):
        super().__init__(state_dim, state_dim, obs_error_var)

    def apply(self, state: np.ndarray) -> np.ndarray:
        return np.asarray(state, dtype=float)

    def adjoint(self, obs_vector: np.ndarray, state: np.ndarray | None = None) -> np.ndarray:
        return np.asarray(obs_vector, dtype=float)


class LinearObservation(ObservationOperator):
    """General linear operator ``h(x) = H x`` for a dense matrix ``H``."""

    def __init__(self, matrix: np.ndarray, obs_error_var: float | np.ndarray = 1.0):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("observation matrix must be 2-D")
        super().__init__(matrix.shape[1], matrix.shape[0], obs_error_var)
        self.matrix = matrix

    def apply(self, state: np.ndarray) -> np.ndarray:
        return np.asarray(state, dtype=float) @ self.matrix.T

    def adjoint(self, obs_vector: np.ndarray, state: np.ndarray | None = None) -> np.ndarray:
        return np.asarray(obs_vector, dtype=float) @ self.matrix


class SubsampledObservation(ObservationOperator):
    """Observe a subset of state components, ``h(x) = x[indices]``.

    A memory-efficient special case of :class:`LinearObservation` used for
    partially-observed experiments (e.g. observing every n-th grid column).
    """

    def __init__(self, state_dim: int, indices: np.ndarray, obs_error_var: float | np.ndarray = 1.0):
        indices = np.asarray(indices, dtype=int)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("indices must be a non-empty 1-D integer array")
        if indices.min() < 0 or indices.max() >= state_dim:
            raise ValueError("observation indices out of range")
        super().__init__(state_dim, indices.size, obs_error_var)
        self.indices = indices

    @classmethod
    def every_nth(cls, state_dim: int, stride: int, obs_error_var: float | np.ndarray = 1.0):
        """Observe every ``stride``-th state variable."""
        return cls(state_dim, np.arange(0, state_dim, stride), obs_error_var)

    def apply(self, state: np.ndarray) -> np.ndarray:
        return np.asarray(state, dtype=float)[..., self.indices]

    def adjoint(self, obs_vector: np.ndarray, state: np.ndarray | None = None) -> np.ndarray:
        obs_vector = np.asarray(obs_vector, dtype=float)
        out = np.zeros(obs_vector.shape[:-1] + (self.state_dim,), dtype=float)
        out[..., self.indices] = obs_vector
        return out


class NonlinearObservation(ObservationOperator):
    """Componentwise nonlinear operator ``h(x) = g(x[indices])``.

    The EnSF literature demonstrates the filter on highly nonlinear operators
    such as ``arctan`` and cubic observations; this class provides those and
    the exact Jacobian needed for the likelihood score.
    """

    SUPPORTED = ("arctan", "cubic", "abs")

    def __init__(
        self,
        state_dim: int,
        kind: str = "arctan",
        indices: np.ndarray | None = None,
        obs_error_var: float | np.ndarray = 1.0,
    ):
        if kind not in self.SUPPORTED:
            raise ValueError(f"unsupported nonlinear observation kind {kind!r}")
        if indices is None:
            indices = np.arange(state_dim)
        indices = np.asarray(indices, dtype=int)
        super().__init__(state_dim, indices.size, obs_error_var)
        self.kind = kind
        self.indices = indices

    def _g(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "arctan":
            return np.arctan(x)
        if self.kind == "cubic":
            return x**3
        return np.abs(x)

    def _gprime(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "arctan":
            return 1.0 / (1.0 + x**2)
        if self.kind == "cubic":
            return 3.0 * x**2
        return np.sign(x)

    def apply(self, state: np.ndarray) -> np.ndarray:
        return self._g(np.asarray(state, dtype=float)[..., self.indices])

    def adjoint(self, obs_vector: np.ndarray, state: np.ndarray | None = None) -> np.ndarray:
        if state is None:
            raise ValueError("nonlinear adjoint requires the linearisation state")
        state = np.asarray(state, dtype=float)
        obs_vector = np.asarray(obs_vector, dtype=float)
        jac_diag = self._gprime(state[..., self.indices])
        out = np.zeros(np.broadcast_shapes(state.shape[:-1], obs_vector.shape[:-1]) + (self.state_dim,))
        out[..., self.indices] = jac_diag * obs_vector
        return out


# --------------------------------------------------------------------------- #
# Observation stream
# --------------------------------------------------------------------------- #


@dataclass
class ObservationEvent:
    """One measurement of the truth, taken and assimilated at ``cycle``."""

    cycle: int
    operator: ObservationOperator
    observation: np.ndarray


@dataclass(frozen=True)
class QCReport:
    """Verdict of one :meth:`ObservationQC.check` on one event."""

    ok: bool
    n_values: int
    n_bad: int
    reason: str = ""


@dataclass(frozen=True)
class ObservationQC:
    """Pre-analysis observation quality control.

    Two checks run on every event: a sanity check rejecting non-finite
    values (NaN/inf — always on, a corrupted packet must never reach a
    filter), and an optional gross-error check rejecting values whose
    innovation against the forecast mean exceeds ``gross_threshold``
    standard deviations of the operator's observation error
    (``sqrt(obs_error_var)``).

    Rejection is per *event*: the event is dropped once more than
    ``max_bad_fraction`` of its values fail (default 0.0 — one bad value
    kills the batch, the conservative real-time posture).  With
    ``gross_threshold=None`` clean observations always pass, so enabling
    the QC stage does not perturb a fault-free run.
    """

    gross_threshold: float | None = None
    max_bad_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.gross_threshold is not None and self.gross_threshold <= 0:
            raise ValueError("gross_threshold must be positive")
        if not 0.0 <= self.max_bad_fraction <= 1.0:
            raise ValueError("max_bad_fraction must lie in [0, 1]")

    def check(self, event: ObservationEvent, forecast_mean: np.ndarray | None = None) -> QCReport:
        """Judge ``event`` against the forecast mean (``None``: finite-only)."""
        obs = np.asarray(event.observation, dtype=float)
        bad = ~np.isfinite(obs)
        threshold = self.gross_threshold
        if threshold is not None and forecast_mean is not None:
            predicted = event.operator.apply(np.asarray(forecast_mean, dtype=float))
            sigma = np.sqrt(event.operator.obs_error_var)
            with np.errstate(invalid="ignore"):
                bad |= np.abs(obs - predicted) > threshold * sigma
        n_bad = int(np.count_nonzero(bad))
        ok = n_bad <= self.max_bad_fraction * obs.size
        reason = ""
        if not ok:
            what = "non-finite" if threshold is None else f"non-finite or >{threshold}σ"
            reason = (
                f"cycle-{event.cycle} {type(event.operator).__name__} event: "
                f"{n_bad}/{obs.size} values {what}"
            )
        return QCReport(ok=bool(ok), n_values=int(obs.size), n_bad=n_bad, reason=reason)


def _corrupt_observation(observation: np.ndarray, payload: dict) -> np.ndarray:
    """Deterministically corrupted copy of ``observation`` (no rng draws).

    ``payload["value"]`` picks the garbage (``"nan"`` default, ``"inf"``,
    or ``"gross"`` — a huge finite offset that only gross-error QC can
    catch); ``payload["fraction"]`` how much of the vector is hit (leading
    components, at least one).
    """
    corrupted = np.array(observation, dtype=float)
    fraction = float(payload.get("fraction", 1.0))
    n_bad = min(corrupted.size, max(1, math.ceil(fraction * corrupted.size)))
    value = str(payload.get("value", "nan"))
    if value == "gross":
        corrupted[:n_bad] += 1.0e6
    elif value == "inf":
        corrupted[:n_bad] = np.inf
    else:
        corrupted[:n_bad] = np.nan
    return corrupted


class ObservationStream:
    """Reproducible stream of one measurement per cycle through one operator.

    Parameters
    ----------
    operator:
        The observation operator of every measurement.
    rng:
        Observation-noise stream (generator or seed).  The draws are
        identical, cycle for cycle, to the historical
        ``operator.observe(truth, rng=rng_obs)`` loop — which is what keeps
        the engine-backed drivers bit-identical to their predecessors.
    fault_plan / fault_log:
        Deterministic fault injection (see :mod:`repro.utils.faults`); the
        stream owns the ``"observations"`` site, visited once per
        measurement.  Corruption is applied *after* the noise draw and
        without consuming any rng, so an injected run's genuine measurements
        are bit-identical to a clean run's.  The plan defaults to
        ``FaultPlan.from_env()`` (usually unset).
    """

    def __init__(
        self,
        operator: ObservationOperator,
        rng: np.random.Generator | int | None = None,
        fault_plan: FaultPlan | None = None,
        fault_log: FaultLog | None = None,
    ) -> None:
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        self.operator = operator
        self.rng = default_rng(rng)

    def advance(self, cycle: int, truth: np.ndarray) -> list[ObservationEvent]:
        """Measure the truth at ``cycle``: the event, then any injected duplicate."""
        event = ObservationEvent(
            cycle=cycle,
            operator=self.operator,
            observation=self.operator.observe(truth, rng=self.rng),
        )
        events = [event]
        if self.fault_plan is not None:
            events += self._inject_faults(event)
        return events

    def _inject_faults(self, event: ObservationEvent) -> list[ObservationEvent]:
        """Fire this measurement's ``"observations"``-site fault events.

        ``"spurious"`` mode (default) returns an *additional* corrupted
        duplicate of the measurement — the garbage retransmission QC must
        reject, leaving the genuine event untouched (bit-identical
        recovery).  ``"in-place"`` corrupts the genuine measurement itself —
        recoverable only by skipping it (QC) or rewinding past it
        (reset-from-checkpoint).
        """
        duplicates = []
        for fault in self.fault_plan.visit("observations"):
            if fault.kind != "obs-corrupt":
                continue
            corrupted = _corrupt_observation(event.observation, fault.payload)
            mode = str(fault.payload.get("mode", "spurious"))
            if mode == "in-place":
                event.observation = corrupted
                detail = f"in-place corruption of cycle-{event.cycle} measurement"
            else:
                duplicates.append(
                    ObservationEvent(
                        cycle=event.cycle, operator=event.operator, observation=corrupted
                    )
                )
                detail = f"spurious corrupted duplicate of cycle-{event.cycle} measurement"
            self.fault_log.record("observations", "obs-corrupt", detail, cycle=event.cycle)
        return duplicates

    # -- checkpointing ----------------------------------------------------- #
    def state_dict(self) -> dict:
        """Serializable stream state (the noise rng)."""
        return {"rng": copy.deepcopy(self.rng.bit_generator.state)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (bit-exact resume)."""
        self.rng.bit_generator.state = copy.deepcopy(state["rng"])
