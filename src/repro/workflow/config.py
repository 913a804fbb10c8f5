"""Experiment configuration for the accuracy experiments (paper §IV-A)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.sqg import SQGParameters

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of the four-way comparison experiment (Fig. 4 / Fig. 5).

    The paper's full setting is a 64×64×2 SQG mesh observed every 12 hours
    (72 model steps at dt = 600 s) for 300 cycles with a 20-member ensemble.
    The defaults here are a reduced configuration that runs in about a minute
    on a laptop; the Fig. 4 / Fig. 5 benchmarks switch to :meth:`paper_scale`
    when ``full_scale()`` in ``benchmarks/conftest.py`` says so.

    Attributes
    ----------
    nx, ny:
        SQG grid size.
    n_cycles:
        Number of 12-hourly analysis cycles.
    steps_per_cycle:
        SQG steps per analysis interval.
    ensemble_size:
        Ensemble members for both LETKF and EnSF (paper: 20).
    obs_error_var:
        Observation error variance (paper: R = I).
    spinup_steps:
        SQG steps used to spin the truth up to developed turbulence.
    surrogate_pairs, surrogate_epochs:
        Offline training-set size (state pairs) and epochs for the ViT.
    surrogate_embed_dim, surrogate_depth, surrogate_patch:
        Laptop-scale SQG-ViT architecture.
    seed:
        Root seed for all stochastic streams.
    """

    nx: int = 32
    ny: int = 32
    n_cycles: int = 20
    steps_per_cycle: int = 24
    ensemble_size: int = 20
    obs_error_var: float = 1.0
    spinup_steps: int = 1500
    apply_model_error: bool = True
    surrogate_pairs: int = 60
    surrogate_epochs: int = 10
    surrogate_embed_dim: int = 64
    surrogate_depth: int = 2
    surrogate_patch: int = 8
    surrogate_heads: int = 4
    letkf_cutoff: float = 2.0e6
    letkf_rtps: float = 0.3
    ensf_sde_steps: int = 100
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.n_cycles < 1 or self.steps_per_cycle < 1:
            raise ValueError("n_cycles and steps_per_cycle must be positive")
        if self.ensemble_size < 2:
            raise ValueError("ensemble_size must be at least 2")
        if self.nx % self.surrogate_patch or self.ny % self.surrogate_patch:
            raise ValueError("grid size must be divisible by the surrogate patch size")

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The configuration closest to the paper's §IV-A setup.

        Slow: the four arms of ``examples/fourway_comparison.py`` took
        12.5 min together on a 2-vCPU host.
        """
        return cls(
            nx=64,
            ny=64,
            n_cycles=300,
            steps_per_cycle=72,
            ensemble_size=20,
            spinup_steps=4000,
            surrogate_pairs=200,
            surrogate_epochs=30,
            surrogate_embed_dim=128,
            surrogate_depth=4,
            surrogate_patch=8,
        )

    @classmethod
    def smoke_test(cls) -> "ExperimentConfig":
        """A minimal configuration used by the integration tests (seconds)."""
        return cls(
            nx=16,
            ny=16,
            n_cycles=5,
            steps_per_cycle=8,
            ensemble_size=8,
            spinup_steps=300,
            surrogate_pairs=12,
            surrogate_epochs=4,
            surrogate_embed_dim=32,
            surrogate_depth=1,
            surrogate_patch=8,
            surrogate_heads=2,
            ensf_sde_steps=25,
        )

    def sqg_parameters(self) -> SQGParameters:
        """SQG model parameters for this experiment."""
        return SQGParameters(nx=self.nx, ny=self.ny)
