"""Benchmark-owned job runner for the service campaign, and a way to run any
service job runner outside the service (the standalone reference)."""

from __future__ import annotations

from pathlib import Path

from inputs import N_MEMBERS, STEPS_PER_CYCLE, climatological_inputs

from repro.utils.faults import FaultLog


def sqg_letkf_job(ctx) -> dict:
    """A small SQG + LETKF OSSE whose analysis is sharded over ``ctx.executor``.

    ``ctx.params``: ``n`` (grid points per side), ``n_cycles``, ``seed``.
    Deterministic in its params, like ``lorenz96_ensf_job``.
    """
    from repro.core.observations import IdentityObservation
    from repro.da.cycling import OSSEConfig, run_osse
    from repro.da.letkf import LETKF, LETKFConfig
    from repro.models.sqg import SQGModel, SQGParameters

    p = ctx.params
    n, seed = int(p["n"]), int(p["seed"])
    model = SQGModel(SQGParameters(nx=n, ny=n))
    truth0, ensemble = climatological_inputs(
        model, seed, sigma0=0.03, spinup_steps=200, gap=10
    )
    result = run_osse(
        model,
        model,
        LETKF(model.grid, LETKFConfig(shard_columns=256)),
        IdentityObservation(model.state_size, obs_error_var=1.0),
        truth0,
        OSSEConfig(
            n_cycles=int(p["n_cycles"]),
            steps_per_cycle=STEPS_PER_CYCLE,
            ensemble_size=N_MEMBERS,
            seed=seed,
            apply_model_error_to_truth=False,
        ),
        initial_ensemble=ensemble,
        executor=ctx.executor,
        fault_log=ctx.fault_log,
        **ctx.engine_kwargs(),
    )
    return {
        "analysis_rmse": [float(v) for v in result.analysis_rmse],
        "forecast_rmse": [float(v) for v in result.forecast_rmse],
        "final_rmse": float(result.analysis_rmse[-1]),
    }


class StandaloneContext:
    """The part of ``JobContext`` a runner reads, without a service behind it.

    No pool, no preemption, no resume.  With ``checkpoint_dir`` the engine
    writes the same per-cycle checkpoint ring a service job does, which is
    how the checkpoint cost is measured in isolation.
    """

    def __init__(self, params: dict, checkpoint_dir: Path | None = None) -> None:
        self.params = dict(params)
        self.executor = None
        self.fault_log = FaultLog()
        self.checkpoint_dir = checkpoint_dir

    def engine_kwargs(self) -> dict:
        if self.checkpoint_dir is None:
            return {}
        return {
            "checkpoint_every": 1,
            "checkpoint_path": Path(self.checkpoint_dir) / "engine.ckpt",
            "keep_last": 3,
        }
