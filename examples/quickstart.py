"""Quickstart: assimilate SQG observations with the Ensemble Score Filter.

Runs a small twin experiment (16×16 SQG grid, 8 analysis cycles): a hidden
truth is integrated with the physics model, synthetic observations of the full
state are generated every 12 hours, and a 10-member EnSF corrects the ensemble
forecast at every cycle.  Takes a few seconds on a laptop.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import IdentityObservation
from repro.da.cycling import OSSEConfig, free_run, run_osse
from repro.models.sqg import SQGModel, SQGParameters, spinup_sqg


def main() -> None:
    # 1. Build the SQG turbulence model and spin up a truth state.
    model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
    truth0 = model.flatten(spinup_sqg(model, n_steps=400, rng=0))
    print(f"SQG state size: {model.state_size} variables "
          f"(2 boundary levels on a {model.params.nx}x{model.params.ny} grid)")

    # 2. Observation model: the full state observed with unit error variance
    #    every 12 hours (24 model steps at dt = 1800 s), as in the paper.
    operator = IdentityObservation(model.state_size, obs_error_var=1.0)

    # 3. Configure the cycling experiment and the EnSF.
    osse = OSSEConfig(n_cycles=8, steps_per_cycle=24, ensemble_size=10, seed=4)
    ensf = EnSF(EnSFConfig(n_sde_steps=60), rng=2)

    # 4. Run with and without assimilation.
    with_da = run_osse(model, model, ensf, operator, truth0, osse)
    without_da = free_run(model, model, truth0, osse)

    # 5. Report.
    print("\ncycle   RMSE (EnSF)   RMSE (no DA)")
    for k in range(osse.n_cycles):
        print(f"{k + 1:5d}   {with_da.analysis_rmse[k]:11.3f}   {without_da.analysis_rmse[k]:12.3f}")
    print(f"\nmean analysis RMSE with EnSF: {with_da.mean_analysis_rmse:.3f} K")
    print(f"mean error without DA:        {without_da.mean_analysis_rmse:.3f} K")
    assert np.isfinite(with_da.analysis_rmse).all()


if __name__ == "__main__":
    main()
