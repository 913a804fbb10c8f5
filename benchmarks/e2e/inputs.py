"""Seeded input generation shared by the OSSE workloads and the SQG job runner."""

from __future__ import annotations

import numpy as np

from repro.models.sqg import SQGModel, spinup_sqg

N_MEMBERS = 20
STEPS_PER_CYCLE = 4
SPINUP_STEPS = 600
SNAPSHOT_GAP = 40


def derive_seeds(seed: int, stream: int, count: int) -> list[int]:
    """``count`` independent integer seeds for one named stream of ``--seed``."""
    rng = np.random.default_rng([int(seed), int(stream)])
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=count)]


def climatological_inputs(
    model: SQGModel,
    spinup_seed: int,
    sigma0: float,
    spinup_steps: int = SPINUP_STEPS,
    gap: int = SNAPSHOT_GAP,
    members: int = N_MEMBERS,
) -> tuple[np.ndarray, np.ndarray]:
    """Truth state and initial ensemble from one long model run.

    Snapshots ``gap`` steps apart are taken from a run continued past the
    spin-up.  The first is the truth; the deviations of the later ones from
    their mean are climatological error structures, rescaled so the initial
    ensemble has mean spread ``sigma0`` and a mean error of the same size.

    Raw snapshots (spread of a few K against R = I) would need > 100 cycles
    to converge, and the RMSE during that transient moved 20 % from seed to
    seed; starting near the filter's own steady state keeps a run of a few
    dozen cycles healthy and its RMSE comparable across seeds.
    """
    state = model.flatten(spinup_sqg(model, n_steps=spinup_steps, rng=spinup_seed))
    snapshots = []
    for _ in range(members + 2):
        state = model.forecast(state, n_steps=gap)
        snapshots.append(state)
    truth0 = snapshots[0]
    deviations = np.array(snapshots[1:])
    deviations -= deviations.mean(axis=0)
    scale = sigma0 / deviations[:members].std(axis=0, ddof=1).mean()
    ensemble = truth0 + scale * (deviations[:members] + deviations[members])
    return truth0, ensemble
