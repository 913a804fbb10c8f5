"""Direct-call probes of single layers, on arrays of a workload's shapes.

Each probe calls one public function of the program, once to warm it and
then ``reps`` times, and reports the median.  They run in the traced pass
only and never touch the objects the timed passes use.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np


def median_seconds(fn, reps: int = 5) -> float:
    fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def fft_roundtrip_ms(model, members: int) -> float:
    """``SpectralGrid.to_spectral`` + ``to_physical`` on a (members, 2, N, N) batch."""
    grid = model.spectral
    field = np.random.default_rng(0).standard_normal((members, 2, model.params.ny, model.params.nx))
    return 1e3 * median_seconds(lambda: grid.to_physical(grid.to_spectral(field)))


def stacked_eigh_ms(xp, n_columns: int, members: int, reps: int = 5) -> float:
    """Backend ``stacked_eigh`` on an (n_columns, members, members) SPD stack."""
    q = np.random.default_rng(0).standard_normal((n_columns, members, members))
    stack = q @ q.transpose(0, 2, 1) + (members - 1) * np.eye(members)
    return 1e3 * median_seconds(lambda: xp.stacked_eigh(stack), reps)


def score_into_ms(members: int, dim: int) -> float:
    """``MonteCarloScoreEstimator.score_into`` on a (members, dim) ensemble."""
    from repro.core.score import MonteCarloScoreEstimator

    rng = np.random.default_rng(0)
    estimator = MonteCarloScoreEstimator(rng.standard_normal((members, dim)))
    z = np.ascontiguousarray(rng.standard_normal((members, dim)))
    out = np.empty_like(z)
    return 1e3 * median_seconds(lambda: estimator.score_into(z, 0.5, out))


def normal_draw_ms(members: int, dim: int) -> float:
    """One (members, dim) Gaussian draw from the program's ``default_rng``."""
    from repro.utils.random import default_rng

    rng = default_rng(0)
    return 1e3 * median_seconds(lambda: rng.standard_normal((members, dim)))


def shm_roundtrip_ms(members: int, dim: int) -> float:
    """``SharedPayloadArena.share`` + ``materialize`` + release of one array."""
    from repro.hpc.shm import SharedPayloadArena

    array = np.random.default_rng(0).standard_normal((members, dim))
    arena = SharedPayloadArena()

    def roundtrip():
        handle = arena.share(array)
        arena.retain(handle.name)
        handle.materialize()
        arena.release(handle.name)

    try:
        return 1e3 * median_seconds(roundtrip)
    finally:
        arena.release_all()


def map_blocks_rtt_ms(executor) -> float:
    """A no-op ``map_blocks`` of two jobs: the pool's round-trip floor."""
    return 1e3 * median_seconds(lambda: executor.map_blocks(abs, [0, 1]), reps=9)


def import_seconds(module: str, src: str, env: dict, reps: int = 3) -> float:
    """Import ``module`` in a cold subprocess; median of ``reps``."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", code, src], env=env, check=True, capture_output=True, text=True
        )
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def import_metrics(src: str, reps: int = 3) -> dict[str, float]:
    """What a fresh process (and every spawned worker) pays before any work."""
    env = dict(os.environ)
    return {
        "repro.import_s": import_seconds("repro.da.cycling", src, env, reps),
        "repro.hpc.import_s": import_seconds("repro.hpc.ensemble_parallel", src, env, reps),
        "repro.workflow.import_s": import_seconds("repro.workflow.scheduler", src, env, reps),
    }
