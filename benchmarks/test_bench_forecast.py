"""Forecast-engine benchmark: pseudo-spectral SQG step + paper-scale OSSE.

Times the member-chunked RK4 kernel (``SQGModel._advance``) and persists the
record to ``BENCH_forecast.json`` at the repository root.  The step is
checked against the previous release's step, kept verbatim as a test-only
oracle (``tests/reference/sqg_step_head.py``): ``max_coeff_delta`` must be
exactly ``0.0``.  The chunk the kernel walks an ensemble in is derived from
``repro.models.sqg._WORKSPACE_BYTES``; ``forecast_chunk_curve`` is the sweep
that constant is read off — member-steps/s against the chunk size on three
grids, every candidate timed once per repeat in alternating order, median
and quartiles over the repeats, with the derived chunk marked.  (It replaces
``batching_speedup``, a best-of-3 ratio of two ~30 ms timings that read 0.96
and 3.05 in two records with no forecast change between them.)  End-to-end
numbers live in ``benchmarks/e2e/``; this file keeps the kernel-level curve.

Record layout (see :func:`repro.utils.timing.write_bench_json` for the generic format)::

    {
      "benchmark": "forecast-engine",
      "fft_backend": "numpy",
      "forecast_step": {grid, members, optimized_s, oracle_s,
                        max_coeff_delta},           # 64x64, M=20
      "forecast_step_cases": [ ...per batch size... ],
      "forecast_chunk_curve": {members, steps, repeats, workspace_bytes,
                               host, note, rows: [{grid, member_bytes,
                               derived_chunk, candidates: [{chunk, derived,
                               member_steps_per_s: {median, q1, q3}}]}]},
      "cfl_step_curve": {seed, cycles, candidates, rmse_tolerance, selected,
                         host, note, rows: [{workload, grid, filter,
                         runs: [{c_max, k_counts, cfl: {min, max},
                         mean_analysis_rmse, rmse_vs_fine_step,
                         max_diff_from_fine_k, non_finite, cycles_per_s}]}]},
      "engine_overhead": {grid, cycles, members, legacy_s, engine_s,
                          overhead_pct, analysis_rmse_delta,
                          final_state_delta},      # CycleEngine vs inlined loop
      "retry_overhead": {grid, cycles, members, clean_s, faulted_s,
                         overhead_pct, analysis_rmse_delta, recoveries,
                         note},                    # shard retry vs fault-free
      "osse_128": {grid, cycles, members, <stage>_mean_s, <stage>_per_cycle_s},
                                # stage seconds from the engine's records
      "residency": {array_backend, grid, members, per_cycle, note},
                                # steady-state host transfers per cycle on
                                # the metered mock-device backend
      "speedup_note": "..."                        # single-core context
    }
"""

import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.models.sqg as sqg_mod
from repro.core.observations import IdentityObservation
from repro.da.cycling import OSSEConfig, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.models.sqg import SQGModel, SQGParameters
from repro.utils.fft import default_backend_name as fft_backend_name
from repro.utils.timing import best_of, write_bench_json

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_forecast.json"
sys.path.insert(0, str(REPO_ROOT / "tests"))  # the test-only step oracle
from reference.sqg_step_head import HeadStepper  # noqa: E402

N_MEMBERS = 20
STEP_GRID = (64, 64)
PAPER_GRID = (128, 128)
CHUNK_GRIDS = (32, 64, 128)
CHUNK_CANDIDATES = (1, 2, 4, 5, 10, 20)
CHUNK_STEPS = 4
CHUNK_REPEATS = 9
# cfl_step_curve: the end-to-end workloads' own inputs (seed 7), each run
# for CFL_CYCLES cycles at every candidate limit and at k = 1 (limit 0).
CFL_CANDIDATES = (0.4, 0.6, 0.8, 1.0)
CFL_WORKLOADS = ("letkf_serial_64", "ensf_serial_64", "letkf_pool_128")
CFL_SEED = 7
CFL_CYCLES = 100
CFL_RMSE_TOLERANCE = 0.005

SPEEDUP_NOTE = (
    "Measured on a 2-vCPU host where the RK4 step is FFT-bound (about two "
    "thirds of a tendency is pocketfft). The kernel prunes transforms to the "
    "2/3-rule retained columns, batches the four advection-field inverse "
    "transforms into one call, keeps the state split into retained and dead "
    "columns for the whole trajectory, does complex-by-real products on "
    "float64 views, and advances a cache-sized chunk of members through all "
    "steps at a time; forecast_chunk_curve records member-steps/s against "
    "that chunk size."
)


def _full_scale() -> bool:
    return os.environ.get("REPRO_FULL_SCALE", "0") == "1"


def _ensemble_spec(model, members, seed=0):
    rng = np.random.default_rng(seed)
    if members == 0:
        theta = model.random_initial_condition(rng=rng, amplitude=3.0)
    else:
        theta = np.stack(
            [model.random_initial_condition(rng=rng, amplitude=3.0) for _ in range(members)]
        )
    return model.spectral.to_spectral(theta)


def _bench_step_case(members):
    """Best-of timing of one RK4 step, and its delta against the step oracle."""
    params = SQGParameters(nx=STEP_GRID[0], ny=STEP_GRID[1])
    model = SQGModel(params)
    oracle = HeadStepper(model)
    spec = _ensemble_spec(model, members, seed=2024)
    model.step_spectral(spec)  # build the workspaces outside the timed region
    oracle.step_spectral_device(spec)

    t_new, new = best_of(lambda: model.step_spectral(spec), repeats=5)
    t_old, old = best_of(lambda: oracle.step_spectral_device(spec), repeats=5)
    return {
        "grid": list(STEP_GRID),
        "members": int(members) if members else 1,
        "optimized_s": t_new,
        "oracle_s": t_old,
        "max_coeff_delta": float(np.abs(old - new).max()),
        "fft_backend": fft_backend_name(),
    }


def _host_record():
    # The installed version from package metadata: no bench process loads SciPy.
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "environment": {name: os.environ[name] for name in pins if name in os.environ},
    }


def _bench_chunk_curve():
    """Member-steps/s of a 20-member, 4-step forecast against the chunk size.

    The chunk has no public knob: each candidate moves
    ``repro.models.sqg._WORKSPACE_BYTES`` so that the rule picks the wanted
    chunk, and the constant is restored afterwards.  Within a repeat every
    candidate is timed once, in an order that alternates between repeats, so
    drift of the host hits all candidates alike.
    """
    rows = []
    budget = sqg_mod._WORKSPACE_BYTES
    with pytest.MonkeyPatch.context() as patch:
        for n in CHUNK_GRIDS:
            patch.undo()  # the rule's own pick, before any candidate moves the budget
            model = SQGModel(SQGParameters(nx=n, ny=n))
            spec = _ensemble_spec(model, N_MEMBERS, seed=n)
            derived = model._chunk(N_MEMBERS)
            candidates = sorted({*CHUNK_CANDIDATES, derived})
            timings = {chunk: [] for chunk in candidates}
            for repeat in range(CHUNK_REPEATS + 1):  # repeat 0 warms the workspaces
                for chunk in candidates if repeat % 2 else candidates[::-1]:
                    patch.setattr(sqg_mod, "_WORKSPACE_BYTES", chunk * model._member_bytes)
                    start = time.perf_counter()
                    model._advance(spec, CHUNK_STEPS)
                    if repeat:
                        timings[chunk].append(time.perf_counter() - start)
                    assert chunk in model._workspaces
            work = N_MEMBERS * CHUNK_STEPS
            rows.append(
                {
                    "grid": [n, n],
                    "member_bytes": model._member_bytes,
                    "derived_chunk": derived,
                    "candidates": [
                        {
                            "chunk": chunk,
                            "derived": chunk == derived,
                            "member_steps_per_s": dict(
                                zip(
                                    ("q1", "median", "q3"),
                                    (work / t for t in statistics.quantiles(times, n=4)[::-1]),
                                )
                            ),
                        }
                        for chunk, times in timings.items()
                    ],
                }
            )
    return {
        "members": N_MEMBERS,
        "steps": CHUNK_STEPS,
        "repeats": CHUNK_REPEATS,
        "workspace_bytes": budget,
        "host": _host_record(),
        "rows": rows,
        "note": (
            "members are independent, so every chunk gives the same bits; the "
            "kernel walks an ensemble in chunks of workspace_bytes // "
            "member_bytes members (member_bytes = one member's share of the "
            "RK4 workspace plus one tendency's transform outputs), marked "
            "derived here. member_steps_per_s is the median and quartiles "
            "over the repeats on the recording host."
        ),
    }


def _bench_cfl_step_curve():
    """Where ``repro.models.sqg._CFL_MAX`` comes from.

    For every candidate limit ``C`` (and ``C = 0``, which keeps every cycle
    at ``k = 1``) a serial ``run_osse`` of ``CFL_CYCLES`` cycles on the
    end-to-end workloads' own seed-7 inputs records: how often each ``k``
    was taken, the cycle-start CFL range, the mean analysis RMSE, the
    largest RMS difference of one cycle's forecast from the fine-step
    forecast of the same input, the non-finite cycles and cycles/s (the
    fine-step comparison is timed apart and left out).  ``selected`` is
    the largest ``C`` with no non-finite cycle and a mean RMSE within
    ``CFL_RMSE_TOLERANCE`` of ``k = 1`` on every workload.
    """
    import repro.workflow.engine as engine_mod

    sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))
    import osse  # the end-to-end workloads' inputs and systems

    real = engine_mod.propagate_ensemble
    rows = []
    with pytest.MonkeyPatch.context() as patch:
        for name in CFL_WORKLOADS:
            spec = osse.SPECS[name]
            inputs = osse.generate(spec, CFL_SEED, spec.grid)
            runs = []
            for c_max in (0.0, *CFL_CANDIDATES):
                patch.setattr(sqg_mod, "_CFL_MAX", c_max)
                system = osse.build(spec, inputs, spec.grid, pooled=False)
                fine = system.truth_model  # its own instance, never stepped coarsely
                seen = []

                def spy(model, state, n_steps, executor=None):
                    out = real(model, state, n_steps=n_steps, executor=executor)
                    start = time.perf_counter()
                    k = getattr(model, "k", 1)
                    cfl = system.forecast_model.max_cfl(
                        system.forecast_model.unflatten(state.host())
                    )
                    diff = 0.0
                    if k > 1:
                        oracle = fine.forecast(state.host(), n_steps=k * n_steps)
                        diff = float(np.sqrt(np.mean((out.host() - oracle) ** 2)))
                    seen.append((k, cfl, diff, time.perf_counter() - start))
                    return out

                patch.setattr(engine_mod, "propagate_ensemble", spy)
                config = OSSEConfig(
                    n_cycles=CFL_CYCLES, steps_per_cycle=osse.STEPS_PER_CYCLE,
                    ensemble_size=osse.N_MEMBERS, seed=inputs.osse_seed,
                    apply_model_error_to_truth=not spec.perfect_model,
                )
                start = time.perf_counter()
                result = run_osse(
                    system.truth_model, system.forecast_model, system.filter,
                    system.operator, inputs.truth0, config, initial_ensemble=inputs.ensemble,
                )
                elapsed = time.perf_counter() - start - sum(row[3] for row in seen)
                patch.setattr(engine_mod, "propagate_ensemble", real)
                ks = [row[0] for row in seen]
                rmse = np.asarray(result.analysis_rmse, dtype=float)
                runs.append(
                    {
                        "c_max": c_max,
                        "k_counts": {str(k): ks.count(k) for k in sorted(set(ks))},
                        "cfl": {"min": min(r[1] for r in seen), "max": max(r[1] for r in seen)},
                        "mean_analysis_rmse": float(np.mean(rmse)),
                        "max_diff_from_fine_k": max(r[2] for r in seen),
                        "non_finite": int(np.sum(~np.isfinite(rmse))),
                        "cycles_per_s": CFL_CYCLES / elapsed,
                    }
                )
            for run in runs:
                run["rmse_vs_fine_step"] = (
                    run["mean_analysis_rmse"] / runs[0]["mean_analysis_rmse"] - 1.0
                )
            rows.append(
                {"workload": name, "grid": [spec.grid, spec.grid], "filter": spec.filter,
                 "runs": runs}
            )
    admissible = [
        c for c in CFL_CANDIDATES
        if all(
            run["non_finite"] == 0 and abs(run["rmse_vs_fine_step"]) <= CFL_RMSE_TOLERANCE
            for row in rows for run in row["runs"] if run["c_max"] == c
        )
    ]
    return {
        "seed": CFL_SEED,
        "cycles": CFL_CYCLES,
        "candidates": list(CFL_CANDIDATES),
        "rmse_tolerance": CFL_RMSE_TOLERANCE,
        "selected": max(admissible, default=None),
        "host": _host_record(),
        "rows": rows,
        "note": (
            "serial run_osse on each end-to-end workload's seed-7 inputs at every "
            "candidate limit C on the ensemble's advective CFL (c_max 0 keeps "
            "every cycle at k = 1, the reference); the forecast takes RK4 steps "
            "of k*dt, k the largest divisor of steps_per_cycle with k*CFL <= C. "
            "max_diff_from_fine_k is the largest RMS difference (K) of one "
            "cycle's forecast from the fine-step forecast of the same input; "
            "cycles_per_s leaves that comparison out. selected is the largest "
            "C with no non-finite cycle and mean analysis RMSE within "
            "rmse_tolerance of k = 1 on every workload: the value of "
            "repro.models.sqg._CFL_MAX."
        ),
    }


def _legacy_inlined_osse(truth_model, forecast_model, filter_, operator, truth0, config):
    """The pre-engine inlined OSSE loop (PR 4), minus timing instrumentation.

    Kept as the baseline for the CycleEngine overhead record: same named
    rng streams, same per-cycle operation order, so the engine-backed
    :func:`run_osse` must match it bit for bit while adding <2 % wall time.
    The ensemble forecast takes the model's ``coarse_step``, as the
    engine's forecast stage does.
    (The old ``osse_parity`` entry compared against the retired
    ``fused=False`` reference forecast engine — a redundant oracle call site
    once the per-step oracle test certifies bit-identity; see ROADMAP
    "reference-path retirement".)
    """
    from repro.core.filters import ensemble_statistics
    from repro.da.cycling import _initial_ensemble, rmse
    from repro.models.base import propagate_ensemble
    from repro.models.model_error import StochasticModelErrorMixture
    from repro.utils.random import SeedSequenceFactory

    seeds = SeedSequenceFactory(config.seed)
    rng_obs = seeds.rng("observations")
    rng_init = seeds.rng("initial-ensemble")
    model_error = (
        StochasticModelErrorMixture(rng=seeds.rng("model-error"))
        if config.apply_model_error_to_truth
        else None
    )
    truth = np.array(truth0, dtype=float)
    ensemble = _initial_ensemble(
        truth_model, truth, config.ensemble_size, config.steps_per_cycle, rng_init
    )
    analysis_rmse = np.zeros(config.n_cycles)
    for cycle in range(config.n_cycles):
        truth = truth_model.forecast(truth, n_steps=config.steps_per_cycle)
        if model_error is not None:
            truth = model_error.perturb(truth)
        stepper, n_steps = forecast_model.coarse_step(ensemble, config.steps_per_cycle)
        ensemble = propagate_ensemble(stepper, ensemble, n_steps=n_steps)
        observation = operator.observe(truth, rng=rng_obs)
        ensemble = filter_.analyze_parallel(ensemble, observation, operator)
        stats = ensemble_statistics(ensemble)
        analysis_rmse[cycle] = rmse(stats.mean, truth)
    return analysis_rmse, ensemble_statistics(ensemble).mean


def _bench_engine_overhead():
    """CycleEngine-backed run_osse vs the inlined loop: parity + overhead."""
    params = SQGParameters(nx=32, ny=32, dt=1200.0)
    model = SQGModel(params)
    truth0 = model.flatten(
        model.step(model.random_initial_condition(rng=7, amplitude=3.0), n_steps=50)
    )
    letkf = LETKF(params.grid, LETKFConfig(cutoff=4.0e6))
    operator = IdentityObservation(model.state_size, 1.0)
    config = OSSEConfig(n_cycles=5, steps_per_cycle=4, ensemble_size=N_MEMBERS, seed=3)

    def legacy():
        return _legacy_inlined_osse(model, model, letkf, operator, truth0, config)

    def engine():
        return run_osse(model, model, letkf, operator, truth0, config)

    legacy()  # warm the LETKF geometry cache and FFT workspaces for both paths
    t_legacy, (legacy_rmse, legacy_mean) = best_of(legacy, repeats=3)
    t_engine, engine_result = best_of(engine, repeats=3)

    return {
        "grid": [params.nx, params.ny],
        "cycles": config.n_cycles,
        "members": N_MEMBERS,
        "legacy_s": t_legacy,
        "engine_s": t_engine,
        "overhead_pct": (t_engine / t_legacy - 1.0) * 100.0,
        "analysis_rmse_delta": float(
            np.abs(engine_result.analysis_rmse - legacy_rmse).max()
        ),
        "final_state_delta": float(
            np.abs(engine_result.analysis_mean_final - legacy_mean).max()
        ),
        "mean_analysis_rmse": engine_result.mean_analysis_rmse,
        "note": (
            "engine-backed run_osse vs the pre-refactor inlined loop on the "
            "same 32x32 LETKF OSSE; the stage pipeline must stay bit-identical "
            "and add <2% wall time"
        ),
    }


def _bench_retry_overhead():
    """Fault-injected OSSE through a 2-worker pool vs the fault-free run.

    Two worker crashes are injected mid-run; the executor's retry/rebuild
    path must heal them *bit-identically* (``analysis_rmse_delta`` is
    asserted to be exactly ``0.0``) and the wall-time cost of the recovery
    (pool rebuild + shard recomputation) is recorded as ``overhead_pct``.
    Single runs, not best-of: a fault plan fires each event once, so the
    faulted timing is inherently a one-shot measurement.
    """
    from repro.hpc.ensemble_parallel import EnsembleExecutor
    from repro.utils.faults import FaultLog, FaultPlan

    params = SQGParameters(nx=32, ny=32, dt=1200.0)
    model = SQGModel(params)
    truth0 = model.flatten(
        model.step(model.random_initial_condition(rng=7, amplitude=3.0), n_steps=50)
    )
    letkf = LETKF(params.grid, LETKFConfig(cutoff=4.0e6))
    operator = IdentityObservation(model.state_size, 1.0)
    config = OSSEConfig(n_cycles=4, steps_per_cycle=4, ensemble_size=8, seed=3)
    plan = FaultPlan.from_spec("worker-crash@executor:2;worker-crash@executor:5")

    def timed_run(executor):
        return best_of(
            lambda: run_osse(
                model, model, letkf, operator, truth0, config,
                executor=executor,
            ),
            repeats=1,
        )

    with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as ex_clean:
        timed_run(ex_clean)  # warm the pool + caches outside the timed region
        clean_s, clean = timed_run(ex_clean)
    with EnsembleExecutor(
        n_workers=2, min_members_per_worker=1, retry_backoff_s=0.0, fault_plan=plan
    ) as ex_faulted:
        timed_run(ex_faulted)  # same warm-up (its faults heal, then are reset)
        plan.reset()
        ex_faulted.fault_log = FaultLog()  # count only the timed run's recoveries
        faulted_s, faulted = timed_run(ex_faulted)
        recoveries = ex_faulted.fault_log.summary()

    return {
        "grid": [params.nx, params.ny],
        "cycles": config.n_cycles,
        "members": config.ensemble_size,
        "clean_s": clean_s,
        "faulted_s": faulted_s,
        "overhead_pct": (faulted_s / clean_s - 1.0) * 100.0,
        "analysis_rmse_delta": float(
            np.abs(faulted.analysis_rmse - clean.analysis_rmse).max()
        ),
        "recoveries": recoveries,
        "note": (
            "2-worker LETKF OSSE with two injected worker crashes: the "
            "retry/pool-rebuild path recomputes the lost shards bit-"
            "identically (delta asserted exactly 0.0); overhead_pct is the "
            "one-shot wall-time cost of the recovery on this host"
        ),
    }


def _bench_osse_paper_scale():
    """128×128 paper-scale OSSE (ROADMAP larger-grid item) with stage breakdown."""
    n_cycles = 10 if _full_scale() else 2
    params = SQGParameters(nx=PAPER_GRID[0], ny=PAPER_GRID[1])
    model = SQGModel(params)
    truth0 = model.flatten(
        model.step(model.random_initial_condition(rng=11, amplitude=3.0), n_steps=20)
    )
    letkf = LETKF(params.grid, LETKFConfig(cutoff=2.0e6))
    operator = IdentityObservation(model.state_size, 1.0)
    config = OSSEConfig(
        n_cycles=n_cycles, steps_per_cycle=4, ensemble_size=N_MEMBERS, seed=9
    )
    result = run_osse(model, model, letkf, operator, truth0, config)
    row = {
        "grid": list(PAPER_GRID),
        "cycles": n_cycles,
        "members": N_MEMBERS,
        "steps_per_cycle": config.steps_per_cycle,
        "full_scale": _full_scale(),
        "mean_analysis_rmse": result.mean_analysis_rmse,
    }
    for stage in ("truth", "forecast", "analysis"):
        per_cycle = [getattr(r, f"{stage}_s") for r in result.records]
        row[f"{stage}_mean_s"] = float(np.mean(per_cycle))
        row[f"{stage}_per_cycle_s"] = per_cycle
    return row


def _bench_residency():
    """Per-cycle host-transfer budget of a device-resident OSSE cycle.

    Runs small LETKF and EnSF OSSEs on the metered ``mock-device`` backend
    at 2 and 3 cycles and differences the transfer totals: the delta is the
    steady-state per-cycle budget (setup traffic cancels), which the
    residency test suite proves is independent of grid size, member count
    and cycle count.  Recorded so a future real-GPU refresh can compare its
    transfer profile against the CI-certified contract.
    """
    import repro.utils.xp as xp_mod
    from repro.core.ensf import EnSF, EnSFConfig
    from repro.models.sqg import spinup_sqg

    n_sde_steps = 8

    def per_cycle(filter_factory):
        # models AND filters must resolve mock-device, or the analysis
        # uploads run unmetered on the default backend
        xp = xp_mod.resolve_backend("mock-device")

        def totals(n_cycles):
            params = SQGParameters(nx=16, ny=16, dt=1800.0)
            model = SQGModel(params, array_backend="mock-device")
            truth0 = model.flatten(spinup_sqg(model, n_steps=30, rng=0))
            operator = IdentityObservation(model.state_size, 1.0)
            config = OSSEConfig(
                n_cycles=n_cycles, steps_per_cycle=2, ensemble_size=6, seed=11
            )
            xp.reset_transfers()
            run_osse(model, model, filter_factory(model), operator, truth0, config)
            return xp.transfer_counts()

        t2, t3 = totals(2), totals(3)
        return {key: int(t3[key] - t2[key]) for key in t2}

    letkf_budget = per_cycle(
        lambda m: LETKF(
            m.grid,
            LETKFConfig(cutoff=4.0e6, backend="mock-device"),
        )
    )
    ensf_budget = per_cycle(
        lambda m: EnSF(
            EnSFConfig(n_sde_steps=n_sde_steps, backend="mock-device"), rng=4
        )
    )
    return {
        "array_backend": "mock-device",
        "grid": [16, 16],
        "members": 6,
        "per_cycle": {
            "letkf": letkf_budget,
            "ensf": ensf_budget,
            "ensf_n_sde_steps": n_sde_steps,
        },
        "note": (
            "steady-state host transfers per OSSE cycle on the metered "
            "mock-device backend (difference of 3-cycle and 2-cycle run "
            "totals; setup traffic cancels); the residency test suite "
            "asserts these counts are independent of grid size, ensemble "
            "size and cycle count, so any growth here is a residency "
            "regression"
        ),
    }


@pytest.fixture(scope="module")
def forecast_record():
    cases = [_bench_step_case(members) for members in (0, N_MEMBERS)]
    headline = cases[-1]  # the 20-member ensemble step
    chunk_curve = _bench_chunk_curve()
    cfl_curve = _bench_cfl_step_curve()
    overhead = _bench_engine_overhead()
    retry = _bench_retry_overhead()
    paper = _bench_osse_paper_scale()
    residency = _bench_residency()
    from repro.utils.xp import default_backend_name

    return write_bench_json(
        RECORD_PATH,
        benchmark="forecast-engine",
        fft_backend=headline["fft_backend"],
        array_backend=default_backend_name(),
        forecast_step=headline,
        forecast_step_cases=cases,
        forecast_chunk_curve=chunk_curve,
        cfl_step_curve=cfl_curve,
        engine_overhead=overhead,
        retry_overhead=retry,
        osse_128=paper,
        residency=residency,
        speedup_note=SPEEDUP_NOTE,
    )


def test_step_exactness_and_chunk_curve(forecast_record, report):
    rows = forecast_record["forecast_step_cases"]
    report(
        "SQG forecast step (64x64) against the step oracle",
        [
            f"m={row['members']:3d}: {row['optimized_s']*1e3:.1f} ms "
            f"(oracle {row['oracle_s']*1e3:.1f} ms), delta {row['max_coeff_delta']:.1e}"
            for row in rows
        ],
    )
    for row in rows:
        assert row["max_coeff_delta"] == 0.0  # bit-exact against the previous step
    assert forecast_record["forecast_step"]["members"] == N_MEMBERS

    curve = forecast_record["forecast_chunk_curve"]
    for row in curve["rows"]:
        rates = {c["chunk"]: c["member_steps_per_s"] for c in row["candidates"]}
        report(
            f"member-steps/s vs chunk at {row['grid'][0]}x{row['grid'][1]} "
            f"(derived chunk {row['derived_chunk']})",
            [
                f"chunk {chunk:2d}: {r['median']:7.0f} [{r['q1']:7.0f}, {r['q3']:7.0f}]"
                + ("  <- derived" if chunk == row["derived_chunk"] else "")
                for chunk, r in rates.items()
            ],
        )
        assert [c["chunk"] for c in row["candidates"] if c["derived"]] == [row["derived_chunk"]]
        for r in rates.values():
            assert r["q1"] <= r["median"] <= r["q3"]
        # The rule must land on the plateau, not on a cliff; the margin is the
        # host's run-to-run spread, not a performance target.
        best = max(r["median"] for r in rates.values())
        assert rates[row["derived_chunk"]]["median"] >= 0.8 * best


def test_cfl_step_curve_backs_the_constant(forecast_record, report):
    curve = forecast_record["cfl_step_curve"]
    for row in curve["rows"]:
        report(
            f"{row['workload']}: {curve['cycles']} cycles per limit on the ensemble CFL",
            [
                f"C={run['c_max']:.1f}: k {run['k_counts']}, RMSE "
                f"{run['mean_analysis_rmse']:.6f} ({100 * run['rmse_vs_fine_step']:+.3f}%), "
                f"vs fine {run['max_diff_from_fine_k']:.1e} K, {run['cycles_per_s']:.2f} cycles/s"
                for run in row["runs"]
            ],
        )
        reference = row["runs"][0]
        assert reference["c_max"] == 0.0 and list(reference["k_counts"]) == ["1"]
        for run in row["runs"]:
            assert sum(run["k_counts"].values()) == curve["cycles"]
    assert curve["selected"] == sqg_mod._CFL_MAX


def test_engine_overhead_and_parity(forecast_record, report):
    row = forecast_record["engine_overhead"]
    report(
        "CycleEngine vs inlined OSSE loop (LETKF 32x32)",
        [
            f"legacy {row['legacy_s']:.3f} s -> engine {row['engine_s']:.3f} s "
            f"({row['overhead_pct']:+.2f}%)",
            f"analysis_rmse_delta: {row['analysis_rmse_delta']}",
            f"final_state_delta: {row['final_state_delta']}",
        ],
    )
    assert row["analysis_rmse_delta"] == 0.0
    assert row["final_state_delta"] == 0.0
    # The recorded baseline documents the honest measurement (about -2.5%,
    # i.e. within noise of zero); the gate tolerates single-core scheduler
    # noise on this sub-second case rather than re-asserting the exact 2%.
    assert row["overhead_pct"] < 5.0


def test_retry_overhead_heals_bit_identically(forecast_record, report):
    row = forecast_record["retry_overhead"]
    report(
        "Shard retry overhead (2-worker LETKF OSSE, 2 injected crashes)",
        [
            f"clean {row['clean_s']:.3f} s -> faulted {row['faulted_s']:.3f} s "
            f"({row['overhead_pct']:+.1f}%)",
            f"analysis_rmse_delta: {row['analysis_rmse_delta']}",
            f"recoveries: {row['recoveries']}",
        ],
    )
    assert row["analysis_rmse_delta"] == 0.0
    assert row["recoveries"].get("retry", 0) >= 1
    assert row["recoveries"].get("pool-rebuild", 0) >= 1


def test_paper_scale_osse_recorded(forecast_record, report):
    row = forecast_record["osse_128"]
    report(
        "128x128 paper-scale OSSE breakdown",
        [
            f"{name}: {row[f'{name}_mean_s']*1e3:.1f} ms/cycle"
            for name in ("truth", "forecast", "analysis")
        ],
    )
    for name in ("truth", "forecast", "analysis"):
        assert len(row[f"{name}_per_cycle_s"]) == row["cycles"]


def test_residency_budget_recorded(forecast_record, report):
    row = forecast_record["residency"]
    report(
        "Per-cycle host-transfer budget (mock-device, 16x16, m=6)",
        [
            f"{name}: {budget['h2d_calls']} up / {budget['d2h_calls']} down"
            for name, budget in row["per_cycle"].items()
            if isinstance(budget, dict)
        ],
    )
    letkf_budget = row["per_cycle"]["letkf"]
    ensf_budget = row["per_cycle"]["ensf"]
    for budget in (letkf_budget, ensf_budget):
        assert budget["h2d_calls"] > 0 and budget["d2h_calls"] > 0
        assert budget["h2d_bytes"] > 0 and budget["d2h_bytes"] > 0
    # The ensemble-space EnSF uploads the score ensemble, the observation,
    # one full-size draw and the (n, M) coefficients per analysis, whatever
    # n_sde_steps is — strictly below the full-space loop it replaced, which
    # staged one noise block per Euler step (n_sde_steps + 3 per analysis
    # on top of the two trajectory uploads: 13 up at 8 steps).
    full_space_uploads = 2 + row["per_cycle"]["ensf_n_sde_steps"] + 3
    assert ensf_budget["h2d_calls"] < full_space_uploads


def test_record_written(forecast_record):
    payload = json.loads(RECORD_PATH.read_text())
    assert payload["benchmark"] == "forecast-engine"
    assert payload["forecast_step"]["max_coeff_delta"] == 0.0
    assert payload["engine_overhead"]["analysis_rmse_delta"] == 0.0
