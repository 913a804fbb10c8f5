"""Fused forecast-engine benchmark: pseudo-spectral SQG step + paper-scale OSSE.

Times the fused tendency/RK4 kernel (`SQGModel.step_spectral`) and persists
the record to ``BENCH_forecast.json`` at the repository root.  The
pre-fusion oracle (``step_spectral_reference``) this file used to race
against is **retired** (ROADMAP "reference-path retirement"); the
historical ~1.2–1.5× single-core fusion speedup it certified is frozen in
the pre-retirement ``BENCH_forecast.json`` history.  The ratio that remains
measurable with current code is **ensemble batching**: one batched step of
M members versus M single-member step calls (amortizing FFT dispatch and
workspace traffic), recorded per case as ``batching_speedup``.

Record layout (see :mod:`repro.utils.timing` for the generic format)::

    {
      "benchmark": "forecast-engine",
      "fft_backend": "numpy" | "scipy",
      "forecast_step": {grid, members, optimized_s, per_member_loop_s,
                        batching_speedup, max_coeff_delta},  # 64x64, M=20
      "forecast_step_cases": [ ...per batch size... ],
      "engine_overhead": {grid, cycles, members, legacy_s, engine_s,
                          overhead_pct, analysis_rmse_delta,
                          final_state_delta},      # CycleEngine vs inlined loop
      "retry_overhead": {grid, cycles, members, clean_s, faulted_s,
                         overhead_pct, analysis_rmse_delta, recoveries,
                         note},                    # shard retry vs fault-free
      "osse_128": {grid, cycles, members, timing breakdown per section},
      "residency": {array_backend, grid, members, per_cycle, note},
                                # steady-state host transfers per cycle on
                                # the metered mock-device backend
      "speedup_note": "..."                        # single-core context
    }

``max_coeff_delta`` is the determinism contract: the same step evaluated by
an independently-constructed model instance (fresh workspaces) must match
bit for bit, so it is asserted to be exactly ``0.0``, as is the OSSE
``analysis_rmse_delta`` of the engine-vs-inlined-loop comparison.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.observations import IdentityObservation
from repro.da.cycling import OSSEConfig, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.da.localization import LocalizationConfig
from repro.models.sqg import SQGModel, SQGParameters
from repro.utils.timing import BenchRecorder, best_of

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_forecast.json"

N_MEMBERS = 20
STEP_GRID = (64, 64)
PAPER_GRID = (128, 128)

SPEEDUP_NOTE = (
    "Measured on a single-core host where the RK4 step is FFT-bound. The "
    "fused kernel prunes transforms to the 2/3-rule retained columns, "
    "batches the four advection-field inverse transforms into one call, and "
    "runs all spectral arithmetic in-place on persistent buffers (the "
    "retired pre-fusion oracle certified this at roughly 1.2-1.5x single-"
    "core before its retirement); batching_speedup records the remaining "
    "measurable ratio, one batched M-member step vs M single-member steps. "
    "On multi-core hosts the scipy backend additionally threads every "
    "batched transform (REPRO_FFT_WORKERS)."
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
    """Best-of timing of one RK4 step: batched vs per-member, plus determinism."""
    params = SQGParameters(nx=STEP_GRID[0], ny=STEP_GRID[1])
    model = SQGModel(params)
    other = SQGModel(params)  # fresh workspaces: determinism cross-check
    spec = _ensemble_spec(model, members, seed=2024)
    model.step_spectral(spec)  # build the workspace outside the timed region

    t_new, new = best_of(lambda: model.step_spectral(spec), repeats=5)
    row = {
        "grid": list(STEP_GRID),
        "members": int(members) if members else 1,
        "optimized_s": t_new,
        "max_coeff_delta": float(np.abs(other.step_spectral(spec) - new).max()),
        "fft_backend": model.spectral.fft.name,
    }
    if members:
        # M single-member steps vs one batched M-member step: the batching
        # gain (FFT dispatch + workspace traffic amortization).
        model.step_spectral(spec[0])  # warm the single-member workspace
        t_loop, _ = best_of(
            lambda: [model.step_spectral(spec[m]) for m in range(members)],
            repeats=3,
        )
        row["per_member_loop_s"] = t_loop
        row["batching_speedup"] = BenchRecorder.speedup(t_loop, t_new)
    return row


def _legacy_inlined_osse(truth_model, forecast_model, filter_, operator, truth0, config):
    """The pre-engine inlined OSSE loop (PR 4), minus timing instrumentation.

    Kept verbatim as the baseline for the CycleEngine overhead record: same
    named rng streams, same per-cycle operation order, so the engine-backed
    :func:`run_osse` must match it bit for bit while adding <2 % wall time.
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
        ensemble = propagate_ensemble(
            forecast_model, ensemble, n_steps=config.steps_per_cycle
        )
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
    letkf = LETKF(
        params.grid, LETKFConfig(localization=LocalizationConfig(cutoff=4.0e6))
    )
    operator = IdentityObservation(model.state_size, 1.0)
    config = OSSEConfig(n_cycles=5, steps_per_cycle=4, ensemble_size=N_MEMBERS, seed=3)

    def legacy():
        return _legacy_inlined_osse(model, model, letkf, operator, truth0, config)

    def engine():
        return run_osse(model, model, letkf, operator, truth0, config, label="engine")

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
    letkf = LETKF(
        params.grid, LETKFConfig(localization=LocalizationConfig(cutoff=4.0e6))
    )
    operator = IdentityObservation(model.state_size, 1.0)
    config = OSSEConfig(n_cycles=4, steps_per_cycle=4, ensemble_size=8, seed=3)
    plan = FaultPlan.from_spec("worker-crash@executor:2;worker-crash@executor:5")

    def timed_run(executor):
        return best_of(
            lambda: run_osse(
                model, model, letkf, operator, truth0, config,
                executor=executor, label="retry-overhead",
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
    """128×128 paper-scale OSSE (ROADMAP larger-grid item) with timing breakdown."""
    n_cycles = 10 if _full_scale() else 2
    params = SQGParameters(nx=PAPER_GRID[0], ny=PAPER_GRID[1])
    model = SQGModel(params)
    truth0 = model.flatten(
        model.step(model.random_initial_condition(rng=11, amplitude=3.0), n_steps=20)
    )
    letkf = LETKF(
        params.grid,
        LETKFConfig(localization=LocalizationConfig(cutoff=2.0e6, min_weight=0.0)),
    )
    operator = IdentityObservation(model.state_size, 1.0)
    config = OSSEConfig(
        n_cycles=n_cycles, steps_per_cycle=4, ensemble_size=N_MEMBERS, seed=9
    )
    recorder = BenchRecorder()
    result = run_osse(
        model, model, letkf, operator, truth0, config,
        label="SQG128+LETKF", recorder=recorder,
    )
    row = {
        "grid": list(PAPER_GRID),
        "cycles": n_cycles,
        "members": N_MEMBERS,
        "steps_per_cycle": config.steps_per_cycle,
        "full_scale": _full_scale(),
        "mean_analysis_rmse": result.mean_analysis_rmse,
    }
    for section, report in result.timing.items():
        row[f"{section}_mean_s"] = report["mean_s"]
        row[f"{section}_per_cycle_s"] = report["per_cycle_s"]
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
            run_osse(
                model, model, filter_factory(model), operator, truth0, config,
                label="residency",
            )
            return xp.transfer_counts()

        t2, t3 = totals(2), totals(3)
        return {key: int(t3[key] - t2[key]) for key in t2}

    letkf_budget = per_cycle(
        lambda m: LETKF(
            m.grid,
            LETKFConfig(
                localization=LocalizationConfig(cutoff=4.0e6),
                backend="mock-device",
            ),
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
    recorder = BenchRecorder()
    cases = [_bench_step_case(members) for members in (0, N_MEMBERS)]
    headline = cases[-1]  # the 20-member ensemble step
    for row in cases:
        recorder.add("step_fused", row["optimized_s"])
        if "per_member_loop_s" in row:
            recorder.add("step_per_member_loop", row["per_member_loop_s"])
    overhead = _bench_engine_overhead()
    retry = _bench_retry_overhead()
    paper = _bench_osse_paper_scale()
    residency = _bench_residency()
    from repro.utils.xp import default_backend_name

    return recorder.write_json(
        RECORD_PATH,
        benchmark="forecast-engine",
        fft_backend=headline["fft_backend"],
        array_backend=default_backend_name(),
        forecast_step=headline,
        forecast_step_cases=cases,
        engine_overhead=overhead,
        retry_overhead=retry,
        osse_128=paper,
        residency=residency,
        speedup_note=SPEEDUP_NOTE,
    )


def test_step_batching_and_exactness(forecast_record, report):
    rows = forecast_record["forecast_step_cases"]
    report(
        "Fused SQG forecast step (64x64)",
        [
            f"m={row['members']:3d}: {row['optimized_s']*1e3:.1f} ms"
            + (
                f" ({row['batching_speedup']:.2f}x vs per-member loop)"
                if "batching_speedup" in row
                else ""
            )
            + f", determinism delta {row['max_coeff_delta']:.1e}"
            for row in rows
        ],
    )
    for row in rows:
        # bit-exact across independent model instances (fresh workspaces)
        assert row["max_coeff_delta"] == 0.0
    # One batched M-member step must not lose to M single-member steps.
    # On single-core numpy hosts the two now measure near parity (the
    # fixed per-call overhead the batching amortizes has shrunk), so the
    # gate only rejects a real batching *regression*, not scheduler noise
    # around 1.0x on a ~30 ms measurement.
    assert forecast_record["forecast_step"]["members"] == N_MEMBERS
    assert forecast_record["forecast_step"]["batching_speedup"] >= 0.9


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
