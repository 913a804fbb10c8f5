"""The three pure-cycling workloads: one OSSE each, timed at cycle boundaries."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import probes
from inputs import N_MEMBERS, STEPS_PER_CYCLE, climatological_inputs, derive_seeds
from spans import Tracer

from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import IdentityObservation
from repro.da.cycling import OSSEConfig, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.models.sqg import SQGModel, SQGParameters
from repro.workflow.engine import EngineCheckpoint, EnginePreempted

N_SDE_STEPS = 100
POOL_WORKERS = 2
SETUP_REPEATS = 3
CYCLE_CAP = 1_000_000  # n_cycles handed to run_osse; the deadline ends the run long before
SMOKE_GRID, SMOKE_CYCLES = 16, 6
TRACED_MIN_CYCLES = 6
# The cycle span's sequential children and its self time: together, the cycle.
SPAN_SHARES = (
    "models.sqg.truth_share", "core.observations.observe_share", "models.sqg.forecast_share",
    "da.letkf.analysis_share", "core.ensf.analysis_share", "workflow.engine.self_share",
)


@dataclass(frozen=True)
class OSSESpec:
    """One cycling workload.

    ``window`` is the number of leading cycles every untraced run completes
    whatever ``--seconds`` says: ``analysis_rmse`` is taken over exactly
    these, so it repeats to the last digit for a seed on any host, and the
    time-to-solution metrics are the time to finish them.  ``serial_prefix``
    is the length of the serial re-run a pooled workload is compared with.
    ``sigma0`` is the initial spread (near each filter's own steady state,
    see :func:`inputs.climatological_inputs`).
    """

    stream: int
    grid: int
    filter: str
    perfect_model: bool
    pooled: bool
    window: int
    sigma0: float
    rmse_limit: float
    spinup_steps: int = 600
    snapshot_gap: int = 40
    serial_prefix: int = 0


SPECS = {
    "letkf_serial_64": OSSESpec(1, 64, "letkf", True, False, 20, 0.03, 0.3),
    "ensf_serial_64": OSSESpec(2, 64, "ensf", False, False, 20, 1.0, 1.5),
    # A 128x128 model step costs 4x a 64x64 one; the shorter catalogue run
    # keeps this workload's input generation near 4 s.
    "letkf_pool_128": OSSESpec(
        3, 128, "letkf", True, True, 8, 0.03, 0.3,
        spinup_steps=300, snapshot_gap=20, serial_prefix=3,
    ),
}


@dataclass
class Inputs:
    truth0: np.ndarray
    ensemble: np.ndarray
    osse_seed: int
    filter_seed: int


@dataclass
class System:
    """Everything ``run_osse`` is handed, freshly built for one pass."""

    truth_model: SQGModel
    forecast_model: SQGModel
    filter: object
    operator: IdentityObservation
    executor: EnsembleExecutor | None
    geometry_build_s: float
    pool_spawn_s: float

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()


@dataclass
class Pass:
    """One run: the engine's per-cycle records and the boundary stamps."""

    records: list
    first_cycle_s: float
    steady_s: np.ndarray  # wall time of cycles 1..n-1

    @property
    def cycles_per_s(self) -> float:
        return len(self.steady_s) / float(self.steady_s.sum())

    @property
    def cycle_p50_s(self) -> float:
        return float(np.median(self.steady_s))

    def history(self, n: int | None = None) -> np.ndarray:
        """(cycles, 3): forecast RMSE, analysis RMSE, analysis spread."""
        return np.array(
            [(r.forecast_rmse, r.analysis_rmse, r.analysis_spread) for r in self.records[:n]]
        )


def generate(spec: OSSESpec, seed: int, grid: int) -> Inputs:
    spinup_seed, osse_seed, filter_seed = derive_seeds(seed, spec.stream, 3)
    model = SQGModel(SQGParameters(nx=grid, ny=grid))
    truth0, ensemble = climatological_inputs(
        model, spinup_seed, spec.sigma0, spec.spinup_steps, spec.snapshot_gap
    )
    return Inputs(truth0, ensemble, osse_seed, filter_seed)


def build(spec: OSSESpec, inputs: Inputs, grid: int, pooled: bool) -> System:
    """Models, operator, filter (geometry prebuilt) and, if asked, the pool.

    Truth and ensemble get a model instance each, in every pass, so the
    traced pass can tell the two apart without changing what runs.
    """
    params = SQGParameters(nx=grid, ny=grid)
    truth_model, forecast_model = SQGModel(params), SQGModel(params)
    operator = IdentityObservation(truth_model.state_size, obs_error_var=1.0)
    geometry_build_s = 0.0
    if spec.filter == "letkf":
        filter_ = LETKF(truth_model.grid, LETKFConfig())
        geometry_start = time.perf_counter()
        filter_.geometry(operator)
        geometry_build_s = time.perf_counter() - geometry_start
    else:
        filter_ = EnSF(EnSFConfig(n_sde_steps=N_SDE_STEPS), rng=inputs.filter_seed)
    executor, pool_spawn_s = None, 0.0
    if pooled:
        spawn_start = time.perf_counter()
        executor = EnsembleExecutor(n_workers=POOL_WORKERS)
        executor.map_blocks(abs, [0, 1])  # the pool is created on first use
        pool_spawn_s = time.perf_counter() - spawn_start
    return System(
        truth_model, forecast_model, filter_, operator, executor, geometry_build_s, pool_spawn_s
    )


def run_pass(
    spec: OSSESpec, inputs: Inputs, system: System, seconds: float, min_cycles: int,
    workdir: Path, tracer: Tracer | None = None,
) -> Pass:
    """One ``run_osse`` call, stamped at every cycle boundary.

    The stamps come from the public ``preempt`` hook, which the engine polls
    once per completed cycle.  The hook asks for the preemption that ends
    the run once ``min_cycles`` cycles are done and ``seconds`` have passed
    since the end of cycle 0; ``checkpoint_every`` is larger than the run,
    so the only checkpoint written is that final one, after the last stamp,
    and the per-cycle records are read back from it.
    """
    stamps: list[float] = []
    root: list[int] = []
    if tracer is not None:
        tracer.wrap(system.truth_model, "forecast", "truth")
        tracer.wrap(system.operator, "observe", "observe")
        tracer.wrap(system.filter, "analyze_parallel", "analysis")
        if system.executor is None:
            # run_osse advances an in-process ensemble through forecast_device.
            tracer.wrap(system.forecast_model, "forecast_device", "forecast")
        else:
            tracer.wrap(system.executor, "map_states", "forecast")
            tracer.wrap(system.executor, "map_blocks", "map_blocks")

    def boundary() -> bool:
        now = time.perf_counter()
        stamps.append(now)
        done = len(stamps) >= min_cycles and now - stamps[0] >= seconds
        if tracer is not None:
            tracer.end(root.pop(), now)
            if not done:
                root.append(tracer.begin("cycle", f"cycle-{len(stamps)}", now))
        return done

    config = OSSEConfig(
        n_cycles=CYCLE_CAP,
        steps_per_cycle=STEPS_PER_CYCLE,
        ensemble_size=N_MEMBERS,
        seed=inputs.osse_seed,
        apply_model_error_to_truth=not spec.perfect_model,
    )
    checkpoint = workdir / "final.ckpt"
    start = time.perf_counter()
    if tracer is not None:
        root.append(tracer.begin("cycle", "cycle-0", start))
    try:
        run_osse(
            system.truth_model,
            system.forecast_model,
            system.filter,
            system.operator,
            inputs.truth0,
            config,
            initial_ensemble=inputs.ensemble,
            executor=system.executor,
            preempt=boundary,
            checkpoint_every=CYCLE_CAP + 1,
            checkpoint_path=checkpoint,
        )
    except EnginePreempted:
        pass
    records = EngineCheckpoint.load(checkpoint).records
    checkpoint.unlink()
    if len(records) != len(stamps):
        raise RuntimeError(f"{len(stamps)} cycle boundaries but {len(records)} records")
    return Pass(records, stamps[0] - start, np.diff(stamps))


def failed_cycles(passed: Pass) -> int:
    """Cycles that were not assimilated cleanly, by the engine's own record."""
    return sum(
        not r.observed
        or r.deadline_skipped
        or r.qc_rejected > 0
        or not np.isfinite([r.forecast_rmse, r.analysis_rmse, r.analysis_spread]).all()
        for r in passed.records
    )


def mean_rmse(passed: Pass, column: int, n_cycles: int) -> float:
    """Mean over the first ``n_cycles`` cycles less the first tenth, which is
    ``CyclingResult.mean_analysis_rmse`` of a run of that length."""
    skip = max(1, n_cycles // 10)
    return float(passed.history(n_cycles)[skip:, column].mean())


def health_checks(spec: OSSESpec, passed: Pass, n_cycles: int) -> dict[str, bool]:
    checks = {"rmse_below_limit": mean_rmse(passed, 1, n_cycles) < spec.rmse_limit}
    if spec.filter == "letkf":
        last = passed.records[-1]
        checks["spread_matches_rmse"] = 0.3 <= last.analysis_spread / last.analysis_rmse <= 3.0
    else:
        checks["analysis_beats_forecast"] = mean_rmse(passed, 1, n_cycles) < mean_rmse(
            passed, 0, n_cycles
        )
    return checks


def same_prefix(a: Pass, b: Pass) -> bool:
    n = min(len(a.records), len(b.records))
    return bool(np.array_equal(a.history(n), b.history(n)))


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, ctx) -> dict:
    """Set up, run and check one OSSE workload; see ``run.py`` for ``ctx``."""
    spec = SPECS[name]
    grid = SMOKE_GRID if smoke else spec.grid
    window = SMOKE_CYCLES if smoke else spec.window
    serial_prefix = spec.serial_prefix
    if trace:
        # Two passes in the time of one.  The traced run reports no RMSE, so
        # it need not complete the window; its serial re-run gets one more
        # cycle, for three steady samples of the serial layer times.
        seconds, window = seconds / 2, min(window, TRACED_MIN_CYCLES)
        if serial_prefix:
            serial_prefix += 1
    if smoke:
        seconds = 0.0

    # Input generation is most of the set-up and a single 2-4 s shot of it
    # moved by half from run to run, so the whole set-up is made three times.
    systems: list[System] = []
    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        if systems:
            systems[-1].close()
        setup_start = time.perf_counter()
        inputs = generate(spec, seed, grid)
        systems.append(build(spec, inputs, grid, spec.pooled))
        setups.append(time.perf_counter() - setup_start)
    system = systems[-1]
    setup_s = ctx.import_s + statistics.median(setups)

    checks: dict[str, bool] = {}
    tracer = untraced = None
    try:
        timed = run_pass(spec, inputs, system, seconds, window, ctx.workdir)
        if trace:
            untraced = timed
            system.close()
            system = build(spec, inputs, grid, spec.pooled)
            tracer = Tracer()
            timed = run_pass(spec, inputs, system, seconds, window, ctx.workdir, tracer)
            checks["traced_equals_untraced"] = same_prefix(timed, untraced)
        retries = 0 if system.executor is None else len(system.executor.fault_log)
    finally:
        system.close()
    peak_rss_mb = ctx.peak_rss_mb()  # before the serial re-run below raises it

    checks.update(health_checks(spec, timed, window))
    # An untouched serial system: the reference the pooled run must equal,
    # and what the direct-call probes of the traced run are made on.
    reference = build(spec, inputs, grid, pooled=False) if serial_prefix or trace else None
    serial = serial_tracer = None
    if serial_prefix:
        serial_tracer = Tracer() if trace else None
        serial = run_pass(spec, inputs, reference, 0.0, serial_prefix, ctx.workdir, serial_tracer)
        checks["pool_equals_serial"] = same_prefix(timed, serial)

    samples = {"cycle_p50_s": len(timed.steady_s), "rmse_window_cycles": window}
    if not trace:
        # The job metrics read a lone OSSE as a campaign of one job of
        # ``window`` cycles: set-up, the cold cycle and the rest of the window
        # at the rate of the whole run (steadier than its first few seconds).
        solution_s = setup_s + timed.first_cycle_s + (window - 1) / timed.cycles_per_s
        metrics = {
            "cycles_per_s": timed.cycles_per_s,
            "cycle_p50_s": timed.cycle_p50_s,
            "analysis_rmse": mean_rmse(timed, 1, window),
            "jobs_per_min": 60.0 / solution_s,
            "hi_prio_turnaround_p50_s": solution_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
    else:
        metrics = layer_metrics(spec, grid, reference, systems, timed, untraced, tracer)
        if spec.pooled:
            metrics.update(
                pool_metrics(grid, reference, systems, timed, tracer, serial, serial_tracer)
            )
            metrics["hpc.ensemble_parallel.retries"] = float(retries)
        metrics.update(probes.import_metrics(ctx.src, reps=1 if smoke else 3))
        shares = sum(metrics.get(name, 0.0) for name in SPAN_SHARES)
        checks["shares_sum_to_one"] = abs(shares - 1.0) <= 0.02
        samples["cycle_p90_s"] = len(timed.steady_s)
        if ctx.trace_out is not None:
            tracer.write_jsonl(ctx.trace_out)
    return {
        "metrics": metrics, "checks": checks, "samples": samples,
        "failed": failed_cycles(timed) + sum(not ok for ok in checks.values()),
        "attempted": len(timed.records) + len(checks),
    }


def cycle_breakdown(tracer: Tracer) -> tuple[dict[str, list[float]], float]:
    """Per steady cycle, the time under each child span and the cycle's own."""
    cycles = [s for s in tracer.finished("cycle") if s["trace"] != "cycle-0"]
    per_cycle: dict[str, list[float]] = {}
    for cycle in cycles:
        by_name = {"self": tracer.self_time(cycle)}
        for child in tracer.children(cycle["id"]):
            by_name[child["name"]] = by_name.get(child["name"], 0.0) + child["end"] - child["start"]
        for child_name, value in by_name.items():
            per_cycle.setdefault(child_name, []).append(value)
    return per_cycle, sum(s["end"] - s["start"] for s in cycles)


def layer_metrics(
    spec: OSSESpec, grid: int, reference: System, systems: list[System],
    timed: Pass, untraced: Pass, tracer: Tracer,
) -> dict[str, float]:
    """Per-layer figures of one traced pass: span statistics plus probes."""
    per_cycle, total = cycle_breakdown(tracer)

    def p50(child: str) -> float:
        return float(np.median(per_cycle[child]))

    def share(child: str) -> float:
        return sum(per_cycle[child]) / total

    n_columns = grid * grid
    analysis = "da.letkf" if spec.filter == "letkf" else "core.ensf"
    out = {
        "models.sqg.forecast_p50_s": p50("forecast"),
        "models.sqg.forecast_share": share("forecast"),
        "models.sqg.member_steps_per_s": N_MEMBERS * STEPS_PER_CYCLE / p50("forecast"),
        "models.sqg.truth_p50_s": p50("truth"),
        "models.sqg.truth_share": share("truth"),
        "utils.fft.roundtrip_ms": probes.fft_roundtrip_ms(reference.truth_model, N_MEMBERS),
        f"{analysis}.analysis_p50_s": p50("analysis"),
        f"{analysis}.analysis_share": share("analysis"),
        "core.observations.observe_p50_s": p50("observe"),
        "core.observations.observe_share": share("observe"),
        "workflow.engine.self_p50_s": p50("self"),
        "workflow.engine.self_share": share("self"),
        "workflow.engine.first_cycle_s": timed.first_cycle_s,
        "workflow.engine.cycle_p90_s": float(np.percentile(timed.steady_s, 90)),
        "bench.trace_overhead_pct": 100.0 * (timed.cycle_p50_s / untraced.cycle_p50_s - 1.0),
    }
    if spec.filter == "letkf":
        out["da.letkf.columns_per_s"] = n_columns / p50("analysis")
        out["da.localization.geometry_build_s"] = statistics.median(
            s.geometry_build_s for s in systems
        )
        if not spec.pooled:  # pool_metrics sets them against the serial analysis
            eigh_ms = probes.stacked_eigh_ms(reference.filter.xp, n_columns, N_MEMBERS, reps=3)
            out["utils.xp.stacked_eigh_ms"] = eigh_ms
            out["da.letkf.eigh_share"] = eigh_ms / 1e3 / p50("analysis")
    else:
        dim = 2 * n_columns
        score_ms = probes.score_into_ms(N_MEMBERS, dim)
        draw_ms = probes.normal_draw_ms(N_MEMBERS, dim)
        out["core.ensf.sde_member_steps_per_s"] = N_MEMBERS * N_SDE_STEPS / p50("analysis")
        out["core.score.score_into_ms"] = score_ms
        out["utils.random.normal_draw_ms"] = draw_ms
        # One score evaluation and one noise draw per reverse-SDE step.
        out["core.score.score_share"] = N_SDE_STEPS * score_ms / 1e3 / p50("analysis")
        out["utils.random.rng_share"] = N_SDE_STEPS * draw_ms / 1e3 / p50("analysis")
    return out


def pool_metrics(
    grid: int, reference: System, systems: list[System], timed: Pass, tracer: Tracer,
    serial: Pass, serial_tracer: Tracer,
) -> dict[str, float]:
    """What the pool buys: the traced pooled cycles against the traced
    serial re-run of the same inputs, layer by layer."""
    pooled_layers, _ = cycle_breakdown(tracer)
    serial_layers, _ = cycle_breakdown(serial_tracer)

    def speedup(layer: str) -> float:
        return float(np.median(serial_layers[layer]) / np.median(pooled_layers[layer]))

    serial_analysis_s = float(np.median(serial_layers["analysis"]))
    eigh_ms = probes.stacked_eigh_ms(reference.filter.xp, grid * grid, N_MEMBERS, reps=2)
    with EnsembleExecutor(n_workers=POOL_WORKERS) as executor:
        rtt_ms = probes.map_blocks_rtt_ms(executor)
    return {
        "hpc.ensemble_parallel.pool_spawn_s": statistics.median(s.pool_spawn_s for s in systems),
        "hpc.ensemble_parallel.map_blocks_rtt_ms": rtt_ms,
        "hpc.ensemble_parallel.forecast_speedup": speedup("forecast"),
        "hpc.ensemble_parallel.analysis_speedup": speedup("analysis"),
        "hpc.ensemble_parallel.parallel_efficiency": serial.cycle_p50_s
        / (POOL_WORKERS * timed.cycle_p50_s),
        "hpc.shm.roundtrip_ms": probes.shm_roundtrip_ms(N_MEMBERS, reference.truth_model.state_size),
        "utils.xp.stacked_eigh_ms": eigh_ms,
        # The eigensolve against a whole serial analysis of the same grid.
        "da.letkf.eigh_share": eigh_ms / 1e3 / serial_analysis_s,
    }
