"""Analysis-kernel throughput benchmark: batched LETKF and fused EnSF.

Records steady-state wall time and determinism of the vectorized analysis
kernels and persists the record to ``BENCH_kernels.json`` at the repository
root.  The pre-refactor reference implementations this file used to race
against (``LETKF.analyze_reference``, the ``fused=False`` EnSF
configuration) are **retired** (ROADMAP "reference-path retirement"); the
historical speedups they certified — ≥5× for the batched LETKF at 64×64,
≥2× for the fused EnSF analysis — are frozen in the pre-retirement
``BENCH_kernels.json`` history and in CHANGES.md.  What remains asserted
on every refresh is what current code can still prove:

* geometry-cache amortization — the first batched LETKF analysis pays the
  geometry build; steady-state cycles must be measurably cheaper;
* repeat determinism — re-running an analysis through the cached
  geometry/workspaces must be bit-identical;
* EnSF seeded reproducibility — two identically-seeded analyses must match
  bit for bit — and the coupled-equivalence residual of the ensemble-space
  reverse-SDE integrator against the full-space loop (same recorded noise,
  projected) stays at rounding level.

Record layout (see :func:`repro.utils.write_bench_json` for the generic format)::

    {
      "benchmark": "analysis-kernels",
      "letkf": {grid, members, n_obs, cutoff_m, first_call_s, optimized_s,
                geometry_build_s, cache_amortization, max_repeat_delta},
      "letkf_stride_curve": {grid, members, cycles, cutoff_m, derived_stride,
                             rows: [ {stride, spacing_over_cutoff,
                             mean_analysis_rmse, analysis_s} ... ], note},
      "assembly_block_curve": {members, calls, selected, host, note,
                               rows: [ {grid, channels, derived_block,
                               candidates: [ {budget_mib, block, derived,
                               workspace_mib, assembly_ms: {q1, median, q3}}
                               ... ]} ... ]},
      "ensf":  {grid, members, sampler, n_sde_steps, optimized_s,
                coupled_residual, max_repeat_delta},
      "ensf_cases": [ ...one row per (grid, sampler mode)... ],
      "ensf_paths": {grid, members, n_sde_steps, ensemble_space_s,
                     full_space_s, speedup, note}
    }

EnSF is benchmarked in both sampler modes; the headline ``"ensf"`` entry is
the fastest case, every case is recorded in ``"ensf_cases"``.
``"ensf_paths"`` is the 64×64, 20-member, 100-step analysis on both
reverse-SDE paths (the configuration of the e2e ``ensf_serial_64`` workload).
"""

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import repro.da.letkf as letkf_mod
import repro.da.localization as loc_mod
from benchmarks.e2e.inputs import climatological_inputs
from benchmarks.test_bench_forecast import _host_record
from repro.core.ensf import EnSF, EnSFConfig, _ScaledOperator, _StateScaler
from repro.core.observations import IdentityObservation
from repro.da.cycling import OSSEConfig, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.da.localization import LocalizationConfig, analysis_stride
from repro.models.sqg import SQGModel, SQGParameters
from repro.utils.grid import Grid2D
from repro.utils import best_of, write_bench_json

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_kernels.json"

N_MEMBERS = 20
LETKF_GRID = (64, 64)
LETKF_STRIDES = (1, 2, 4, 8)
LETKF_STRIDE_CYCLES = 60
ASSEMBLY_GRIDS = (32, 64, 128)
ASSEMBLY_BUDGETS_MIB = (0.5, 1, 2, 4, 8, 16, None)  # None: every channel in one block
ASSEMBLY_CALLS = 21
ENSF_GRIDS = ((16, 16), (32, 32), (64, 64))
ENSF_PATHS_GRID = (64, 64)


def _rmse(ensemble, truth):
    return float(np.sqrt(np.mean((ensemble.mean(axis=0) - truth) ** 2)))


def _letkf_case():
    """64×64 fully observed SQG-like case with the paper's tuned localization."""
    grid = Grid2D(*LETKF_GRID)
    rng = np.random.default_rng(2024)
    ensemble = rng.standard_normal((N_MEMBERS, grid.size))
    truth = rng.standard_normal(grid.size)
    operator = IdentityObservation(grid.size, 1.0)
    observation = operator.observe(truth, rng=rng)
    config = LETKFConfig(localization=LocalizationConfig(cutoff=2.0e6, min_weight=0.0))
    return grid, ensemble, truth, operator, observation, config


def _bench_letkf():
    grid, ensemble, truth, operator, observation, config = _letkf_case()
    letkf = LETKF(grid, config)

    # First batched call builds and caches the geometry; steady-state cycles
    # (what an OSSE pays per analysis) reuse it.
    build_start = time.perf_counter()
    first = letkf.analyze(ensemble, observation, operator)
    t_first = time.perf_counter() - build_start
    t_new, new = best_of(lambda: letkf.analyze(ensemble, observation, operator))

    return {
        "grid": list(LETKF_GRID),
        "members": N_MEMBERS,
        "n_obs": int(operator.obs_dim),
        "cutoff_m": config.localization.cutoff,
        "first_call_s": t_first,
        "optimized_s": t_new,
        "geometry_build_s": t_first - t_new,
        # how much of the first call was one-time geometry build — the
        # amortization steady-state cycles enjoy
        "cache_amortization": t_first / t_new,
        "analysis_rmse": _rmse(new, truth),
        "max_repeat_delta": float(np.abs(first - new).max()),
    }


def _bench_letkf_stride_curve():
    """Accuracy against the analysis-grid stride, as a curve.

    The 64×64 perfect-model SQG OSSE of the e2e ``letkf_serial_64`` workload
    (climatological initial ensemble, 20 members, R = I), cycled at forced
    strides.  The stride has no public knob: each run moves the spacing
    bound of :func:`repro.da.localization.analysis_stride` so that the rule
    picks the wanted stride, and restores it.
    """
    model = SQGModel(SQGParameters(nx=LETKF_GRID[1], ny=LETKF_GRID[0]))
    grid = model.grid
    truth0, ensemble = climatological_inputs(model, spinup_seed=7, sigma0=0.03)
    operator = IdentityObservation(model.state_size, obs_error_var=1.0)
    config = OSSEConfig(
        n_cycles=LETKF_STRIDE_CYCLES, steps_per_cycle=4, ensemble_size=N_MEMBERS, seed=7,
        apply_model_error_to_truth=False,
    )
    cutoff = LocalizationConfig().cutoff
    rows = []
    for stride in LETKF_STRIDES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(loc_mod, "_SPACING_FRACTION", (stride + 0.5) * grid.dx / cutoff)
            letkf = LETKF(grid, LETKFConfig())
            assert letkf.geometry(operator).stride == stride
            result = run_osse(
                model, model, letkf, operator, truth0, config, initial_ensemble=ensemble
            )
        rows.append(
            {
                "stride": stride,
                "spacing_over_cutoff": stride * grid.dx / cutoff,
                "mean_analysis_rmse": result.mean_analysis_rmse,
                "analysis_s": float(np.median([r.analysis_s for r in result.records])),
            }
        )
    return {
        "grid": list(LETKF_GRID),
        "members": N_MEMBERS,
        "cycles": LETKF_STRIDE_CYCLES,
        "cutoff_m": cutoff,
        "derived_stride": analysis_stride(grid, cutoff),
        "rows": rows,
        "note": (
            "weights solved on every stride-th row and column and interpolated "
            "bilinearly (Yang et al. 2009); the rule picks the largest common "
            "divisor with spacing <= 2/3 cutoff. analysis_s is the median "
            "in-process analysis per cycle on the recording host."
        ),
    }


def _bench_assembly_block_curve():
    """Where ``repro.da.letkf._ASSEMBLY_BYTES`` comes from.

    One 20-member convolution assembly (fully observed, the derived stride)
    per call, against the budget that sizes its channel blocks.  The budget
    has no public knob: each candidate gets its own ``LETKF`` whose workspace
    is built while the constant is moved to the candidate (and restored);
    all share one geometry.  Within a repeat every candidate runs once, in
    an order that alternates between repeats, so drift of the host hits all
    candidates alike.
    """
    rng = np.random.default_rng(11)
    rows = []
    for n in ASSEMBLY_GRIDS:
        grid = Grid2D(n, n)
        operator = IdentityObservation(grid.size, 1.0)
        geometry = LETKF(grid).geometry(operator)
        y_pert = rng.standard_normal((N_MEMBERS, grid.size))
        innovation = rng.standard_normal(grid.size)
        runs = {}
        for budget in ASSEMBLY_BUDGETS_MIB:
            letkf = LETKF(grid)
            with pytest.MonkeyPatch.context() as patch:
                bytes_ = math.inf if budget is None else int(budget * 2**20)
                patch.setattr(letkf_mod, "_ASSEMBLY_BYTES", bytes_)
                runs[budget] = (letkf, letkf._assembly_workspace(N_MEMBERS), [])
        expected = None
        for call in range(ASSEMBLY_CALLS + 1):  # call 0 warms the workspaces
            order = ASSEMBLY_BUDGETS_MIB if call % 2 else ASSEMBLY_BUDGETS_MIB[::-1]
            for budget in order:
                letkf, _, times = runs[budget]
                start = time.perf_counter()
                conv = letkf._convolution_channels(y_pert, innovation, geometry, N_MEMBERS)
                if call:
                    times.append(time.perf_counter() - start)
                if expected is None:
                    expected = conv
                assert np.array_equal(conv, expected)  # any block, the same bits
        n_channels = N_MEMBERS * (N_MEMBERS + 3) // 2
        derived = letkf_mod._assembly_block(n_channels, n, n)
        candidates = []
        for budget, (_, workspace, times) in runs.items():
            buffers = (workspace.channels, workspace.spectrum, workspace.scratch)
            quartiles = (1e3 * t for t in statistics.quantiles(times, n=4))
            candidates.append(
                {
                    "budget_mib": budget,
                    "block": len(workspace.channels),
                    "derived": budget is not None
                    and budget * 2**20 == letkf_mod._ASSEMBLY_BYTES,
                    "workspace_mib": sum(b.nbytes for b in buffers) / 2**20,
                    "assembly_ms": dict(zip(("q1", "median", "q3"), quartiles)),
                }
            )
        rows.append(
            {"grid": [n, n], "channels": n_channels, "derived_block": derived,
             "candidates": candidates}
        )
    return {
        "members": N_MEMBERS,
        "calls": ASSEMBLY_CALLS,
        "selected": letkf_mod._ASSEMBLY_BYTES,
        "host": _host_record(),
        "rows": rows,
        "note": (
            "the assembly runs products, rfft2, kernel, fold and irfft2 one "
            "contiguous block of channels at a time, as many as fit with their "
            "spectrum in the budget (budget_mib null: every channel in one "
            "block); every block gives the same bits. workspace_mib is the "
            "block's channels, spectrum and product scratch; assembly_ms is "
            "the median and quartiles over the calls on the recording host."
        ),
    }


def _ensf_problem(shape):
    grid = Grid2D(*shape)
    rng = np.random.default_rng(7)
    ensemble = rng.standard_normal((N_MEMBERS, grid.size)) * 3.0
    truth = rng.standard_normal(grid.size) * 3.0
    operator = IdentityObservation(grid.size, 1.0)
    return ensemble, truth, operator, operator.observe(truth, rng=rng)


class _Replay:
    """Serves recorded noise blocks through ``standard_normal(out=)``."""

    def __init__(self, blocks):
        self.blocks = iter(blocks)

    def standard_normal(self, size=None, out=None):
        out[...] = next(self.blocks)
        return out


def _coupled_residual(filt, ensemble, observation, operator, n_samples=4):
    """Max |Δ| between the full-space Euler loop on recorded noise and the
    ensemble-space recursion on that noise's projections ``ξ_s Xᵀ``."""
    sampler, config = filt.sampler, filt.config
    scaler = _StateScaler(ensemble)
    x = scaler.forward(ensemble)
    work_operator = _ScaledOperator(operator, scaler, config.scaled_obs_var_floor)
    y = work_operator.scale_observation(observation)
    xi = np.random.default_rng(11).standard_normal(
        (sampler.n_steps + 1, n_samples, ensemble.shape[1])
    )
    grid = sampler.schedule.time_grid(
        sampler.n_steps, t_end=sampler.t_end, t_start=sampler.t_start
    )
    full = sampler._integrate_buffered(
        filt.posterior_score_fn(x, y, work_operator), xi[0].copy(), grid, _Replay(xi[1:]), None
    )
    coef = sampler._closure_coefficients(float(1.0 / work_operator.obs_error_var[0]), config.damping)
    blocks = xi if sampler.stochastic else xi[:1]
    coefs, ybar, _, _ = sampler._integrate_closure(
        (x @ x.T)[None], x @ y, np.einsum("bnd,md->nbm", blocks, x)[None], coef
    )
    accumulated = xi[0].copy()
    for i in range(sampler.n_steps):
        accumulated = coef.c_z[0, i] * accumulated + coef.c_n[i] * xi[i + 1]
    return float(np.abs(coefs[0] @ x + ybar * y + accumulated - full).max())


def _bench_ensf_case(shape, stochastic):
    ensemble, truth, operator, observation = _ensf_problem(shape)

    def run(seed):
        filt = EnSF(EnSFConfig(stochastic_sampler=stochastic), rng=seed)
        analysis = filt.analyze(ensemble, observation, operator)
        return filt, analysis

    t_a, (filt_a, a) = best_of(lambda: run(seed=2024), repeats=5)
    t_b, (_, b) = best_of(lambda: run(seed=2024), repeats=5)

    return {
        "grid": list(shape),
        "members": N_MEMBERS,
        "sampler": "reverse-sde" if stochastic else "probability-flow-ode",
        "n_sde_steps": EnSFConfig().n_sde_steps,
        "optimized_s": min(t_a, t_b),
        "coupled_residual": _coupled_residual(filt_a, ensemble, observation, operator),
        "analysis_rmse": _rmse(a, truth),
        "max_repeat_delta": float(np.abs(a - b).max()),
    }


def _bench_ensf_paths():
    """One 64×64, 20-member, 100-step EnSF analysis on each reverse-SDE path.

    The identity operator with uniform R takes the ensemble-space
    integrator; perturbing one entry of R makes it non-uniform, which is
    the dispatch condition for the full-space loop — same operator class,
    same ensemble, same step count.
    """
    ensemble, truth, operator, observation = _ensf_problem(ENSF_PATHS_GRID)
    obs_var = np.ones(operator.state_dim)
    obs_var[0] += 1.0e-9
    fallback = IdentityObservation(operator.state_dim, obs_var)
    config = EnSFConfig()

    t_new, new = best_of(
        lambda: EnSF(config, rng=2024).analyze(ensemble, observation, operator), repeats=5
    )
    t_full, full = best_of(
        lambda: EnSF(config, rng=2024).analyze(ensemble, observation, fallback), repeats=3
    )
    return {
        "grid": list(ENSF_PATHS_GRID),
        "members": N_MEMBERS,
        "n_sde_steps": config.n_sde_steps,
        "ensemble_space_s": t_new,
        "full_space_s": t_full,
        "speedup": t_full / t_new,
        "ensemble_space_rmse": _rmse(new, truth),
        "full_space_rmse": _rmse(full, truth),
        "note": (
            "same discretisation and output law, different draws: the "
            "ensemble-space path costs O(M^2 d + n_steps n M^2), the "
            "full-space loop O(n_steps n M d); full_space_s is the loop "
            "every EnSF analysis ran before the ensemble-space integrator "
            "(here with the broadcast multiply of a non-uniform R, which is "
            "what forces it) and what nonlinear operators, non-uniform R "
            "and minibatched scores still pay"
        ),
    }


@pytest.fixture(scope="module")
def kernel_record():
    letkf = _bench_letkf()
    letkf_stride_curve = _bench_letkf_stride_curve()
    assembly_block_curve = _bench_assembly_block_curve()
    cases = [
        _bench_ensf_case(shape, stochastic)
        for shape in ENSF_GRIDS
        for stochastic in (True, False)
    ]
    ensf = min(cases, key=lambda row: row["optimized_s"])
    ensf_paths = _bench_ensf_paths()
    from repro.utils.xp import default_backend_name

    return write_bench_json(
        RECORD_PATH,
        benchmark="analysis-kernels",
        array_backend=default_backend_name(),
        letkf=letkf,
        letkf_stride_curve=letkf_stride_curve,
        assembly_block_curve=assembly_block_curve,
        ensf=ensf,
        ensf_cases=cases,
        ensf_paths=ensf_paths,
    )


def test_letkf_batched_steady_state(kernel_record, report):
    row = kernel_record["letkf"]
    report(
        "LETKF batched analysis kernel (64x64, M=20)",
        [f"{k}: {v}" for k, v in row.items()],
    )
    # Repeat analyses through the cached geometry are bit-identical, and the
    # one-time geometry build makes the first call measurably more expensive
    # than steady-state cycles.  (The historical 1.2 floor no longer holds on
    # the recorded single-CPU host — the batched solve got faster relative to
    # the geometry build — so the floor asserts amortization exists, not a
    # host-dependent magnitude.)
    assert row["max_repeat_delta"] == 0.0
    assert row["cache_amortization"] >= 1.05


def test_letkf_stride_accuracy_curve(kernel_record, report):
    curve = kernel_record["letkf_stride_curve"]
    rmse = {row["stride"]: row["mean_analysis_rmse"] for row in curve["rows"]}
    report(
        f"LETKF analysis-grid stride ({curve['grid'][0]}x{curve['grid'][1]}, "
        f"M={curve['members']}, {curve['cycles']} cycles; rule picks {curve['derived_stride']})",
        [
            f"stride {row['stride']} (spacing {row['spacing_over_cutoff']:.2f} cutoff): "
            f"rmse {row['mean_analysis_rmse']:.5f}, analysis {row['analysis_s']:.4f}s"
            for row in curve["rows"]
        ],
    )
    # The derived stride costs no accuracy, and the rule stops short of a
    # spacing beyond the cut-off (stride 8 at 64x64 is 1.25 cutoff).
    assert curve["derived_stride"] == 4
    assert abs(rmse[4] / rmse[1] - 1.0) < 0.03
    spacing = {row["stride"]: row["spacing_over_cutoff"] for row in curve["rows"]}
    assert spacing[8] > 1.0 and spacing[curve["derived_stride"]] <= 2.0 / 3.0
    assert curve["note"]


def test_assembly_block_curve_backs_the_constant(kernel_record, report):
    curve = kernel_record["assembly_block_curve"]
    for row in curve["rows"]:
        timing = {c["budget_mib"]: c["assembly_ms"] for c in row["candidates"]}
        labels = {b: "unblocked" if b is None else f"{b} MiB" for b in timing}
        report(
            f"LETKF assembly at {row['grid'][0]}x{row['grid'][1]}, M={curve['members']} "
            f"(derived block {row['derived_block']} of {row['channels']} channels)",
            [
                f"budget {labels[c['budget_mib']]:>9}: block {c['block']:3d}, "
                f"workspace {c['workspace_mib']:6.1f} MiB, {c['assembly_ms']['median']:6.1f} ms "
                f"[{c['assembly_ms']['q1']:6.1f}, {c['assembly_ms']['q3']:6.1f}]"
                + ("  <- derived" if c["derived"] else "")
                for c in row["candidates"]
            ],
        )
        (derived,) = [c for c in row["candidates"] if c["derived"]]
        assert derived["block"] == row["derived_block"]
        for t in timing.values():
            assert t["q1"] <= t["median"] <= t["q3"]
        # No slower than the unblocked assembly beyond the host's spread.
        assert derived["assembly_ms"]["median"] <= 1.2 * timing[None]["median"]
    assert curve["selected"] == letkf_mod._ASSEMBLY_BYTES and curve["host"]


def test_ensf_fused_reproducibility(kernel_record, report):
    rows = kernel_record["ensf_cases"]
    report(
        "EnSF fused analysis kernel (M=20)",
        [
            f"{row['grid'][0]}x{row['grid'][1]} {row['sampler']}: "
            f"{row['optimized_s']:.4f}s (repeat delta {row['max_repeat_delta']:.1e}, "
            f"coupled residual {row['coupled_residual']:.1e})"
            for row in rows
        ],
    )
    for row in rows:
        assert row["coupled_residual"] < 1.0e-12
        assert row["max_repeat_delta"] == 0.0
        assert np.isfinite(row["analysis_rmse"])


def test_ensf_ensemble_space_speedup(kernel_record, report):
    row = kernel_record["ensf_paths"]
    report(
        f"EnSF analysis paths ({row['grid'][0]}x{row['grid'][1]}, M={row['members']}, "
        f"{row['n_sde_steps']} steps)",
        [
            f"ensemble space {row['ensemble_space_s']:.4f}s vs full space "
            f"{row['full_space_s']:.4f}s: {row['speedup']:.1f}x "
            f"(rmse {row['ensemble_space_rmse']:.3f} / {row['full_space_rmse']:.3f})"
        ],
    )
    assert row["speedup"] > 5.0
    assert abs(row["ensemble_space_rmse"] / row["full_space_rmse"] - 1.0) < 0.1
    assert row["note"]


def test_record_written(kernel_record):
    payload = json.loads(RECORD_PATH.read_text())
    assert payload["benchmark"] == "analysis-kernels"
    assert payload["letkf"]["max_repeat_delta"] == 0.0
    assert payload["ensf"]["max_repeat_delta"] == 0.0
