"""Determinism and regression tests for the vectorized analysis kernels.

Reference-path retirement (ROADMAP): the pre-refactor reference
implementations (``LETKF.analyze_reference``,
``MonteCarloScoreEstimator.score_reference``, the ``fused=False`` /
``reuse_buffers=False`` configurations) are deleted from the source tree.
Exactness is certified without an oracle: every routed kernel must produce
results on the fixture-selected array backend that match the plain-numpy
backend bit for bit (and consume the host random stream identically), and
repeated evaluations through the persistent workspaces must not perturb a
single bit.  The whole-OSSE cross-backend certification lives in
``tests/unit/test_xp_backend.py``.
"""

import numpy as np
import pytest

import repro.utils.grid as grid_mod
from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import IdentityObservation, NonlinearObservation, SubsampledObservation
from repro.core.schedules import LinearAlphaSchedule
from repro.core.score import MonteCarloScoreEstimator
from repro.core.sde import ReverseSDESampler
from repro.da.cycling import OSSEConfig, run_osse
from repro.da.letkf import LETKF, LETKFConfig, solve_local_batch
from repro.da.localization import LocalAnalysisGeometry, LocalizationConfig
from repro.models.lorenz96 import Lorenz96
from repro.utils.grid import Grid2D
from repro.utils.random import default_rng
from repro.utils.timing import BenchRecorder


def _case(seed=0, shape=(16, 16), members=12, scale=1.0):
    grid = Grid2D(*shape)
    rng = np.random.default_rng(seed)
    ensemble = rng.standard_normal((members, grid.size)) * scale
    truth = rng.standard_normal(grid.size) * scale
    return grid, rng, ensemble, truth


class TestGridGeometry:
    def test_distance_stencil_matches_pairwise(self):
        grid = Grid2D(6, 5)
        coords = grid.point_coordinates()
        full = grid_mod.periodic_distance_matrix(coords, coords, grid.lx, grid.ly)
        stencil = grid.distance_stencil()
        cols = np.arange(grid.ny * grid.nx)
        via_stencil = grid.column_pair_distances(cols, cols, stencil=stencil)
        np.testing.assert_allclose(via_stencil, full, atol=1e-9)

    def test_column_pair_distances_subset(self):
        grid = Grid2D(8, 8)
        coords = grid.point_coordinates()
        cols = np.array([0, 5, 17, 63])
        obs = np.array([3, 9, 60])
        expected = grid_mod.periodic_distance_matrix(
            coords[cols], coords[obs], grid.lx, grid.ly
        )
        np.testing.assert_allclose(grid.column_pair_distances(cols, obs), expected, atol=1e-9)


class TestBatchedLETKFDeterminism:
    """Exactness certification without an oracle (reference-path retirement,
    ROADMAP): ``min_weight = 0`` exercises the convolution assembly (the
    identity operator takes its reshape fast path, the subsampled operator
    the bincount scatter), ``1e-4`` the grouped-footprint assembly, and the
    ``array_backend`` fixture re-runs every case under every registered
    array backend, asserted bit-identical to the plain-numpy baseline."""

    @pytest.mark.parametrize("min_weight", [0.0, 1.0e-4])
    @pytest.mark.parametrize(
        "operator_factory",
        [
            lambda d: IdentityObservation(d, 1.2),
            lambda d: SubsampledObservation.every_nth(d, 3, 0.7),
        ],
        ids=["identity", "subsampled"],
    )
    def test_batched_matches_numpy_baseline(
        self, operator_factory, min_weight, array_backend
    ):
        grid, rng, ensemble, truth = _case(seed=1)
        operator = operator_factory(grid.size)
        observation = operator.observe(truth, rng=rng)
        loc = LocalizationConfig(cutoff=4.0e6, min_weight=min_weight)
        letkf = LETKF(grid, LETKFConfig(localization=loc))
        assert letkf.xp is array_backend  # config backend=None → fixture default
        batched = letkf.analyze(ensemble, observation, operator)
        baseline = LETKF(grid, LETKFConfig(localization=loc, backend="numpy")).analyze(
            ensemble, observation, operator
        )
        np.testing.assert_array_equal(batched, baseline)
        # a second analysis through the same instance reuses the cached
        # geometry/workspaces — still bit-identical
        np.testing.assert_array_equal(
            letkf.analyze(ensemble, observation, operator), baseline
        )

    def test_empty_footprints_keep_prior(self):
        grid, rng, ensemble, truth = _case(seed=4)
        operator = SubsampledObservation.every_nth(grid.size, 7, 1.0)
        observation = operator.observe(truth, rng=rng)
        cfg = LETKFConfig(
            localization=LocalizationConfig(cutoff=grid.dx * 0.55, min_weight=1e-4),
            rtps_factor=0.0,
        )
        letkf = LETKF(grid, cfg)
        geometry = letkf.geometry(operator)
        assert geometry.empty_columns.size > 0
        batched = letkf.analyze(ensemble, observation, operator)
        # columns without local observations must keep the prior exactly
        col = int(geometry.empty_columns[0])
        state_idx = col + np.arange(grid.nlev) * (grid.ny * grid.nx)
        np.testing.assert_array_equal(batched[:, state_idx], ensemble[:, state_idx])


class TestShardedLETKF:
    """Column-sharded parallel analysis vs the serial batched kernel.

    The shard decomposition is fixed by ``shard_columns`` (never by the
    worker count), and every local problem is solved independently, so the
    sharded path must reproduce the serial batched kernel member-wise; the
    cross-worker-count bit-identity contract is exercised with real process
    pools in ``tests/unit/test_hpc.py``.  ``n_workers=1`` executors run the
    same shard jobs serially in-process, which keeps these cases cheap.
    """

    def _executor(self):
        from repro.hpc.ensemble_parallel import EnsembleExecutor

        return EnsembleExecutor(n_workers=1)

    @pytest.mark.parametrize("shard_columns", [1, 37, 64, 1000])
    def test_sharded_matches_serial_convolution(self, shard_columns):
        grid, rng, ensemble, truth = _case(seed=11)
        operator = IdentityObservation(grid.size, 1.2)
        observation = operator.observe(truth, rng=rng)
        cfg = LETKFConfig(
            localization=LocalizationConfig(cutoff=4.0e6), shard_columns=shard_columns
        )
        letkf = LETKF(grid, cfg)
        assert letkf.geometry(operator).mode == "convolution"
        serial = letkf.analyze(ensemble, observation, operator)
        sharded = letkf.analyze_parallel(
            ensemble, observation, operator, executor=self._executor()
        )
        np.testing.assert_allclose(sharded, serial, atol=1e-11, rtol=1e-11)

    @pytest.mark.parametrize("shard_columns", [50, 128])
    def test_sharded_matches_serial_grouped(self, shard_columns):
        grid, rng, ensemble, truth = _case(seed=12)
        var = 0.5 + rng.random(grid.size)
        operator = IdentityObservation(grid.size, var)
        observation = operator.observe(truth, rng=rng)
        cfg = LETKFConfig(
            localization=LocalizationConfig(cutoff=4.0e6), shard_columns=shard_columns
        )
        letkf = LETKF(grid, cfg)
        assert letkf.geometry(operator).mode == "grouped"
        serial = letkf.analyze(ensemble, observation, operator)
        sharded = letkf.analyze_parallel(
            ensemble, observation, operator, executor=self._executor()
        )
        np.testing.assert_allclose(sharded, serial, atol=1e-11, rtol=1e-11)

    def test_sharded_grouped_with_empty_footprints(self):
        grid, rng, ensemble, truth = _case(seed=13)
        operator = SubsampledObservation.every_nth(grid.size, 7, 1.0)
        observation = operator.observe(truth, rng=rng)
        cfg = LETKFConfig(
            localization=LocalizationConfig(cutoff=grid.dx * 0.55, min_weight=1e-4),
            rtps_factor=0.0,
            shard_columns=60,
        )
        letkf = LETKF(grid, cfg)
        assert letkf.geometry(operator).empty_columns.size > 0
        serial = letkf.analyze(ensemble, observation, operator)
        sharded = letkf.analyze_parallel(
            ensemble, observation, operator, executor=self._executor()
        )
        np.testing.assert_allclose(sharded, serial, atol=1e-11, rtol=1e-11)

    def test_sharded_without_executor_or_batching_falls_back(self):
        grid, rng, ensemble, truth = _case(seed=14)
        operator = IdentityObservation(grid.size, 1.0)
        observation = operator.observe(truth, rng=rng)
        letkf = LETKF(grid, LETKFConfig())
        np.testing.assert_array_equal(
            letkf.analyze_parallel(ensemble, observation, operator, executor=None),
            letkf.analyze(ensemble, observation, operator),
        )

    def test_geometry_column_block_roundtrip(self):
        grid = Grid2D(10, 8)
        obs_columns = np.arange(grid.ny * grid.nx)[::3]
        geometry = LocalAnalysisGeometry(
            grid,
            obs_columns,
            LocalizationConfig(cutoff=2.0e6, min_weight=1e-4),
            np.ones(obs_columns.size),
        )
        full_footprints = {
            int(col): group.obs_indices[i]
            for group in geometry.groups
            for i, col in enumerate(group.columns)
        }
        covered = []
        for start in range(0, geometry.n_columns, 25):
            block = geometry.column_block(start, min(start + 25, geometry.n_columns))
            assert block.mode == "grouped"
            for group in block.groups:
                assert group.columns.min() >= 0
                assert group.columns.max() < block.n_block_columns
                for i, col in enumerate(group.columns):
                    # remapping through obs_subset recovers the original footprint
                    np.testing.assert_array_equal(
                        block.obs_subset[group.obs_indices[i]],
                        full_footprints[int(col + block.start)],
                    )
                covered.extend((group.columns + block.start).tolist())
        expected = np.setdiff1d(np.arange(geometry.n_columns), geometry.empty_columns)
        assert np.array_equal(np.sort(covered), expected)
        with pytest.raises(ValueError):
            geometry.column_block(5, 3)


class TestBlockedEigh:
    """Blocked stacked-eigh solve path.

    Every local problem in the ``(B, m, m)`` stack is solved independently,
    so partitioning the stack into cache-sized eig batches (``eigh_block``)
    must be **bit-identical** to the monolithic solve for every block size
    and through every analysis path (serial convolution/grouped, sharded).
    The truncated rank-``r`` solve (``solve_rank``) is opt-in and changes
    the arithmetic; ``r >= m`` must fall back to the exact path.
    """

    def _local_case(self, b=37, m=6, nlev=2, seed=0):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((b, m, 3))
        a_stack = (m - 1) * np.eye(m)[None] + np.matmul(y, y.transpose(0, 2, 1))
        c_innov = rng.standard_normal((b, m))
        local_pert = rng.standard_normal((b, nlev, m))
        local_mean = rng.standard_normal((b, nlev))
        return a_stack, c_innov, local_pert, local_mean

    @pytest.mark.parametrize("block", [1, 2, 5, 16, 36, 37, 38, 1000])
    def test_solve_local_batch_blocked_bit_identical(self, block):
        a, c, pert, mean = self._local_case()
        mono = solve_local_batch(a, c, pert, mean)
        np.testing.assert_array_equal(
            solve_local_batch(a, c, pert, mean, eigh_block=block), mono
        )

    def test_stacked_eigh_block_sweep(self, array_backend):
        xp = array_backend
        a, *_ = self._local_case(b=23)
        a_dev = xp.to_device(a)
        evals0, evecs0 = xp.stacked_eigh(a_dev)
        for block in (1, 4, 22, 23, 24, 1000):
            evals, evecs = xp.stacked_eigh(a_dev, block=block)
            np.testing.assert_array_equal(xp.to_host(evals), xp.to_host(evals0))
            np.testing.assert_array_equal(xp.to_host(evecs), xp.to_host(evecs0))
        with pytest.raises(ValueError):
            xp.stacked_eigh(a_dev, block=0)

    @pytest.mark.parametrize("block", [1, 5, 37, 100])
    def test_truncated_solve_blocked_matches_monolithic(self, block):
        a, c, pert, mean = self._local_case()
        mono = solve_local_batch(a, c, pert, mean, solve_rank=3)
        np.testing.assert_array_equal(
            solve_local_batch(a, c, pert, mean, eigh_block=block, solve_rank=3), mono
        )

    def test_solve_rank_at_member_count_is_exact(self):
        a, c, pert, mean = self._local_case()
        exact = solve_local_batch(a, c, pert, mean)
        for rank in (6, 17):  # r >= m: exact full-rank fallback
            np.testing.assert_array_equal(
                solve_local_batch(a, c, pert, mean, solve_rank=rank), exact
            )
        # below m the truncation is a genuine approximation — it must engage
        truncated = solve_local_batch(a, c, pert, mean, solve_rank=5)
        assert not np.array_equal(truncated, exact)
        assert np.all(np.isfinite(truncated))

    def test_solve_validation(self):
        a, c, pert, mean = self._local_case(b=4)
        with pytest.raises(ValueError):
            solve_local_batch(a, c, pert, mean, eigh_block=0)
        with pytest.raises(ValueError):
            solve_local_batch(a, c, pert, mean, solve_rank=0)

    @pytest.mark.parametrize("eigh_block", [1, 7, 64, 10_000])
    def test_letkf_eigh_block_serial_bit_identical(self, eigh_block):
        grid, rng, ensemble, truth = _case(seed=21)
        var = 0.5 + rng.random(grid.size)
        loc = LocalizationConfig(cutoff=4.0e6)
        for operator, mode in (
            (IdentityObservation(grid.size, 1.2), "convolution"),
            (IdentityObservation(grid.size, var), "grouped"),
        ):
            observation = operator.observe(truth, rng=np.random.default_rng(2))
            base = LETKF(grid, LETKFConfig(localization=loc)).analyze(
                ensemble, observation, operator
            )
            letkf = LETKF(grid, LETKFConfig(localization=loc, eigh_block=eigh_block))
            assert letkf.geometry(operator).mode == mode
            np.testing.assert_array_equal(
                letkf.analyze(ensemble, observation, operator), base
            )

    def test_letkf_eigh_block_sharded_bit_identical(self):
        from repro.hpc.ensemble_parallel import EnsembleExecutor

        grid, rng, ensemble, truth = _case(seed=22)
        operator = IdentityObservation(grid.size, 1.0)
        observation = operator.observe(truth, rng=rng)
        loc = LocalizationConfig(cutoff=4.0e6)
        plain = LETKF(grid, LETKFConfig(localization=loc, shard_columns=48))
        blocked = LETKF(
            grid, LETKFConfig(localization=loc, shard_columns=48, eigh_block=5)
        )
        with EnsembleExecutor(n_workers=1) as ex:
            a = plain.analyze_parallel(ensemble, observation, operator, executor=ex)
            b = blocked.analyze_parallel(ensemble, observation, operator, executor=ex)
        np.testing.assert_array_equal(b, a)

    def test_letkf_config_validation_and_rank_fallback(self):
        with pytest.raises(ValueError):
            LETKFConfig(eigh_block=0)
        with pytest.raises(ValueError):
            LETKFConfig(solve_rank=0)
        grid, rng, ensemble, truth = _case(seed=23)
        operator = IdentityObservation(grid.size, 1.0)
        observation = operator.observe(truth, rng=rng)
        loc = LocalizationConfig(cutoff=4.0e6)
        exact = LETKF(grid, LETKFConfig(localization=loc)).analyze(
            ensemble, observation, operator
        )
        # ensemble has 12 members: rank 12 falls back to the exact solve
        fallback = LETKF(grid, LETKFConfig(localization=loc, solve_rank=12)).analyze(
            ensemble, observation, operator
        )
        np.testing.assert_array_equal(fallback, exact)
        truncated = LETKF(grid, LETKFConfig(localization=loc, solve_rank=4)).analyze(
            ensemble, observation, operator
        )
        assert not np.array_equal(truncated, exact)
        assert np.all(np.isfinite(truncated))


class TestGeometryCache:
    def _counting(self, monkeypatch):
        calls = {"n": 0}
        original = grid_mod.periodic_distance_matrix

        def counted(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        # Patch every module-level alias used by the analysis code paths
        # (letkf.py no longer imports it since the reference path retired).
        import repro.da.localization as loc_mod

        monkeypatch.setattr(grid_mod, "periodic_distance_matrix", counted)
        monkeypatch.setattr(loc_mod, "periodic_distance_matrix", counted)
        return calls

    def test_second_cycle_does_zero_distance_computations(self, monkeypatch):
        grid, rng, ensemble, truth = _case(seed=7)
        operator = IdentityObservation(grid.size, 1.0)
        observation = operator.observe(truth, rng=rng)
        letkf = LETKF(grid)
        calls = self._counting(monkeypatch)

        letkf.analyze(ensemble, observation, operator)
        assert calls["n"] > 0  # geometry build evaluates the stencil once
        calls["n"] = 0
        letkf.analyze(ensemble, observation, operator)
        letkf.analyze(ensemble, observation, operator)
        assert calls["n"] == 0  # static network: geometry fully cached

    def test_geometry_cached_per_network(self):
        grid, rng, ensemble, truth = _case(seed=8)
        op_a = IdentityObservation(grid.size, 1.0)
        op_b = SubsampledObservation.every_nth(grid.size, 2, 1.0)
        letkf = LETKF(grid)
        geom_a = letkf.geometry(op_a)
        geom_b = letkf.geometry(op_b)
        assert letkf.geometry(op_a) is geom_a
        assert letkf.geometry(op_b) is geom_b
        assert geom_a is not geom_b

    def test_grouped_geometry_covers_all_columns(self):
        grid = Grid2D(12, 10)
        obs_columns = np.arange(grid.ny * grid.nx)[::4]
        geometry = LocalAnalysisGeometry(
            grid,
            obs_columns,
            LocalizationConfig(cutoff=2.0e6, min_weight=1e-4),
            np.ones(obs_columns.size),
        )
        assert geometry.mode == "grouped"
        covered = np.concatenate(
            [g.columns for g in geometry.groups] + [geometry.empty_columns]
        )
        assert np.array_equal(np.sort(covered), np.arange(grid.ny * grid.nx))


class TestFusedScorePath:
    def test_log_weights_clamped_nonpositive(self):
        """`dist_sq` can round negative when z = α x_j with large states."""
        rng = np.random.default_rng(0)
        ensemble = rng.standard_normal((6, 40)) * 1.0e6
        est = MonteCarloScoreEstimator(ensemble)
        t = 0.37
        alpha = float(est.schedule.alpha(t))
        logw = est.log_weights(alpha * ensemble, t)
        assert np.all(np.isfinite(logw))
        assert logw.max() <= 0.0

    def test_fused_score_matches_numpy_baseline(self, array_backend):
        """The routed score kernel must match the plain-numpy baseline bit
        for bit on every backend, including repeated evaluations through the
        persistent ``(n, J)`` workspaces."""
        rng = np.random.default_rng(1)
        ensemble = rng.standard_normal((15, 64)) * 2.0
        est = MonteCarloScoreEstimator(ensemble)
        assert est.xp is array_backend
        baseline = MonteCarloScoreEstimator(ensemble, backend="numpy")
        z = rng.standard_normal((9, 64))
        for t in (0.9, 0.5, 0.07):
            np.testing.assert_array_equal(est.score(z, t), baseline.score(z, t))
        # workspace reuse across calls must not perturb the result
        np.testing.assert_array_equal(est.score(z, 0.5), baseline.score(z, 0.5))

    def test_fused_score_1d_input(self):
        est = MonteCarloScoreEstimator(np.random.default_rng(2).normal(size=(10, 5)))
        out = est.score(np.zeros(5), t=0.3)
        assert out.shape == (5,)

    def test_minibatch_rng_parity(self, array_backend):
        """Minibatch selection draws from the host rng identically on every
        backend (the draws must never depend on where arithmetic runs)."""
        rng = np.random.default_rng(3)
        ensemble = rng.standard_normal((12, 8))
        z = rng.standard_normal((4, 8))
        routed = MonteCarloScoreEstimator(ensemble, minibatch=5, rng=11, backend=array_backend)
        base = MonteCarloScoreEstimator(ensemble, minibatch=5, rng=11, backend="numpy")
        np.testing.assert_array_equal(routed.score(z, 0.4), base.score(z, 0.4))
        assert routed.rng.bit_generator.state == base.rng.bit_generator.state

    def test_buffered_sampler_draw_parity(self, array_backend):
        """The buffered loop consumes the host random stream identically on
        every backend and matches the plain-numpy baseline bit for bit."""
        schedule = LinearAlphaSchedule()
        score = lambda z, t: -z
        fast = ReverseSDESampler(schedule, n_steps=25)
        assert fast.xp is array_backend
        base = ReverseSDESampler(schedule, n_steps=25, backend="numpy")
        rng_a, rng_b = default_rng(5), default_rng(5)
        a = fast.sample(score, 6, 4, rng=rng_a)
        b = base.sample(score, 6, 4, rng=rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        np.testing.assert_array_equal(a, b)

    def test_buffered_sampler_trajectory_and_ode(self):
        sampler = ReverseSDESampler(n_steps=7, stochastic=False)
        traj = sampler.sample(lambda z, t: -z, 4, 2, rng=0, return_trajectory=True)
        assert traj.shape == (8, 4, 2)
        # the recorded trajectory ends at the returned sample, and the
        # deterministic ODE mode reproduces itself exactly
        final = sampler.sample(lambda z, t: -z, 4, 2, rng=0)
        np.testing.assert_array_equal(traj[-1], final)
        np.testing.assert_array_equal(
            final, sampler.sample(lambda z, t: -z, 4, 2, rng=0)
        )


class TestFusedEnSFDeterminism:
    """Exactness certification without an oracle (reference-path retirement,
    ROADMAP): the operator parametrization covers the identity/subsampled
    fast paths and the generic likelihood fallback, and the
    ``array_backend`` fixture re-runs all three under every registered
    array backend, asserted bit-identical (with identical random-stream
    consumption) to the plain-numpy baseline."""

    @pytest.mark.parametrize(
        "operator_factory",
        [
            lambda d: IdentityObservation(d, 1.0),
            lambda d: SubsampledObservation.every_nth(d, 3, 0.8),
            lambda d: NonlinearObservation(d, kind="arctan", obs_error_var=0.5),
        ],
        ids=["identity", "subsampled", "nonlinear"],
    )
    def test_analysis_matches_numpy_baseline(self, operator_factory, array_backend):
        grid, rng, ensemble, truth = _case(seed=9, members=20, scale=3.0)
        operator = operator_factory(grid.size)
        observation = operator.observe(truth, rng=rng)
        routed = EnSF(EnSFConfig(n_sde_steps=20), rng=13)
        assert routed.sampler.xp is array_backend
        baseline = EnSF(EnSFConfig(n_sde_steps=20, backend="numpy"), rng=13)
        a_routed = routed.analyze(ensemble, observation, operator)
        a_base = baseline.analyze(ensemble, observation, operator)
        assert routed.rng.bit_generator.state == baseline.rng.bit_generator.state
        np.testing.assert_array_equal(a_routed, a_base)


    def test_minibatch_filter_reproduces(self):
        """Minibatched score draws interleave with noise draws on the same
        stream (full-space path); the run must reproduce itself exactly."""
        grid, rng, ensemble, truth = _case(seed=33, members=10)
        operator = IdentityObservation(grid.size, 1.0)
        observation = operator.observe(truth, rng=rng)
        a = EnSF(EnSFConfig(n_sde_steps=10, minibatch=4), rng=2).analyze(
            ensemble, observation, operator
        )
        b = EnSF(EnSFConfig(n_sde_steps=10, minibatch=4), rng=2).analyze(
            ensemble, observation, operator
        )
        np.testing.assert_array_equal(a, b)


class TestBenchRecorder:
    def test_sections_and_report(self):
        rec = BenchRecorder()
        with rec.section("analysis"):
            pass
        rec.add("analysis", 0.5)
        rec.add("forecast", 0.25)
        assert rec.counts() == {"analysis": 2, "forecast": 1}
        assert rec.totals()["forecast"] == 0.25
        assert rec.mean("forecast") == 0.25
        report = rec.report()
        assert report["analysis"]["count"] == 2
        assert len(report["analysis"]["per_cycle_s"]) == 2

    def test_speedup_and_errors(self):
        assert BenchRecorder.speedup(2.0, 0.5) == 4.0
        with pytest.raises(ValueError):
            BenchRecorder.speedup(1.0, 0.0)
        with pytest.raises(KeyError):
            BenchRecorder().mean("missing")

    def test_write_json(self, tmp_path):
        rec = BenchRecorder()
        rec.add("analysis", 0.125)
        path = tmp_path / "BENCH_test.json"
        payload = rec.write_json(path, benchmark="unit", letkf={"speedup": 6.0})
        assert path.exists()
        assert payload["benchmark"] == "unit"
        assert payload["letkf"]["speedup"] == 6.0
        assert payload["sections"]["analysis"]["count"] == 1

    def test_run_osse_reports_timing_breakdown(self):
        model = Lorenz96(dim=12)
        rng = np.random.default_rng(0)
        truth0 = rng.standard_normal(12)
        operator = IdentityObservation(12, 1.0)
        filt = EnSF(EnSFConfig(n_sde_steps=5), rng=1)
        config = OSSEConfig(n_cycles=3, steps_per_cycle=1, ensemble_size=4, seed=0)
        result = run_osse(model, model, filt, operator, truth0, config)
        assert result.timing is not None
        for section in ("truth", "forecast", "analysis"):
            assert len(result.timing[section]["per_cycle_s"]) == 3
            assert result.timing[section]["total_s"] >= 0.0
        assert "timing" in result.summary()

    def test_shared_recorder_attributes_timing_per_run(self):
        model = Lorenz96(dim=12)
        truth0 = np.random.default_rng(0).standard_normal(12)
        operator = IdentityObservation(12, 1.0)
        config = OSSEConfig(n_cycles=2, steps_per_cycle=1, ensemble_size=4, seed=0)
        recorder = BenchRecorder()
        for seed in (1, 2):
            filt = EnSF(EnSFConfig(n_sde_steps=5), rng=seed)
            result = run_osse(
                model, model, filt, operator, truth0, config, recorder=recorder
            )
            # each run reports only its own cycles even on a shared recorder
            assert result.timing["analysis"]["count"] == 2
        assert recorder.counts()["analysis"] == 4
