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

import tracemalloc

import numpy as np
import pytest
from reference.letkf_analyze_head import HeadLETKF
from reference.letkf_assembly_head import HeadAssembly

import repro.da.letkf as letkf_mod
import repro.da.localization as loc_mod
import repro.utils.grid as grid_mod
from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import IdentityObservation, NonlinearObservation, SubsampledObservation
from repro.core.schedules import LinearAlphaSchedule
from repro.core.score import MonteCarloScoreEstimator
from repro.core.sde import ReverseSDESampler
from repro.da.letkf import LETKF, LETKFConfig
from repro.da.localization import LocalAnalysisGeometry, analysis_stride, gaspari_cohn
from repro.utils.grid import Grid2D
from repro.utils.random import default_rng
from repro.utils.xp import MockDeviceBackend


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
    ROADMAP): the identity operator takes the convolution assembly's
    reshape fast path and the subsampled operator its bincount scatter, a
    non-uniform observation-error variance adds the weighted observation
    perturbations, and the ``array_backend`` fixture re-runs every case under
    every registered array backend, asserted bit-identical to the
    plain-numpy baseline."""

    @pytest.mark.parametrize("variance", ["uniform", "non-uniform"])
    @pytest.mark.parametrize(
        "operator_factory",
        [
            lambda d, var: IdentityObservation(d, 1.2 * var(d)),
            lambda d, var: SubsampledObservation.every_nth(d, 3, 0.7 * var(len(range(0, d, 3)))),
        ],
        ids=["identity", "subsampled"],
    )
    def test_batched_matches_numpy_baseline(
        self, operator_factory, variance, array_backend
    ):
        grid, rng, ensemble, truth = _case(seed=1)
        var = (lambda n: 1.0) if variance == "uniform" else (lambda n: 0.5 + rng.random(n))
        operator = operator_factory(grid.size, var)
        observation = operator.observe(truth, rng=rng)
        letkf = LETKF(grid, LETKFConfig(cutoff=4.0e6))
        assert letkf.xp is array_backend  # config backend=None → fixture default
        batched = letkf.analyze(ensemble, observation, operator)
        baseline = LETKF(grid, LETKFConfig(cutoff=4.0e6, backend="numpy")).analyze(
            ensemble, observation, operator
        )
        np.testing.assert_array_equal(batched, baseline)
        # a second analysis through the same instance reuses the cached
        # geometry/workspaces — still bit-identical
        np.testing.assert_array_equal(
            letkf.analyze(ensemble, observation, operator), baseline
        )

    @pytest.mark.parametrize("variance", ["uniform", "non-uniform"])
    def test_empty_footprints_keep_prior(self, variance):
        grid, rng, ensemble, truth = _case(seed=4)
        n_obs = len(range(0, grid.size, 7))
        var = 0.5 if variance == "uniform" else 0.5 + rng.random(n_obs)
        operator = SubsampledObservation.every_nth(grid.size, 7, var)
        observation = operator.observe(truth, rng=rng)
        letkf = LETKF(grid, LETKFConfig(cutoff=grid.dx * 0.55, rtps_factor=0.0))
        geometry = letkf.geometry(operator)
        assert geometry.stride == 1 and geometry.empty_columns.size > 0
        batched = letkf.analyze(ensemble, observation, operator)
        # columns without local observations must keep the prior exactly
        cols = geometry.columns[geometry.empty_columns]
        np.testing.assert_array_equal(geometry.prior_columns, cols)
        state_idx = (cols + np.arange(grid.nlev)[:, None] * (grid.ny * grid.nx)).ravel()
        np.testing.assert_array_equal(batched[:, state_idx], ensemble[:, state_idx])


def _patch_network(grid, obs_error_var=1.0):
    """Both levels observed on an 8x8 patch of columns: on a 32x32 grid at the
    default cut-off most analysis-grid columns are beyond its reach."""
    columns = (np.arange(8)[:, None] * grid.nx + np.arange(8)).ravel()
    indices = np.concatenate([columns + lev * grid.ny * grid.nx for lev in range(grid.nlev)])
    return SubsampledObservation(grid.size, indices, obs_error_var)


# layout case -> derived analysis-grid stride
LAYOUT_CASES = {
    "uniform": 2,
    "non-uniform": 2,
    "non-uniform-empty": 1,
    "uniform-s4": 4,
    "non-uniform-s2-empty": 2,
}


def _layout_case(case):
    """``(grid, ensemble, observation, operator, config kwargs)`` per layout case."""
    seeds = {name: 11 + i for i, name in enumerate(LAYOUT_CASES)}
    shape = (32, 32) if case in ("uniform-s4", "non-uniform-s2-empty") else (16, 16)
    grid, rng, ensemble, truth = _case(seed=seeds[case], shape=shape)
    kwargs = {"cutoff": 4.0e6}
    if case.startswith("uniform"):
        operator = IdentityObservation(grid.size, 1.2)
    elif case == "non-uniform":
        operator = IdentityObservation(grid.size, 0.5 + rng.random(grid.size))
    elif case == "non-uniform-empty":  # with columns no observation reaches
        n_obs = len(range(0, grid.size, 7))
        operator = SubsampledObservation.every_nth(grid.size, 7, 0.5 + rng.random(n_obs))
        kwargs = {"cutoff": grid.dx * 0.55, "rtps_factor": 0.0}
    else:  # "non-uniform-s2-empty": interpolation between empty and solved columns
        operator = _patch_network(grid, 0.5 + rng.random(2 * 64))
        kwargs = {"rtps_factor": 0.0}
    return grid, ensemble, operator.observe(truth, rng=rng), operator, kwargs


class TestShardedLETKF:
    """One pipeline, any layout, the same bits.

    ``analyze`` solves the analysis grid in stacked batches of at most
    ``shard_columns`` columns.  Every cell of case x stride x batch size x
    entry must equal the single-batch analysis exactly — on the every-column
    path (stride 1) and through the weight interpolation (strides 2 and 4)
    alike.  The entry
    axis covers ``analyze``, the ``analyze_parallel`` wrapper the end-to-end
    benchmark times, and a second ``analyze`` on the same filter, whose
    geometry and device copies come from the cache.
    """

    N_COLUMNS = 16 * 16

    @pytest.fixture(scope="class")
    def reference(self):
        out = {}
        for case, stride in LAYOUT_CASES.items():
            grid, ensemble, observation, operator, kwargs = _layout_case(case)
            letkf = LETKF(grid, LETKFConfig(backend="numpy", **kwargs))
            geometry = letkf.geometry(operator)
            assert geometry.stride == stride
            assert geometry.n_columns * stride**2 == grid.ny * grid.nx
            assert (geometry.empty_columns.size > 0) == case.endswith("empty")
            # the reshape fast path, at any stride, for every identity operator
            assert geometry.identity_network == isinstance(operator, IdentityObservation)
            out[case] = letkf.analyze(ensemble, observation, operator)
        return out

    @pytest.mark.parametrize("entry", ["analyze", "analyze_parallel", "cached"])
    @pytest.mark.parametrize("shard_columns", [1, 37, 64, N_COLUMNS, 10 * N_COLUMNS])
    @pytest.mark.parametrize("case", list(LAYOUT_CASES))
    def test_layout_matrix(self, case, shard_columns, entry, reference):
        grid, ensemble, observation, operator, kwargs = _layout_case(case)
        letkf = LETKF(grid, LETKFConfig(shard_columns=shard_columns, **kwargs))
        if entry == "analyze_parallel":
            analysis = letkf.analyze_parallel(ensemble, observation, operator)
        else:
            analysis = letkf.analyze(ensemble, observation, operator)
            if entry == "cached":
                analysis = letkf.analyze(ensemble, observation, operator)
        np.testing.assert_array_equal(analysis, reference[case])

    @pytest.mark.parametrize("case", list(LAYOUT_CASES))
    def test_backends_agree(self, case, reference, array_backend):
        grid, ensemble, observation, operator, kwargs = _layout_case(case)
        letkf = LETKF(grid, LETKFConfig(shard_columns=37, **kwargs))
        assert letkf.xp is array_backend
        np.testing.assert_array_equal(
            letkf.analyze(ensemble, observation, operator), reference[case]
        )


def _force_stride(monkeypatch, grid, cutoff, stride):
    """Test-only hook: move the stride rule's spacing bound so that it picks
    ``stride`` (a power of two dividing the grid) — there is no public knob."""
    fraction = (stride + 0.5) * max(grid.dx, grid.dy) / cutoff
    monkeypatch.setattr(loc_mod, "_SPACING_FRACTION", fraction)
    assert analysis_stride(grid, cutoff) == stride


class TestAnalysisGrid:
    """The stride rule and the interpolate-and-apply stage it feeds."""

    @pytest.mark.parametrize(
        "grid, cutoff, stride",
        [
            (Grid2D(64, 64), 2.0e6, 4),  # the benchmark grids at the default cut-off:
            (Grid2D(128, 128), 2.0e6, 8),  # spacing 1250 km <= 2/3 * 2000 km; 8 at 64x64
            (Grid2D(32, 32), 2.0e6, 2),  # would be 2500 km, beyond the cut-off
            (Grid2D(16, 16), 4.0e6, 2),
            (Grid2D(16, 16), 2.0e6, 1),  # cut-off within a few grid lengths
            (Grid2D(10, 2), 4.0e6, 1),  # fewer than 4 analysis points per axis
            (Grid2D(4, 4), 1.0e9, 1),  # cut-off >> domain: the >= 4-points cap
            (Grid2D(16, 16), 1.0e9, 4),
            (Grid2D(64, 64), 1.0e9, 16),
            (Grid2D(nx=64, ny=32), 2.0e6, 2),  # ny != nx: the coarser axis decides
            (Grid2D(nx=32, ny=64), 2.0e6, 2),
            (Grid2D(64, 64, ly=4.0e7), 2.0e6, 2),  # anisotropic spacing, dy = 2 dx
            (Grid2D(nx=48, ny=64), 3.0e6, 4),  # largest *common* divisor under the bound
            (Grid2D(nx=63, ny=64), 2.0e6, 1),  # coprime sizes
            (Grid2D(61, 61), 2.0e6, 1),  # prime size
            (Grid2D(nx=62, ny=62), 2.0e6, 2),  # divisors 2 and 31; 4 is not one
            (Grid2D(nx=35, ny=15), 1.0e6, 1),  # common divisor 5 exceeds the bound
        ],
    )
    def test_stride_rule(self, grid, cutoff, stride):
        assert analysis_stride(grid, cutoff) == stride
        geometry = LocalAnalysisGeometry(
            grid, np.arange(grid.ny * grid.nx), cutoff, np.ones(grid.ny * grid.nx),
        )
        assert geometry.stride == stride
        assert geometry.shape == (grid.ny // stride, grid.nx // stride)
        iy, ix = np.divmod(geometry.columns, grid.nx)
        assert np.all(iy % stride == 0) and np.all(ix % stride == 0)
        assert geometry.n_columns == geometry.shape[0] * geometry.shape[1]

    @pytest.mark.parametrize("variance", ["uniform", "non-uniform"])
    def test_every_column_path_matches_dense_etkf(self, variance):
        """Stride 1 against an independent per-column formula (explicit
        inverse, SVD square root, R⁻¹ localized per observation): same law,
        not the same bits."""
        grid, rng, ensemble, truth = _case(seed=21, shape=(8, 8), members=6)
        var = 0.8 if variance == "uniform" else 0.5 + rng.random(grid.size)
        operator = IdentityObservation(grid.size, var)
        observation = operator.observe(truth, rng=rng)
        letkf = LETKF(grid, LETKFConfig(rtps_factor=0.0))
        assert letkf.geometry(operator).stride == 1
        analysis = letkf.analyze(ensemble, observation, operator)

        m, n_columns = ensemble.shape[0], grid.ny * grid.nx
        x_mean = ensemble.mean(axis=0)
        x_pert = ensemble - x_mean
        innovation = observation - x_mean  # identity operator
        obs_columns = grid.column_index(np.arange(grid.size))
        expected = np.empty_like(ensemble)
        for col in range(n_columns):
            dist = grid.column_pair_distances(np.array([col]), obs_columns)[0]
            r_inv = gaspari_cohn(dist, letkf.config.cutoff) / operator.obs_error_var
            c = x_pert * r_inv  # (m, p): C = Y' R_loc^-1
            pa = np.linalg.inv((m - 1) * np.eye(m) + c @ x_pert.T)
            u, sv, vt = np.linalg.svd((m - 1) * pa)
            weights = (u * np.sqrt(sv)) @ vt + (pa @ c @ innovation)[:, None]
            state = col + np.arange(grid.nlev) * n_columns
            expected[:, state] = x_mean[state] + (x_pert[:, state].T @ weights).T
        np.testing.assert_allclose(analysis, expected, rtol=1e-12, atol=1e-12)

    def test_broad_localization_interpolates_equal_weights(self, monkeypatch):
        """Cut-off >> domain: the >= 4-points cap sets the stride, and the
        local problems differ only by the O(1e-4) variation of the
        Gaspari-Cohn weights over the domain, so interpolating costs nothing."""
        grid, rng, ensemble, truth = _case(seed=22)
        operator = IdentityObservation(grid.size, 0.5)
        observation = operator.observe(truth, rng=rng)
        config = LETKFConfig(cutoff=1.0e9, rtps_factor=0.0)
        strided = LETKF(grid, config)
        assert strided.geometry(operator).stride == 4
        analysis = strided.analyze(ensemble, observation, operator)
        _force_stride(monkeypatch, grid, 1.0e9, 1)
        every_column = LETKF(grid, config)
        assert every_column.geometry(operator).stride == 1
        np.testing.assert_allclose(
            analysis, every_column.analyze(ensemble, observation, operator), atol=1e-4
        )

    def test_interpolation_error_is_small_and_vanishes_on_the_analysis_grid(self, monkeypatch):
        grid, rng, ensemble, truth = _case(seed=23, shape=(32, 32))
        operator = IdentityObservation(grid.size, 1.0)
        observation = operator.observe(truth, rng=rng)
        config = LETKFConfig(cutoff=4.0e6, rtps_factor=0.0)
        strided = LETKF(grid, config)
        geometry = strided.geometry(operator)
        assert geometry.stride == 4
        analysis = strided.analyze(ensemble, observation, operator)
        _force_stride(monkeypatch, grid, 4.0e6, 1)
        exact = LETKF(grid, config).analyze(ensemble, observation, operator)
        increment = np.abs(exact - ensemble).max()
        # on the analysis grid the interpolant is the solved weight itself
        on_grid = (geometry.columns + np.arange(grid.nlev)[:, None] * grid.ny * grid.nx).ravel()
        np.testing.assert_allclose(analysis[:, on_grid], exact[:, on_grid], atol=1e-12)
        assert 0.0 < np.abs(analysis - exact).max() < 0.2 * increment

    def test_columns_between_empty_analysis_columns_keep_prior(self):
        grid, ensemble, observation, operator, kwargs = _layout_case("non-uniform-s2-empty")
        letkf = LETKF(grid, LETKFConfig(**kwargs))
        geometry = letkf.geometry(operator)
        stride, (ny_a, nx_a) = geometry.stride, geometry.shape
        assert stride == 2 and geometry.empty_columns.size > 0
        empty = np.zeros(geometry.shape, dtype=bool)
        empty.ravel()[geometry.empty_columns] = True
        # brute force: a state column keeps its prior iff every analysis
        # column its bilinear weights touch is empty
        expected = []
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                rows = {iy // stride} | ({(iy // stride + 1) % ny_a} if iy % stride else set())
                cols = {ix // stride} | ({(ix // stride + 1) % nx_a} if ix % stride else set())
                if all(empty[j, i] for j in rows for i in cols):
                    expected.append(iy * grid.nx + ix)
        np.testing.assert_array_equal(geometry.prior_columns, expected)
        iy, ix = np.divmod(geometry.prior_columns, grid.nx)
        assert np.any((iy % stride == 1) & (ix % stride == 1))  # a four-neighbour case

        analysis = letkf.analyze(ensemble, observation, operator)
        n_columns = grid.ny * grid.nx
        keep = (geometry.prior_columns + np.arange(grid.nlev)[:, None] * n_columns).ravel()
        np.testing.assert_array_equal(analysis[:, keep], ensemble[:, keep])
        changed = np.setdiff1d(np.arange(grid.size), keep)
        assert not np.any(np.all(analysis[:, changed] == ensemble[:, changed], axis=0))


def _assembly_inputs(grid, operator, members=6, seed=31):
    """Observation-space perturbations and innovations for a direct assembly call."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((members, operator.obs_dim)), rng.standard_normal(operator.obs_dim)


def _direct_channels(grid, geometry, y_pert, innovation, cutoff, obs_error_var):
    """The local system entries as Gaspari-Cohn weighted sums over every
    observation, one analysis column at a time: no FFT, no convolution."""
    iu0, iu1 = np.triu_indices(y_pert.shape[0])
    rows = []
    for col in geometry.columns:
        dist = grid.column_pair_distances(np.array([col]), geometry.obs_columns)[0]
        weighted = y_pert * (gaspari_cohn(dist, cutoff) / obs_error_var)
        gram = weighted @ y_pert.T
        rows.append(np.concatenate([gram[iu0, iu1], weighted @ innovation]))
    return np.array(rows)


class TestFoldedAssembly:
    """The convolution channels on the analysis grid, against an
    independent per-column oracle: folding the spectrum onto the analysis
    grid before the inverse is the same law as inverting at full size."""

    @pytest.mark.parametrize(
        "shape, cutoff, stride, network",
        [
            ((32, 32), 4.0e6, 2, "identity"),
            ((32, 32), 4.0e6, 4, "identity"),
            ((32, 32), 4.0e6, 8, "identity"),
            ((64, 48), 3.0e6, 4, "identity"),  # ny != nx, the rule's own stride
            ((32, 32), 4.0e6, 4, "subsampled"),  # the bincount scatter
            # R⁻¹ folded into the channels as per-observation weights
            ((32, 32), 4.0e6, 2, "non-uniform"),
            ((32, 32), 4.0e6, 4, "non-uniform-subsampled"),
        ],
        ids=["s2", "s4", "s8", "ny64-nx48", "subsampled", "non-uniform-s2", "non-uniform-s4"],
    )
    def test_matches_direct_weighted_sum(self, monkeypatch, shape, cutoff, stride, network):
        grid = Grid2D(nx=shape[1], ny=shape[0])
        if analysis_stride(grid, cutoff) != stride:
            _force_stride(monkeypatch, grid, cutoff, stride)
        rng = np.random.default_rng(stride)
        n_sub = len(range(0, grid.size, 3))
        operator = {
            "identity": lambda: IdentityObservation(grid.size, 0.8),
            "subsampled": lambda: SubsampledObservation.every_nth(grid.size, 3, 0.8),
            "non-uniform": lambda: IdentityObservation(grid.size, 0.5 + rng.random(grid.size)),
            "non-uniform-subsampled": lambda: SubsampledObservation.every_nth(
                grid.size, 3, 0.5 + rng.random(n_sub)
            ),
        }[network]()
        letkf = LETKF(grid, LETKFConfig(cutoff=cutoff))
        geometry = letkf.geometry(operator)
        assert geometry.stride == stride
        assert geometry.identity_network == isinstance(operator, IdentityObservation)
        y_pert, innovation = _assembly_inputs(grid, operator)
        conv = letkf.xp.to_host(letkf._convolution_channels(y_pert, innovation, geometry, 6))
        expected = _direct_channels(
            grid, geometry, y_pert, innovation, cutoff, operator.obs_error_var
        )
        assert conv.shape == expected.shape == (geometry.n_columns, 6 * 9 // 2)
        np.testing.assert_allclose(conv, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    def test_stride_one_is_the_unfolded_formula(self):
        grid = Grid2D(16, 16)
        operator = IdentityObservation(grid.size, 0.8)
        letkf = LETKF(grid)
        geometry = letkf.geometry(operator)
        assert geometry.stride == 1
        y_pert, innovation = _assembly_inputs(grid, operator)
        conv = letkf.xp.to_host(letkf._convolution_channels(y_pert, innovation, geometry, 6))

        iu0, iu1 = np.triu_indices(6)
        y_lev = y_pert.reshape(6, grid.nlev, -1)
        channels = np.concatenate(
            [
                (y_lev[iu0] * y_lev[iu1]).sum(axis=1),
                (y_lev * innovation.reshape(grid.nlev, -1)).sum(axis=1),
            ]
        ).reshape(-1, grid.ny, grid.nx)
        spectra = np.fft.rfft2(channels) * geometry.kernel_rfft2
        unfolded = np.fft.irfft2(spectra, s=(grid.ny, grid.nx)).reshape(len(channels), -1).T
        np.testing.assert_array_equal(conv, unfolded)


class TestAssemblyWorkspace:
    """The assembly buffers persist per instance, never leak into a result
    or a pickle, and follow every change of what they were sized for."""

    def _setup(self, shape=(32, 32), members=8, network="identity", seed=41):
        grid, rng, ensemble, truth = _case(seed=seed, shape=shape, members=members)
        operator = (
            IdentityObservation(grid.size, 1.0)
            if network == "identity"
            else SubsampledObservation.every_nth(grid.size, 3, 1.0)
        )
        return grid, ensemble, operator.observe(truth, rng=rng), operator

    def test_pickle_drops_the_workspace(self):
        import pickle

        grid, ensemble, observation, operator = self._setup()
        letkf = LETKF(grid)
        # warm everything an analysis caches besides the workspace
        letkf.geometry(operator).conv_kernel(letkf.xp)
        before = len(pickle.dumps(letkf))
        analysis = letkf.analyze(ensemble, observation, operator)
        assert letkf._assembly is not None
        assert len(pickle.dumps(letkf)) == before
        clone = pickle.loads(pickle.dumps(letkf))
        assert clone._assembly is None
        np.testing.assert_array_equal(clone.analyze(ensemble, observation, operator), analysis)

    @pytest.mark.parametrize("network", ["identity", "subsampled"])
    def test_second_analysis_reuses_the_buffers(self, network, array_backend):
        grid, ensemble, observation, operator = self._setup(network=network)
        letkf = LETKF(grid)

        def buffers():
            workspace = letkf._assembly
            return workspace.channels, workspace.spectrum, workspace.scratch

        first = letkf.analyze(ensemble, observation, operator)
        before = buffers()
        # only the identity network's second level needs the product scratch
        assert (before[2] is None) == (network == "subsampled")
        if before[2] is None:
            before = before[:2]
        np.testing.assert_array_equal(letkf.analyze(ensemble, observation, operator), first)
        for old, new in zip(before, buffers()):
            assert np.shares_memory(old, new)

        if isinstance(array_backend, MockDeviceBackend):
            # A steady assembly moves its inputs up and nothing else: the
            # workspace and the fold cost zero transfers.
            geometry = letkf.geometry(operator)
            y_pert, innovation = _assembly_inputs(grid, operator, members=8)
            array_backend.reset_transfers()
            letkf._convolution_channels(y_pert, innovation, geometry, 8)
            counts = array_backend.transfer_counts()
            inputs = 2 if geometry.identity_network else 3  # + the observation columns
            assert counts["h2d_calls"] == inputs and counts["d2h_calls"] == 0

    @pytest.mark.parametrize("change", ["grid", "network", "members"])
    def test_changes_rebuild_without_stale_rows(self, change):
        first = self._setup(seed=42)
        second = {
            "grid": self._setup(shape=(64, 32), seed=43),
            "network": self._setup(network="subsampled", seed=44),
            "members": self._setup(members=5, seed=45),
        }[change]
        letkf = LETKF(first[0])
        results, keys = [], []
        for grid, ensemble, observation, operator in (first, second, first):
            letkf.grid = grid
            results.append(letkf.analyze(ensemble, observation, operator))
            keys.append(letkf._assembly.key)
            fresh = LETKF(grid).analyze(ensemble, observation, operator)
            np.testing.assert_array_equal(results[-1], fresh)
        # the network shares the grid and member count, so its buffers too
        assert (keys[0] == keys[1]) == (change == "network")
        assert keys[0] == keys[2]

    @pytest.mark.parametrize("shape, stride", [((16, 16), 1), ((32, 32), 2)])
    def test_returned_rows_survive_the_next_assembly(self, shape, stride):
        grid, _, _, operator = self._setup(shape=shape)
        letkf = LETKF(grid)
        geometry = letkf.geometry(operator)
        assert geometry.stride == stride
        cycle_n = letkf._convolution_channels(*_assembly_inputs(grid, operator, 8, 1), geometry, 8)
        kept = np.array(letkf.xp.to_host(cycle_n), copy=True)
        cycle_n1 = letkf._convolution_channels(*_assembly_inputs(grid, operator, 8, 2), geometry, 8)
        np.testing.assert_array_equal(cycle_n, kept)
        assert not np.array_equal(cycle_n1, kept)
        workspace = letkf._assembly
        assert workspace.scratch is not None
        for buffer in (workspace.channels, workspace.spectrum, workspace.scratch):
            assert not np.shares_memory(cycle_n, buffer)
            assert not np.shares_memory(cycle_n1, buffer)


class TestBlockedAssembly:
    """The assembly run one channel block at a time equals the previous
    release's whole-spectrum assembly (``tests/reference/
    letkf_assembly_head.py``) bit for bit, wherever the block boundaries
    fall, and its workspace stays within the block budget."""

    @staticmethod
    def _force_block(monkeypatch, grid, block):
        channel_bytes = grid.ny * grid.nx * 8 + grid.ny * (grid.nx // 2 + 1) * 16
        monkeypatch.setattr(letkf_mod, "_ASSEMBLY_BYTES", block * channel_bytes)

    @pytest.mark.parametrize("members", [5, 8, 20])
    @pytest.mark.parametrize("network", ["identity", "subsampled"])
    @pytest.mark.parametrize("stride", [1, 2, 4, 8])
    def test_equals_the_unblocked_oracle(self, monkeypatch, stride, network, members):
        grid, cutoff = Grid2D(32, 32), LETKFConfig().cutoff
        if analysis_stride(grid, cutoff) != stride:
            _force_stride(monkeypatch, grid, cutoff, stride)
        operator = (
            IdentityObservation(grid.size, 0.8)
            if network == "identity"
            else SubsampledObservation.every_nth(grid.size, 3, 0.8)
        )
        letkf = LETKF(grid)
        geometry = letkf.geometry(operator)
        assert geometry.stride == stride
        y_pert, innovation = _assembly_inputs(grid, operator, members=members, seed=stride)
        xp = letkf.xp
        expected = xp.to_host(
            HeadAssembly(letkf)._convolution_channels(y_pert, innovation, geometry, members)
        )
        n_channels = members * (members + 3) // 2
        # one channel a block; a boundary inside the triangle's second row
        # (row 0 is channels 0..m-1); every channel in one block
        for block in (1, members + 2, n_channels):
            self._force_block(monkeypatch, grid, block)
            letkf._assembly = None
            conv = letkf._convolution_channels(y_pert, innovation, geometry, members)
            assert len(letkf._assembly.channels) == block
            np.testing.assert_array_equal(xp.to_host(conv), expected)

    @pytest.mark.parametrize("shape, stride", [((64, 64), 4), ((128, 128), 8)])
    def test_derived_block_equals_the_oracle(self, shape, stride):
        grid = Grid2D(nx=shape[1], ny=shape[0])
        letkf = LETKF(grid)
        for operator in (
            IdentityObservation(grid.size, 1.0),
            SubsampledObservation.every_nth(grid.size, 3, 1.0),
        ):
            geometry = letkf.geometry(operator)
            assert geometry.stride == stride
            y_pert, innovation = _assembly_inputs(grid, operator, members=20)
            conv = letkf._convolution_channels(y_pert, innovation, geometry, 20)
            expected = HeadAssembly(letkf)._convolution_channels(y_pert, innovation, geometry, 20)
            np.testing.assert_array_equal(letkf.xp.to_host(conv), letkf.xp.to_host(expected))
        # the derived block ends inside a triangle row, not on a boundary
        assert len(letkf._assembly.channels) == {64: 63, 128: 15}[shape[0]]

    @pytest.mark.parametrize(
        "shape, members, block",
        [((32, 32), 20, 230), ((64, 64), 20, 63), ((128, 128), 20, 15), ((128, 128), 5, 15),
         ((64, 48), 8, 44), ((512, 512), 20, 1)],
    )
    def test_workspace_stays_within_the_budget(self, shape, members, block):
        xp = LETKF(Grid2D(8, 8)).xp
        workspace = letkf_mod._AssemblyWorkspace(members, shape[0], shape[1], xp)
        scratch = workspace.product_scratch(xp)
        assert len(workspace.channels) == len(workspace.spectrum) == block
        assert len(scratch) == min(members, block)
        transform = workspace.channels.nbytes + workspace.spectrum.nbytes
        # one 512² channel and its spectrum exceed the budget: the block
        # never drops below one channel
        assert transform <= letkf_mod._ASSEMBLY_BYTES or block == 1
        assert scratch.nbytes <= workspace.channels.nbytes


class TestLeanAnalysis:
    """The allocation-lean analysis — observation perturbations shared with
    the state's for an identity network, staging arrays released early,
    RTPS in place — equals the previous release's analysis
    (``tests/reference/letkf_analyze_head.py``) bit for bit, and leaves its
    inputs untouched."""

    @pytest.mark.parametrize("stride", [1, 2, 4, 8])
    @pytest.mark.parametrize("rtps", [0.0, 0.3])
    @pytest.mark.parametrize("inflation", [1.0, 1.1])
    @pytest.mark.parametrize("network", ["identity", "subsampled", "non-uniform"])
    def test_equals_the_previous_release(
        self, monkeypatch, network, inflation, rtps, stride, array_backend
    ):
        grid, rng, ensemble, truth = _case(seed=stride, shape=(32, 32), members=10)
        cutoff = LETKFConfig().cutoff
        if analysis_stride(grid, cutoff) != stride:
            _force_stride(monkeypatch, grid, cutoff, stride)
        operator = {
            "identity": lambda: IdentityObservation(grid.size, 0.8),
            "subsampled": lambda: SubsampledObservation.every_nth(grid.size, 3, 0.8),
            "non-uniform": lambda: IdentityObservation(grid.size, 0.5 + rng.random(grid.size)),
        }[network]()
        observation = operator.observe(truth, rng=rng)
        config = LETKFConfig(rtps_factor=rtps, prior_inflation=inflation)
        lean, head = LETKF(grid, config), HeadLETKF(grid, config)
        assert lean.xp is array_backend
        geometry = lean.geometry(operator)
        assert geometry.stride == stride
        forecast = ensemble
        for _ in range(2):  # the second reuses the cached geometry and workspace
            before = forecast.copy()
            expected = head.analyze(forecast, observation, operator)
            analysis = lean.analyze(forecast, observation, operator)
            np.testing.assert_array_equal(analysis, expected)
            np.testing.assert_array_equal(forecast, before)
            forecast = analysis + 0.1 * rng.standard_normal(analysis.shape)

    @pytest.mark.parametrize(
        "shape, allowance", [((64, 64), 4 << 20), ((128, 128), 0)], ids=["64x64", "128x128"]
    )
    def test_identity_analysis_peak_is_three_ensembles(self, shape, allowance):
        """Steady state (the second analysis of one filter), 20 members: the
        traced peak stays within three ensembles plus 4 MiB for the
        analysis-grid solve, whose working set fits inside the third
        ensemble at 128²; the previous release held 8.4 / 7.7 ensembles.
        A duplicate ``y_pert`` breaks the 64² budget; it, a ``local_pert``
        or column-major analysis kept alive, or an out-of-place RTPS each
        break the 128² one."""
        grid, rng, ensemble, truth = _case(seed=3, shape=shape, members=20)
        operator = IdentityObservation(grid.size, 1.0)
        observation = operator.observe(truth, rng=rng)
        letkf = LETKF(grid)
        letkf.analyze(ensemble, observation, operator)
        tracemalloc.start()
        try:
            letkf.analyze(ensemble, observation, operator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ensemble.nbytes + allowance


class TestGeometryCache:
    def _counting(self, monkeypatch):
        calls = {"n": 0}
        original = grid_mod.periodic_distance_matrix

        def counted(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        # The kernel stencil (Grid2D.distance_stencil) is the one caller.
        monkeypatch.setattr(grid_mod, "periodic_distance_matrix", counted)
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

        # A non-uniform network: the kernel spectrum goes to the device once
        # per backend, whatever the batch bound, and never again.
        n_obs = len(range(0, grid.size, 3))
        operator = SubsampledObservation.every_nth(grid.size, 3, 0.5 + rng.random(n_obs))
        observation = operator.observe(truth, rng=rng)
        uploads = []
        to_device = letkf.xp.to_device
        monkeypatch.setattr(
            letkf.xp, "to_device", lambda array: uploads.append(array) or to_device(array)
        )
        for shard_columns in (100, 1024):
            letkf = LETKF(grid, LETKFConfig(shard_columns=shard_columns))
            geometry = letkf.geometry(operator)
            assert geometry.obs_weight is not None
            uploads.clear()
            calls["n"] = 0
            letkf.analyze(ensemble, observation, operator)
            letkf.analyze(ensemble, observation, operator)
            assert sum(a is geometry.kernel_rfft2 for a in uploads) == 1 and calls["n"] == 0

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

    @pytest.mark.parametrize("cutoff", [1.5e6, 4.0e6])  # stride 1 and 2
    def test_empty_columns_are_exactly_the_unreached(self, cutoff):
        """The FFT reach count agrees with a direct minimum-image search:
        an analysis column is empty iff no observation lies within the
        Gaspari-Cohn support (twice the cut-off).  The observed 3x3 patch
        sits at the grid corner, so the reach wraps around both axes."""
        grid = Grid2D(24, 20)
        rng = np.random.default_rng(0)
        obs_columns = (np.arange(3)[:, None] * grid.nx + np.arange(3)).ravel()
        geometry = LocalAnalysisGeometry(
            grid, obs_columns, cutoff, 0.5 + rng.random(obs_columns.size)
        )
        iy, ix = np.divmod(geometry.columns, grid.nx)
        oy, ox = np.divmod(obs_columns, grid.nx)
        dy = np.abs(iy[:, None] - oy[None, :]) * grid.dy
        dx = np.abs(ix[:, None] - ox[None, :]) * grid.dx
        dy = np.minimum(dy, grid.ly - dy)
        dx = np.minimum(dx, grid.lx - dx)
        reached = np.any(np.hypot(dx, dy) < 2.0 * cutoff, axis=1)
        assert 0 < geometry.empty_columns.size < geometry.n_columns
        np.testing.assert_array_equal(geometry.empty_columns, np.flatnonzero(~reached))


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

