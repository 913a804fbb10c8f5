"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.da.localization as loc_mod
import repro.models.sqg as sqg_mod
from repro.core.filters import relax_spread
from repro.core.observations import IdentityObservation, SubsampledObservation
from repro.core.schedules import LinearAlphaSchedule
from repro.core.score import MonteCarloScoreEstimator
from repro.da.inflation import rtps_inflation
from repro.da.letkf import LETKF, LETKFConfig
from repro.da.localization import gaspari_cohn
from repro.hpc.collectives import CollectiveKind, CollectiveModel
from repro.hpc.ddp import bucketize
from repro.models.sqg import SQGModel, SQGParameters
from repro.surrogate.flops import vit_parameter_count
from repro.surrogate.patch import patchify, unpatchify
from repro.surrogate.vit import ViTConfig
from repro.utils.grid import Grid2D

SETTINGS = dict(max_examples=25, deadline=None)


@settings(**SETTINGS)
@given(
    n_members=st.integers(2, 12),
    dim=st.integers(1, 8),
    t=st.floats(0.01, 0.99),
    seed=st.integers(0, 1000),
)
def test_score_weights_always_normalised(n_members, dim, t, seed):
    rng = np.random.default_rng(seed)
    estimator = MonteCarloScoreEstimator(rng.normal(size=(n_members, dim)) * 3.0, rng=seed)
    z = rng.normal(size=(4, dim)) * 2.0
    weights = estimator.weights(z, t)
    assert np.all(weights >= 0.0)
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-10)
    assert np.isfinite(estimator.score(z, t)).all()


@settings(**SETTINGS)
@given(
    cutoff=st.floats(1.0, 1.0e7),
    distances=st.lists(st.floats(0.0, 5.0e7), min_size=1, max_size=30),
)
def test_gaspari_cohn_bounds_and_support(cutoff, distances):
    d = np.array(distances)
    w = gaspari_cohn(d, cutoff)
    assert np.all((w >= 0.0) & (w <= 1.0))
    assert np.all(w[d >= 2.0 * cutoff] == 0.0)


@settings(**SETTINGS)
@given(
    cutoff=st.floats(1.0, 1.0e7),
    distances=st.lists(st.floats(0.0, 2.5), min_size=2, max_size=40),
)
def test_gaspari_cohn_monotone_decay(cutoff, distances):
    """The correlation never increases with separation (within support and
    across the r = 1, r = 2 knots)."""
    d = np.sort(np.array(distances)) * cutoff  # scaled into [0, 2.5c]
    w = gaspari_cohn(d, cutoff)
    assert np.all(np.diff(w) <= 1.0e-12)


def _gc_piecewise(r: float) -> float:
    """Gaspari & Cohn (1999) Eq. 4.10 evaluated literally (test oracle)."""
    if r <= 1.0:
        return -0.25 * r**5 + 0.5 * r**4 + 0.625 * r**3 - (5.0 / 3.0) * r**2 + 1.0
    if r < 2.0:
        return (
            (1.0 / 12.0) * r**5
            - 0.5 * r**4
            + 0.625 * r**3
            + (5.0 / 3.0) * r**2
            - 5.0 * r
            + 4.0
            - (2.0 / 3.0) / r
        )
    return 0.0


@settings(**SETTINGS)
@given(cutoff=st.floats(1.0e-3, 1.0e7))
def test_gaspari_cohn_knot_points_exact(cutoff):
    """Exact agreement with the piecewise polynomial at the knots r ∈ {0, 1, 2}
    (in units of the cut-off), where the two rational pieces meet."""
    knots = np.array([0.0, cutoff, 2.0 * cutoff])
    w = gaspari_cohn(knots, cutoff)
    assert w[0] == 1.0
    assert w[1] == _gc_piecewise(1.0)
    assert w[2] == 0.0
    # the two polynomial pieces agree at the interior knot
    near = -0.25 + 0.5 + 0.625 - 5.0 / 3.0 + 1.0
    far = 1.0 / 12.0 - 0.5 + 0.625 + 5.0 / 3.0 - 5.0 + 4.0 - 2.0 / 3.0
    assert abs(near - far) < 1.0e-15
    assert abs(w[1] - near) < 1.0e-15


@settings(**SETTINGS)
@given(
    cutoff=st.floats(0.5, 1.0e6),
    scaled=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=25),
)
def test_gaspari_cohn_matches_piecewise_everywhere(cutoff, scaled):
    """The vectorised kernel equals the literal piecewise form (clipped to
    [0, 1]) at arbitrary separations, not just the knots."""
    d = np.array(scaled) * cutoff
    w = gaspari_cohn(d, cutoff)
    expected = np.clip([_gc_piecewise(r) for r in scaled], 0.0, 1.0)
    np.testing.assert_allclose(w, expected, rtol=0.0, atol=5.0e-14)


@settings(**SETTINGS)
@given(
    m=st.integers(2, 10),
    d=st.integers(1, 20),
    factor=st.floats(0.0, 1.0),
    seed=st.integers(0, 500),
)
def test_spread_relaxation_preserves_mean(m, d, factor, seed):
    rng = np.random.default_rng(seed)
    forecast = rng.normal(size=(m, d)) * 2.0
    analysis = rng.normal(size=(m, d))
    relaxed = relax_spread(analysis, forecast, factor=factor)
    assert np.allclose(relaxed.mean(axis=0), analysis.mean(axis=0), atol=1e-10)
    rtps = rtps_inflation(analysis, forecast, factor)
    assert np.allclose(rtps.mean(axis=0), analysis.mean(axis=0), atol=1e-10)


@settings(**SETTINGS)
@given(
    batch=st.integers(1, 3),
    grid_exp=st.sampled_from([8, 16, 32]),
    patch=st.sampled_from([2, 4, 8]),
    channels=st.integers(1, 3),
    seed=st.integers(0, 100),
)
def test_patchify_roundtrip(batch, grid_exp, patch, channels, seed):
    fields = np.random.default_rng(seed).normal(size=(batch, channels, grid_exp, grid_exp))
    patches = patchify(fields, patch)
    assert patches.shape == (batch, (grid_exp // patch) ** 2, channels * patch * patch)
    assert np.allclose(unpatchify(patches, patch, channels, grid_exp, grid_exp), fields)


@settings(**SETTINGS)
@given(
    nx=st.sampled_from([4, 8, 16]),
    ny=st.sampled_from([4, 8, 16]),
    nlev=st.integers(1, 3),
    seed=st.integers(0, 100),
)
def test_grid_flatten_roundtrip(nx, ny, nlev, seed):
    grid = Grid2D(nx=nx, ny=ny, nlev=nlev)
    state = np.random.default_rng(seed).normal(size=grid.shape)
    assert np.allclose(grid.unflatten_state(grid.flatten_state(state)), state)


@settings(**SETTINGS)
@given(
    total_mb=st.floats(0.0, 5000.0),
    bucket_mb=st.floats(1.0, 1000.0),
)
def test_bucketize_conserves_volume(total_mb, bucket_mb):
    buckets = bucketize(total_mb, bucket_mb)
    assert sum(buckets) == (total_mb if total_mb > 0 else 0) or np.isclose(sum(buckets), total_mb)
    assert all(0 < b <= bucket_mb + 1e-9 for b in buckets)


@settings(**SETTINGS)
@given(
    depth=st.integers(1, 8),
    embed_exp=st.sampled_from([64, 128, 256, 512]),
    heads=st.sampled_from([2, 4, 8]),
)
def test_parameter_count_monotone_in_depth_and_width(depth, embed_exp, heads):
    base = ViTConfig(image_size=32, patch_size=4, depth=depth, num_heads=heads, embed_dim=embed_exp)
    deeper = ViTConfig(image_size=32, patch_size=4, depth=depth + 1, num_heads=heads, embed_dim=embed_exp)
    wider = ViTConfig(image_size=32, patch_size=4, depth=depth, num_heads=heads, embed_dim=embed_exp * 2)
    assert vit_parameter_count(deeper) > vit_parameter_count(base)
    assert vit_parameter_count(wider) > vit_parameter_count(base)


@settings(**SETTINGS)
@given(
    t=st.floats(0.001, 0.999),
    eps_alpha=st.floats(0.0, 0.2),
)
def test_schedule_identity_holds_everywhere(t, eps_alpha):
    s = LinearAlphaSchedule(eps_alpha=eps_alpha)
    lhs = s.diffusion_sq(t)
    rhs = s.dbeta_sq_dt(t) - 2.0 * s.drift_coeff(t) * s.beta_sq(t)
    assert np.isclose(lhs, rhs)
    assert s.beta_sq(t) > 0
    assert s.alpha(t) > 0


@settings(**SETTINGS)
@given(
    msg_mb=st.floats(1.0, 2048.0),
    n_gpus=st.sampled_from([2, 8, 64, 512, 1024]),
    kind=st.sampled_from(list(CollectiveKind)),
)
def test_collective_times_positive_and_finite(msg_mb, n_gpus, kind):
    model = CollectiveModel()
    t = model.time_seconds(kind, msg_mb * 2.0**20, n_gpus)
    assert np.isfinite(t) and t > 0.0


@settings(**SETTINGS)
@given(
    shard_columns=st.integers(1, 200),
    uniform_var=st.booleans(),
    every=st.sampled_from([1, 7]),
    seed=st.integers(0, 1000),
)
def test_letkf_analysis_invariant_under_layout(shard_columns, uniform_var, every, seed):
    """The solve-batch size re-partitions independent column solves: the
    analysis is bit-identical for every draw, for uniform and non-uniform R."""
    grid = Grid2D(nx=8, ny=8)
    rng = np.random.default_rng(seed)
    ensemble = rng.normal(size=(6, grid.size))
    n_obs = len(range(0, grid.size, every))
    var = 1.0 if uniform_var else 0.5 + rng.random(n_obs)
    operator = SubsampledObservation.every_nth(grid.size, every, var)
    observation = operator.observe(rng.normal(size=grid.size), rng=rng)
    # non-uniform: every 7th variable at 0.8 dx leaves some columns no
    # observation reaches
    cutoff = 4.0e6 if uniform_var else grid.dx * 0.8
    reference = LETKF(grid, LETKFConfig(cutoff=cutoff)).analyze(ensemble, observation, operator)
    letkf = LETKF(grid, LETKFConfig(cutoff=cutoff, shard_columns=shard_columns))
    analysis = letkf.analyze(ensemble, observation, operator)
    assert np.array_equal(analysis, reference)


def _bilinear_periodic(field, stride):
    """Independent periodic bilinear interpolation of ``field (ny_a, nx_a, ...)``
    to a grid ``stride`` times finer (the convex-combination form)."""
    t = (np.arange(stride) / stride).reshape((stride,) + (1,) * (field.ndim - 1))
    rows = np.stack([(1 - t) * a + t * b for a, b in zip(field, np.roll(field, -1, 0))])
    rows = rows.reshape((-1,) + field.shape[1:])  # (ny, nx_a, ...)
    t = t.reshape((1, stride) + (1,) * (field.ndim - 2))
    fine = (1 - t) * rows[:, :, None] + t * np.roll(rows, -1, 1)[:, :, None]
    return fine.reshape((rows.shape[0], -1) + field.shape[2:])  # (ny, nx, ...)


@settings(max_examples=10, deadline=None)
@given(
    cutoff=st.sampled_from([4.0e6, 8.0e6]),  # 16x16: strides 2 and 4
    members=st.integers(3, 8),
    seed=st.integers(0, 1000),
)
def test_letkf_interpolated_transform_preserves_the_mean(cutoff, members, seed):
    """The symmetric root has 1 as an eigenvector and bilinear interpolation is
    linear, so the analysis mean is x̄ + X′·interp(w̄) with w̄ solved (here by a
    dense ``solve``) on the analysis grid only."""
    grid = Grid2D(nx=16, ny=16)
    rng = np.random.default_rng(seed)
    ensemble = rng.normal(size=(members, grid.size))
    operator = IdentityObservation(grid.size, 0.7)
    observation = operator.observe(rng.normal(size=grid.size), rng=rng)
    letkf = LETKF(grid, LETKFConfig(cutoff=cutoff, rtps_factor=0.0))
    geometry = letkf.geometry(operator)
    assert geometry.stride == (2 if cutoff == 4.0e6 else 4)
    analysis = letkf.analyze(ensemble, observation, operator)

    x_mean = ensemble.mean(axis=0)
    x_pert = ensemble - x_mean
    innovation = observation - x_mean
    obs_columns = grid.column_index(np.arange(grid.size))
    r_inv = gaspari_cohn(grid.column_pair_distances(geometry.columns, obs_columns), cutoff) / 0.7
    c = x_pert[None] * r_inv[:, None, :]  # (n_analysis, m, p)
    a = (members - 1) * np.eye(members) + c @ x_pert.T
    w_mean = np.linalg.solve(a, (c @ innovation)[:, :, None])[..., 0]
    w_fine = _bilinear_periodic(w_mean.reshape(geometry.shape + (members,)), geometry.stride)
    pert = x_pert.reshape(members, grid.nlev, grid.ny, grid.nx)
    expected = x_mean + np.einsum("klyx,yxk->lyx", pert, w_fine).ravel()
    np.testing.assert_allclose(analysis.mean(axis=0), expected, rtol=1e-10, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(members=st.integers(3, 8), seed=st.integers(0, 1000))
def test_letkf_interpolation_is_exact_for_uniform_local_problems(members, seed):
    """Spatially uniform perturbations and innovation give every column the
    same local problem, so interpolated weights equal the solved ones."""
    grid = Grid2D(nx=16, ny=16)
    rng = np.random.default_rng(seed)
    n_columns = grid.ny * grid.nx
    ensemble = np.repeat(rng.normal(size=(members, grid.nlev)), n_columns, axis=1)
    operator = IdentityObservation(grid.size, 0.7)
    observation = np.repeat(rng.normal(size=grid.nlev), n_columns)
    config = LETKFConfig(cutoff=4.0e6, rtps_factor=0.0)
    strided = LETKF(grid, config)
    assert strided.geometry(operator).stride == 2
    analysis = strided.analyze(ensemble, observation, operator)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loc_mod, "_SPACING_FRACTION", 0.0)  # test-only: every column
        every_column = LETKF(grid, config)
        assert every_column.geometry(operator).stride == 1
        expected = every_column.analyze(ensemble, observation, operator)
    assert np.abs(expected - ensemble).max() > 1e-3
    np.testing.assert_allclose(analysis, expected, rtol=1e-10, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(
    members=st.integers(1, 12),
    cuts=st.lists(st.integers(0, 12), max_size=4),
    n_steps=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_sqg_forecast_is_invariant_under_any_member_partition(members, cuts, n_steps, seed):
    """Members are independent: forecasting the parts of any partition and
    concatenating is the whole forecast bit for bit, and so is any chunking
    the kernel picks for itself (chunk 1 … chunk = ensemble)."""
    model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))
    ensemble = np.random.default_rng(seed).standard_normal((members, model.state_size))
    whole = model.forecast(ensemble, n_steps=n_steps)
    bounds = [0, *sorted({c for c in cuts if 0 < c < members}), members]
    parts = [
        model.forecast(ensemble[lo:hi], n_steps=n_steps) for lo, hi in zip(bounds, bounds[1:])
    ]
    assert np.array_equal(np.concatenate(parts), whole)
    budget = sqg_mod._WORKSPACE_BYTES
    try:
        for chunk in (1, members):
            sqg_mod._WORKSPACE_BYTES = chunk * model._member_bytes
            model._workspaces.clear()
            assert np.array_equal(model.forecast(ensemble, n_steps=n_steps), whole)
            assert list(model._workspaces) == [chunk]
    finally:
        sqg_mod._WORKSPACE_BYTES = budget
