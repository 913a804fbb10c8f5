"""Certification of the ensemble-space reverse-SDE integrator.

``ReverseSDESampler.sample_ensemble_space`` claims the *same discretisation
and output law* as the full-space Euler loop, not the same bits (it consumes
``(blocks, M) + d`` Gaussians per member instead of ``blocks · d``).  Two
kinds of evidence:

* **Algebra** — record ``n_steps + 1`` full-space noise blocks, run
  ``_integrate_buffered`` on them, and feed the ensemble-space path their
  projections ``ξ_s Xᵀ`` (and, at the end, the accumulated noise itself as
  the full-size draw).  Both must land on the same state to rounding.
* **Law** — with independent draws, a fixed-seed two-sample comparison of
  the new sampler against the full-space one, judged against a
  full-space-vs-full-space run of the same size.
"""

import numpy as np
import pytest

from repro.core.ensf import (
    EnSF,
    EnSFConfig,
    _affine_likelihood,
    _ScaledOperator,
    _StateScaler,
)
from repro.core.likelihood import ConstantDamping, CosineDamping, LinearDamping
from repro.core.observations import (
    IdentityObservation,
    NonlinearObservation,
    SubsampledObservation,
)
from repro.core.sde import ReverseSDESampler, _ClosureCoefficients, _colour_noise


class _Replay(np.random.Generator):
    """Serves prepared blocks through the ``standard_normal`` interface."""

    def __init__(self, blocks):
        super().__init__(np.random.PCG64(0))
        self.blocks = list(blocks)

    def standard_normal(self, size=None, out=None):
        block = self.blocks.pop(0)
        if out is None:
            assert tuple(size) == block.shape
            return block.copy()
        out[...] = block
        return out


def _work_problem(operator, ensemble, observation, config):
    """The (scaled) ensemble / operator / observation EnSF integrates on."""
    if not config.scale_states:
        return ensemble, operator, observation
    scaler = _StateScaler(ensemble)
    work_operator = _ScaledOperator(operator, scaler, config.scaled_obs_var_floor)
    return scaler.forward(ensemble), work_operator, work_operator.scale_observation(observation)


OPERATORS = {
    "identity": lambda d: IdentityObservation(d, 0.7),
    "subsampled": lambda d: SubsampledObservation.every_nth(d, 3, 0.8),
}


class TestCoupledEquivalence:
    @pytest.mark.parametrize("scale_states", [True, False], ids=["scaled", "raw"])
    @pytest.mark.parametrize("stochastic", [True, False], ids=["sde", "ode"])
    @pytest.mark.parametrize("kind", sorted(OPERATORS))
    def test_projected_noise_reproduces_full_space_loop(self, kind, stochastic, scale_states):
        rng = np.random.default_rng(0)
        n_members, dim, n = 12, 96, 7
        ensemble = rng.standard_normal((n_members, dim)) * 3.0 + 1.0
        operator = OPERATORS[kind](dim)
        observation = operator.observe(rng.standard_normal(dim) * 3.0 + 1.0, rng=rng)
        config = EnSFConfig(
            n_sde_steps=30, stochastic_sampler=stochastic, scale_states=scale_states
        )
        filt = EnSF(config, rng=0)
        sampler = filt.sampler
        x, work_operator, y = _work_problem(operator, ensemble, observation, config)

        # Full space: Z_T = ξ_0, then one recorded block per Euler step.
        xi = rng.standard_normal((sampler.n_steps + 1, n, dim))
        grid = sampler.schedule.time_grid(
            sampler.n_steps, t_end=sampler.t_end, t_start=sampler.t_start
        )
        full = sampler._integrate_buffered(
            filt.posterior_score_fn(x, y, work_operator),
            xi[0].copy(),
            grid,
            _Replay(xi[1:]),
            None,
        )

        indices, inv_var = _affine_likelihood(work_operator)
        groups = (
            [slice(None)]
            if indices is None
            else [indices, np.setdiff1d(np.arange(dim), indices)]
        )
        blocks = xi if stochastic else xi[:1]
        grams = np.stack([x[:, c] @ x[:, c].T for c in groups])
        noise = np.stack([np.einsum("bnd,md->nbm", blocks[:, :, c], x[:, c]) for c in groups])
        coef = sampler._closure_coefficients(inv_var, config.damping)
        coefs, ybar, tracked, gamma = sampler._integrate_closure(
            grams, x[:, groups[0]] @ y, noise, coef
        )

        # E = Σ γ_s ξ_s by the same linear recursion, in full space.
        accumulated = xi[0].copy()
        closed = np.zeros((n, dim))
        for g, cols in enumerate(groups):
            e = xi[0][:, cols].copy()
            var = 1.0
            for i in range(sampler.n_steps):
                e = coef.c_z[g, i] * e + coef.c_n[i] * xi[i + 1][:, cols]
                var = coef.c_z[g, i] ** 2 * var + coef.c_n[i] ** 2
            closed[:, cols] = coefs[g] @ x[:, cols] + e
            np.testing.assert_allclose(tracked[g], e @ x[:, cols].T, rtol=0, atol=1e-11)
            np.testing.assert_allclose(gamma[g] ** 2, var, rtol=1e-13)
            accumulated[:, cols] = e / np.sqrt(var)
        closed[:, groups[0]] += ybar * y
        np.testing.assert_allclose(closed, full, rtol=0, atol=1e-12)

        # Public method end to end: η chosen so the coloured noise equals the
        # recorded projections (the factor S is read off an identity block),
        # ζ = E / Γ so the materialised remainder is the recorded one.
        identity = np.broadcast_to(
            np.eye(n_members)[None, :, None, :], (1, n_members, len(groups), n_members)
        )
        factors = _colour_noise(grams, identity)[0][:, 0]
        eta = np.stack([noise[g] @ np.linalg.pinv(factors[g]) for g in range(len(groups))], axis=2)
        sample = sampler.sample_ensemble_space(
            x, y, indices, inv_var, config.damping, n, rng=_Replay([eta, accumulated])
        )
        np.testing.assert_allclose(sample, full, rtol=0, atol=1e-12)


class TestSameLaw:
    N = 400

    @staticmethod
    def _discrepancy(a, b, anchors, spans):
        """Two-sample distances: mean z-score, log-variance ratio, chi-square
        on nearest-anchor occupation counts, and the log-ratio of the mean
        square left after projecting out each ``(columns, basis)`` span —
        the part of the state only the accumulated noise reaches."""
        n = a.shape[0]
        pooled = 0.5 * (a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1))
        mean_z = np.abs(a.mean(axis=0) - b.mean(axis=0)) / np.sqrt(2.0 * pooled / n)
        log_var = np.abs(np.log(a.var(axis=0, ddof=1) / b.var(axis=0, ddof=1)))

        def occupation(s):
            nearest = ((s[:, None, :] - anchors[None]) ** 2).sum(axis=2).argmin(axis=1)
            return np.bincount(nearest, minlength=anchors.shape[0])

        ca, cb = occupation(a), occupation(b)
        used = (ca + cb) > 0
        chi_sq = float((((ca - cb) ** 2)[used] / (ca + cb)[used]).sum())

        def residual_ms(s, cols, basis):
            q, _ = np.linalg.qr(basis.T)
            return float(((s[:, cols] - (s[:, cols] @ q) @ q.T) ** 2).mean())

        log_resid = max(
            abs(np.log(residual_ms(a, cols, basis) / residual_ms(b, cols, basis)))
            for cols, basis in spans
        )
        return float(mean_z.max()), float(log_var.max()), chi_sq, log_resid

    @pytest.mark.parametrize("kind", sorted(OPERATORS))
    def test_new_sampler_matches_full_space_law(self, kind):
        rng = np.random.default_rng(3)
        n_members, dim = 5, 48
        ensemble = rng.standard_normal((n_members, dim)) * 0.5
        operator = OPERATORS[kind](dim)
        observation = operator.observe(ensemble.mean(axis=0), rng=rng)
        config = EnSFConfig(n_sde_steps=40, scale_states=False)
        filt = EnSF(config, rng=0)
        sampler = filt.sampler
        score_fn = filt.posterior_score_fn(ensemble, observation, operator)
        indices, inv_var = _affine_likelihood(operator)
        if indices is None:
            spans = [(slice(None), np.vstack([ensemble, observation]))]
        else:
            rest = np.setdiff1d(np.arange(dim), indices)
            spans = [
                (indices, np.vstack([ensemble[:, indices], observation])),
                (rest, ensemble[:, rest]),
            ]

        full_a = sampler.sample(score_fn, self.N, dim, rng=101)
        full_b = sampler.sample(score_fn, self.N, dim, rng=202)
        new = sampler.sample_ensemble_space(
            ensemble, observation, indices, inv_var, config.damping, self.N, rng=303
        )

        yardstick = self._discrepancy(full_b, full_a, ensemble, spans)
        measured = self._discrepancy(new, full_a, ensemble, spans)
        # sanity of the yardstick itself, then new-vs-full against it
        assert yardstick[0] < 4.0 and yardstick[1] < 0.5 and yardstick[3] < 0.1
        assert measured[0] < 4.0
        assert measured[1] < 0.5
        assert measured[2] < max(3.0 * yardstick[2], 20.0)
        assert measured[3] < 0.1
        # the comparison has teeth: the occupation counts are not degenerate
        nearest = ((full_a[:, None, :] - ensemble[None]) ** 2).sum(axis=2).argmin(axis=1)
        assert (np.bincount(nearest, minlength=n_members) >= 10).sum() >= 3


class TestDispatch:
    def _spy(self, monkeypatch, filt):
        calls = []
        for name in ("sample", "sample_ensemble_space"):
            original = getattr(filt.sampler, name)

            def wrapped(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(filt.sampler, name, wrapped)
        return calls

    @pytest.mark.parametrize(
        "operator_factory,config,expected",
        [
            (lambda d: IdentityObservation(d, 1.0), {}, "sample_ensemble_space"),
            (lambda d: SubsampledObservation.every_nth(d, 2, 0.5), {}, "sample_ensemble_space"),
            (
                lambda d: IdentityObservation(d, 1.0),
                {"stochastic_sampler": False, "scale_states": False},
                "sample_ensemble_space",
            ),
            (lambda d: IdentityObservation(d, np.linspace(0.5, 1.5, d)), {}, "sample"),
            (lambda d: NonlinearObservation(d, kind="arctan", obs_error_var=0.5), {}, "sample"),
            (lambda d: IdentityObservation(d, 1.0), {"minibatch": 4}, "sample"),
            (
                lambda d: SubsampledObservation(d, np.array([0, 2, 2, 5]), 1.0),
                {},
                "sample",
            ),
        ],
        ids=[
            "identity", "subsampled", "identity-ode-raw", "nonuniform-R", "nonlinear",
            "minibatch", "repeated-indices",
        ],
    )
    def test_path_follows_operator_properties(self, monkeypatch, operator_factory, config, expected):
        rng = np.random.default_rng(1)
        dim = 16
        ensemble = rng.standard_normal((8, dim))
        operator = operator_factory(dim)
        observation = operator.observe(rng.standard_normal(dim), rng=rng)
        filt = EnSF(EnSFConfig(n_sde_steps=5, **config), rng=2)
        calls = self._spy(monkeypatch, filt)
        analysis = filt.analyze(ensemble, observation, operator)
        assert calls == [expected]
        assert analysis.shape == ensemble.shape and np.isfinite(analysis).all()

    def test_diverged_ensemble_gives_non_finite_analysis_not_an_error(self):
        """Campaign drivers screen diverged jobs by their non-finite result,
        which the full-space loop produces without raising."""
        rng = np.random.default_rng(5)
        ensemble = rng.standard_normal((5, 12))
        ensemble[2, 3] = np.inf
        operator = IdentityObservation(12, 1.0)
        with np.errstate(all="ignore"):
            analysis = EnSF(EnSFConfig(n_sde_steps=5), rng=0).analyze(
                ensemble, np.zeros(12), operator
            )
        assert analysis.shape == ensemble.shape
        assert not np.isfinite(analysis).any()

    def test_safeguard_clips_the_materialised_state(self):
        rng = np.random.default_rng(4)
        ensemble = rng.standard_normal((5, 12)) * 50.0
        operator = IdentityObservation(12, 1.0)
        filt = EnSF(EnSFConfig(n_sde_steps=5, scale_states=False), rng=0)
        filt.sampler.max_state_magnitude = 2.0
        indices, inv_var = _affine_likelihood(operator)
        sample = filt.sampler.sample_ensemble_space(
            ensemble, ensemble[0], indices, inv_var, filt.config.damping, 6, rng=1
        )
        assert np.abs(sample).max() == 2.0


def _head_closure_coefficients(sampler, inv_var, damping):
    """``ReverseSDESampler._closure_coefficients`` before its schedule terms
    were cached, body verbatim (``self`` → ``sampler``)."""
    grid = sampler.schedule.time_grid(sampler.n_steps, t_end=sampler.t_end, t_start=sampler.t_start)
    t = grid[:-1]
    dt = grid[:-1] - grid[1:]
    alpha = np.asarray(sampler.schedule.alpha(t), dtype=float)
    beta_sq = np.asarray(sampler.schedule.beta_sq(t), dtype=float)
    diffusion_dt = sampler.schedule.diffusion_sq(t) * dt
    gain = diffusion_dt if sampler.stochastic else 0.5 * diffusion_dt
    c_y = gain * inv_var * np.array([float(damping(float(ti))) for ti in t])
    c_free = 1.0 - sampler.schedule.drift_coeff(t) * dt - gain / beta_sq
    return _ClosureCoefficients(
        c_z=np.stack([c_free - c_y, c_free]),
        c_x=gain * alpha / beta_sq,
        c_y=c_y,
        c_n=diffusion_dt**0.5 if sampler.stochastic else np.zeros_like(dt),
        logit_lin=alpha / beta_sq,
        logit_quad=-0.5 * alpha**2 / beta_sq,
    )


class TestClosureCache:
    """The schedule-only closure terms are computed once per sampler: a
    reused sampler must give a fresh sampler's bits, whatever changed."""

    INV_VARS = (2.0, 0.7, 1.0 / 3.0, 13.5)

    @staticmethod
    def _problem(subsampled):
        rng = np.random.default_rng(3)
        ensemble = rng.standard_normal((8, 24)) * 2.0
        observation = rng.standard_normal(24)
        indices = np.arange(0, 24, 3) if subsampled else None
        if subsampled:
            observation = observation[indices]
        return ensemble, observation, indices

    @staticmethod
    def _fresh(sampler):
        return ReverseSDESampler(
            schedule=sampler.schedule,
            n_steps=sampler.n_steps,
            stochastic=sampler.stochastic,
            t_start=sampler.t_start,
        )

    def _assert_reuse_matches_fresh(self, sampler, damping, subsampled):
        ensemble, observation, indices = self._problem(subsampled)
        for seed, inv_var in enumerate(self.INV_VARS):
            args = (ensemble, observation, indices, inv_var, damping, 5)
            reused = sampler.sample_ensemble_space(*args, rng=seed)
            fresh = self._fresh(sampler).sample_ensemble_space(*args, rng=seed)
            assert np.array_equal(reused, fresh), (seed, inv_var)

    @pytest.mark.parametrize("subsampled", [False, True], ids=["identity", "subsampled"])
    @pytest.mark.parametrize("stochastic", [True, False], ids=["sde", "ode"])
    def test_reused_sampler_matches_a_fresh_one(self, stochastic, subsampled):
        sampler = ReverseSDESampler(n_steps=12, stochastic=stochastic)
        damping = LinearDamping()
        self._assert_reuse_matches_fresh(sampler, damping, subsampled)
        sampler.n_steps = 7
        self._assert_reuse_matches_fresh(sampler, damping, subsampled)
        sampler.t_start = 0.05
        self._assert_reuse_matches_fresh(sampler, damping, subsampled)
        self._assert_reuse_matches_fresh(sampler, CosineDamping(), subsampled)
        self._assert_reuse_matches_fresh(sampler, ConstantDamping(0.4), subsampled)

    @pytest.mark.parametrize("stochastic", [True, False], ids=["sde", "ode"])
    def test_coefficients_equal_the_uncached_ones(self, stochastic):
        sampler = ReverseSDESampler(n_steps=30, stochastic=stochastic, t_start=0.01)
        for damping in (LinearDamping(), CosineDamping(), LinearDamping(), ConstantDamping(2.0)):
            for inv_var in self.INV_VARS:
                cached = sampler._closure_coefficients(inv_var, damping)
                head = _head_closure_coefficients(sampler, inv_var, damping)
                for name in _ClosureCoefficients._fields:
                    assert np.array_equal(getattr(cached, name), getattr(head, name)), name
