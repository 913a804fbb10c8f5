"""Unit tests for the workflow layer (config, metrics)."""

import dataclasses

import numpy as np
import pytest

from repro.da.letkf import LETKFConfig
from repro.workflow.config import ExperimentConfig
from repro.workflow.metrics import error_field, pattern_correlation, rmse_series, spread_skill_ratio


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.ensemble_size == 20
        assert cfg.sqg_parameters().nx == cfg.nx

    def test_paper_scale_matches_section_iv(self):
        cfg = ExperimentConfig.paper_scale()
        assert cfg.nx == 64 and cfg.ny == 64
        assert cfg.n_cycles == 300
        assert cfg.ensemble_size == 20

    def test_smoke_test_is_small(self):
        cfg = ExperimentConfig.smoke_test()
        assert cfg.nx <= 16 and cfg.n_cycles <= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_cycles=0)
        with pytest.raises(ValueError):
            ExperimentConfig(ensemble_size=1)
        with pytest.raises(ValueError):
            ExperimentConfig(nx=30, surrogate_patch=8)

    def test_field_count(self):
        """A ratchet: a field nothing sets or reads was deleted, not kept
        as a default; the count may fall here, never rise."""
        assert len(dataclasses.fields(ExperimentConfig)) == 18

    def test_letkf_config_fields(self):
        """A ratchet beside the one above: every settable LETKF value is a
        flat field here (no nested localization settings); the list may
        shrink, never grow."""
        assert [f.name for f in dataclasses.fields(LETKFConfig)] == [
            "cutoff", "rtps_factor", "prior_inflation", "shard_columns", "backend",
        ]


class TestMetrics:
    def test_rmse_series(self):
        a = np.zeros((3, 4))
        b = np.ones((3, 4)) * 2.0
        assert np.allclose(rmse_series(a, b), 2.0)
        with pytest.raises(ValueError):
            rmse_series(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_pattern_correlation_bounds(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=100)
        assert pattern_correlation(a, a) == pytest.approx(1.0)
        assert pattern_correlation(a, -a) == pytest.approx(-1.0)
        assert pattern_correlation(a, np.zeros(100)) == 0.0

    def test_error_field_shape(self):
        mean = np.arange(2 * 4 * 4, dtype=float)
        truth = np.zeros(2 * 4 * 4)
        err = error_field(mean, truth, (2, 4, 4))
        assert err.shape == (2, 4, 4)
        assert np.allclose(err.ravel(), mean)

    def test_spread_skill_ratio(self):
        spread = np.array([1.0, 1.0, 1.0])
        rmse = np.array([2.0, 2.0, 2.0])
        assert spread_skill_ratio(spread, rmse) == pytest.approx(0.5)
        assert spread_skill_ratio(spread, np.zeros(3)) == 0.0
