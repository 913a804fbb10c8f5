"""Unit tests for repro.utils (random streams, grid geometry, spectra, bench JSON, env-knob census)."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.utils.grid import Grid2D, periodic_delta, periodic_distance_matrix, chord_distance_km
import repro.utils.random as random_mod
from repro.utils.random import (
    SeedSequenceFactory,
    default_rng,
    sample_from_catalogue,
    split_rng,
)
from repro.utils.timing import write_bench_json
from repro.utils.spectra import isotropic_spectrum, kinetic_energy_spectrum, spectral_slope


class TestRandom:
    def test_default_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert default_rng(rng) is rng

    def test_default_rng_from_seed_reproducible(self):
        assert default_rng(42).normal() == default_rng(42).normal()

    def test_split_rng_independent_streams(self):
        children = split_rng(default_rng(0), 3)
        draws = [c.normal(size=4) for c in children]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_split_rng_negative_raises(self):
        with pytest.raises(ValueError):
            split_rng(default_rng(0), -1)

    def test_seed_factory_same_name_same_stream(self):
        factory = SeedSequenceFactory(7)
        assert factory.rng("obs").normal() == factory.rng("obs").normal()

    def test_seed_factory_different_names_differ(self):
        factory = SeedSequenceFactory(7)
        assert factory.rng("obs").normal() != factory.rng("truth").normal()

    def test_seed_factory_collision_prone_names_distinct(self):
        """Regression: the byte-sum hash mapped anagrams (and any equal
        byte-sum pair) to identical spawn keys, silently correlating
        "independent" streams; the sha256 derivation must keep them apart."""
        factory = SeedSequenceFactory(7)
        for a, b in [("ab", "ba"), ("ad", "bc"), ("truth", "thrut"), ("a" * 4, "b" * 2)]:
            seq_a, seq_b = factory.seed_for(a), factory.seed_for(b)
            assert seq_a.spawn_key != seq_b.spawn_key, (a, b)
            assert factory.rng(a).normal() != factory.rng(b).normal(), (a, b)

    def test_sample_from_catalogue_exported(self):
        assert "sample_from_catalogue" in random_mod.__all__

    def test_sample_from_catalogue_shape(self):
        catalogue = np.arange(40.0).reshape(10, 4)
        out = sample_from_catalogue(catalogue, 6, default_rng(0))
        assert out.shape == (6, 4)

    def test_sample_from_catalogue_without_replacement_limit(self):
        with pytest.raises(ValueError):
            sample_from_catalogue(np.zeros((3, 2)), 5, default_rng(0), replace=False)


class TestGrid:
    def test_periodic_delta_wraps(self):
        assert periodic_delta(np.array(9.0), np.array(1.0), 10.0) == pytest.approx(-2.0)

    def test_distance_matrix_symmetry_and_zero_diagonal(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [9.0, 9.0]])
        d = periodic_distance_matrix(pts, pts, 10.0, 10.0)
        assert np.allclose(np.diag(d), 0.0)
        assert np.allclose(d, d.T)

    def test_distance_uses_minimum_image(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[9.0, 0.0]])
        d = periodic_distance_matrix(a, b, 10.0, 10.0)
        assert d[0, 0] == pytest.approx(1.0)

    def test_chord_distance_quarter_circle(self):
        d = chord_distance_km(0.0, 0.0, 0.0, 90.0)
        assert d == pytest.approx(np.pi / 2 * 6371.0, rel=1e-6)

    def test_grid_flatten_roundtrip(self):
        grid = Grid2D(nx=8, ny=4, nlev=2)
        state = np.arange(grid.size, dtype=float).reshape(grid.shape)
        assert np.array_equal(grid.unflatten_state(grid.flatten_state(state)), state)

    def test_grid_flatten_batched(self):
        grid = Grid2D(nx=4, ny=4, nlev=2)
        states = np.random.default_rng(0).normal(size=(3,) + grid.shape)
        flat = grid.flatten_state(states)
        assert flat.shape == (3, grid.size)
        assert np.array_equal(grid.unflatten_state(flat), states)

    def test_grid_column_index(self):
        grid = Grid2D(nx=4, ny=4, nlev=2)
        idx = np.array([0, 15, 16, 31])
        assert np.array_equal(grid.column_index(idx), np.array([0, 15, 0, 15]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid2D(nx=0, ny=4)
        with pytest.raises(ValueError):
            Grid2D(nx=4, ny=4, lx=-1.0)

    def test_point_coordinates_shape(self):
        grid = Grid2D(nx=4, ny=6, nlev=2)
        assert grid.point_coordinates().shape == (24, 2)


class TestSpectra:
    def test_isotropic_spectrum_of_single_mode(self):
        n = 32
        x = np.arange(n) / n
        xx, yy = np.meshgrid(x, x)
        field = np.sin(2 * np.pi * 4 * xx)
        k, spec = isotropic_spectrum(field)
        assert k[np.argmax(spec)] == pytest.approx(4.0)

    def test_spectral_slope_recovers_power_law(self):
        k = np.arange(1.0, 32.0)
        spec = k**-3.0
        slope = spectral_slope(k, spec, k_min=2, k_max=30)
        assert slope == pytest.approx(-3.0, abs=1e-6)

    def test_spectral_slope_needs_points(self):
        with pytest.raises(ValueError):
            spectral_slope(np.array([1.0, 2.0]), np.array([1.0, 1.0]), k_min=10, k_max=20)

    def test_kinetic_energy_spectrum_nonnegative(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 16, 16))
        k, ke = kinetic_energy_spectrum(u, v)
        assert np.all(ke >= 0)

    def test_isotropic_spectrum_requires_2d(self):
        with pytest.raises(ValueError):
            isotropic_spectrum(np.zeros(10))


class TestBenchJson:
    def test_write_bench_json(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        payload = write_bench_json(path, benchmark="unit", letkf={"speedup": 6.0})
        assert json.loads(path.read_text(encoding="utf-8")) == payload
        assert set(payload) == {"benchmark", "created_unix", "letkf"}
        assert payload["benchmark"] == "unit"
        assert payload["letkf"]["speedup"] == 6.0


class TestKnobCensus:
    """ROADMAP's knob count, counted by CI instead of by hand.  A ratchet:
    the set may only shrink."""

    KNOBS = {"REPRO_ARRAY_BACKEND", "REPRO_FAULT_PLAN"}
    # Deleted knobs the README names only to say an exported value is ignored.
    RETIRED = {"REPRO_DEVICE_RNG"}

    @staticmethod
    def _names(paths):
        found = set()
        for path in paths:
            found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
        return found

    def test_src_reads_exactly_the_documented_knobs(self):
        root = Path(__file__).resolve().parents[2]
        in_src = self._names((root / "src").rglob("*.py"))
        assert in_src == self.KNOBS
        in_readme = self._names([root / "README.md"])
        assert self.KNOBS <= in_readme
        # every knob the README names is read by src/ or the benchmarks
        # (REPRO_FULL_SCALE), so a deleted one cannot linger in the docs
        read = in_src | self._names((root / "benchmarks").rglob("*.py"))
        assert in_readme - self.RETIRED <= read
        assert self.RETIRED.isdisjoint(read)


class TestReadmeKeywords:
    """Every keyword the README passes to a run-policy or executor
    constructor is a real parameter, so a deleted one cannot linger in an
    example."""

    @staticmethod
    def _keywords(text: str, name: str) -> list[set[str]]:
        """Top-level keywords of each ``name(...)`` call in ``text``."""
        calls = []
        for match in re.finditer(rf"\b{name}\(", text):
            depth, args = 1, []
            for ch in text[match.end():]:
                if ch == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif ch == "(":
                    depth += 1
                elif depth == 1:
                    args.append(ch)
            else:
                raise AssertionError(f"unclosed {name}( call in README")
            calls.append(set(re.findall(r"(\w+)\s*=(?!=)", "".join(args))))
        return calls

    def test_readme_keywords_are_parameters(self):
        import inspect

        from repro.core.observations import ObservationQC
        from repro.da.cycling import OSSEConfig
        from repro.hpc.ensemble_parallel import EnsembleExecutor
        from repro.workflow.engine import DivergencePolicy

        readme = (Path(__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
        for cls in (OSSEConfig, DivergencePolicy, ObservationQC, EnsembleExecutor):
            calls = self._keywords(readme, cls.__name__)
            assert calls, cls.__name__  # the README still shows the constructor
            params = set(inspect.signature(cls).parameters)
            for keywords in calls:
                assert keywords <= params, (cls.__name__, keywords - params)
