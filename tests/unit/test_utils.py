"""Unit tests for repro.utils (random streams, grid geometry, spectra, timing)."""

import numpy as np
import pytest

from repro.utils.grid import Grid2D, periodic_delta, periodic_distance_matrix, chord_distance_km
import repro.utils.random as random_mod
from repro.utils.random import (
    MemberStreams,
    SeedSequenceFactory,
    bitgen_name,
    default_rng,
    make_generator,
    sample_from_catalogue,
    split_rng,
)
from repro.utils.spectra import isotropic_spectrum, kinetic_energy_spectrum, spectral_slope
from repro.utils.timing import Stopwatch, Timer


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

    def test_seed_factory_member_rngs(self):
        factory = SeedSequenceFactory(3)
        rngs = factory.member_rngs("ensemble", 5)
        assert len(rngs) == 5
        vals = [r.normal() for r in rngs]
        assert len(set(np.round(vals, 12))) == 5

    def test_seed_factory_collision_prone_names_distinct(self):
        """Regression: the byte-sum hash mapped anagrams (and any equal
        byte-sum pair) to identical spawn keys, silently correlating
        "independent" streams; the sha256 derivation must keep them apart."""
        factory = SeedSequenceFactory(7)
        for a, b in [("ab", "ba"), ("ad", "bc"), ("truth", "thrut"), ("a" * 4, "b" * 2)]:
            seq_a, seq_b = factory.seed_for(a), factory.seed_for(b)
            assert seq_a.spawn_key != seq_b.spawn_key, (a, b)
            assert factory.rng(a).normal() != factory.rng(b).normal(), (a, b)

    def test_seed_factory_indexed_substreams(self):
        factory = SeedSequenceFactory(5)
        a0 = np.random.default_rng(factory.seed_for("ensf-parallel", 0)).normal()
        a1 = np.random.default_rng(factory.seed_for("ensf-parallel", 1)).normal()
        again = np.random.default_rng(factory.seed_for("ensf-parallel", 0)).normal()
        assert a0 != a1
        assert a0 == again
        other_root = SeedSequenceFactory(6).seed_for("ensf-parallel", 0)
        assert np.random.default_rng(other_root).normal() != a0

    def test_member_streams_layout_invariant_draws(self):
        seeds = np.random.SeedSequence(0).spawn(6)
        full = MemberStreams(seeds).standard_normal((6, 4))
        head = MemberStreams(seeds[:2]).standard_normal((2, 4))
        tail = MemberStreams(seeds[2:]).standard_normal((4, 4))
        np.testing.assert_array_equal(full, np.concatenate([head, tail], axis=0))

    def test_member_streams_out_and_validation(self):
        streams = MemberStreams([1, 2, 3])
        assert default_rng(streams) is streams
        out = np.empty((3, 5))
        assert streams.standard_normal(out=out) is out
        with pytest.raises(ValueError):
            streams.standard_normal((4, 5))
        with pytest.raises(ValueError):
            streams.standard_normal()
        with pytest.raises(ValueError):
            MemberStreams([])

    def test_sample_from_catalogue_exported(self):
        assert "sample_from_catalogue" in random_mod.__all__
        from repro.utils import sample_from_catalogue as reexported

        assert reexported is sample_from_catalogue

    def test_sample_from_catalogue_shape(self):
        catalogue = np.arange(40.0).reshape(10, 4)
        out = sample_from_catalogue(catalogue, 6, default_rng(0))
        assert out.shape == (6, 4)

    def test_sample_from_catalogue_without_replacement_limit(self):
        with pytest.raises(ValueError):
            sample_from_catalogue(np.zeros((3, 2)), 5, default_rng(0), replace=False)


class TestBitGenerator:
    """``REPRO_RNG_BITGEN`` selection (ISSUE 10 tentpole satellite)."""

    def test_default_is_bit_identical_to_default_rng(self, monkeypatch):
        monkeypatch.delenv("REPRO_RNG_BITGEN", raising=False)
        assert bitgen_name() == "pcg64"
        a = make_generator(42)
        b = np.random.default_rng(42)
        np.testing.assert_array_equal(a.standard_normal(64), b.standard_normal(64))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize(
        "name, cls",
        [("sfc64", np.random.SFC64), ("philox", np.random.Philox)],
    )
    def test_alternate_bitgen_selected_everywhere(self, name, cls, monkeypatch):
        monkeypatch.setenv("REPRO_RNG_BITGEN", name)
        assert bitgen_name() == name
        rng = make_generator(7)
        assert isinstance(rng.bit_generator, cls)
        # deterministic per seed, and routed through every seed-consuming path
        np.testing.assert_array_equal(
            rng.standard_normal(8), make_generator(7).standard_normal(8)
        )
        assert isinstance(default_rng(3).bit_generator, cls)
        factory = SeedSequenceFactory(1)
        assert isinstance(factory.rng("obs").bit_generator, cls)
        assert isinstance(factory.member_rngs("ens", 2)[0].bit_generator, cls)
        for child in split_rng(make_generator(0), 2):
            assert isinstance(child.bit_generator, cls)
        streams = MemberStreams(np.random.SeedSequence(0).spawn(3))
        assert all(isinstance(g.bit_generator, cls) for g in streams.generators)

    def test_invalid_bitgen_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_RNG_BITGEN", "mt19937")
        with pytest.raises(ValueError, match="REPRO_RNG_BITGEN"):
            bitgen_name()
        with pytest.raises(ValueError):
            make_generator(0)

    def test_ready_generators_never_rewrapped(self, monkeypatch):
        monkeypatch.setenv("REPRO_RNG_BITGEN", "sfc64")
        ready = np.random.default_rng(0)
        assert default_rng(ready) is ready
        assert isinstance(ready.bit_generator, np.random.PCG64)

    def test_member_streams_layout_invariant_under_sfc64(self, monkeypatch):
        monkeypatch.setenv("REPRO_RNG_BITGEN", "sfc64")
        seeds = np.random.SeedSequence(0).spawn(6)
        full = MemberStreams(seeds).standard_normal((6, 4))
        head = MemberStreams(seeds[:2]).standard_normal((2, 4))
        tail = MemberStreams(seeds[2:]).standard_normal((4, 4))
        np.testing.assert_array_equal(full, np.concatenate([head, tail], axis=0))

    def test_bitgen_round_trip_through_executor_workers(self, monkeypatch):
        """The env knob must survive worker pickling/spawn: a pool analysis
        under sfc64 is bit-identical to the serial member-seeded analysis in
        the parent (worker processes inherit the environment)."""
        from repro.core.ensf import EnSF, EnSFConfig
        from repro.core.observations import IdentityObservation
        from repro.hpc.ensemble_parallel import EnsembleExecutor

        monkeypatch.setenv("REPRO_RNG_BITGEN", "sfc64")
        grid = Grid2D(6, 6)
        rng = np.random.default_rng(0)
        ensemble = rng.standard_normal((6, grid.size))
        truth = rng.standard_normal(grid.size)
        operator = IdentityObservation(grid.size, 1.0)
        observation = operator.observe(truth, rng=rng)
        filt = EnSF(EnSFConfig(n_sde_steps=5), rng=0)
        member_seeds = np.random.SeedSequence(4).spawn(6)
        serial = filt.analyze_members(
            ensemble, observation, operator, member_seeds=member_seeds
        )
        with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as ex:
            parallel = ex.analyze_ensf(filt, ensemble, observation, operator, seed=4)
        np.testing.assert_array_equal(parallel, serial)
        # and the stream family genuinely differs from the default config
        monkeypatch.delenv("REPRO_RNG_BITGEN")
        pcg = filt.analyze_members(
            ensemble, observation, operator, member_seeds=member_seeds
        )
        assert not np.array_equal(serial, pcg)


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


class TestTiming:
    def test_timer_measures_nonnegative(self):
        with Timer() as t:
            sum(range(100))
        assert t.elapsed >= 0.0

    def test_stopwatch_accumulates_and_fractions(self):
        sw = Stopwatch()
        sw.start("a")
        sw.stop("a")
        sw.start("b")
        sw.stop("b")
        assert set(sw.fractions()) == {"a", "b"}
        assert sum(sw.fractions().values()) == pytest.approx(1.0)

    def test_stopwatch_unknown_lap_raises(self):
        sw = Stopwatch()
        with pytest.raises(KeyError):
            sw.stop("never-started")
        with pytest.raises(KeyError):
            sw.mean("missing")
