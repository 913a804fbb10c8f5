"""Unit tests for the pluggable FFT backend shim (`repro.utils.fft`).

The shim must (a) default sensibly, (b) honour the ``REPRO_FFT_BACKEND``
environment variable and programmatic overrides, (c) fall back to numpy when
scipy is absent — the whole package must import and run on numpy-only
installs — and (d) keep the two pocketfft backends bit-identical.
"""

import pickle
import sys

import numpy as np
import pytest

import repro.utils.fft as fft_mod
from repro.utils.fft import (
    FFTBackend,
    available_backends,
    default_backend_name,
    resolve_backend,
    set_default_backend,
)


@pytest.fixture(autouse=True)
def _restore_defaults():
    yield
    set_default_backend(None)


class TestSelection:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        backend = resolve_backend("numpy")
        assert backend.name == "numpy"
        assert backend.rfft2 is np.fft.rfft2

    @pytest.mark.parametrize("name", ["fftw", "cupy", "mock-device"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(ValueError, match="unknown FFT backend"):
            resolve_backend(name)
        with pytest.raises(ValueError, match="unknown FFT backend"):
            set_default_backend(name)

    def test_explicit_backend_object_passthrough(self):
        backend = resolve_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_env_var_forces_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_FFT_BACKEND", "numpy")
        assert default_backend_name() == "numpy"
        assert resolve_backend(None).name == "numpy"

    @pytest.mark.parametrize("override", ["scipy", "SciPy"])
    def test_env_var_beats_set_default_backend(self, monkeypatch, override):
        """The env var is the operator's override of record (same contract
        as REPRO_ARRAY_BACKEND in the array shim)."""
        monkeypatch.setenv("REPRO_FFT_BACKEND", "numpy")
        set_default_backend(override)
        assert default_backend_name() == "numpy"
        monkeypatch.delenv("REPRO_FFT_BACKEND")
        assert default_backend_name() == "scipy"  # override takes over
        set_default_backend(None)
        assert default_backend_name() in available_backends()

    @pytest.mark.parametrize("name", ["fftw", "cupy", "mock-device"])
    def test_unknown_env_backend_raises_with_available_list(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_FFT_BACKEND", name)
        with pytest.raises(ValueError, match=r"unknown FFT backend.*available") as excinfo:
            resolve_backend(None)
        assert all(repr(choice) in str(excinfo.value) for choice in available_backends())

    def test_auto_resolves_somewhere_valid(self):
        assert resolve_backend("auto").name in available_backends()

    def test_explicit_auto_follows_env_precedence(self, monkeypatch):
        """resolve_backend("auto") must honour the env var exactly like
        resolve_backend(None) (regression: it used to go straight to host
        auto-detection)."""
        monkeypatch.setenv("REPRO_FFT_BACKEND", "numpy")
        assert resolve_backend("auto").name == "numpy"

    @pytest.mark.parametrize("raw", ["0", "abc"])
    def test_bad_worker_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FFT_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_FFT_WORKERS must be a positive integer"):
            fft_mod._fft_workers()


class TestNumpyFallback:
    def test_scipy_absent_falls_back_to_numpy(self, monkeypatch):
        """Simulate a numpy-only install: auto selection must pick numpy."""
        monkeypatch.delenv("REPRO_FFT_BACKEND", raising=False)
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.fft", None)
        monkeypatch.setattr(fft_mod, "_cache", {})
        assert available_backends() == ("numpy",)
        assert default_backend_name() == "numpy"
        backend = resolve_backend(None)
        assert backend.name == "numpy"
        # explicit scipy request surfaces a clear error instead of a crash
        with pytest.raises(ImportError, match="not installed"):
            resolve_backend("scipy")

    def test_grid_builds_without_scipy(self, monkeypatch):
        from repro.models.spectral import SpectralGrid

        monkeypatch.delenv("REPRO_FFT_BACKEND", raising=False)
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.fft", None)
        monkeypatch.setattr(fft_mod, "_cache", {})
        grid = SpectralGrid(16, 16, 1.0, 1.0)
        assert grid.fft.name == "numpy"
        rng = np.random.default_rng(0)
        field = rng.standard_normal((16, 16))
        np.testing.assert_allclose(
            grid.to_physical(grid.to_spectral(field)), field, atol=1e-12
        )


class TestBackendParity:
    @pytest.mark.skipif(
        "scipy" not in available_backends(), reason="scipy not installed"
    )
    def test_scipy_and_numpy_bit_identical(self):
        a = resolve_backend("numpy")
        b = resolve_backend("scipy")
        rng = np.random.default_rng(1)
        field = rng.standard_normal((3, 2, 32, 32))
        spec_a = a.rfft2(field, axes=(-2, -1))
        spec_b = b.rfft2(field, axes=(-2, -1))
        np.testing.assert_array_equal(spec_a, spec_b)
        np.testing.assert_array_equal(
            a.irfft2(spec_a, s=(32, 32), axes=(-2, -1)),
            b.irfft2(spec_b, s=(32, 32), axes=(-2, -1)),
        )
        w_a = a.ifft(spec_a, axis=-2)
        np.testing.assert_array_equal(w_a, b.ifft(spec_b, axis=-2))
        np.testing.assert_array_equal(
            a.irfft(w_a, n=32, axis=-1), b.irfft(w_a, n=32, axis=-1)
        )


class TestPickling:
    def test_backend_pickles_by_name(self):
        for name in available_backends():
            backend = resolve_backend(name)
            clone = pickle.loads(pickle.dumps(backend))
            assert isinstance(clone, FFTBackend)
            assert clone.name == name

    def test_custom_backend_pickles_by_fields(self):
        """Accelerator-style backends must not be coerced through the registry."""
        f = np.fft
        custom = FFTBackend(
            name="custom-accel",
            rfft2=f.rfft2, irfft2=f.irfft2, rfft=f.rfft,
            irfft=f.irfft, fft=f.fft, ifft=f.ifft,
        )
        clone = pickle.loads(pickle.dumps(custom))
        assert clone.name == "custom-accel"
        assert clone.rfft2 is np.fft.rfft2
