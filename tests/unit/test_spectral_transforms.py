"""The one FFT path: every spectral transform is ``numpy.fft`` through the
grid's array backend.

``SpectralGrid`` has no FFT selection of its own.  These tests pin that
contract on every registered array backend: (a) each FFT operation of the
backend *is* numpy's, (b) the grid's transforms invert each other and the
retained-column pair matches the full pair bit for bit, on square and
non-square grids, with and without dealiasing, (c) a device grid transforms
bit-identically to a host grid and meters no transfer, and (d) the
environment variables of the former FFT selection change nothing.
"""

import pickle

import numpy as np
import pytest

from repro.models.spectral import SpectralGrid
from repro.utils.fft import default_backend_name
from repro.utils.xp import MockDeviceBackend, available_backends, resolve_backend

BACKENDS = available_backends()
SHAPES = [(16, 16), (32, 16), (12, 20)]
TRANSFORMS = ["to_spectral", "to_physical", "to_spectral_retained", "to_physical_retained"]


def _field(nx: int, ny: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((3, 2, ny, nx))


def _inputs(grid: SpectralGrid, seed: int = 0) -> dict:
    """A valid input for each transform of ``grid``."""
    field = _field(grid.nx, grid.ny, seed)
    spec = grid.truncate(np.fft.rfft2(field))
    return {
        "to_spectral": field,
        "to_physical": spec,
        "to_spectral_retained": field,
        "to_physical_retained": np.ascontiguousarray(spec[..., : grid.kx_keep]),
    }


class TestArrayBackendFFT:
    @pytest.mark.parametrize("op", ["irfft2", "rfft", "irfft", "fft", "ifft"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fft_ops_are_numpy_fft(self, backend, op):
        assert getattr(resolve_backend(backend), op) is getattr(np.fft, op)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rfft2_is_numpy_rfft2(self, backend):
        field = _field(16, 8)
        np.testing.assert_array_equal(
            resolve_backend(backend).rfft2(field, axes=(-2, -1)), np.fft.rfft2(field)
        )


class TestGridTransforms:
    @pytest.mark.parametrize("nx,ny", SHAPES, ids=lambda v: str(v))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_roundtrip(self, backend, nx, ny):
        grid = SpectralGrid(nx, ny, 1.0, 2.0, array_backend=backend)
        field = _field(nx, ny, seed=nx + ny)
        spec = grid.to_spectral(field)
        assert spec.shape == (3, 2) + grid.spectral_shape
        back = grid.to_physical(spec)
        assert back.dtype.kind == "f"
        np.testing.assert_allclose(back, field, atol=1e-12)

    @pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "full"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_retained_pair_matches_full_pair(self, backend, dealias):
        grid = SpectralGrid(24, 16, 1.0, 1.0, dealias=dealias, array_backend=backend)
        assert grid.kx_keep == (9 if dealias else 13)
        inputs = _inputs(grid, seed=3)
        field, spec = inputs["to_spectral"], inputs["to_physical"]
        np.testing.assert_array_equal(
            grid.to_spectral_retained(field), grid.to_spectral(field)[..., : grid.kx_keep]
        )
        np.testing.assert_array_equal(
            grid.to_physical_retained(inputs["to_physical_retained"]), grid.to_physical(spec)
        )

    @pytest.mark.parametrize("nx,ny", SHAPES, ids=lambda v: str(v))
    def test_device_grid_bit_identical_to_host_grid(self, nx, ny):
        host = SpectralGrid(nx, ny, 1.0, 1.0, array_backend="numpy")
        device = SpectralGrid(nx, ny, 1.0, 1.0, array_backend=MockDeviceBackend())
        for name, arg in _inputs(host, seed=5).items():
            np.testing.assert_array_equal(
                getattr(device, name)(arg), getattr(host, name)(arg), err_msg=name
            )

    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_transform_meters_no_transfer(self, transform):
        xp = MockDeviceBackend()
        grid = SpectralGrid(16, 16, 1.0, 1.0, array_backend=xp)
        arg = xp.to_device(_inputs(grid)[transform])
        xp.reset_transfers()
        getattr(grid, transform)(arg)
        assert xp.transfer_counts() == dict.fromkeys(
            ("h2d_calls", "d2h_calls", "h2d_bytes", "d2h_bytes"), 0
        )

    @pytest.mark.parametrize("transform", ["to_spectral", "to_physical", "to_spectral_retained"])
    def test_rejects_wrong_trailing_shape(self, transform):
        grid = SpectralGrid(16, 16, 1.0, 1.0)
        wrong = _inputs(SpectralGrid(16, 8, 1.0, 1.0))[transform]
        with pytest.raises(ValueError, match="trailing shape"):
            getattr(grid, transform)(wrong)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_grid_pickles_with_its_backend(self, backend):
        grid = SpectralGrid(16, 12, 1.0, 1.0, array_backend=backend)
        clone = pickle.loads(pickle.dumps(grid))
        assert clone.xp is resolve_backend(backend)
        for name, arg in _inputs(grid, seed=7).items():
            np.testing.assert_array_equal(
                getattr(clone, name)(arg), getattr(grid, name)(arg), err_msg=name
            )


@pytest.mark.parametrize(
    "var,value", [("REPRO_FFT_BACKEND", "scipy"), ("REPRO_FFT_WORKERS", "0")]
)
def test_former_fft_variables_change_nothing(monkeypatch, var, value):
    """A leftover setting of a deleted FFT variable neither fails nor
    reroutes a transform."""
    monkeypatch.setenv(var, value)
    assert default_backend_name() == "numpy"
    grid = SpectralGrid(16, 16, 1.0, 1.0)
    field = _field(16, 16, seed=9)
    np.testing.assert_array_equal(grid.to_spectral(field), np.fft.rfft2(field))
