"""Shared utilities: RNG handling, grid geometry, spectra, FFT/array backends and timing."""

from repro.utils.random import (
    SeedSequenceFactory,
    default_rng,
    sample_from_catalogue,
    split_rng,
)
from repro.utils.faults import (
    FaultEvent,
    FaultInjected,
    FaultLog,
    FaultPlan,
    RecoveryAction,
)
from repro.utils.fft import (
    FFTBackend,
    available_backends,
    default_backend_name,
    resolve_backend,
    set_default_backend,
)
from repro.utils.xp import (
    ArrayBackend,
    MockDeviceBackend,
    StateHandle,
    as_host_array,
    available_array_backends,
    default_array_backend_name,
    resolve_array_backend,
    set_default_array_backend,
)
from repro.utils.grid import (
    Grid2D,
    periodic_distance_matrix,
    periodic_delta,
    chord_distance_km,
)
from repro.utils.spectra import (
    isotropic_spectrum,
    spectral_slope,
    kinetic_energy_spectrum,
)
from repro.utils.timing import best_of, write_bench_json

__all__ = [
    "SeedSequenceFactory",
    "default_rng",
    "sample_from_catalogue",
    "split_rng",
    "FaultEvent",
    "FaultInjected",
    "FaultLog",
    "FaultPlan",
    "RecoveryAction",
    "FFTBackend",
    "available_backends",
    "default_backend_name",
    "resolve_backend",
    "set_default_backend",
    "ArrayBackend",
    "MockDeviceBackend",
    "StateHandle",
    "as_host_array",
    "available_array_backends",
    "default_array_backend_name",
    "resolve_array_backend",
    "set_default_array_backend",
    "Grid2D",
    "periodic_distance_matrix",
    "periodic_delta",
    "chord_distance_km",
    "isotropic_spectrum",
    "spectral_slope",
    "kinetic_energy_spectrum",
    "best_of",
    "write_bench_json",
]
