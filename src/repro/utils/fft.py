"""Pluggable FFT backend shim for the pseudo-spectral forecast engine.

The spectral machinery (:mod:`repro.models.spectral`) routes every transform
through a small backend object so the FFT implementation can be swapped
without touching the numerics.  Four backends are registered:

* ``"scipy"`` — :mod:`scipy.fft` (pypocketfft).  Supports the ``workers``
  argument, so batched ensemble transforms parallelise across cores.
  Selected automatically when scipy is importable and more than one worker
  is available.
* ``"numpy"`` — :mod:`numpy.fft` (pocketfft).  Always available; the
  fallback on numpy-only installs and the choice on single-core hosts,
  where scipy's is no faster.
* ``"mock-device"`` — :mod:`numpy.fft` again, but declared device-native for
  the ``mock-device`` array backend (:mod:`repro.utils.xp`): transforms on
  mock "device" arrays count as on-device work, so the transfer counters
  meter only genuine host↔device boundary crossings.  Bit-identical to
  ``"numpy"`` by construction.
* ``"cupy"`` — :mod:`cupy.fft` (pocketfft-compatible), imported lazily, for
  real device-resident transforms when CuPy and a GPU are present.

The three host/pocketfft backends produce **bit-identical** results
(asserted by the backend-parity regression tests), so swapping backends does
not change forecast trajectories — the shim is a performance knob, not a
numerics knob.  ``cupy.fft`` follows the same algorithm family but runs on
device memory; its parity is certified on GPU hosts only.

Device pairing
--------------
:func:`default_backend_name_for` maps an array backend's ``device`` tag to
the FFT backend whose transforms operate natively on that device
(``"mock-device"`` → ``"mock-device"``, ``"cuda"`` → ``"cupy"``), so a
:class:`~repro.models.spectral.SpectralGrid` built on a device array backend
keeps spectral state device-resident through every transform.  Explicit
selection (argument, ``REPRO_FFT_BACKEND``, :func:`set_default_backend`)
still wins over the pairing.

Selection
---------
``resolve_backend(None)`` consults the ``REPRO_FFT_BACKEND`` environment
variable (``"auto"``, ``"numpy"`` or ``"scipy"``; default ``"auto"``), then
falls back to scipy-if-available.  An explicit env value (anything but
``"auto"``) wins over :func:`set_default_backend` — the env var is the
operator's override of record, the same precedence the array-backend shim
(:mod:`repro.utils.xp`) uses for ``REPRO_ARRAY_BACKEND``.  ``scipy`` is
imported lazily — merely
importing this module (or collecting the test suite) never pulls it in, so
numpy-only installs keep working (checked by ``scripts/smoke.sh``).

The worker count for the scipy backend comes from ``REPRO_FFT_WORKERS``
(default: all cores).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "FFTBackend",
    "available_backends",
    "default_backend_name",
    "default_backend_name_for",
    "resolve_backend",
    "set_default_backend",
]

_ENV_BACKEND = "REPRO_FFT_BACKEND"
_ENV_WORKERS = "REPRO_FFT_WORKERS"


@dataclass(frozen=True)
class FFTBackend:
    """Minimal FFT namespace used by :class:`~repro.models.spectral.SpectralGrid`.

    All functions follow the numpy calling conventions (``axes``/``axis``,
    ``s``/``n`` for output sizes).  ``workers`` reports the thread count the
    backend was configured with (1 for numpy, which has no threading knob).
    """

    name: str
    rfft2: Callable = field(repr=False)
    irfft2: Callable = field(repr=False)
    rfft: Callable = field(repr=False)
    irfft: Callable = field(repr=False)
    fft: Callable = field(repr=False)
    ifft: Callable = field(repr=False)
    workers: int = 1

    def __reduce__(self):
        # Reconstruct the built-in backends by name on unpickle: the scipy
        # wrappers close over the worker count, and closures do not pickle.
        # This keeps models that hold a backend shippable to EnsembleExecutor
        # worker processes.  Custom (e.g. accelerator) backends fall back to
        # field-wise pickling — their functions must then be picklable.
        if self.name in _FACTORIES:
            return (resolve_backend, (self.name,))
        return super().__reduce__()


def _numpy_backend() -> FFTBackend:
    f = np.fft
    return FFTBackend(
        name="numpy",
        rfft2=f.rfft2,
        irfft2=f.irfft2,
        rfft=f.rfft,
        irfft=f.irfft,
        fft=f.fft,
        ifft=f.ifft,
        workers=1,
    )


def _fft_workers() -> int:
    raw = os.environ.get(_ENV_WORKERS, "").strip()
    if raw:
        workers = int(raw)
        if workers < 1:
            raise ValueError(f"{_ENV_WORKERS} must be a positive integer, got {raw!r}")
        return workers
    return os.cpu_count() or 1


def _scipy_backend() -> FFTBackend:
    import scipy.fft as sfft  # deferred: numpy-only installs never reach this

    workers = _fft_workers()

    def _wrap(fn):
        if workers == 1:
            return fn

        def call(*args, **kwargs):
            kwargs.setdefault("workers", workers)
            return fn(*args, **kwargs)

        return call

    return FFTBackend(
        name="scipy",
        rfft2=_wrap(sfft.rfft2),
        irfft2=_wrap(sfft.irfft2),
        rfft=_wrap(sfft.rfft),
        irfft=_wrap(sfft.irfft),
        fft=_wrap(sfft.fft),
        ifft=_wrap(sfft.ifft),
        workers=workers,
    )


def _mock_device_backend() -> FFTBackend:
    # numpy's pocketfft, re-registered under the mock device's name: the mock
    # array backend hands out plain ndarrays, so "on-device" transforms are
    # host transforms — but declaring them device-native means the transfer
    # counters only meter the explicit to_device/to_host boundary, exactly
    # like a real accelerator FFT would behave.  Bit-identical to "numpy".
    f = np.fft
    return FFTBackend(
        name="mock-device",
        rfft2=f.rfft2,
        irfft2=f.irfft2,
        rfft=f.rfft,
        irfft=f.irfft,
        fft=f.fft,
        ifft=f.ifft,
        workers=1,
    )


def _cupy_backend() -> FFTBackend:
    """``cupy.fft`` transforms for device-resident grids.

    *Experimental*: never run on any host of this project; the tier-1 tests
    that would exercise it skip without CuPy.
    """
    import cupy.fft as cfft  # deferred: CPU-only installs never reach this

    return FFTBackend(
        name="cupy",
        rfft2=cfft.rfft2,
        irfft2=cfft.irfft2,
        rfft=cfft.rfft,
        irfft=cfft.irfft,
        fft=cfft.fft,
        ifft=cfft.ifft,
        workers=1,
    )


_FACTORIES = {
    "numpy": _numpy_backend,
    "scipy": _scipy_backend,
    "mock-device": _mock_device_backend,
    "cupy": _cupy_backend,
}

# Array-backend device tag -> FFT backend operating natively on that device.
# Consulted by default_backend_name_for() below explicit selection.
_DEVICE_PAIRING = {"mock-device": "mock-device", "cuda": "cupy"}

_cache: dict[str, FFTBackend] = {}
_default_override: str | None = None


def available_backends() -> tuple[str, ...]:
    """Backend names that can be constructed in this environment."""
    names = ["numpy", "mock-device"]
    try:
        import scipy.fft  # noqa: F401  (availability probe only)

        names.append("scipy")
    except ImportError:
        pass
    try:
        import cupy.fft  # noqa: F401  (availability probe only)

        names.append("cupy")
    except ImportError:
        pass
    return tuple(names)


def _auto_backend_name() -> str:
    """Pick the best backend for this host.

    scipy's edge over numpy is its ``workers`` thread pool for batched
    transforms; with one worker it is no faster (same pocketfft), so auto
    picks scipy only when it is installed *and* more than one worker is
    available.
    """
    if "scipy" in available_backends() and _fft_workers() > 1:
        return "scipy"
    return "numpy"


def default_backend_name() -> str:
    """Name the ``"auto"`` selection resolves to right now.

    Precedence: explicit ``REPRO_FFT_BACKEND`` (anything but ``"auto"``)
    beats :func:`set_default_backend`, which beats auto-detection.
    """
    env = os.environ.get(_ENV_BACKEND, "auto").strip().lower() or "auto"
    if env != "auto":
        return env
    if _default_override is not None:
        return _default_override
    return _auto_backend_name()


def default_backend_name_for(device: str) -> str:
    """Default FFT backend for spectral state living on ``device``.

    ``device`` is an array backend's device tag
    (:attr:`repro.utils.xp.ArrayBackend.device` — ``"cpu"``,
    ``"mock-device"`` or ``"cuda"``).  Same precedence as
    :func:`default_backend_name`, with the device pairing slotting in just
    above host auto-detection: an explicit ``REPRO_FFT_BACKEND`` beats
    :func:`set_default_backend`, which beats the pairing, which beats auto.
    Host devices (or unknown tags) fall through to the host default.
    """
    env = os.environ.get(_ENV_BACKEND, "auto").strip().lower() or "auto"
    if env != "auto":
        return env
    if _default_override is not None:
        return _default_override
    paired = _DEVICE_PAIRING.get(device)
    if paired is not None:
        return paired
    return _auto_backend_name()


def set_default_backend(name: str | None) -> None:
    """Override the process-wide default backend (``None`` restores env/auto).

    An explicit ``REPRO_FFT_BACKEND`` environment value still wins (see
    :func:`default_backend_name`).  Grids constructed afterwards pick up the
    new default; existing grids keep the backend they were built with.
    """
    global _default_override
    if name is not None and name not in _FACTORIES:
        raise ValueError(
            f"unknown FFT backend {name!r}; choose from {sorted(_FACTORIES)} "
            f"(available here: {available_backends()})"
        )
    _default_override = name


def resolve_backend(backend: str | FFTBackend | None = None) -> FFTBackend:
    """Resolve a backend name (or ``None`` for the default) to an :class:`FFTBackend`."""
    if isinstance(backend, FFTBackend):
        return backend
    name = backend if backend is not None else default_backend_name()
    name = name.strip().lower()
    if name == "auto":
        # An explicit "auto" follows the same precedence as None: env var,
        # then set_default_backend, then host auto-detection.
        name = default_backend_name()
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown FFT backend {name!r}; choose from {sorted(_FACTORIES)} "
            f"(available here: {available_backends()})"
        )
    if name not in _cache:
        try:
            _cache[name] = _FACTORIES[name]()
        except ImportError as exc:
            raise ImportError(
                f"FFT backend {name!r} requested (via argument or ${_ENV_BACKEND}) "
                f"but its module is not installed; available: {available_backends()}"
            ) from exc
    return _cache[name]
