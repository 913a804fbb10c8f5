"""Pluggable FFT backend shim for the pseudo-spectral forecast engine.

The spectral machinery (:mod:`repro.models.spectral`) routes every transform
through a small backend object so the FFT implementation can be swapped
without touching the numerics.  Two backends are registered:

* ``"scipy"`` — :mod:`scipy.fft` (pypocketfft).  Supports the ``workers``
  argument, so batched ensemble transforms parallelise across cores.
  Selected automatically when scipy is importable and more than one worker
  is available.
* ``"numpy"`` — :mod:`numpy.fft` (pocketfft).  Always available; the
  fallback on numpy-only installs and the choice on single-core hosts,
  where scipy's is no faster.

Both produce **bit-identical** results (asserted by the backend-parity
regression tests), so swapping backends does not change forecast
trajectories — the shim is a performance knob, not a numerics knob.  FFTs
never call the array backend's transfer hooks, so a grid on the
``mock-device`` array backend uses the same host FFT as any other grid.

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
        # worker processes.  Custom backends fall back to field-wise
        # pickling — their functions must then be picklable.
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
    if not raw:
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{_ENV_WORKERS} must be a positive integer, got {raw!r}")
    return workers


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


_FACTORIES = {
    "numpy": _numpy_backend,
    "scipy": _scipy_backend,
}

_cache: dict[str, FFTBackend] = {}
_default_override: str | None = None


def available_backends() -> tuple[str, ...]:
    """Backend names that can be constructed in this environment."""
    try:
        import scipy.fft  # noqa: F401  (availability probe only)
    except ImportError:
        return ("numpy",)
    return ("numpy", "scipy")


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


def _known(name: str) -> str:
    """``name`` normalised, or a :class:`ValueError` listing the choices."""
    key = name.strip().lower()
    if key not in _FACTORIES:
        raise ValueError(
            f"unknown FFT backend {name!r}; choose from {sorted(_FACTORIES)} "
            f"(available here: {available_backends()})"
        )
    return key


def set_default_backend(name: str | None) -> None:
    """Override the process-wide default backend (``None`` restores env/auto).

    An explicit ``REPRO_FFT_BACKEND`` environment value still wins (see
    :func:`default_backend_name`).  Grids constructed afterwards pick up the
    new default; existing grids keep the backend they were built with.
    """
    global _default_override
    _default_override = None if name is None else _known(name)


def resolve_backend(backend: str | FFTBackend | None = None) -> FFTBackend:
    """Resolve a backend name (or ``None`` for the default) to an :class:`FFTBackend`."""
    if isinstance(backend, FFTBackend):
        return backend
    name = backend if backend is not None else default_backend_name()
    if name.strip().lower() == "auto":
        # An explicit "auto" follows the same precedence as None: env var,
        # then set_default_backend, then host auto-detection.
        name = default_backend_name()
    name = _known(name)
    if name not in _cache:
        try:
            _cache[name] = _FACTORIES[name]()
        except ImportError as exc:
            raise ImportError(
                f"FFT backend {name!r} requested (via argument or ${_ENV_BACKEND}) "
                f"but its module is not installed; available: {available_backends()}"
            ) from exc
    return _cache[name]
