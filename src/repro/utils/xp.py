"""Pluggable array backend shim for the analysis + forecast kernels.

The hot kernels — the batched/sharded LETKF assembly and stacked-``eigh``
solve, the fused EnSF Monte-Carlo score path, the buffered reverse-SDE
integrator, the fused SQG tendency/RK4 kernel and every spectral transform
of :class:`~repro.models.spectral.SpectralGrid` — obtain their array
operations from an :class:`ArrayBackend` namespace instead of calling
:mod:`numpy` directly, so one code path serves the host and any device
backend plugged into the seam (the source paper runs its filters on
Frontier's GPUs).

Two backends are registered:

* ``"numpy"`` (default) — every operation *is* the corresponding numpy
  function, so routing through the shim is **bit-identical** to the
  pre-shim kernels: same ufuncs, same associativity, same rng draws.
* ``"mock-device"`` — CPU-only test double.  All arithmetic delegates to
  numpy (results stay bit-identical), but the explicit host↔device
  transfer points (:meth:`ArrayBackend.to_device` /
  :meth:`ArrayBackend.to_host`) and every Gaussian draw count calls and
  bytes, so CI can prove dispatch properties that matter on real hardware
  — e.g. that the sharded LETKF solve loop performs no per-column
  round-trips — without a GPU.

A device port subclasses :class:`ArrayBackend` (the operation table plus
``to_device`` / ``to_host`` / ``standard_normal``) and adds itself to
``_FACTORIES``; the mock's meters are the residency budget it must meet.

Selection
---------
``resolve_backend(None)`` consults the ``REPRO_ARRAY_BACKEND`` environment
variable first; an explicit env value (anything but ``"auto"``) wins over
:func:`set_default_backend`, which in turn wins over the built-in default
(``"numpy"``).  Backends pickle by name (:meth:`ArrayBackend.__reduce__`), so
configs and kernels that hold one ship cleanly to
:class:`~repro.hpc.ensemble_parallel.EnsembleExecutor` worker processes.

Stream semantics
----------------
``standard_normal(rng, size)`` / ``standard_normal(rng, out=buf)`` always
takes its bits from the host generator exactly as ``rng.standard_normal``
would produce them; a device backend draws on the host and copies.  An
analysis therefore consumes its filter's stream identically wherever the
arithmetic runs, which is why every backend is bit-identical to numpy.

State handles
-------------
:class:`StateHandle` is the explicit device-state handle the cycle engine
threads through the forecast→analysis seam: an immutable pair of lazily
materialised host/device mirrors of one ensemble state, so each cycle pays
at most one upload and one download no matter how many stages look at the
state.  :func:`as_host_array` unwraps handles (or passes arrays through)
at host-side consumers.
"""

from __future__ import annotations

import inspect
import os
from typing import Callable

import numpy as np

__all__ = [
    "ArrayBackend",
    "MockDeviceBackend",
    "StateHandle",
    "as_host_array",
    "available_backends",
    "default_backend_name",
    "resolve_backend",
    "set_default_backend",
]

_ENV_BACKEND = "REPRO_ARRAY_BACKEND"
# numpy's FFT functions accept ``out=`` from numpy 2.0 on.
_NUMPY_FFT_OUT = "out" in inspect.signature(np.fft.rfft2).parameters


def _into(out, result):
    """``result``, copied into ``out`` when one is given: emulates ``out=``
    for library functions that lack it, so every backend keeps one call
    signature."""
    if out is None:
        return result
    out[...] = result
    return out


class ArrayBackend:
    """Array-operation namespace used by the analysis + forecast kernels.

    The base class is the ``"numpy"`` backend: every attribute is bound to
    the numpy function of the same meaning, so the routed kernels execute
    the exact instruction stream they executed before the shim existed.
    Device backends subclass it and override the operation table plus the
    transfer hooks.

    The operation set is deliberately small — the ~35 operations the hot
    kernels actually use — in these groups:

    * creation/layout: ``asarray``, ``ascontiguousarray``, ``empty``,
      ``empty_like``, ``zeros``, ``arange``, ``copyto``, ``concatenate``
    * elementwise (all accepting ``out=``): ``add``, ``subtract``,
      ``multiply``, ``divide``, ``negative``, ``maximum``, ``sqrt``,
      ``exp``, ``clip``
    * linear algebra: ``eigh`` / ``stacked_eigh`` (stacked), ``matmul``
      (stacked), ``dot``, ``einsum``
    * reductions: ``sum``, ``amax``, ``amin``, ``mean``
    * gather/scatter: ``take``, ``put``, ``bincount``, ``triu_indices``
    * FFT: ``rfft2`` (accepting ``out=``), ``irfft2``, ``rfft``, ``irfft``,
      ``fft``, ``ifft``
    * movement: ``to_device``, ``to_host``
    * randomness: ``standard_normal`` (host-stream semantics, see module
      docstring)
    """

    name = "numpy"

    # creation / layout
    asarray = staticmethod(np.asarray)
    ascontiguousarray = staticmethod(np.ascontiguousarray)
    empty = staticmethod(np.empty)
    empty_like = staticmethod(np.empty_like)
    zeros = staticmethod(np.zeros)
    arange = staticmethod(np.arange)
    copyto = staticmethod(np.copyto)
    concatenate = staticmethod(np.concatenate)
    # elementwise
    add = staticmethod(np.add)
    subtract = staticmethod(np.subtract)
    multiply = staticmethod(np.multiply)
    divide = staticmethod(np.divide)
    negative = staticmethod(np.negative)
    maximum = staticmethod(np.maximum)
    sqrt = staticmethod(np.sqrt)
    exp = staticmethod(np.exp)
    clip = staticmethod(np.clip)
    # linear algebra
    eigh = staticmethod(np.linalg.eigh)
    matmul = staticmethod(np.matmul)
    dot = staticmethod(np.dot)
    einsum = staticmethod(np.einsum)
    # reductions
    sum = staticmethod(np.sum)
    amax = staticmethod(np.max)
    amin = staticmethod(np.min)
    mean = staticmethod(np.mean)
    # gather / scatter
    take = staticmethod(np.take)
    put = staticmethod(np.put)
    bincount = staticmethod(np.bincount)
    triu_indices = staticmethod(np.triu_indices)
    # FFT (the LETKF convolution assembly and the spectral grid)
    irfft2 = staticmethod(np.fft.irfft2)
    rfft = staticmethod(np.fft.rfft)
    irfft = staticmethod(np.fft.irfft)
    fft = staticmethod(np.fft.fft)
    ifft = staticmethod(np.fft.ifft)

    @staticmethod
    def rfft2(a, s=None, axes=(-2, -1), norm=None, out=None):
        if _NUMPY_FFT_OUT:
            return np.fft.rfft2(a, s=s, axes=axes, norm=norm, out=out)
        return _into(out, np.fft.rfft2(a, s=s, axes=axes, norm=norm))

    # ------------------------------------------------------------------ #
    def to_device(self, array: np.ndarray) -> np.ndarray:
        """Move a host array to the backend's device (identity on CPU)."""
        return array

    def to_host(self, array: np.ndarray) -> np.ndarray:
        """Move a device array back to host memory (identity on CPU)."""
        return array

    def stacked_eigh(self, a_stack):
        """Eigendecomposition of a ``(B, m, m)`` symmetric stack.

        Every stack element is an independent problem, so any re-blocking
        of the stack by the caller is bit-identical.
        """
        return self.eigh(a_stack)

    def standard_normal(self, rng, size=None, out=None) -> np.ndarray:
        """Gaussian draws with **host** stream semantics.

        The bits always come from ``rng`` (a :class:`numpy.random.Generator`)
        in exactly the order ``rng.standard_normal`` would produce them;
        device backends stage through a host buffer and copy.  Reproducibility therefore never
        depends on the backend.
        """
        if out is not None:
            return rng.standard_normal(out=out)
        return rng.standard_normal(size)

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<ArrayBackend {self.name!r}>"

    def __reduce__(self):
        # Registered backends reconstruct by name on unpickle: device
        # handles and transfer counters are process-local, and this keeps
        # configs holding a backend shippable to EnsembleExecutor worker
        # processes.
        if self.name in _FACTORIES:
            return (resolve_backend, (self.name,))
        return super().__reduce__()  # pragma: no cover - custom backends


class MockDeviceBackend(ArrayBackend):
    """Numpy-delegating backend that meters host↔device traffic.

    Arithmetic is bit-identical to the numpy backend; the only difference
    is that :meth:`to_device` / :meth:`to_host` count calls and bytes, and
    each :meth:`standard_normal` draw counts as one upload.  The
    dispatch layer of the routed kernels is thereby exercisable (and its
    transfer discipline provable) in CI without hardware: a kernel that
    round-trips per column shows up as a transfer count scaling with the
    column count instead of the shard count.
    """

    name = "mock-device"

    def __init__(self) -> None:
        self.reset_transfers()

    def reset_transfers(self) -> None:
        """Zero the transfer counters (call at the start of a measurement)."""
        self.h2d_calls = 0
        self.d2h_calls = 0
        self.h2d_bytes = 0
        self.d2h_bytes = 0

    def transfer_counts(self) -> dict[str, int]:
        """Snapshot of the transfer counters."""
        return {
            "h2d_calls": self.h2d_calls,
            "d2h_calls": self.d2h_calls,
            "h2d_bytes": self.h2d_bytes,
            "d2h_bytes": self.d2h_bytes,
        }

    def to_device(self, array: np.ndarray) -> np.ndarray:
        self.h2d_calls += 1
        self.h2d_bytes += int(getattr(array, "nbytes", 0))
        return array

    def to_host(self, array: np.ndarray) -> np.ndarray:
        self.d2h_calls += 1
        self.d2h_bytes += int(getattr(array, "nbytes", 0))
        return array

    def standard_normal(self, rng, size=None, out=None) -> np.ndarray:
        # The bits are the host stream's, so a device stages every draw
        # through the host: one metered upload.
        return self.to_device(super().standard_normal(rng, size=size, out=out))


_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {
    "numpy": ArrayBackend,
    "mock-device": MockDeviceBackend,
}
_cache: dict[str, ArrayBackend] = {}
_default_override: str | None = None


def available_backends() -> tuple[str, ...]:
    """Registered backend names (every one is constructible anywhere)."""
    return tuple(_FACTORIES)


def _known(name: str) -> str:
    """``name`` normalised, or a :class:`ValueError` listing the choices."""
    key = name.strip().lower()
    if key not in _FACTORIES:
        raise ValueError(
            f"unknown array backend {name!r}; available: {available_backends()}"
        )
    return key


def default_backend_name() -> str:
    """Name ``resolve_backend(None)`` picks right now.

    Precedence: explicit ``REPRO_ARRAY_BACKEND`` (anything but ``"auto"``)
    beats :func:`set_default_backend`, which beats the built-in ``"numpy"``.
    """
    env = os.environ.get(_ENV_BACKEND, "auto").strip().lower() or "auto"
    if env != "auto":
        return env
    if _default_override is not None:
        return _default_override
    return "numpy"


def set_default_backend(name: str | None) -> None:
    """Set the process-wide default backend (``None`` restores numpy/env).

    An explicit ``REPRO_ARRAY_BACKEND`` environment value still wins — the
    env var is the operator's override of record (so e.g. CI can force
    ``mock-device`` across a whole run).
    """
    global _default_override
    _default_override = None if name is None else _known(name)


def resolve_backend(backend: str | ArrayBackend | None = None) -> ArrayBackend:
    """Resolve a backend name (or ``None`` for the default) to a backend."""
    if isinstance(backend, ArrayBackend):
        return backend
    name = backend if backend is not None else default_backend_name()
    if name.strip().lower() == "auto":
        # An explicit "auto" follows the same precedence as None: env var,
        # then set_default_backend, then the built-in numpy default.
        name = default_backend_name()
    name = _known(name)
    if name not in _cache:
        _cache[name] = _FACTORIES[name]()
    return _cache[name]


class StateHandle:
    """Explicit device-state handle for the forecast→analysis seam.

    A handle pairs one logical ensemble state with up to two lazily
    materialised mirrors — a host :class:`numpy.ndarray` and a backend-native
    device array — and caches both, so a cycle pays **at most one upload and
    one download** regardless of how many stages touch the state:

    * the forecast advances the device mirror (``device()``; cached, so a
      state that never left the device re-uploads nothing),
    * every host-side consumer — diagnostics, QC, checkpoints, the analysis
      input — shares the single cached ``host()`` download.

    Handles are immutable by contract: stages must not write through either
    mirror (they produce *new* states / handles instead).  On the CPU
    backends both mirrors are the same object, which is exactly why mutation
    is forbidden — an in-place write would silently fork the mirrors on a
    real device.

    ``np.asarray(handle)`` works (via ``__array__``, using the cached host
    mirror) so host-only code degrades gracefully, but hot paths should call
    :func:`as_host_array` explicitly.
    """

    __slots__ = ("xp", "_device", "_host")

    def __init__(self, xp: ArrayBackend, host=None, device=None):
        if host is None and device is None:
            raise ValueError("StateHandle needs a host and/or a device mirror")
        self.xp = xp
        self._host = host
        self._device = device

    # -- constructors -------------------------------------------------- #
    @classmethod
    def from_host(cls, xp: ArrayBackend, state) -> "StateHandle":
        """Wrap a host array; the device mirror materialises on first use."""
        return cls(xp, host=np.asarray(state))

    @classmethod
    def from_device(cls, xp: ArrayBackend, state) -> "StateHandle":
        """Wrap a device-resident array; the host mirror materialises lazily."""
        return cls(xp, device=state)

    @classmethod
    def wrap(cls, state, xp: str | ArrayBackend | None = None) -> "StateHandle":
        """Coerce ``state`` to a handle (pass-through if it already is one).

        ``xp=None`` wraps on the host numpy backend — the safe default for
        models that predate the backend shim.
        """
        if isinstance(state, StateHandle):
            return state
        return cls.from_host(resolve_backend("numpy" if xp is None else xp), state)

    # -- mirrors ------------------------------------------------------- #
    def device(self):
        """The device mirror (uploads once on first call, then cached)."""
        if self._device is None:
            self._device = self.xp.to_device(self._host)
        return self._device

    def host(self) -> np.ndarray:
        """The host mirror (downloads once on first call, then cached)."""
        if self._host is None:
            self._host = self.xp.to_host(self._device)
        return self._host

    # -- conveniences -------------------------------------------------- #
    @property
    def shape(self):
        mirror = self._host if self._host is not None else self._device
        return mirror.shape

    @property
    def ndim(self) -> int:
        mirror = self._host if self._host is not None else self._device
        return mirror.ndim

    def __array__(self, dtype=None, copy=None):
        host = np.asarray(self.host())
        if dtype is not None:
            host = host.astype(dtype, copy=False)
        if copy:
            host = host.copy()
        return host

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        mirrors = "".join(
            tag for tag, mirror in (("H", self._host), ("D", self._device))
            if mirror is not None
        )
        return f"<StateHandle {self.xp.name!r} shape={self.shape} mirrors={mirrors!r}>"


def as_host_array(state) -> np.ndarray:
    """Host ndarray view of ``state`` (a :class:`StateHandle` or array-like)."""
    if isinstance(state, StateHandle):
        return state.host()
    return np.asarray(state)

