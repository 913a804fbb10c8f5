"""Pluggable array backend shim for the analysis + forecast kernels.

This extends the FFT-shim pattern (:mod:`repro.utils.fft`) into a full
array-API layer: the hot kernels — the batched/sharded LETKF assembly and
stacked-``eigh`` solve, the fused EnSF Monte-Carlo score path, the buffered
reverse-SDE integrator and the fused SQG tendency/RK4 kernel — obtain their
array operations from an :class:`ArrayBackend` namespace instead of calling
:mod:`numpy` directly, so the whole analysis/forecast stack can run on an
accelerator without code duplication (the route the source paper takes to
Summit/Frontier scale).

Three backends are registered:

* ``"numpy"`` (default) — every operation *is* the corresponding numpy
  function, so routing through the shim is **bit-identical** to the
  pre-shim kernels: same ufuncs, same associativity, same rng draws.
* ``"mock-device"`` — CPU-only test double.  All arithmetic delegates to
  numpy (results stay bit-identical), but the explicit host↔device
  transfer points (:meth:`ArrayBackend.to_device` /
  :meth:`ArrayBackend.to_host`) count calls and bytes, so CI can prove
  dispatch properties that matter on real hardware — e.g. that the sharded
  LETKF solve loop performs no per-column round-trips — without a GPU.
* ``"cupy"`` — CuPy adapter, imported lazily; present in
  :func:`available_backends` only when :mod:`cupy` is importable.  Random
  draws are taken from the host :class:`numpy.random.Generator` in the
  documented stream order and then copied to the device, so trajectories
  remain reproducible against the CPU backends (see
  :meth:`ArrayBackend.standard_normal`).

Additional adapters (e.g. a generic array-API namespace) can be added with
:func:`register_backend`.

Selection
---------
``resolve_backend(None)`` consults the ``REPRO_ARRAY_BACKEND`` environment
variable first; an explicit env value (anything but ``"auto"``) wins over
:func:`set_default_backend`, which in turn wins over the built-in default
(``"numpy"``).  The same precedence applies to ``REPRO_FFT_BACKEND`` in the
FFT shim.  Backends pickle by name (:meth:`ArrayBackend.__reduce__`), so
configs and kernels that hold one ship cleanly to
:class:`~repro.hpc.ensemble_parallel.EnsembleExecutor` worker processes.

Stream semantics and the device RNG hook
----------------------------------------
``standard_normal(rng, size)`` / ``standard_normal(rng, out=buf)`` defaults
to **host-parity** mode: the bits always come from the host generator
exactly as ``rng.standard_normal`` would produce them — device backends
draw on the host and copy.  This is what keeps parallel analyses
worker-invariant (see :class:`repro.utils.random.MemberStreams`) regardless
of where the arithmetic runs, and it is the mode every bit-parity
certification runs in.

``REPRO_DEVICE_RNG=device`` switches device backends to backend-native
generation: the CuPy backend seeds a per-``rng`` device generator (one host
draw) and then fills buffers on-device without any host staging, trading
bit-parity with the CPU backends for bandwidth.  The mock device draws the
same host bits in both modes (it has no second generator), but stops
metering the draw as a host→device upload — so the transfer counters show
exactly the residency win a real device-RNG run gets.  Host backends ignore
the setting.  ``device_rng_mode()`` reports the active mode.

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
    "device_rng_mode",
    "available_backends",
    "available_array_backends",
    "default_backend_name",
    "default_array_backend_name",
    "register_backend",
    "register_array_backend",
    "resolve_backend",
    "resolve_array_backend",
    "set_default_backend",
    "set_default_array_backend",
]

_ENV_BACKEND = "REPRO_ARRAY_BACKEND"
_ENV_DEVICE_RNG = "REPRO_DEVICE_RNG"
_RNG_MODES = ("host-parity", "device")
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


def device_rng_mode() -> str:
    """Active noise-generation mode for device backends.

    ``"host-parity"`` (default): Gaussian bits come from the host generator
    in the documented stream order and are staged to the device — bit-parity
    with the CPU backends is preserved.  ``"device"``: device backends
    generate natively on-device (the mock device keeps the host bits but
    stops metering the draws as uploads).  Set via ``REPRO_DEVICE_RNG``.
    """
    mode = os.environ.get(_ENV_DEVICE_RNG, "host-parity").strip().lower() or "host-parity"
    if mode not in _RNG_MODES:
        raise ValueError(
            f"invalid ${_ENV_DEVICE_RNG}={mode!r}; choose from {_RNG_MODES}"
        )
    return mode


class ArrayBackend:
    """Array-operation namespace used by the analysis + forecast kernels.

    The base class is the ``"numpy"`` backend: every attribute is bound to
    the numpy function of the same meaning, so the routed kernels execute
    the exact instruction stream they executed before the shim existed.
    Device backends subclass it and override the operation table plus the
    transfer hooks.

    The operation set is deliberately small — the ~25 operations the hot
    kernels actually use — grouped as:

    * creation/layout: ``asarray``, ``ascontiguousarray``, ``empty``,
      ``empty_like``, ``zeros``, ``arange``, ``copyto``, ``concatenate``
    * elementwise (all accepting ``out=``): ``add``, ``subtract``,
      ``multiply``, ``divide``, ``negative``, ``maximum``, ``sqrt``,
      ``exp``, ``clip``
    * linear algebra: ``eigh`` / ``stacked_eigh`` (stacked), ``matmul``
      (stacked), ``dot``, ``einsum``
    * reductions: ``sum``, ``amax``, ``amin``, ``mean``
    * gather/scatter: ``take``, ``put``, ``bincount``, ``triu_indices``
    * FFT (LETKF convolution assembly): ``rfft2`` (accepting ``out=``),
      ``irfft2``
    * movement: ``to_device``, ``to_host``, ``synchronize``
    * randomness: ``standard_normal`` (host-stream semantics, see module
      docstring)
    """

    name = "numpy"
    device = "cpu"

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
    # FFT (the LETKF convolution assembly; forecast FFTs go through
    # repro.utils.fft, whose backend is chosen independently)
    irfft2 = staticmethod(np.fft.irfft2)

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

    def synchronize(self) -> None:
        """Block until queued device work completes (no-op on CPU)."""

    def stacked_eigh(self, a_stack):
        """Eigendecomposition of a ``(B, m, m)`` symmetric stack.

        Every stack element is an independent problem, so any re-blocking
        of the stack by the caller is bit-identical.
        """
        return self.eigh(a_stack)

    def standard_normal(self, rng, size=None, out=None) -> np.ndarray:
        """Gaussian draws with **host** stream semantics.

        The bits always come from ``rng`` (a :class:`numpy.random.Generator`
        or :class:`~repro.utils.random.MemberStreams`) in exactly the order
        ``rng.standard_normal`` would produce them; device backends stage
        through a host buffer and copy.  Reproducibility therefore never
        depends on the backend.
        """
        if out is not None:
            return rng.standard_normal(out=out)
        return rng.standard_normal(size)

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<ArrayBackend {self.name!r} device={self.device!r}>"

    def __reduce__(self):
        # Registered backends reconstruct by name on unpickle (mirrors
        # FFTBackend.__reduce__): device handles and transfer counters are
        # process-local, and this keeps configs holding a backend shippable
        # to EnsembleExecutor worker processes.
        if self.name in _FACTORIES:
            return (resolve_backend, (self.name,))
        return super().__reduce__()  # pragma: no cover - custom backends


class MockDeviceBackend(ArrayBackend):
    """Numpy-delegating backend that meters host↔device traffic.

    Arithmetic is bit-identical to the numpy backend; the only difference
    is that :meth:`to_device` / :meth:`to_host` count calls and bytes.  The
    dispatch layer of the routed kernels is thereby exercisable (and its
    transfer discipline provable) in CI without hardware: a kernel that
    round-trips per column shows up as a transfer count scaling with the
    column count instead of the shard count.
    """

    name = "mock-device"
    device = "mock-device"

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
        # Both modes draw the same host bits (the mock has no second
        # generator, so bit-parity holds unconditionally); what changes is
        # the accounting.  Host-parity models a real device staging every
        # draw through the host (one upload per call), device mode models
        # on-device generation (no transfer) — so the counters expose
        # exactly the residency difference a real device-RNG run gets.
        drawn = super().standard_normal(rng, size=size, out=out)
        if device_rng_mode() == "host-parity":
            self.h2d_calls += 1
            self.h2d_bytes += int(getattr(drawn, "nbytes", 0))
        return drawn


class _CuPyBackend(ArrayBackend):
    """CuPy adapter (requires a CUDA device; imported lazily).

    *Experimental*: this adapter has never run on any host of this project,
    and every tier-1 test that would exercise it skips without CuPy.
    """

    name = "cupy"
    device = "cuda"

    def __init__(self) -> None:
        import cupy as cp  # deferred: CPU-only installs never reach this

        self._cp = cp
        # Device generators for REPRO_DEVICE_RNG=device, one per host rng
        # (weakly keyed so they die with their host stream).
        import weakref

        self._device_rngs = weakref.WeakKeyDictionary()
        for op in (
            "asarray",
            "ascontiguousarray",
            "empty",
            "empty_like",
            "zeros",
            "arange",
            "copyto",
            "concatenate",
            "add",
            "subtract",
            "multiply",
            "divide",
            "negative",
            "maximum",
            "sqrt",
            "exp",
            "clip",
            "matmul",
            "dot",
            "sum",
            "take",
            "put",
            "bincount",
            "triu_indices",
        ):
            setattr(self, op, getattr(cp, op))
        self.eigh = cp.linalg.eigh
        self.amax = cp.max
        self.amin = cp.min
        self.mean = cp.mean
        self.irfft2 = cp.fft.irfft2

    def einsum(self, subscripts, *operands, out=None, **kwargs):
        # cupy.einsum has no ``out=``; emulate it so the fused kernels keep
        # one call signature across backends.
        return _into(out, self._cp.einsum(subscripts, *operands, **kwargs))

    def rfft2(self, a, s=None, axes=(-2, -1), norm=None, out=None):
        # cupy.fft.rfft2 has no ``out=`` either.
        return _into(out, self._cp.fft.rfft2(a, s=s, axes=axes, norm=norm))

    def to_device(self, array):
        return self._cp.asarray(array)

    def to_host(self, array):
        return self._cp.asnumpy(array)

    def synchronize(self) -> None:
        self._cp.cuda.get_current_stream().synchronize()

    def standard_normal(self, rng, size=None, out=None):
        if device_rng_mode() == "device":
            # Backend-native generation: one host draw seeds a per-rng
            # device generator, then every buffer fills on-device.  Faster
            # (no host staging) but NOT bit-identical to the CPU backends —
            # use the default host-parity mode for certified runs.
            dev_rng = self._device_rngs.get(rng)
            if dev_rng is None:
                # MemberStreams has no .integers — seed from its first
                # member stream (device mode surrenders per-member stream
                # semantics along with bit-parity; both are documented).
                seed_src = rng if hasattr(rng, "integers") else rng.generators[0]
                dev_rng = self._cp.random.default_rng(int(seed_src.integers(2**63)))
                self._device_rngs[rng] = dev_rng
            if out is not None:
                out[...] = dev_rng.standard_normal(out.shape, dtype=out.dtype)
                return out
            return dev_rng.standard_normal(size)
        # Host-parity (default): host draw first (documented stream
        # semantics), then device copy.
        if out is not None:
            host = rng.standard_normal(out.shape)
            out[...] = self._cp.asarray(host)
            return out
        return self._cp.asarray(rng.standard_normal(size))


_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {
    "numpy": ArrayBackend,
    "mock-device": MockDeviceBackend,
    "cupy": _CuPyBackend,
}
_OPTIONAL_IMPORTS = {"cupy": "cupy"}
_cache: dict[str, ArrayBackend] = {}
_default_override: str | None = None


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register an additional backend factory (e.g. an array-API adapter).

    The factory must return an :class:`ArrayBackend` whose ``name`` matches
    ``name``; it may raise :class:`ImportError` when its dependency is
    missing, in which case the backend is simply absent from
    :func:`available_backends`.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("backend name must be non-empty")
    _FACTORIES[key] = factory
    _cache.pop(key, None)


def available_backends() -> tuple[str, ...]:
    """Backend names that can be constructed in this environment."""
    names = []
    for name in _FACTORIES:
        module = _OPTIONAL_IMPORTS.get(name)
        if module is not None:
            try:
                __import__(module)
            except ImportError:
                continue
        names.append(name)
    return tuple(names)


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
    if name is not None and name.strip().lower() not in _FACTORIES:
        raise ValueError(
            f"unknown array backend {name!r}; choose from {sorted(_FACTORIES)} "
            f"(available here: {available_backends()})"
        )
    _default_override = None if name is None else name.strip().lower()


def resolve_backend(backend: str | ArrayBackend | None = None) -> ArrayBackend:
    """Resolve a backend name (or ``None`` for the default) to a backend."""
    if isinstance(backend, ArrayBackend):
        return backend
    name = backend if backend is not None else default_backend_name()
    name = name.strip().lower()
    if name == "auto":
        # An explicit "auto" follows the same precedence as None: env var,
        # then set_default_backend, then the built-in numpy default.
        name = default_backend_name()
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown array backend {name!r}; choose from {sorted(_FACTORIES)} "
            f"(available here: {available_backends()})"
        )
    if name not in _cache:
        try:
            _cache[name] = _FACTORIES[name]()
        except ImportError as exc:
            raise ImportError(
                f"array backend {name!r} requested (via argument or ${_ENV_BACKEND}) "
                f"but its module is not installed; available: {available_backends()}"
            ) from exc
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


# Aliased re-exports: the short names mirror repro.utils.fft's API (the two
# shims are siblings), the long names disambiguate in `repro.utils`, which
# re-exports both modules into one namespace.
available_array_backends = available_backends
default_array_backend_name = default_backend_name
register_array_backend = register_backend
resolve_array_backend = resolve_backend
set_default_array_backend = set_default_backend
