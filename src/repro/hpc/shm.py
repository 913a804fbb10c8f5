"""Shared-memory transport for large read-only shard payloads.

Every gather the :class:`~repro.hpc.ensemble_parallel.EnsembleExecutor`
performs ships its work-units to pool workers by pickling them through a
pipe.  For member slices that is dominated by a handful of large,
read-only numpy arrays — the forecast chunks, the broadcast EnSF forecast
ensemble — which each
worker receives as an O(payload) pickle even though the bytes already sit
in the parent's memory.  This module moves those arrays through
:mod:`multiprocessing.shared_memory` segments instead, so the pipe carries
an O(name) :class:`SharedArrayHandle` and the worker copies the bytes
straight out of the kernel's shared pages:

* :class:`SharedPayloadArena` — the parent-side owner.  ``share()`` copies
  an array into a fresh segment and returns a picklable handle;
  per-segment **refcounts** (one per work-unit that references the
  segment, so a broadcast array deduplicates to a single segment) let the
  executor release memory progressively as shards complete, with
  ``release_all()`` as the end-of-gather (and executor-close) backstop.
* :class:`SharedArrayHandle` — the O(name) token.  ``materialize()``
  attaches, copies the array out, and detaches immediately, so the worker
  ends up with exactly the private, writable array a pickled payload would
  have produced — the transport is invisible to worker functions, which is
  what keeps the shm and pickle paths bit-identical by construction.
* :func:`resolve_payloads` — recursive swap-in of handles inside
  tuple/list/dict work-units (the executor swaps arrays out
  with the mirror walk in ``_prepare_payloads``).

Attachment never outlives ``materialize()``: on Python < 3.13 merely
attaching registers the segment with the *worker's* resource tracker,
which would unlink the parent's live segment when the worker exits, so the
attach helper immediately unregisters it again.  Platforms without
functional POSIX shared memory degrade transparently: ``HAVE_SHM`` is
false and the executor simply keeps pickling.
"""

from __future__ import annotations

import threading

import numpy as np

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import resource_tracker
    from multiprocessing import shared_memory as _shm

    HAVE_SHM = True
except ImportError:  # pragma: no cover - no POSIX shm on this platform
    resource_tracker = None
    _shm = None
    HAVE_SHM = False

__all__ = [
    "HAVE_SHM",
    "SharedArrayHandle",
    "SharedPayloadArena",
    "resolve_payloads",
]


_ATTACH_LOCK = threading.Lock()


def _attach(name: str):
    """Attach to an existing segment without adopting its lifetime.

    ``SharedMemory(name=...)`` on Python < 3.13 registers the attachment
    with the resource tracker as if this process were an owner.  Under a
    spawn start method the worker's own tracker would then unlink the
    parent's live segment when the worker exits; under fork the workers
    *share* the parent's tracker, so an unregister-after-attach would
    instead erase the creating arena's crash-cleanup entry.  Suppressing
    the registration for the duration of the attach sidesteps both:
    ownership stays exactly where ``SharedPayloadArena`` put it.
    """
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return _shm.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedArrayHandle:
    """Picklable O(name) stand-in for a shared read-only array payload."""

    __slots__ = ("name", "shape", "dtype", "nbytes")

    def __init__(self, name: str, shape: tuple, dtype: str, nbytes: int):
        self.name = name
        self.shape = tuple(shape)
        self.dtype = dtype
        self.nbytes = int(nbytes)

    def __reduce__(self):
        return (SharedArrayHandle, (self.name, self.shape, self.dtype, self.nbytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<SharedArrayHandle {self.name!r} {self.dtype}{self.shape}>"

    def materialize(self) -> np.ndarray:
        """Copy the shared bytes into a fresh private array and detach.

        The copy deliberately reproduces pickle-transport semantics: the
        worker owns a writable array and holds no reference to the
        segment, so the parent can unlink at any time after the gather
        without invalidating worker state.
        """
        segment = _attach(self.name)
        try:
            view = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=segment.buf)
            out = np.array(view)
            del view  # release the buffer export before closing the map
        finally:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view still exported
                pass
        return out


class SharedPayloadArena:
    """Parent-side registry of shared segments with per-segment refcounts.

    One arena lives for the duration of one executor gather: ``share()``
    as the jobs are prepared (``retain()`` once per work-unit referencing
    the segment), ``release()`` as each shard completes, ``release_all()``
    in the gather's ``finally`` — and again from
    ``EnsembleExecutor.close()`` as the crash backstop, so a gather that
    never reaches its ``finally`` cannot leak ``/dev/shm`` segments past
    the executor's lifetime.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: dict[str, list] = {}  # name -> [SharedMemory, refcount]

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def names(self) -> list[str]:
        with self._lock:
            return list(self._segments)

    def share(self, array: np.ndarray) -> SharedArrayHandle:
        """Copy ``array`` into a new segment and return its handle (refcount 0)."""
        arr = np.ascontiguousarray(array)
        if arr.nbytes == 0:
            raise ValueError("cannot share a zero-byte array")
        segment = _shm.SharedMemory(create=True, size=arr.nbytes)
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)[...] = arr
        with self._lock:
            self._segments[segment.name] = [segment, 0]
        return SharedArrayHandle(segment.name, arr.shape, str(arr.dtype), arr.nbytes)

    def retain(self, name: str) -> None:
        with self._lock:
            self._segments[name][1] += 1

    def release(self, name: str) -> None:
        """Drop one reference; unlink the segment when none remain."""
        with self._lock:
            entry = self._segments.get(name)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            del self._segments[name]
            segment = entry[0]
        self._destroy(segment)

    def release_all(self) -> None:
        with self._lock:
            segments = [entry[0] for entry in self._segments.values()]
            self._segments.clear()
        for segment in segments:
            self._destroy(segment)

    @staticmethod
    def _destroy(segment) -> None:
        try:
            segment.close()
        except Exception:
            pass
        try:
            segment.unlink()
        except Exception:
            pass  # already unlinked (double release / interpreter teardown)


def resolve_payloads(obj):
    """Swap every :class:`SharedArrayHandle` inside ``obj`` for its array.

    Walks tuples, lists and dict values (the shapes executor work-units
    take); any other object — including the arrays themselves — passes
    through untouched, so a job without handles is returned as-is.
    """
    if isinstance(obj, SharedArrayHandle):
        return obj.materialize()
    if isinstance(obj, tuple):
        return tuple(resolve_payloads(v) for v in obj)
    if isinstance(obj, list):
        return [resolve_payloads(v) for v in obj]
    if isinstance(obj, dict):
        return {k: resolve_payloads(v) for k, v in obj.items()}
    return obj

