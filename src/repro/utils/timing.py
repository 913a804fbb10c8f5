"""Lightweight timing helpers for the benchmark harness and profiler.

:func:`best_of` is the kernel benchmarks' measurement loop and
:class:`BenchRecorder` the per-cycle wall-time recorder wired through the
OSSE cycling driver (:func:`repro.da.cycling.run_osse`) and the kernel
benchmarks.

``BENCH_*.json`` format
-----------------------
The benchmark entry points (``benchmarks/run_all.py`` and the
``pytest -m bench`` suite) persist speedup records as JSON files at the
repository root.  Each file is a single object::

    {
      "benchmark": "<name>",                  # e.g. "analysis-kernels"
      "created_unix": <float seconds>,        # stamp of the recording run
      "<section>": {                          # one object per measured case
        "...case metadata...": ...,           # grid, members, config, ...
        "reference_s": <float>,               # reference-path wall time
        "optimized_s": <float>,               # new-kernel wall time
        "speedup": <float>                    # reference_s / optimized_s
      },
      ...
    }

Additional keys inside a section are free-form metadata (accuracy parity
deltas, per-cycle breakdowns from :meth:`BenchRecorder.report`, etc.).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

__all__ = ["BenchRecorder", "best_of"]


def best_of(fn, repeats: int = 3):
    """Best-of-N wall time in seconds and the last return value of ``fn``.

    The standard measurement loop of the kernel benchmarks: the minimum over
    a few repeats filters out scheduler noise on shared hosts, and the value
    is returned so accuracy-parity checks reuse the timed call.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


class BenchRecorder:
    """Per-cycle wall-time recorder for the DA cycling hot paths.

    The recorder keeps the full per-occurrence time series of every named
    section (not only totals), so an OSSE run can report how forecast and
    analysis cost evolve cycle by cycle and the benchmark harness can
    persist the breakdown (see the module docstring for the on-disk format).

    Examples
    --------
    >>> rec = BenchRecorder()
    >>> with rec.section("analysis"):
    ...     _ = sum(range(100))
    >>> rec.counts()["analysis"]
    1
    """

    def __init__(self) -> None:
        self.sections: dict[str, list[float]] = {}

    def add(self, name: str, seconds: float) -> None:
        """Record one occurrence of section ``name``."""
        self.sections.setdefault(name, []).append(float(seconds))

    @contextmanager
    def section(self, name: str):
        """Context manager timing one occurrence of section ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - start)

    # -- queries ----------------------------------------------------------- #
    def per_cycle(self, name: str) -> list[float]:
        """All recorded occurrences of section ``name`` (seconds)."""
        return list(self.sections.get(name, []))

    def totals(self) -> dict[str, float]:
        """Total seconds per section."""
        return {name: float(sum(vals)) for name, vals in self.sections.items()}

    def counts(self) -> dict[str, int]:
        """Number of occurrences per section."""
        return {name: len(vals) for name, vals in self.sections.items()}

    def mean(self, name: str) -> float:
        """Mean seconds per occurrence of section ``name``."""
        vals = self.sections.get(name)
        if not vals:
            raise KeyError(f"section {name!r} has no recorded occurrences")
        return float(sum(vals) / len(vals))

    def snapshot(self) -> dict[str, int]:
        """Per-section occurrence counts; pass to :meth:`report` as ``since``."""
        return {name: len(vals) for name, vals in self.sections.items()}

    def report(self, since: dict[str, int] | None = None) -> dict:
        """JSON-ready breakdown: totals, means, counts and per-cycle series.

        ``since`` (a :meth:`snapshot` taken earlier) restricts the report to
        occurrences recorded after the snapshot, so a recorder shared across
        several runs can still attribute timing to each run individually.
        """
        out = {}
        for name, vals in self.sections.items():
            vals = vals[since.get(name, 0):] if since else vals
            if not vals:
                continue
            out[name] = {
                "total_s": float(sum(vals)),
                "mean_s": float(sum(vals) / len(vals)),
                "count": len(vals),
                "per_cycle_s": [float(v) for v in vals],
            }
        return out

    @staticmethod
    def speedup(reference_seconds: float, optimized_seconds: float) -> float:
        """Speedup factor of an optimised path over its reference."""
        if optimized_seconds <= 0.0:
            raise ValueError("optimized_seconds must be positive")
        return float(reference_seconds) / float(optimized_seconds)

    def write_json(self, path, benchmark: str, **extra) -> dict:
        """Write ``{"benchmark": ..., <report>, <extra>}`` to ``path``.

        Returns the written payload.  ``extra`` entries take precedence over
        the recorder's own section report, letting callers attach speedup
        records in the documented ``BENCH_*.json`` layout.
        """
        payload = {
            "benchmark": benchmark,
            "created_unix": time.time(),
            "sections": self.report(),
        }
        payload.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return payload
