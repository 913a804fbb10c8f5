"""Lightweight timing helpers for the benchmark harness.

:func:`best_of` is the kernel benchmarks' measurement loop and
:func:`write_bench_json` their writer.

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
deltas, per-cycle stage breakdowns, etc.).
"""

from __future__ import annotations

import json
import time

__all__ = ["best_of", "write_bench_json"]


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


def write_bench_json(path, benchmark: str, **sections) -> dict:
    """Write ``{"benchmark", "created_unix", **sections}`` to ``path``.

    Returns the written payload (see the module docstring for the layout).
    """
    payload = {"benchmark": benchmark, "created_unix": time.time(), **sections}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
