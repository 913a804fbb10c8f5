"""Benchmark entry point: refresh the ``BENCH_*.json`` perf baselines.

Tier-1 CI (`pytest -x -q`) deselects every test under benchmarks/ via the
``bench`` marker (see pytest.ini); this script opts back in.

Usage::

    python benchmarks/run_all.py            # kernel + forecast speedup benchmarks
    python benchmarks/run_all.py --all      # full reproduction benchmark suite
    python benchmarks/run_all.py <pytest args...>

The default run refreshes ``BENCH_kernels.json`` (vectorized analysis
kernels, the LETKF stride and assembly-block curves, the EnSF paths) and
``BENCH_forecast.json`` (fused pseudo-spectral forecast
engine plus the 128×128 paper-scale OSSE breakdown, read from the
per-stage seconds on each ``CycleRecord``) at the repository root.  Both
are written by :func:`repro.utils.timing.write_bench_json` (see its module for the
file format).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

# Benchmarks import helpers as `benchmarks.conftest`, which resolves from the
# repository root (python -m pytest adds it automatically; running this file
# directly puts benchmarks/ first on sys.path instead).
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Surface the backend selection: the BENCH_*.json records embed the
    # resolved array backend, so entries refreshed under different
    # selections stay distinguishable.
    from repro.utils.xp import default_backend_name as array_backend

    print(f"[run_all] array backend: {array_backend()}")
    if "--all" in argv:
        argv.remove("--all")
        targets = [str(BENCH_DIR)]
    elif any(not a.startswith("-") for a in argv):
        targets = []  # explicit test paths supplied by the caller
    else:
        targets = [
            str(BENCH_DIR / "test_bench_kernels.py"),
            str(BENCH_DIR / "test_bench_forecast.py"),
        ]
    rc = pytest.main(["-m", "bench", "-q", "-s", *targets, *argv])
    if rc == 0:
        _print_residency_summary()
    return rc


def _print_residency_summary() -> None:
    """Echo the recorded per-cycle transfer budget after a refresh.

    The ``residency`` entry of ``BENCH_forecast.json`` is the device-
    residency contract in numbers: steady-state host transfers per OSSE
    cycle on the metered mock-device backend, certified configuration-
    independent by ``tests/unit/test_device_residency.py``.
    """
    import json

    path = REPO_ROOT / "BENCH_forecast.json"
    try:
        residency = json.loads(path.read_text(encoding="utf-8")).get("residency")
    except (OSError, ValueError):
        return
    if not residency:
        return
    print("[run_all] per-cycle host-transfer budget "
          f"({residency.get('array_backend', '?')}):")
    for name, budget in residency.get("per_cycle", {}).items():
        if isinstance(budget, dict):
            print(f"[run_all]   {name}: {budget.get('h2d_calls')} up / "
                  f"{budget.get('d2h_calls')} down")


if __name__ == "__main__":
    raise SystemExit(main())
