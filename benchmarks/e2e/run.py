"""End-to-end benchmark of the cycling runtime and the experiment service.

    python3 benchmarks/e2e/run.py --seed 7            every workload, both passes
    python3 benchmarks/e2e/run.py --seed 7 --repeat 10 --out a.json
    python3 benchmarks/e2e/run.py compare a.json b.json
    python3 benchmarks/e2e/run.py --workload letkf_serial_64 --seed 7 --seconds 12 --trace 0

The last form runs one pass of one workload in this process and prints one
JSON result as its last line; the first form runs that once per workload
and pass, each in a fresh subprocess.  Metric names, units and bounds are
read from ``BENCHMARK.json``; see ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
SPEC_PATH = REPO / "BENCHMARK.json"
OSSE_WORKLOADS = ("letkf_serial_64", "ensf_serial_64", "letkf_pool_128")
# One BLAS thread and one FFT worker: the only parallelism is the pool a
# workload asks for.  Left unpinned on a 2-core host, OpenBLAS made a 64²
# EnSF analysis 1.7x and a LETKF analysis 1.3x slower, and noisier.
# No transparent huge pages for numpy's large temporaries: with them, one
# EnSF cycle in ten took 1.3-1.5x the median (page compaction at fault
# time) against 1.1x without, in three alternating 40 s runs of each.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_FFT_WORKERS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def pinned_environment(base: dict) -> dict:
    """``base`` without any ``REPRO_*`` knob, plus the pins."""
    env = {k: v for k, v in base.items() if not k.startswith("REPRO_")}
    env.update(PINNED)
    return env


@dataclass
class Context:
    """What a workload needs from the harness."""

    import_s: float
    workdir: Path
    src: str
    trace_out: Path | None

    def peak_rss_mb(self) -> float:
        """Parent peak RSS plus the largest reaped child's (Linux: KiB)."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + child) / 1024.0


def blas_threads_in_effect() -> int | str:
    """Ask the loaded OpenBLAS how many threads it will use."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return "unverified"


def host_record(seed: int) -> dict:
    import numpy as np

    from repro.utils import fft, xp

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.__config__.show(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown"
    if (REPO / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=False
        )
        sha = out.stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_effect(),
        "fft_backend": fft.default_backend_name(),
        "array_backend": xp.default_backend_name(),
        "environment": PINNED,
        "git_sha": sha,
        "seed": seed,
    }


def child_pids() -> list[int]:
    """Live (not yet reaped, not zombie) children of this process, from /proc."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # gone between the listing and the read
            state, ppid = stat[stat.rindex(")") + 2 :].split()[:2]
            if int(ppid) == me and state != "Z":
                found.append(int(entry))
    return found


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The pool workers are joined by ``EnsembleExecutor.close``; what is left
    on a clean run is multiprocessing's resource tracker, which the shared
    memory payloads start and which by itself ends only *after* this process
    has (it waits for its pipe to close).  On an error path a worker or an
    import probe may be left as well: those are terminated, then killed.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes its pipe and waits for it
    deadline = time.monotonic() + grace_s
    sent_kill = False
    while pids := child_pids():
        for pid in pids:
            try:
                os.kill(pid, 9 if sent_kill else 15)
            except ProcessLookupError:
                pass
        sent_kill = sent_kill or time.monotonic() > deadline
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass
        time.sleep(0.01)
    try:  # reap what ended meanwhile, so that nothing is left as a zombie
        while os.waitpid(-1, os.WNOHANG) != (0, 0):
            pass
    except ChildProcessError:
        pass


def run_one(args) -> int:
    """One pass of one workload, in this process."""
    spec = load_spec()
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"the program under test is missing: no package at {SRC / 'repro'}")
    # Before numpy is imported: the BLAS reads its thread count when it loads.
    env = pinned_environment(dict(os.environ))
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    import campaign
    import osse
    import probes

    # What this process has just paid, timed in three cold processes of its
    # own: a single in-process import read between 0.19 and 0.40 s.
    import_s = probes.import_seconds(
        "osse" if args.workload in OSSE_WORKLOADS else "campaign",
        str(SRC),
        dict(env, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)])),
        reps=1 if args.smoke else 3,
    )

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    ctx = Context(import_s, workdir, str(SRC), args.trace_out)
    trace = bool(args.trace)
    try:
        if args.workload in OSSE_WORKLOADS:
            outcome = osse.run(args.workload, args.seed, args.seconds, trace, args.smoke, ctx)
        else:
            outcome = campaign.run(args.seed, args.seconds, trace, args.smoke, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = {name: bool(ok) for name, ok in outcome["checks"].items()}
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    unknown = set(outcome["metrics"]) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    if not trace:
        missing = {m["name"] for m in declared} - set(outcome["metrics"])
        if missing:
            raise SystemExit(f"end-to-end metrics not measured: {sorted(missing)}")
    # A per-layer metric of a layer this workload never enters reads 0.
    metrics = {
        m["name"]: {"value": float(outcome["metrics"].get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    print(
        json.dumps(
            {
                "workload": args.workload,
                "trace": int(trace),
                "host": host_record(args.seed),
                "checks": checks,
                "samples": outcome["samples"],
                "applies": sorted(outcome["metrics"]),
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": all(checks.values()) and outcome["failed"] == 0,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool, trace_out) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    if trace and trace_out is not None:
        command += ["--trace-out", f"{trace_out}.{workload}.jsonl"]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {done.returncode}")
    record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {**record, **result}


def print_pass(declared: list[dict], passed: dict) -> None:
    """One row per metric that applies to the workload, in declared order."""
    for m in declared:
        if m["name"] in passed["applies"]:
            value = passed["metrics"][m["name"]]["value"]
            bound = f"  bound {m['bound']:.2f}" if "bound" in m else ""
            print(f"    {m['name']:50s} {value:14.6g} {m['unit']}{bound}")


def run_all(args) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs = []
    ok = True
    for repeat in range(args.repeat):
        seed = args.seed + repeat if args.vary_seed else args.seed
        run = {"seed": seed, "workloads": {}}
        for workload in (w["name"] for w in spec["workloads"]):
            passes = [
                run_child(workload, seed, seconds, trace, args.smoke, args.trace_out)
                for trace in ((0,) if args.no_trace else (0, 1))
            ]
            attempted = sum(p["attempted"] for p in passes)
            failed = sum(p["failed"] for p in passes)
            print(f"\n== {workload}  (repeat {repeat}, seed {seed})")
            for declared, passed in zip((spec["end_to_end"], spec["per_layer"]), passes):
                print("  per layer" if passed["trace"] else "  end to end")
                print_pass(declared, passed)
                print(f"    samples behind the percentiles: {passed['samples']}")
                for check, held in passed["checks"].items():
                    if not held:
                        print(f"    CHECK FAILED: {check}")
            print(f"  {'failed_frac':52s} {failed / attempted:14.6g} ({failed} of {attempted})")
            ok = ok and all(p["correct"] for p in passes)
            run["workloads"][workload] = {
                "end_to_end": passes[0]["metrics"],
                "per_layer": {n: p["metrics"][n] for p in passes[1:] for n in p["applies"]},
                "attempted": attempted,
                "failed": failed,
                "checks": [p["checks"] for p in passes],
                "samples": [p["samples"] for p in passes],
            }
            run["host"] = passes[0]["host"]
        runs.append(run)
    print(f"\nhost: {json.dumps(runs[0]['host'])}")
    out = args.out if args.out is not None else HERE / "results" / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "smoke": args.smoke, "runs": runs}, indent=1))
    print(f"wrote {out}")
    if len(runs) > 1:
        print_spread(spec, runs)
    return 0 if ok else 1


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [run["workloads"][workload]["end_to_end"][metric]["value"] for run in runs]


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def print_spread(spec: dict, runs: list[dict]) -> None:
    """Run-to-run spread of every end-to-end metric against its bound."""
    print("\nspread over runs: (q3 - q1) / median, against the bound")
    for workload in runs[0]["workloads"]:
        for m in spec["end_to_end"]:
            q1, q2, q3 = quartiles(values(runs, workload, m["name"]))
            spread = (q3 - q1) / q2
            flag = "" if spread <= m["bound"] / 3 else "  (above a third of the bound)"
            print(
                f"  {workload:18s} {m['name']:26s} median {q2:12.6g} "
                f"spread {spread:7.4f}  bound {m['bound']:.2f}{flag}"
            )


def compare(args) -> int:
    """Side A (the parent) against side B (the change), metric by metric."""
    spec = load_spec()
    a_runs = json.loads(args.a.read_text())["runs"]
    b_runs = json.loads(args.b.read_text())["runs"]
    regressed = False
    for workload in a_runs[0]["workloads"]:
        print(f"\n== {workload}")
        for m in spec["end_to_end"]:
            a, b = values(a_runs, workload, m["name"]), values(b_runs, workload, m["name"])
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (b2 - a2) / a2  # share of A's median by which B is worse
            spread = (a3 - a1) / a2
            b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
            if worse > m["bound"]:
                verdict, regressed = "REGRESSED", True
            elif spread > m["bound"] and not b_always_better:
                verdict = "unresolved (spread of A exceeds the bound)"
            elif a == b:
                verdict = "identical"
            else:
                verdict = "within bound"
            print(
                f"  {m['name']:26s} A {a2:11.6g} [{a1:11.6g}, {a3:11.6g}]  "
                f"B {b2:11.6g} [{b1:11.6g}, {b3:11.6g}]  "
                f"worse by {100 * worse:+7.2f} % of {100 * m['bound']:.0f} %  {verdict}"
            )
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        return compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one pass of this workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, help="write the traced pass's spans as JSONL")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--repeat", type=int, default=1, help="run everything this many times")
    parser.add_argument("--vary-seed", action="store_true", help="repeat i uses seed + i")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced passes")
    parser.add_argument("--out", type=Path, help="results file (default: results/latest.json)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    try:
        return run_one(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
