"""Chaos soak for the experiment service (scripts/smoke.sh step 7).

Orchestrates three child processes over one shared campaign journal:

1. **kill** — submits a 6-job priority sweep and supervises it with
   ``REPRO_FAULT_PLAN=service-kill@scheduler:<N>``: the N-th journal write
   hard-kills the process (``os._exit(137)``) mid-campaign, exactly like a
   node failure or OOM kill.
2. **finish** — a fresh process, no fault plan, same journal: recovery
   requeues every non-terminal job with ``resume=True`` and runs the
   campaign to completion from the engine checkpoints.
3. **clean** — the identical sweep against a separate journal with no
   faults at all.

Each child also serves the HTTP status frontend and publishes its port to
a sidecar file next to the journal; the orchestrator polls ``GET /jobs``
throughout the soak.  Connection errors are expected (the service spends
time dead between its lives) but every response that does land must be
**strict JSON** — a ``NaN``/``Infinity`` token anywhere in a status body
fails the soak.

Every child runs its attempts on a 2-worker pool, so the kill lands on a
service whose jobs are mid-attempt in *other processes*: those must be gone
before the restarted service resumes the same checkpoint rings.

The soak passes iff the killed-and-restarted campaign ends with every job
``done`` and RMSE histories **bit-identical** to the clean sweep — the
service's whole durability contract in one assertion — and nothing is left
behind: no worker of any generation, no ``/dev/shm`` segment, no ``*.tmp``
checkpoint.

Usage: python scripts/chaos_soak.py            (orchestrator)
       python scripts/chaos_soak.py run <journal> [--expect-kill]   (child)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

N_JOBS = 6
RUNNER = "repro.workflow.scheduler:lorenz96_ensf_job"
PARAMS = {"dim": 12, "n_cycles": 12, "ensemble_size": 8, "n_sde_steps": 6}
# Scheduler-site occurrences count journal writes.  The 6 submissions are
# writes 0-5; write 9 lands mid-campaign with jobs both finished, running
# and still queued — the interesting kill point.
KILL_SPEC = "service-kill@scheduler:9,code=137"


def _child_run(journal: Path, expect_kill: bool) -> None:
    from repro.hpc.ensemble_parallel import EnsembleExecutor
    from repro.workflow.scheduler import ExperimentService, ServiceConfig

    config = ServiceConfig(max_running=2, retry_backoff_s=0.05, poll_s=0.02)
    journal.parent.mkdir(parents=True, exist_ok=True)
    with EnsembleExecutor(n_workers=2) as pool, ExperimentService(
        journal, executor=pool, config=config
    ) as svc:
        server = svc.serve_status()
        (journal.parent / "status.port").write_text(str(server.port))
        for i in range(N_JOBS):
            name = f"soak-{i:02d}"
            if name not in svc.status():
                svc.submit(name, RUNNER, params=dict(PARAMS, seed=i), priority=i % 3)
        states = svc.run_until_complete(timeout=600.0)
        if expect_kill:
            raise SystemExit(
                f"service-kill never fired; campaign finished cleanly: {states}"
            )
        payload = {
            "states": states,
            "rmse": {name: svc.result(name)["analysis_rmse"] for name in states},
        }
    print(json.dumps(payload))


def _reject_nonstrict(token):
    raise SystemExit(f"status frontend emitted non-strict JSON token {token!r}")


def _poll_status(port_file: Path, polls: list) -> None:
    """One ``GET /jobs`` against the child's status frontend, if reachable.

    Connection failures are part of the soak (the port file may be stale
    from a killed life, or the service not up yet); a response that *does*
    arrive must parse as strict JSON, with non-strict tokens fatal.
    """
    try:
        port = int(port_file.read_text())
    except (OSError, ValueError):
        return
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/jobs", timeout=2) as resp:
            body = resp.read()
    except (urllib.error.URLError, OSError):
        return
    payload = json.loads(body.decode("utf-8"), parse_constant=_reject_nonstrict)
    polls.append(payload["counts"])


def _spawn(
    journal: Path, *, fault_plan: str | None, polls: list
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("REPRO_FAULT_PLAN", None)
    args = [sys.executable, os.path.abspath(__file__), "run", str(journal)]
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan
        args.append("--expect-kill")
    proc = subprocess.Popen(
        args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    port_file = journal.parent / "status.port"
    while proc.poll() is None:
        _poll_status(port_file, polls)
        time.sleep(0.05)
    stdout, stderr = proc.communicate()
    return subprocess.CompletedProcess(args, proc.returncode, stdout, stderr)


def _soak_processes(root: str) -> list[int]:
    """Live processes of this soak: children and their pool workers, which
    all carry a journal path under ``root`` on their command line."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and int(entry) != os.getpid():
            try:
                cmdline = Path("/proc", entry, "cmdline").read_bytes()
                state = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()[0]
            except OSError:
                continue  # gone between the listing and the read
            if root.encode() in cmdline and state != "Z":
                found.append(int(entry))
    return found


def _assert_nothing_left(root: str, shm_before: set) -> None:
    deadline = time.monotonic() + 10.0
    while (orphans := _soak_processes(root)) and time.monotonic() < deadline:
        time.sleep(0.05)  # a killed service's workers notice within a poll
    if orphans:
        raise SystemExit(f"orphaned worker process(es) left behind: {orphans}")
    if os.path.isdir("/dev/shm") and (leaked := set(os.listdir("/dev/shm")) - shm_before):
        raise SystemExit(f"/dev/shm segment(s) left behind: {sorted(leaked)}")
    if torn := sorted(str(p) for p in Path(root).rglob("*.tmp")):
        raise SystemExit(f"half-written file(s) left behind: {torn}")


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "run":
        _child_run(Path(sys.argv[2]), expect_kill="--expect-kill" in sys.argv[3:])
        return

    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    with tempfile.TemporaryDirectory() as tmp:
        chaos_journal = Path(tmp) / "chaos" / "journal.json"
        clean_journal = Path(tmp) / "clean" / "journal.json"

        polls: list = []
        killed = _spawn(chaos_journal, fault_plan=KILL_SPEC, polls=polls)
        if killed.returncode != 137:
            sys.stderr.write(killed.stdout + killed.stderr)
            raise SystemExit(
                f"expected the fault plan to kill the campaign with exit 137, "
                f"got {killed.returncode}"
            )
        print(f"campaign killed mid-flight (exit {killed.returncode}) -- restarting")

        finished = _spawn(chaos_journal, fault_plan=None, polls=polls)
        if finished.returncode != 0:
            sys.stderr.write(finished.stdout + finished.stderr)
            raise SystemExit(f"restarted campaign failed (exit {finished.returncode})")
        chaos = json.loads(finished.stdout.strip().splitlines()[-1])

        clean_run = _spawn(clean_journal, fault_plan=None, polls=polls)
        if clean_run.returncode != 0:
            sys.stderr.write(clean_run.stdout + clean_run.stderr)
            raise SystemExit(f"clean sweep failed (exit {clean_run.returncode})")
        clean = json.loads(clean_run.stdout.strip().splitlines()[-1])
        if os.path.isdir("/proc"):
            _assert_nothing_left(tmp, shm_before)

    expected = {f"soak-{i:02d}": "done" for i in range(N_JOBS)}
    if chaos["states"] != expected:
        raise SystemExit(f"restarted campaign did not finish every job: {chaos['states']}")
    if chaos["rmse"] != clean["rmse"]:
        diverged = sorted(
            name for name in clean["rmse"] if chaos["rmse"].get(name) != clean["rmse"][name]
        )
        raise SystemExit(f"RMSE diverged from the clean sweep for: {diverged}")
    if not polls:
        raise SystemExit(
            "status frontend was never successfully polled during the soak"
        )
    print(
        f"chaos soak OK: {N_JOBS} jobs killed+restarted, all done, "
        f"RMSE bit-identical to the clean sweep; {len(polls)} strict-JSON "
        f"status polls landed across the kill/restart; no worker, segment "
        f"or *.tmp left behind"
    )


if __name__ == "__main__":
    main()
