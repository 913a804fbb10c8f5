"""Priority-sweep demo for the experiment service.

Submits a 10-job Lorenz-96/EnSF seed sweep at three priority tiers over a
2-slot service whose slots are the two workers of a process pool, injects
one deterministic mid-run crash into a victim job, and shows that the
service heals it: every job ends ``done`` and the crashed job's RMSE
history is bit-identical to an undisturbed run of the same submission.
Next to each job's state it prints the pid of every attempt the job took —
two worker pids, neither of them this process: two running jobs are two
processes on two cores.

Run with:

    PYTHONPATH=src python examples/priority_sweep.py
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.utils.faults import FaultPlan
from repro.workflow.scheduler import ExperimentService, ServiceConfig, lorenz96_ensf_job

RUNNER = "priority_sweep:sweep_job"  # this file: examples/ is on the path of a script run from it
PARAMS = {"dim": 12, "n_cycles": 10, "ensemble_size": 8, "n_sde_steps": 6}


def sweep_job(ctx) -> dict:
    """``lorenz96_ensf_job`` that also reports where each of its attempts ran."""
    with open(ctx.workdir / "attempt.pids", "a") as pids:
        pids.write(f"{os.getpid()}\n")
    result = lorenz96_ensf_job(ctx)
    result["attempt_pids"] = [int(p) for p in (ctx.workdir / "attempt.pids").read_text().split()]
    return result


def run_sweep(journal: Path, fault_plan: FaultPlan | None = None) -> dict:
    config = ServiceConfig(max_running=2, retry_backoff_s=0.05, poll_s=0.02)
    with EnsembleExecutor(n_workers=2) as pool, ExperimentService(
        journal, executor=pool, config=config, fault_plan=fault_plan
    ) as svc:
        for seed in range(10):
            name = f"osse-{seed:02d}"
            priority = seed % 3  # three tiers: later high-tier jobs preempt
            svc.submit(name, RUNNER, params=dict(PARAMS, seed=seed), priority=priority)
        states = svc.run_until_complete(timeout=600.0)
        return {
            "states": states,
            "rmse": {name: svc.result(name)["analysis_rmse"] for name in states},
            "pids": {name: svc.result(name)["attempt_pids"] for name in states},
            "service_log": svc.fault_log.summary(),
            "victim_log": svc.job_fault_log("osse-03").summary(),
        }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        # Scheduler-site occurrences count journal writes; by occurrence 12
        # the sweep is mid-flight, so the crash lands while osse-03 runs.
        plan = FaultPlan.from_spec("job-crash@scheduler:12,job=osse-03")
        faulted = run_sweep(tmp_path / "faulted" / "journal.json", fault_plan=plan)
        clean = run_sweep(tmp_path / "clean" / "journal.json")

    print(f"service pid {os.getpid()}")
    print("job        state  final RMSE  attempts ran in")
    for name, state in sorted(faulted["states"].items()):
        pids = " ".join(map(str, faulted["pids"][name]))
        print(f"{name:10s} {state:6s} {faulted['rmse'][name][-1]:.6f}    {pids}")

    print(f"\nservice events: {faulted['service_log']}")
    print(f"victim (osse-03) events: {faulted['victim_log']}")

    assert all(state == "done" for state in faulted["states"].values())
    workers = {pid for pids in faulted["pids"].values() for pid in pids}
    assert os.getpid() not in workers and len(workers) >= 2, workers
    exact = faulted["rmse"] == clean["rmse"]
    print(f"\nbit-identical to the undisturbed sweep: {exact}")
    assert exact, "faulted sweep diverged from the clean sweep"


if __name__ == "__main__":
    main()
