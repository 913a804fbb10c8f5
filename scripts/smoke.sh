#!/bin/sh
# Tier-1 smoke check (see pytest.ini):
#   1. The test suite must *collect* with scipy blocked — nothing may
#      import scipy at module level, so numpy-only installs keep working.
#   2. Forecast worker invariance must hold through a real n_workers=2
#      process pool (every gather route gives the in-process bits), and a
#      real-time EnSF run must give the same bits with no executor, one
#      worker and that pool, so CI always exercises the pool path; the LETKF
#      analysis-grid stride must be the derived 4 / 8 / 2 on the 64x64 /
#      128x128 / 32x32 benchmark grids (1 on this script's own 10x2 grid).
#      Next to the strides, the SQG ensemble's derived coarse step k on the
#      seed-7 benchmark inputs must be the recorded one on the 64x64 /
#      128x128 / 32x32 grids.
#      A 2-worker pooled 32x32 OSSE must run 12 steady cycles with the
#      cyclic garbage collector off and leave nothing for it to collect:
#      a gather frees its payloads when it returns, so a long pooled run
#      keeps a flat memory footprint; a count of the executor's gathers
#      shows that its forecasts went to the pool.
#   3. The backend-parametrized kernel-equivalence suite must pass with the
#      array backend forced to ``mock-device`` via the environment variable
#      (proving both the env-var precedence path and the transfer-metered
#      dispatch layer without hardware).  It includes the SQG step's
#      oracle-equivalence test (test_forecast_kernels.py::TestAgainstHeadOracle),
#      so the chunked kernel's real-view arithmetic runs under the transfer
#      meters and must equal the previous step bit for bit with zero transfers;
#      its TestCoarseStep runs the CFL probe and the k*dt ensemble step the
#      same way (zero transfers once the k*dt multiplier exists).
#      test_kernels.py's TestFoldedAssembly and TestAssemblyWorkspace run the
#      LETKF's folded convolution inverse and its reused channel buffers the
#      same way: the steady assembly uploads its inputs and nothing more;
#      its TestBlockedAssembly holds every channel block to the unblocked
#      oracle (tests/reference/letkf_assembly_head.py), bit for bit.
#   4. The routed kernel modules (sqg, letkf, ensf, score, sde) must pass
#      the static xp-discipline check: no bare numpy compute calls outside
#      the documented host-side functions, so device residency cannot rot
#      silently (scripts/check_xp_discipline.py).
#   5. The BENCH_*.json perf baselines must keep their documented schema
#      (required keys present, speedup notes non-empty) so they cannot
#      silently rot between benchmark refreshes; the recorded curves behind
#      the derived constants (_CFL_MAX, the LETKF's _ASSEMBLY_BYTES) must
#      name the constants the code holds.
#   6. The cycle engine must run a partial observation network (every
#      other Lorenz-96 variable observed) end to end, and a
#      checkpoint/kill/resume round-trip must land on a bit-identical final
#      analysis mean (the restartable-300-cycle-run contract).
#   7. The fault-tolerant runtime must replay a recorded fault sequence
#      (worker crash + truncated checkpoint + corrupted obs batch) injected
#      via REPRO_FAULT_PLAN against unmodified drivers, recover every fault
#      (visible in the FaultLog), and produce exact-zero RMSE deltas versus
#      the clean run — including a resume="auto" that walks past the torn
#      checkpoint.
#   8. The experiment service must survive a chaos soak: a multi-job
#      priority sweep hard-killed mid-campaign (service-kill injected via
#      REPRO_FAULT_PLAN, exit 137), then restarted from the journal, must
#      finish every job with RMSE bit-identical to an undisturbed sweep.
#      The orchestrator polls the HTTP status frontend (GET /jobs)
#      throughout the kill/restart; every response that lands must parse
#      as strict JSON, and at least one poll must succeed.
#      Afterwards a 4-job Lorenz-96 campaign plus one 32x32 SQG job on a
#      2-worker pool must show, in a count of the executor's gathers and the
#      jobs' checkpoint rings, that no job gathered over the pool and the
#      ring was written less often than once a cycle.
#   9. The tier-1 suite itself must pass; --durations=10 surfaces creeping
#      slow tests.  With -rs every skip is reported, and any skip whose
#      reason is not one of the platform conditions the tests declare
#      (no /proc, no shared memory, a numpy FFT without out=)
#      fails the step: a backend that cannot run here is deleted, not
#      skipped.
# Usage: scripts/smoke.sh [extra pytest args for step 9]
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== smoke 1/9: collection with scipy blocked (numpy-only install) =="
python - <<'EOF'
import sys

class _BlockSciPy:
    """Meta-path hook simulating an environment without scipy."""
    def find_module(self, name, path=None):  # py<3.12 protocol
        return self if name == "scipy" or name.startswith("scipy.") else None
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} blocked by scripts/smoke.sh (numpy-only check)")
        return None
    def load_module(self, name):
        raise ImportError(f"{name} blocked by scripts/smoke.sh (numpy-only check)")

sys.meta_path.insert(0, _BlockSciPy())
for mod in list(sys.modules):
    if mod == "scipy" or mod.startswith("scipy."):
        del sys.modules[mod]

import pytest

# Collection imports every test module (and through them the package); any
# unconditional `import scipy` fails loudly here.
rc = pytest.main(["--collect-only", "-q", "--no-header", "-p", "no:cacheprovider"])
if rc != 0:
    raise SystemExit(f"collection failed with scipy blocked (exit {rc})")
print("collection OK without scipy")
EOF

echo "== smoke 2/9: worker invariance through an n_workers=2 pool =="
python -m pytest -x -q tests/unit/test_hpc.py::TestGatherRouting \
    tests/unit/test_engine.py::TestRealtimeRun::test_executor_run_equals_the_serial_run
python - <<'EOF'
from repro.da.letkf import LETKFConfig
from repro.da.localization import analysis_stride
from repro.utils.grid import Grid2D

cutoff = LETKFConfig().cutoff
for n, stride in ((64, 4), (128, 8), (32, 2)):
    assert analysis_stride(Grid2D(n, n), cutoff) == stride, (n, stride)
# step 7's grid: fewer than 4 analysis points per axis, every column is solved
assert analysis_stride(Grid2D(10, 2, nlev=2), 4.0e6) == 1
print("analysis-grid strides OK")
EOF
python - <<'EOF'
import sys

sys.path.insert(0, "benchmarks/e2e")
import osse
from inputs import STEPS_PER_CYCLE, climatological_inputs

from repro.models.sqg import SQGModel, SQGParameters

def derived_k(model, ensemble):
    _, n_steps = model.coarse_step(ensemble, STEPS_PER_CYCLE)
    return STEPS_PER_CYCLE // n_steps

for name in ("letkf_serial_64", "ensf_serial_64", "letkf_pool_128"):
    spec = osse.SPECS[name]
    inputs = osse.generate(spec, 7, spec.grid)
    model = SQGModel(SQGParameters(nx=spec.grid, ny=spec.grid))
    assert derived_k(model, inputs.ensemble) == 4, name
# the service campaign's 32x32 SQG job, on its own input recipe
model = SQGModel(SQGParameters(nx=32, ny=32))
_, ensemble = climatological_inputs(model, 7, sigma0=0.03, spinup_steps=200, gap=10)
assert derived_k(model, ensemble) == 4
print("coarse ensemble steps OK: k = 4 on the 64x64 LETKF / EnSF, 128x128 and 32x32 inputs")
EOF

python - <<'EOF'
import gc

from repro.core.observations import IdentityObservation
from repro.da.cycling import OSSEConfig, run_osse
from repro.da.letkf import LETKF
from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.models.sqg import SQGModel, SQGParameters, spinup_sqg

model = SQGModel(SQGParameters(nx=32, ny=32))
truth0 = model.flatten(spinup_sqg(model, n_steps=100, rng=0))
operator = IdentityObservation(model.state_size, 1.0)
letkf = LETKF(model.grid)
gathers = []  # the worker count of every gather the executor runs
gather = EnsembleExecutor._gather


def counted(self, fn, jobs, workers):
    gathers.append(workers)
    return gather(self, fn, jobs, workers)


EnsembleExecutor._gather = counted


def osse(executor, n_cycles):
    config = OSSEConfig(n_cycles=n_cycles, steps_per_cycle=4, ensemble_size=10, seed=3)
    run_osse(model, model, letkf, operator, truth0, config, executor=executor)


with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as executor:
    osse(executor, 2)  # spawns the pool, builds the geometry and the workspaces
    gc.collect()
    gc.disable()
    try:
        osse(executor, 12)
        left = gc.collect()
    finally:
        gc.enable()
    assert gathers and set(gathers) == {2}, "the forecast gathers never reached the pool"
assert left == 0, f"12 pooled cycles left {left} unreachable objects"
print("pooled cycles OK: 12 cycles with the cyclic collector off left no garbage")
EOF

echo "== smoke 3/9: backend suite under REPRO_ARRAY_BACKEND=mock-device =="
# Prove the env-var resolution path itself in a fresh process (the
# backend-parametrized fixture clears the env var to control its own
# selection, so this assertion is the part the suite below cannot cover).
REPRO_ARRAY_BACKEND=mock-device python -c "
from repro.utils.xp import default_backend_name, resolve_backend
assert default_backend_name() == 'mock-device', default_backend_name()
assert resolve_backend(None).name == 'mock-device'
assert resolve_backend('auto').name == 'mock-device'
print('REPRO_ARRAY_BACKEND resolution OK')"
# Run the kernel-equivalence files WITHOUT a marker filter: the
# backend-parametrized tests cover every backend explicitly, while the
# unparametrized tests construct their kernels with backend=None and
# therefore really run on the env-selected mock-device default.
REPRO_ARRAY_BACKEND=mock-device python -m pytest -x -q \
    tests/unit/test_xp_backend.py tests/unit/test_kernels.py \
    tests/unit/test_forecast_kernels.py

echo "== smoke 4/9: static xp discipline in routed kernel modules =="
python scripts/check_xp_discipline.py

echo "== smoke 5/9: BENCH_*.json schema sanity =="
python - <<'EOF'
import json

SPECS = {
    "BENCH_kernels.json": dict(
        required=["benchmark", "created_unix",
                  "letkf", "letkf_stride_curve", "assembly_block_curve",
                  "ensf", "ensf_cases", "ensf_paths"],
        notes=[("letkf_stride_curve", "note"), ("assembly_block_curve", "note"),
               ("ensf_paths", "note")],
    ),
    "BENCH_forecast.json": dict(
        required=["benchmark", "created_unix", "fft_backend",
                  "forecast_step", "forecast_step_cases", "forecast_chunk_curve",
                  "cfl_step_curve", "engine_overhead", "retry_overhead", "osse_128",
                  "residency", "speedup_note"],
        notes=[("speedup_note",), ("forecast_chunk_curve", "note"), ("cfl_step_curve", "note"),
               ("engine_overhead", "note"),
               ("retry_overhead", "note"), ("residency", "note")],
    ),
}
for path, spec in SPECS.items():
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    missing = [key for key in spec["required"] if key not in payload]
    if missing:
        raise SystemExit(f"{path}: missing required keys {missing}")
    for keypath in spec["notes"]:
        node = payload
        for key in keypath:
            node = node[key]
        if not (isinstance(node, str) and node.strip()):
            raise SystemExit(f"{path}: speedup note at {'/'.join(keypath)} is empty")
    if "array_backend" in payload and not str(payload["array_backend"]).strip():
        raise SystemExit(f"{path}: array_backend recorded but empty")
    for row in payload.get("forecast_chunk_curve", {}).get("rows", []):
        marked = [c["chunk"] for c in row["candidates"] if c["derived"]]
        if marked != [row["derived_chunk"]] or not payload["forecast_chunk_curve"]["host"]:
            raise SystemExit(f"{path}: chunk curve at {row['grid']} lacks its derived chunk or host")
    if path == "BENCH_kernels.json":
        from repro.da.letkf import _ASSEMBLY_BYTES

        curve = payload["assembly_block_curve"]
        if not curve["host"] or curve["selected"] != _ASSEMBLY_BYTES:
            raise SystemExit(f"{path}: assembly_block_curve does not back _ASSEMBLY_BYTES")
    if path == "BENCH_forecast.json":
        from repro.models.sqg import _CFL_MAX

        curve = payload["cfl_step_curve"]
        if not curve["host"] or curve["selected"] != _CFL_MAX:
            raise SystemExit(f"{path}: cfl_step_curve does not back _CFL_MAX = {_CFL_MAX}")
print("BENCH schema OK")
EOF

echo "== smoke 6/9: partial observation network end-to-end + checkpoint/kill/resume =="
python - <<'EOF'
import os
import tempfile

import numpy as np

from repro.core.observations import SubsampledObservation
from repro.da.cycling import OSSEConfig, run_osse
from repro.core.ensf import EnSF, EnSFConfig
from repro.models.lorenz96 import Lorenz96
from repro.workflow.engine import EngineCheckpoint

DIM = 40
model = Lorenz96(dim=DIM)
truth0 = model.spinup(300, rng=0)
# Partial network: every other state variable observed, every cycle.
operator = SubsampledObservation.every_nth(DIM, 2, obs_error_var=0.5)
config = OSSEConfig(n_cycles=10, steps_per_cycle=4, ensemble_size=10, seed=17)

def run(**kwargs):
    return run_osse(
        model, model, EnSF(EnSFConfig(n_sde_steps=10), rng=1), operator,
        truth0, config, **kwargs,
    )

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "engine.ckpt")
    # checkpoint_every=7 over 10 cycles => exactly one rolling write, at
    # cycle 7, mid-stream.
    full = run(checkpoint_every=7, checkpoint_path=path)
    assert np.isfinite(full.analysis_rmse).all()
    ckpt = EngineCheckpoint.load(path)
    assert ckpt.next_cycle == 7, ckpt.next_cycle
    # "Kill" at cycle 7: fresh driver + filter objects resume from disk.
    resumed = run(resume=path)
assert np.array_equal(resumed.analysis_mean_final, full.analysis_mean_final)
assert np.array_equal(resumed.analysis_rmse, full.analysis_rmse)
print("partial-network run OK; checkpoint/kill/resume bit-identical")
EOF

echo "== smoke 7/9: recorded fault-sequence replay (REPRO_FAULT_PLAN) =="
python - <<'EOF'
import os
import tempfile

import numpy as np

from repro.core.observations import IdentityObservation, ObservationQC
from repro.da.cycling import OSSEConfig, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.models.lorenz96 import Lorenz96
from repro.utils.faults import ENV_FAULT_PLAN
from repro.utils.grid import Grid2D

DIM = 40
model = Lorenz96(dim=DIM)
truth0 = model.spinup(300, rng=0)
operator = IdentityObservation(DIM, obs_error_var=0.5)
config = OSSEConfig(
    n_cycles=8, steps_per_cycle=4, ensemble_size=10, seed=17, qc=ObservationQC()
)

# The recorded failure sequence: a worker crash at the 4th shard gather, a
# NaN-corrupted retransmission of the 3rd observation batch, and a torn
# final checkpoint — injected purely through the environment variable, so
# the drivers below run completely unmodified.
FAULT_SEQUENCE = (
    "worker-crash@executor:3;"
    "obs-corrupt@observations:2;"
    "checkpoint-truncate@checkpoint:3"
)

def letkf():
    return LETKF(
        Grid2D(10, 2, nlev=2),
        LETKFConfig(cutoff=4.0e6, shard_columns=8),
    )

def run(executor, **kwargs):
    return run_osse(
        model, model, letkf(), operator, truth0, config,
        executor=executor, **kwargs,
    )

with tempfile.TemporaryDirectory() as tmp:
    base = os.path.join(tmp, "engine.ckpt")
    os.environ.pop(ENV_FAULT_PLAN, None)
    with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as ex:
        clean = run(ex)
    assert len(clean.fault_log) == 0, clean.fault_log.summary()

    os.environ[ENV_FAULT_PLAN] = FAULT_SEQUENCE
    with EnsembleExecutor(
        n_workers=2, min_members_per_worker=1, retry_backoff_s=0.0
    ) as ex:
        faulted = run(ex, checkpoint_every=2, checkpoint_path=base, keep_last=3)
        shard_log = ex.fault_log.summary()
    run_log = faulted.fault_log.summary()
    os.environ.pop(ENV_FAULT_PLAN, None)

    # Every injected fault was hit and healed...
    assert shard_log.get("retry", 0) >= 1, shard_log
    assert shard_log.get("pool-rebuild", 0) >= 1, shard_log
    assert run_log.get("obs-corrupt") == 1, run_log
    assert run_log.get("qc-reject") == 1, run_log
    assert run_log.get("checkpoint-truncate") == 1, run_log
    # ...with exact-zero deltas versus the clean run.
    assert np.array_equal(faulted.analysis_rmse, clean.analysis_rmse)
    assert np.array_equal(faulted.forecast_rmse, clean.forecast_rmse)
    assert np.array_equal(faulted.analysis_mean_final, clean.analysis_mean_final)

    # resume="auto" must walk past the torn newest ring member and land on
    # the same trajectory, bit for bit.
    resumed = run(
        None, resume="auto", checkpoint_every=2, checkpoint_path=base, keep_last=3
    )
    assert resumed.fault_log.summary().get("checkpoint-fallback") == 1
    assert np.array_equal(resumed.analysis_rmse, clean.analysis_rmse)
print("fault replay OK: all recoveries logged, RMSE deltas exactly zero")
EOF

echo "== smoke 8/9: experiment-service chaos soak on a 2-worker pool (kill + restart + bit-identity + status polling + nothing left behind) =="
python scripts/chaos_soak.py
python - <<'EOF'
# What the service did with cheap work, read from its own ledgers (counts,
# not timings): attempts ran on the pool's workers, no job gathered anything
# over the pool, and the ring was written less often than once a cycle --
# with nothing left behind.
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "benchmarks/e2e")  # runners:sqg_letkf_job

from repro.hpc.ensemble_parallel import EnsembleExecutor
from repro.workflow.scheduler import ExperimentService, ServiceConfig
from repro.workflow.engine import CheckpointRing

L96 = {"dim": 12, "n_cycles": 40, "ensemble_size": 8, "n_sde_steps": 6}
gathers = []  # every gather the pool's owner runs
gather = EnsembleExecutor._gather


def counted(self, fn, jobs, workers):
    gathers.append(fn)
    return gather(self, fn, jobs, workers)


EnsembleExecutor._gather = counted


def pool_workers():
    """Live children of this process, the shm resource tracker aside."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()
            tracker = b"resource_tracker" in Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        if stat[1] == str(os.getpid()) and stat[0] != "Z" and not tracker:
            found.append(int(entry))
    return found


shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
with tempfile.TemporaryDirectory() as tmp, EnsembleExecutor(n_workers=2) as pool:
    config = ServiceConfig(max_running=2, poll_s=0.01)
    with ExperimentService(Path(tmp) / "journal.json", executor=pool, config=config) as svc:
        for i in range(4):
            svc.submit(f"l96-{i}", "repro.workflow.scheduler:lorenz96_ensf_job",
                       params=dict(L96, seed=100 + i))
        svc.submit("sqg", "runners:sqg_letkf_job", params={"n": 32, "n_cycles": 3, "seed": 5})
        states = svc.run_until_complete(timeout=300.0)
        assert set(states.values()) == {"done"}, states
        for i in range(4):
            ring = CheckpointRing(svc.workdir / f"l96-{i}" / "engine.ckpt", config.keep_last)
            cycles = [int(p.name.rsplit(".c", 1)[1]) for p in ring.paths()]
            # every cycle written => the surviving members would be consecutive.
            # The cadence may leave a single member: with keep_last=3 that
            # means exactly one write in the 40 cycles, amortised too.
            assert cycles and (
                len(cycles) == 1 or cycles[-1] - cycles[0] > len(cycles) - 1
            ), cycles
        assert not list(Path(tmp).rglob("*.tmp"))
    assert gathers == [], gathers  # whole attempts, no shards
    assert len(pool.fault_log) == 0
    if os.path.isdir("/proc"):
        assert len(pool_workers()) == 2, pool_workers()  # the slots were processes
if os.path.isdir("/proc"):
    assert not pool_workers(), pool_workers()
if os.path.isdir("/dev/shm"):
    assert set(os.listdir("/dev/shm")) <= shm_before
print("process slots OK: 5 jobs ran as attempts on 2 pool workers, no gather crossed the "
      "pool; ring amortised; no worker, segment or *.tmp left behind")
EOF

echo "== smoke 9/9: tier-1 suite with --durations=10, platform skips only =="
log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
python -m pytest -x -q -rs --durations=10 "$@" >"$log" 2>&1 || status=$?
cat "$log"
[ "$status" -eq 0 ] || exit "$status"
unexplained=$(grep '^SKIPPED' "$log" | grep -v \
    -e 'needs /proc to see the workers' \
    -e 'no shared memory on this platform' \
    -e "this numpy's FFT has no out=" || true)
if [ -n "$unexplained" ]; then
    echo "smoke 9/9: skips with no platform reason:" >&2
    echo "$unexplained" >&2
    exit 1
fi
