"""Smoke test of the end-to-end benchmark harness (marked ``bench`` by
``benchmarks/conftest.py``, so tier-1 deselects it; run with ``-m bench``)."""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_names_are_plain():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_smoke_run_prints_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    (run,) = json.loads(out.read_text())["runs"]
    assert list(run["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, result in run["workloads"].items():
        assert result["failed"] == 0, (name, result["checks"])
        assert all(all(checks.values()) for checks in result["checks"]), (name, result["checks"])
        assert list(result["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert result["per_layer"], name
        for metric, value in {**result["end_to_end"], **result["per_layer"]}.items():
            assert value["unit"] == units[metric], metric
    # Printed rows: "<name> <value> <unit>[  bound <b>]", one per applicable metric.
    for m in SPEC["end_to_end"]:
        rows = re.findall(rf"^\s+{re.escape(m['name'])}\s+\S+ (\S+)\s+bound (\S+)$", done.stdout, re.M)
        assert rows == [(m["unit"], f"{m['bound']:.2f}")] * len(SPEC["workloads"]), m["name"]
    for m in SPEC["per_layer"]:
        rows = re.findall(rf"^\s+{re.escape(m['name'])}\s+\S+ (\S+)$", done.stdout, re.M)
        assert rows and set(rows) == {m["unit"]}, m["name"]
