"""Import-graph checks: one import path per name, and examples that import.

Every package ``__init__`` under ``src/repro`` is its docstring alone, so a
name is imported from the module that defines it and importing a runtime
module loads only what that module imports.  The examples are scripts no
other test imports; importing each one (without running ``__main__``) and
resolving every global name it reads keeps a stale import path out of them.
"""

import ast
import builtins
import importlib.util
import json
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _referenced_globals(table: symtable.SymbolTable) -> set[str]:
    """Every global name read in ``table`` or any scope nested in it."""
    names = {s.get_name() for s in table.get_symbols() if s.is_referenced() and s.is_global()}
    for child in table.get_children():
        names |= _referenced_globals(child)
    return names


def test_package_inits_are_docstrings():
    inits = sorted((ROOT / "src" / "repro").glob("*/__init__.py"))
    assert [p.parent.name for p in inits] == [
        "core", "da", "hpc", "models", "surrogate", "utils", "workflow"
    ]
    for path in inits:
        body = ast.parse(path.read_text(encoding="utf-8")).body
        assert len(body) == 1, path
        assert isinstance(body[0], ast.Expr), path
        assert isinstance(body[0].value, ast.Constant), path
        assert isinstance(body[0].value.value, str), path


def _modules_loaded_by(script: str) -> list:
    """Every module loaded once ``script`` has run in a fresh interpreter."""
    script += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.parametrize(
    "module", ["repro.da.cycling", "repro.hpc.ensemble_parallel", "repro.workflow.scheduler"]
)
def test_runtime_modules_load_no_frontier_model_or_vit(module):
    loaded = _modules_loaded_by(f"import {module}")
    assert module in loaded
    offline = {"repro.hpc.gemm", "repro.hpc.scaling", "repro.hpc.trainer_sim"}
    assert [m for m in loaded if m.startswith("repro.surrogate") or m in offline] == []


def test_sqg_forecast_loads_no_scipy():
    """Every spectral transform is ``numpy.fft`` through the array backend."""
    loaded = _modules_loaded_by(
        "import numpy as np\n"
        "from repro.models.sqg import SQGModel, SQGParameters\n"
        "model = SQGModel(SQGParameters(nx=16, ny=16, dt=1800.0))\n"
        "ens = np.stack([model.flatten(model.random_initial_condition(rng=i)) for i in range(2)])\n"
        "model.forecast(ens, n_steps=2)"
    )
    assert "repro.models.sqg" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    table = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    missing = _referenced_globals(table) - set(vars(module)) - set(dir(builtins))
    assert not missing, sorted(missing)
