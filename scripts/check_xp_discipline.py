#!/usr/bin/env python
"""Static xp-discipline check for the routed kernel modules.

The device-residency contract says the hot kernels obtain their array
operations (transforms included) from the ``repro.utils.xp`` backend
shim — never from :mod:`numpy` directly, because a bare ``np.<compute>``
call silently pins that operation to the host and, on a real device
backend, forces a host round-trip the transfer counters would only catch at
runtime.  This script catches it statically.

Mechanics
---------
Each routed kernel module is parsed (``ast``; nothing is imported) and every
function/method body is scanned for attribute calls on the module's numpy
aliases (``import numpy as np`` etc.).  An attribute from the **deny list**
— arithmetic ufuncs, reductions, linalg/fft namespaces, gather/scatter —
is an error unless the enclosing function is in the module's ``HOST_SIDE``
set: the documented host-side constructors, diagnostics and staging helpers
that legitimately operate on host arrays (setup constants, observation
prep, plotting-style summaries).  New functions are therefore checked by
default; declaring one host-side is a reviewed decision, not an accident.
The functions named in ``KERNELS`` (the SQG forecast kernel) must exist and
may never be declared host-side.

Layout/bookkeeping calls (``np.asarray``, ``np.ascontiguousarray``,
``np.array``, ``np.concatenate`` at the pickle/staging boundary, index
arithmetic) are not denied: they describe host staging, which is exactly
what the explicit ``to_device``/``to_host`` boundary is for.

Run from the repo root (``scripts/smoke.sh`` wires it in)::

    python scripts/check_xp_discipline.py

Exit status 0 when clean; 1 with ``file:line`` diagnostics otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# numpy attributes that are *compute* (device-eligible work).  A bare call
# to one of these inside a kernel function is a discipline violation.
DENY = {
    # elementwise / ufuncs
    "add", "subtract", "multiply", "divide", "true_divide", "negative",
    "maximum", "minimum", "sqrt", "exp", "log", "abs", "absolute", "square",
    "power", "clip", "tanh", "sinh", "cosh", "where",
    # linear algebra / contractions
    "matmul", "dot", "einsum", "outer", "tensordot", "linalg",
    # reductions
    "sum", "mean", "std", "var", "max", "min", "amax", "amin", "prod",
    "cumsum", "median", "average", "nanmean", "nansum",
    # gather/scatter
    "take", "put", "bincount",
    # transforms
    "fft",
    # randomness (kernels must use the backend RNG hook)
    "random",
}

# module path -> function/method qualified names that are *documented*
# host-side code (constructors hoisting device constants, diagnostics,
# observation staging).  Everything NOT listed here is treated as kernel
# code and held to the deny list.
HOST_SIDE: dict[str, set[str]] = {
    "src/repro/models/sqg.py": {
        # constructor hoists host constants once, then uploads via to_device
        "SQGModel.__init__",
        # host diagnostics (operate on downloaded states by contract)
        "SQGModel.random_initial_condition",
        "SQGModel.total_kinetic_energy",
    },
    # LETKF's shard solvers are fully xp-routed; host staging there uses
    # only layout ops, so no exemptions are needed today.
    "src/repro/da/letkf.py": set(),
    "src/repro/core/score.py": {
        # catalogue-weight diagnostic over host arrays
        "MonteCarloScoreEstimator.weights",
    },
    "src/repro/core/sde.py": {
        # The ensemble-space integrator keeps its (n, M) recursion on the
        # host by design: these see only M×M / (n, M) arrays and scalars.
        # ``sample_ensemble_space`` itself — the part that touches (n, d)
        # and (M, d) arrays: K = X Xᵀ, ζ Xᵀ, coef·X — is NOT listed, so
        # its full-size contractions stay deny-checked.
        "_rowwise_matmul",
        "_colour_noise",
        "ReverseSDESampler._integrate_closure",
    },
    "src/repro/utils/random.py": {
        # The RNG module is the host side of the noise contract: stream
        # construction and seed derivation legitimately live on np.random.
        # Everything else stays deny-checked.
        "default_rng",
        "split_rng",
        "SeedSequenceFactory.seed_for",
        "SeedSequenceFactory.rng",
    },
    "src/repro/core/ensf.py": {
        # observation-noise scaling constant, computed once on the host
        "_ScaledOperator.__init__",
    },
}


# module path -> kernel functions that must exist and stay deny-checked: a
# rename, or a host-side exemption, of one of these fails the check instead
# of silently dropping the hot path out of it.
KERNELS: dict[str, set[str]] = {
    "src/repro/models/sqg.py": {
        "_SplitSpectrum.__init__",
        "_ChunkWorkspace.__init__",
        "SQGModel._tendency",
        "SQGModel._rk4_step",
        "SQGModel._advance",
        # the CFL probe behind cfl_number and the coarse ensemble step
        "SQGModel.max_cfl",
    },
}


def _numpy_aliases(tree: ast.Module) -> set[str]:
    """Names the module binds to numpy (``import numpy as np`` → {"np"})."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
    return aliases


class _Checker(ast.NodeVisitor):
    def __init__(self, rel_path: str, aliases: set[str], host_side: set[str]):
        self.rel_path = rel_path
        self.aliases = aliases
        self.host_side = host_side
        self.scope: list[str] = []
        self.seen: set[str] = set()
        self.violations: list[tuple[int, str, str]] = []

    def _qualname(self) -> str:
        return ".".join(self.scope)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def _visit_func(self, node) -> None:
        self.scope.append(node.name)
        self.seen.add(self._qualname())
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Call(self, node: ast.Call) -> None:
        # Only *call sites* count: ``rng: np.random.Generator`` annotations
        # and other bare attribute references are not compute.  The dotted
        # chain is flattened so np.linalg.eigh(...) flags via "linalg" and
        # np.random.default_rng(...) via "random".
        chain: list[str] = []
        func = node.func
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in self.aliases and chain:
            denied = [attr for attr in chain if attr in DENY]
            if denied:
                qual = self._qualname()
                if qual and qual not in self.host_side:
                    dotted = f"{func.id}." + ".".join(reversed(chain))
                    self.violations.append((node.lineno, qual, dotted))
        self.generic_visit(node)


def check_module(rel_path: str) -> list[str]:
    source = (REPO / rel_path).read_text(encoding="utf-8")
    tree = ast.parse(source, filename=rel_path)
    checker = _Checker(rel_path, _numpy_aliases(tree), HOST_SIDE.get(rel_path, set()))
    checker.visit(tree)
    kernels = KERNELS.get(rel_path, set())
    return [
        f"{rel_path}: kernel function {qual!r} is declared host-side"
        for qual in sorted(kernels & checker.host_side)
    ] + [
        f"{rel_path}: kernel function {qual!r} is missing"
        for qual in sorted(kernels - checker.seen)
    ] + [
        f"{rel_path}:{lineno}: {call} inside kernel function {qual!r} "
        "(route through the xp backend, or declare the function host-side "
        "in scripts/check_xp_discipline.py)"
        for lineno, qual, call in sorted(checker.violations)
    ]


def main() -> int:
    problems: list[str] = []
    for rel_path in HOST_SIDE:
        problems.extend(check_module(rel_path))
    if problems:
        print("\n".join(problems))
        print(f"\nxp discipline FAILED: {len(problems)} problem(s)")
        return 1
    print(f"xp discipline OK ({len(HOST_SIDE)} kernel modules scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
