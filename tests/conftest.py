"""Shared test fixtures: the backend-parametrized ``array_backend`` fixture
and the ``gathers`` log of every executor gather a test runs.

The ``slow_reference`` oracle bundle that used to live here is gone: the
ROADMAP "reference-path retirement" item completed and the pre-refactor
implementations (``LETKF.analyze_reference``,
``MonteCarloScoreEstimator.score_reference``, the ``fused=False`` EnSF /
``reuse_buffers=False`` sampler configurations, and
``SQGModel.step_spectral_reference``) were deleted from the source tree.
The backend-parametrized equivalence suite certifies the fused kernels
against each other across backends instead.

``array_backend`` re-runs the kernel-equivalence tests that request it
under **every** registered array backend (:mod:`repro.utils.xp`); each is
constructible on any host, so none of the params skips.  The fixture
installs the param as the process default — so code under test that
resolves ``backend=None`` picks it up — and restores the previous selection
afterwards; tests using it are automatically tagged ``array_backend``
(deselect with ``-m "not array_backend"``).
"""

from __future__ import annotations

import pytest

import repro.utils.xp as xp_mod


@pytest.fixture(params=xp_mod.available_backends())
def array_backend(request, monkeypatch) -> "xp_mod.ArrayBackend":
    """Run the test once per registered array backend (process default).

    ``REPRO_ARRAY_BACKEND`` is cleared for the test body so the fixture's
    selection — not the outer environment — decides which backend
    ``resolve_backend(None)`` returns (the env var outranks
    ``set_default_backend`` by design).  Mock-device transfer counters are
    reset so tests can meter their own traffic.
    """
    name = request.param
    monkeypatch.delenv("REPRO_ARRAY_BACKEND", raising=False)
    xp_mod.set_default_backend(name)
    backend = xp_mod.resolve_backend(name)
    if hasattr(backend, "reset_transfers"):
        backend.reset_transfers()
    yield backend
    xp_mod.set_default_backend(None)


def pytest_collection_modifyitems(items):
    """Auto-mark tests by the harness fixtures they request."""
    for item in items:
        fixtures = getattr(item, "fixturenames", ())
        if "array_backend" in fixtures:
            item.add_marker(pytest.mark.array_backend)


@pytest.fixture
def gathers(monkeypatch) -> list:
    """Every :meth:`EnsembleExecutor._gather` call the test makes, in order,
    as ``(entry point name, job count, workers)``."""
    from repro.hpc.ensemble_parallel import EnsembleExecutor

    calls: list = []
    inner = EnsembleExecutor._gather

    def counted(self, fn, jobs, workers):
        calls.append((getattr(fn, "__name__", repr(fn)), len(jobs), workers))
        return inner(self, fn, jobs, workers)

    monkeypatch.setattr(EnsembleExecutor, "_gather", counted)
    return calls
