"""HTTP status frontend for the experiment service.

The paper's operational framing is a continuously running assimilation
service that external dashboards poll; this module is the cheap read path
for that: a stdlib :class:`~http.server.ThreadingHTTPServer` serving
**strict-JSON** snapshots of an :class:`~repro.workflow.scheduler
.ExperimentService` (or, detached, of a job journal on disk — e.g. to
inspect a dead service's last durable state).

Routes
------
``GET /jobs``
    Service-wide snapshot: per-job summaries (state, attempts, backoff,
    tenant and weight, fault counts) plus scheduler counters (who is
    running, ``max_running``, ``pool_workers`` — the slots).  Cheap enough
    for high-frequency polling — result arrays are excluded.
``GET /jobs/<name>``
    Full detail for one job, including its journaled result payload.

Every response body — success or error — is ``json.dumps(...,
allow_nan=False)``: the frontend can never emit the non-strict
``NaN``/``Infinity`` tokens a strict parser would choke on (the journal
side of that guarantee lives in the scheduler's ``_jsonable``).  The
server runs on a daemon thread, binds an ephemeral port by default
(``port=0``), and is closed by ``ExperimentService.close()`` when created
through :meth:`~repro.workflow.scheduler.ExperimentService.serve_status`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

__all__ = ["StatusServer"]


def _strict_json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, allow_nan=False).encode("utf-8")


class _StatusHandler(BaseHTTPRequestHandler):
    """Routes ``/jobs`` and ``/jobs/<name>``; everything else is 404."""

    # The server instance carries the snapshot callbacks (see StatusServer).
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # polling frontends must not spam the service's stderr

    def do_GET(self):  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/jobs":
                self._reply(200, self.server.snapshot())
            elif path.startswith("/jobs/"):
                name = path[len("/jobs/") :]
                try:
                    self._reply(200, self.server.job_snapshot(name))
                except KeyError:
                    self._reply(404, {"error": f"unknown job {name!r}"})
            else:
                self._reply(404, {"error": f"unknown path {path!r}"})
        except ValueError as exc:
            # A non-finite float slipped into a payload: refuse to emit
            # non-strict JSON, surface the bug instead.
            self._reply(500, {"error": f"payload not strict-JSON: {exc}"})
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _reply(self, code: int, payload) -> None:
        body = _strict_json(payload)
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # poller hung up mid-reply; nothing to salvage


class StatusServer:
    """Threaded HTTP endpoint over a live service or a journal file.

    Exactly one of ``service`` / ``journal_path`` drives the snapshots:

    - **live mode** reads :meth:`ExperimentService.status_details` /
      :meth:`ExperimentService.job_details` under the service lock, so a
      poll always sees a consistent lifecycle state mid-campaign;
    - **journal mode** re-reads (and checksum-verifies) the journal file
      per request — the read-only view of a service that is not running,
      with ``attempts``/``resume``/``error`` taken from the durable record.
    """

    def __init__(
        self,
        service=None,
        journal_path=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        if (service is None) == (journal_path is None):
            raise ValueError("exactly one of service/journal_path is required")
        self._service = service
        self._journal_path = None if journal_path is None else Path(journal_path)
        self._httpd = ThreadingHTTPServer((host, int(port)), _StatusHandler)
        self._httpd.daemon_threads = True
        self._httpd.snapshot = self._snapshot
        self._httpd.job_snapshot = self._job_snapshot
        self._address = self._httpd.server_address  # survives close()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="statusd", daemon=True
        )
        self._thread.start()

    # -- snapshot sources --------------------------------------------------- #
    def _journal_jobs(self) -> dict[str, dict]:
        from repro.workflow.scheduler import ExperimentService

        payload = ExperimentService.load_journal(self._journal_path)
        if payload is None:
            raise KeyError("journal unreadable")
        return {job["name"]: job for job in payload.get("jobs", ())}

    def _snapshot(self) -> dict:
        if self._service is not None:
            return self._service.status_details()
        jobs = {}
        counts: dict[str, int] = {}
        for name, job in self._journal_jobs().items():
            jobs[name] = {k: v for k, v in job.items() if k != "result"}
            counts[job["state"]] = counts.get(job["state"], 0) + 1
        return {"jobs": jobs, "counts": counts, "source": "journal"}

    def _job_snapshot(self, name: str) -> dict:
        if self._service is not None:
            return self._service.job_details(name)
        return self._journal_jobs()[name]

    # -- lifecycle ---------------------------------------------------------- #
    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        return self._address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "StatusServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
