"""In-memory span recorder for the traced benchmark pass.

Spans are recorded from the benchmark's side of each layer boundary (the
program itself is not instrumented): a wrapped call opens a span when it is
entered and closes it when it returns, the cycle-boundary hook opens and
closes the per-cycle root spans, and the service poller adds per-job spans
after the fact from the state transitions it observed.  Everything stays in
memory until the run ends; :meth:`Tracer.write_jsonl` dumps it.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans (name, start, end, parent, trace id) plus named counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace: str | None = None, start: float | None = None) -> int:
        """Open a span under the calling thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if trace is None and parent is not None:
                trace = self.spans[parent]["trace"]
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "trace": trace,
                    "parent": parent,
                    "start": time.perf_counter() if start is None else start,
                    "end": None,
                }
            )
            self.counts[name] += 1
        stack.append(span_id)
        return span_id

    def end(self, span_id: int, end: float | None = None) -> None:
        stack = self._stack()
        if not stack or stack[-1] != span_id:
            raise RuntimeError(f"span {span_id} is not the innermost open span")
        stack.pop()
        self.spans[span_id]["end"] = time.perf_counter() if end is None else end

    @contextmanager
    def span(self, name: str, trace: str | None = None):
        span_id = self.begin(name, trace)
        try:
            yield span_id
        finally:
            self.end(span_id)

    def add(self, name: str, start: float, end: float, trace: str, parent: int | None = None) -> int:
        """Record a span observed from outside (already finished)."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {"id": span_id, "name": name, "trace": trace, "parent": parent,
                 "start": start, "end": end}
            )
            self.counts[name] += 1
        return span_id

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a version that records one span per call.

        The original bound method still does all the work, so the program
        takes the same code path; only the instance attribute changes.
        """
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)

    # -- analysis ----------------------------------------------------------- #
    def finished(self, name: str | None = None) -> list[dict]:
        return [
            s for s in self.spans
            if s["end"] is not None and (name is None or s["name"] == name)
        ]

    def children(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id and s["end"] is not None]

    def self_time(self, span: dict) -> float:
        """Duration minus the part of the interval its child spans cover."""
        covered = 0.0
        cursor = span["start"]
        for child in sorted(self.children(span["id"]), key=lambda s: s["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (span["end"] - span["start"]) - covered

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
