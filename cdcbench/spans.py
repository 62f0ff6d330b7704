"""In-memory span recorder for the traced run.

A span is recorded around every call the benchmark makes into a layer of
the program. Each span has a name (the layer), start and end (seconds on
the ``perf_counter`` clock), the id of its parent span and the run id.
Nothing is written until :meth:`Tracer.dump`, at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        #: seconds spent inside the recorder itself (the tracing overhead)
        self.overhead_s = 0.0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        t_in = time.perf_counter()
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "run_id": self.run_id, "start": 0.0, "end": 0.0, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        self.overhead_s += rec["start"] - t_in
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.overhead_s += time.perf_counter() - rec["end"]

    def derived(self, parent: dict, name: str, start: float, end: float) -> None:
        """Record a child span whose bounds come from timings the program
        returned rather than from the benchmark's own clock."""
        self.spans.append({"id": len(self.spans), "name": name, "parent": parent["id"],
                           "run_id": self.run_id, "start": start, "end": end,
                           "derived": True})

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus the time its
        children cover, summed by span name."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += max(0.0, s["end"] - s["start"] - child_time[s["id"]])
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    overhead_s = 0.0

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({})

    def derived(self, parent: dict, name: str, start: float, end: float) -> None:
        pass
