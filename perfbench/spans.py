"""In-memory span recording for the traced run.

A span has a name, start and end (perf_counter seconds, CLOCK_MONOTONIC on
Linux, so spans from the parent and its child share one clock), the id of the
span that caused it, the run id, and optional attributes (counts, bytes).
Spans stay in memory until the benchmark ends and writes them out.
"""

import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """Spans of one process; `origin` keeps span ids unique when processes merge."""

    def __init__(self, run_id, origin):
        self.run_id = run_id
        self.origin = origin
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, track_memory=False, **attrs):
        """Record one span; with track_memory, tracemalloc runs for the span only.

        attrs then gets peak_bytes: the most memory the span's own allocations
        held at once. tracemalloc is kept off elsewhere because it slows every
        Python allocation (CSV parsing most of all).
        """
        record = {"id": f"{self.origin}.{len(self.spans)}", "name": name, "run_id": self.run_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        if track_memory:
            tracemalloc.start()
        try:
            yield record
        finally:
            if track_memory:
                attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            record["end"] = time.perf_counter()
            self._stack.pop()


def with_self_times(spans):
    """Copies of spans with `duration` and `self` (duration minus time covered by children).

    Children of one span run one after another, so the covered time is the
    sum of their durations.
    """
    out = {s["id"]: dict(s, duration=s["end"] - s["start"]) for s in spans}
    child_time = {}
    for s in out.values():
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["duration"]
    for s in out.values():
        s["self"] = s["duration"] - child_time.get(s["id"], 0.0)
    return list(out.values())
