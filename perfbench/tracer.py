"""In-memory span recorder used by the traced run.

A span has a name, a start and end (``perf_counter_ns``), the span that
caused it and the op it belongs to.  Spans are kept in a list and written
out once, when the run ends.  A layer's self time is its span duration
minus the time covered by its child spans.  With tracing off the
benchmark uses :data:`OFF`, whose ``span`` returns one shared no-op
context manager, so untraced ops pay a single method call per layer.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    enabled = False

    def span(self, name):
        return _NULL

    def count(self, name, n=1):
        pass

    def op(self, index):
        return _NULL


OFF = NullTracer()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer, self.rec = tracer, rec

    def __enter__(self):
        self.tracer._stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.rec)
        self.rec[2] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.rec[3] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans ``[name, op, start_ns, end_ns, parent]`` and counters."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.current_op = -1

    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        return _Span(self, [name, self.current_op, 0, 0, parent])

    def op(self, index):
        """Root span of one op; every span opened inside it shares its index."""
        self.current_op = index
        return self.span("bench.op")

    def record(self, name, start_ns, end_ns, parent=None) -> int:
        """Add a finished span (durations measured in a child process share
        the clock: perf_counter_ns is system-wide monotonic on Linux)."""
        self.spans.append([name, self.current_op, start_ns, end_ns, parent])
        return len(self.spans) - 1

    def count(self, name, n=1):
        self.counts[name] += n

    def self_times(self, factors=None) -> tuple[dict, dict]:
        """Total self time (ns) and call count per span name; with
        ``factors``, each span's self time is scaled by its op's factor."""
        child_ns = defaultdict(int)
        for name, _op, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        self_ns, calls = Counter(), Counter()
        for i, (name, op, start, end, _parent) in enumerate(self.spans):
            scale = factors[op] if factors is not None and op >= 0 else 1
            self_ns[name] += (end - start - child_ns[i]) * scale
            calls[name] += 1
        return self_ns, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, op, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "op": op, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts)}) + "\n")
