"""In-memory spans and counters, written out once when a traced run ends.

A span records its name, start and end (``perf_counter_ns``), the span
that was open when it started, and the operation it belongs to.  Spans
are opened by the benchmark around its calls into each module of the
program; the program itself is not instrumented.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from statistics import median

from hostclock import Timing


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start_ns, end_ns)
        self.counters: Counter = Counter()
        self.op = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[sid] = (sid, parent, self.op, name, start, time.perf_counter_ns())
            self._open.pop()

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span; cheaper than ``span`` for hot calls."""
        parent = self._open[-1] if self._open else -1
        start = time.perf_counter_ns()
        result = fn(*args)
        end = time.perf_counter_ns()
        self.spans.append((len(self.spans), parent, self.op, name, start, end))
        return result

    pace = None  # a traced run does not interleave the host clock

    def measure(self, name: str, fn, *args):
        """``HostClock.measure`` for a traced run: one span, measured times only."""
        with self.span(name):
            start = time.perf_counter()
            result, cpu = fn(*args)
            wall = time.perf_counter() - start
        return result, Timing(wall, cpu, wall, cpu)

    def count(self, name: str, value=1) -> None:
        self.counters[name] += value

    def durations_ns(self, name: str) -> list[int]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def ids(self, name: str) -> set:
        return {s[0] for s in self.spans if s[3] == name}

    def median_us(self, name: str) -> float:
        return median(self.durations_ns(name)) / 1e3

    def write(self, path: str, extra: dict) -> None:
        fields = ("id", "parent", "op", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [dict(zip(fields, s)) for s in self.spans],
                    "counters": dict(self.counters),
                    **extra,
                },
                handle,
            )
