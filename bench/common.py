"""Shared pieces of the benchmark: operation accounting, spans and statistics.

Standard library only, so that the orchestrator and the set-up probes pay
no import cost for it.
"""

import statistics
import time
from contextlib import contextmanager


class Ops:
    """Operations attempted and failed, with the reason for each failure.

    An operation fails when the program raises or when a check finds its
    output wrong. A failure of an operation listed in KNOWN_FAULTS is the
    program fault the README names; any other failure makes the run
    incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.unexpected = 0

    def check(self, name: str, verdict: tuple[bool, str], known_fault: bool = False) -> bool:
        ok, detail = verdict
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append({"op": name, "detail": detail, "known_fault": known_fault})
            if not known_fault:
                self.unexpected += 1
        return ok

    def merge(self, other: dict):
        """Adds the counts of another Ops, given as its as_dict()."""
        for key in ("attempted", "failed", "unexpected"):
            setattr(self, key, getattr(self, key) + other[key])
        self.failures += other["failures"]

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "unexpected": self.unexpected,
            "failures": self.failures[:20],
        }


class Tracer:
    """Spans (name, start, end, parent index) kept in memory, plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount


class NullTracer:
    """Tracing off: spans and counters cost one no-op context each."""

    spans = ()
    counts = {}

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, amount: int):
        pass


def self_times(spans) -> dict:
    """Self time of every span: its duration minus that of its children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    result = {}
    for i, (name, start, end, _) in enumerate(spans):
        result.setdefault(name, []).append(end - start - child_time[i])
    return result


def summary(values) -> dict:
    """Sample count, median and quartiles; a high percentile only where at
    least ten samples lie beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "min": values[0], "median": statistics.median(values), "max": values[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    for pct in (99, 95, 90):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out
