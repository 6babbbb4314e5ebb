"""In-memory spans around the benchmark's calls into luset.

A span is (name, start, end, parent, op). `Tracer.call` wraps one call;
`NullTracer.call` just makes it, so the untraced run pays no bookkeeping.
A span's self time is its duration minus the part of its interval that its
children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int | None


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, op=None):
        yield

    def count(self, name, n=1):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name, op=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        outer_op = self._op
        if op is not None:
            self._op = op
        span = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op = outer_op

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, n=1):
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += (s.end - s.start) - _covered(s, children.get(i, []))
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": dict(self.counts)}, fh)


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to span."""
    total, reach = 0.0, span.start
    for k in sorted(kids, key=lambda k: k.start):
        lo, hi = max(k.start, reach), min(k.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
