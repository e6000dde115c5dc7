"""Spans recorded around calls into the package, and the statistics the
benchmark derives from spans and repeated runs.

A span is one timed call: name, start, end, the thread it ran on, the span
that caused it and a count of the items it handled. Spans live in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    items: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from any thread.

    A span's parent is the innermost open span on its own thread. A span
    opened on a thread with nothing open, such as a pool worker, takes the
    innermost span open on the thread that created the tracer.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}

    def _open(self) -> tuple[int, int, int | None, list[int]]:
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and thread != self._main else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, thread, parent, stack

    @contextlib.contextmanager
    def span(self, name: str):
        span_id, thread, parent, stack = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, thread, parent))

    def wrap(self, name: str, fn: Callable, items: Callable | None = None) -> Callable:
        """`fn` recording a span per call; `items(args, result)` counts
        what the call handled."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, thread, parent, stack = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            count = items(args, result) if items is not None else 0.0
            self.spans.append(Span(span_id, name, start, end, thread, parent, count))
            return result

        return traced


class SpanIndex:
    """Spans grouped by name.

    Asking for a name that recorded no span notes it in `missing`, and the
    per-call and per-item means of such a name are NaN, not 0: a hook its
    callers no longer pass through must not read as a free layer.
    """

    def __init__(self, spans: Iterable[Span]) -> None:
        self._by_name: dict[str, list[Span]] = {}
        for s in spans:
            self._by_name.setdefault(s.name, []).append(s)
        self.missing: list[str] = []

    def get(self, name: str) -> list[Span]:
        found = self._by_name.get(name, [])
        if not found and name not in self.missing:
            self.missing.append(name)
        return found

    def calls(self, name: str) -> int:
        return len(self.get(name))

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.get(name))

    def items(self, name: str) -> float:
        return sum(s.items for s in self.get(name))

    def per_call(self, name: str, items: bool = False) -> float:
        """Mean seconds per call, or with `items` mean items per call."""
        found = self.get(name)
        if not found:
            return math.nan
        return (self.items(name) if items else self.total(name)) / len(found)

    def per_item(self, name: str) -> float:
        """Seconds per item handled."""
        count = self.items(name)
        return self.total(name) / count if count else math.nan


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover, by
    span id. Children on other threads that overlap one another count once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans}


def slot_busy_frac(generate: Sequence[Span], slots: int, wall_s: float) -> float:
    """Share of the available request slots spent inside a generate call."""
    return sum(s.duration for s in generate) / (slots * wall_s)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles
    gives them; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
