"""In-memory spans and counts, and the arithmetic the benchmark reports.

A span is (name, start, end, parent index); the parent is the span that
was open when this one started, or -1 at the top. Spans are kept in
memory for the whole traced run and reduced to per-layer figures only
when it ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional, Sequence

# A percentile is reported only when at least this many samples lie
# beyond it, so a tail figure never rests on a handful of runs.
TAIL_SAMPLES = 10


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int


class Tracer:
    """Collects spans and counts from wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so every call records a span; ``on_result`` sees the
        return value after the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so every call adds one to ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def closed_spans(self) -> list[Span]:
        if self._open:
            raise RuntimeError("spans are still open")
        return list(self.spans)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and merged, so
    overlapping or out-of-bounds children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


class LayerTimes(NamedTuple):
    durations: dict[str, list[float]]
    self_s: dict[str, float]

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))


def layer_times(spans: Sequence[Span]) -> LayerTimes:
    """Per-name span durations and summed self times."""
    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        durations.setdefault(span.name, []).append(span.end - span.start)
        self_s[span.name] = self_s.get(span.name, 0.0) + own
    return LayerTimes(durations, self_s)


def tail_allowed(n: int, pct: int) -> bool:
    """Whether the ``pct``-th percentile of ``n`` samples has at least
    TAIL_SAMPLES samples beyond it."""
    return n * (100 - pct) >= TAIL_SAMPLES * 100


def percentile(values: Sequence[float], pct: int) -> Optional[float]:
    """The ``pct``-th percentile, or None when too few samples lie beyond it."""
    if not values or not tail_allowed(len(values), pct):
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def rate_per_s(work: int, seconds: float) -> float:
    """Units of work per second of wall time (unit 1/s)."""
    if seconds <= 0:
        raise ValueError("wall time must be positive")
    return work / seconds
