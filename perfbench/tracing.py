"""In-memory span recorder used by the traced benchmark run.

A span is one call of a wrapped function: its name, start and end in
nanoseconds, the index of the span that was open when it started (-1 for a
root) and the sequence number of the trace event being replayed. Spans stay
in memory until the run ends; nothing is written while a replay is timed.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager

NAME, START, END, PARENT, SEQ = range(5)


class Tracer:
    """Spans, counters and high-water marks for one replay at a time.

    `spans` and `stack` are cleared in place by `reset`, because every
    wrapper closes over them.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.seq = 0
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.seq = 0
        self.counts.clear()
        self.maxima.clear()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def high(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, value - 1):
            self.maxima[name] = value

    def wrap(self, fn, name: str, before=None, after=None):
        """Return `fn` with a span around each call. `before(args)` runs
        ahead of the span and `after(args, result)` after it, so neither is
        counted in the span's time. Results and exceptions pass through.
        The recording is inlined rather than built on `span`, because a
        context manager per call would add to the tracing overhead."""
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            seq = tracer.seq
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, seq)
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        parent = stack[-2] if len(stack) > 1 else -1
        seq = self.seq
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (name, start, end, parent, seq)


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the time its direct children cover.
    Calls are synchronous, so children never overlap one another."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]


def aggregate(spans: list[tuple]) -> dict[str, list[int]]:
    """Per span name: [calls, total ns, self ns]."""
    out: dict[str, list[int]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], [0, 0, 0])
        row[0] += 1
        row[1] += s[END] - s[START]
        row[2] += own
    return out


def tail_percentile(samples: list[float], min_beyond: int = 10,
                    ladder=(50.0, 90.0, 99.0, 99.9, 99.99)) -> tuple[float, float]:
    """The highest percentile of `ladder` with at least `min_beyond` samples
    above its rank, and its value (nearest-rank). Falls back to the median."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    best = ladder[0]
    for p in ladder:
        if n - _rank(p, n) >= min_beyond:
            best = p
    return best, xs[_rank(best, n) - 1]


def percentile(samples: list[float], p: float) -> float:
    xs = sorted(samples)
    return xs[_rank(p, len(xs)) - 1]


def _rank(p: float, n: int) -> int:
    """1-based nearest-rank index of percentile p among n samples."""
    return max(1, min(n, math.ceil(p * n / 100 - 1e-9)))


@contextmanager
def patched(targets):
    """Replace attributes for the duration of the block, then restore the
    originals. `targets` holds (owner, attribute, make) triples; `make`
    receives the original attribute and returns its replacement."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
