"""In-memory span tracer and the statistics the benchmark reports from it.

A span is one timed call: name, start, end, the span that was open when
it began (its parent) and a dict of attributes (bytes moved, flops, ...).
Spans are kept in a list while the benchmark runs and written out once at
the end. Nothing here imports numpy or the package under test, so the
arithmetic can be tested on synthetic spans.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

# candidate tail percentiles, highest first; the one reported is the
# highest that still has at least TAIL_MIN_BEYOND samples above it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and patches callables so each call opens one."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent, attrs=attrs))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()

    def traced(self, fn, name: str, before=None, after=None):
        """fn wrapped in a span; before(args, kwargs) and after(args,
        kwargs, result) may return attributes to merge into the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name, **(before(args, kwargs) if before else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after:
                self.spans[index].attrs.update(after(args, kwargs, result))
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr (a module global, class or instance attribute)
        by its traced version; unpatch() puts every original back."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, self.traced(original, name, before, after))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                if s.attrs:
                    row["attrs"] = s.attrs
                fh.write(json.dumps(row) + "\n")


_ABSENT = object()


def children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result is never negative.
    """
    kids = children(spans)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted((max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids[i])
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def ancestor(spans: list[Span], index: int, name: str) -> int:
    """Index of the nearest enclosing span called name, or -1."""
    i = spans[index].parent
    while i >= 0 and spans[i].name != name:
        i = spans[i].parent
    return i


def root(spans: list[Span], index: int) -> int:
    while spans[index].parent >= 0:
        index = spans[index].parent
    return index


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> tuple[float, float]:
    """(pct, value) at the highest candidate percentile with at least
    TAIL_MIN_BEYOND samples beyond it; (100, max) for smaller samples."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if round(n * (100.0 - pct) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return 100.0, max(values)
