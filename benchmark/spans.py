"""In-memory span recording around module-level functions.

A :class:`Tracer` replaces a function at the module attribute its callers
look up, records one span per call (name, start, end, parent) in plain
lists, and puts every original back on :meth:`Tracer.restore`.  Nothing is
written while spans are recorded; the caller reads the lists when the
traced job has ended.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter

# percentiles a tail may be reported at, highest first
_TAIL_LADDER = (99.999, 99.99, 99.9, 99.0, 90.0, 50.0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``hook(args, kwargs, result)`` runs after the span has closed, so
        its cost lands in the parent span, not in this one.
        """
        original = getattr(module, attr)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # ------------------------------------------------------------------
    # Reading the spans
    # ------------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def count(self, name: str, parent: str | None = None) -> int:
        if parent is None:
            return sum(1 for n in self.names if n == name)
        return sum(1 for n, p in zip(self.names, self.parents)
                   if n == name and p >= 0 and self.names[p] == parent)

    def busy(self, name: str) -> float:
        return math.fsum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus what their children cover.

        Calls are single-threaded, so children of one span never overlap and
        their cover is the sum of their durations.
        """
        child_cover = {}
        for sid, p in enumerate(self.parents):
            if p >= 0 and self.names[p] == name:
                child_cover[p] = child_cover.get(p, 0.0) + self.ends[sid] - self.starts[sid]
        total = 0.0
        for sid, n in enumerate(self.names):
            if n == name:
                total += self.ends[sid] - self.starts[sid] - child_cover.get(sid, 0.0)
        return total


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> tuple[float, float]:
    """(percentile, value) at the highest ladder percentile with >= 10 samples beyond it.

    Falls back to the median when there are fewer than 20 samples.
    """
    n = len(values)
    for q in _TAIL_LADDER:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)
