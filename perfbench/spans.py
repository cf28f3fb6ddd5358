"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the `ietlab` modules from outside the
package.  Each wrapped call records a span (name, start, end, parent span,
task id) in memory; hot leaf functions get a call counter instead of a
span, so that millions of calls stay affordable.  `remove` puts every
original object back, so untraced passes run the program's own code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import ModuleType


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at a root
    task: int


class Tracer:
    """Records spans and counters for wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.task = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def spanned(self, name: str, fn, on_result=None):
        """`fn` wrapped so that each call records a span.

        `on_result(tracer, args, kwargs, result)` runs after a call that
        returned, outside the span, to record counters.
        """
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserved so that children see their parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.task)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """`fn` wrapped so that each call only increments a counter."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def replace(self, owner, attr: str, wrapper, modules=()) -> None:
        """Install `wrapper` in place of `owner.attr`.

        A module-level function is also replaced in every module of
        `modules` that imported it by name (`from .x import f`), because
        callers look it up there.
        """
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        if isinstance(owner, ModuleType):
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    if (mod, key) != (owner, attr):
                        targets.append((mod, key))
        for obj, key in targets:
            self._undo.append((obj, key, original))
            setattr(obj, key, wrapper)

    def remove(self) -> None:
        """Restore every replaced attribute."""
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Calls on one thread nest, so children lie inside their parent and do
    not overlap each other.
    """
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, total seconds and self seconds per span name."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span.end - span.start
        row["self_s"] += own
    return out
