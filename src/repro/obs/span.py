"""Nestable timed sections (spans) and the tracer that aggregates them.

A :class:`Span` is a context manager over a named section of work
("dataplane.process", "controller.update_cache", ...).  The
:class:`Tracer` keeps the nesting stack, per-name aggregates (call count,
total and *exclusive* time — duration minus time spent in child spans),
and optionally a bounded event list for JSONL export.

Every span reads **two** clocks:

* the *primary* clock — simulator time in discrete-event runs
  (``lambda: sim.now``), ``perf_counter`` in emulation/wall runs.  Primary
  durations are what land in the per-span histograms, so DES snapshots
  stay deterministic across replays;
* the *wall* clock — always ``perf_counter`` unless overridden.  Wall
  exclusive times answer "where does the Python time go" (per-component
  time shares in perf snapshots) and are kept out of deterministic
  comparisons.

Exception safety: a span that exits through an exception is still closed,
recorded, and flagged ``error``; the nesting stack is always restored.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.obs.registry import Registry

#: Span-duration histograms are registered as ``span.<name>`` with edges
#: spanning sub-microsecond Python calls up to multi-second phases.
SPAN_HIST_PREFIX = "span."


class SpanStats:
    """Per-name aggregate maintained by the tracer."""

    __slots__ = ("count", "errors", "total", "exclusive",
                 "wall_total", "wall_exclusive")

    def __init__(self):
        self.count = 0
        self.errors = 0
        self.total = 0.0
        self.exclusive = 0.0
        self.wall_total = 0.0
        self.wall_exclusive = 0.0


class Span:
    """One timed section; use as a context manager via ``tracer.span()``."""

    __slots__ = ("tracer", "name", "parent", "depth", "error",
                 "start", "end", "wall_start", "wall_end",
                 "child_time", "wall_child_time")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.parent: Optional["Span"] = None
        self.depth = 0
        self.error = False
        self.start = 0.0
        self.end: Optional[float] = None
        self.wall_start = 0.0
        self.wall_end: Optional[float] = None
        self.child_time = 0.0
        self.wall_child_time = 0.0

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def exclusive(self) -> Optional[float]:
        d = self.duration
        return None if d is None else d - self.child_time

    def __enter__(self) -> "Span":
        self.tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer._exit(self, error=exc_type is not None)
        return False  # never swallow the exception

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, depth={self.depth}, dur={self.duration})"


class Tracer:
    """Owns the span stack and per-name aggregates for one run."""

    def __init__(self,
                 clock: Callable[[], float] = time.perf_counter,
                 wall_clock: Optional[Callable[[], float]] = None,
                 registry: Optional[Registry] = None,
                 keep_events: bool = False,
                 max_events: int = 100_000):
        self.clock = clock
        self.wall_clock = wall_clock if wall_clock is not None else clock
        self.registry = registry
        self.keep_events = keep_events
        self.max_events = max_events
        self.events: List[Dict] = []
        self.events_dropped = 0
        self._stack: List[Span] = []
        self._stats: Dict[str, SpanStats] = {}

    # -- recording ----------------------------------------------------------

    def span(self, name: str) -> Span:
        return Span(self, name)

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    def _enter(self, span: Span) -> None:
        span.parent = self._stack[-1] if self._stack else None
        span.depth = len(self._stack)
        self._stack.append(span)
        span.start = self.clock()
        span.wall_start = self.wall_clock()

    def _exit(self, span: Span, error: bool) -> None:
        span.wall_end = self.wall_clock()
        span.end = self.clock()
        span.error = error
        # Restore the stack even if inner spans leaked (an inner span that
        # was entered but whose __exit__ never ran, e.g. generator abuse).
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        duration = span.end - span.start
        wall = span.wall_end - span.wall_start
        if span.parent is not None:
            span.parent.child_time += duration
            span.parent.wall_child_time += wall

        stats = self._stats.get(span.name)
        if stats is None:
            stats = self._stats[span.name] = SpanStats()
        stats.count += 1
        stats.errors += 1 if error else 0
        stats.total += duration
        stats.exclusive += duration - span.child_time
        stats.wall_total += wall
        stats.wall_exclusive += wall - span.wall_child_time

        if self.registry is not None:
            self.registry.histogram(SPAN_HIST_PREFIX + span.name).observe(
                duration)
        if self.keep_events:
            if len(self.events) < self.max_events:
                self.events.append({
                    "name": span.name,
                    "parent": span.parent.name if span.parent else None,
                    "depth": span.depth,
                    "start": span.start,
                    "end": span.end,
                    "error": error,
                })
            else:
                self.events_dropped += 1

    # -- reading ------------------------------------------------------------

    def summary(self) -> Dict[str, Dict]:
        """Per-name aggregates, sorted by name (deterministic order)."""
        out = {}
        for name in sorted(self._stats):
            s = self._stats[name]
            out[name] = {
                "count": s.count,
                "errors": s.errors,
                "total": s.total,
                "exclusive": s.exclusive,
                "mean": s.total / s.count if s.count else None,
            }
        return out

    def wall_shares(self) -> Dict[str, float]:
        """Fraction of traced wall time spent exclusively in each span name
        (sums to 1 over all names when anything was traced)."""
        total = sum(s.wall_exclusive for s in self._stats.values())
        if total <= 0:
            return {name: 0.0 for name in sorted(self._stats)}
        return {name: self._stats[name].wall_exclusive / total
                for name in sorted(self._stats)}

    def reset(self) -> None:
        self._stack.clear()
        self._stats.clear()
        self.events.clear()
        self.events_dropped = 0
