"""Discrete-event core: a monotonic event queue.

A tiny, dependency-free event scheduler.  Events are (time, priority, seq)
ordered; *seq* breaks ties so simultaneous events run in schedule order,
which keeps runs deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

Callback = Callable[..., None]


class Event:
    """A scheduled callback.  Cancelled events stay in the heap but are
    skipped on pop (lazy deletion).  Events order by (time, priority, seq)
    and sit directly in the heap — no per-push key tuple."""

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "_queue", "_done")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callback, args: Tuple[Any, ...],
                 queue: Optional["EventQueue"] = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = queue
        self._done = False

    def cancel(self) -> None:
        """Mark the event so the queue drops it instead of running it.

        Cancelling an event that already ran (or was already cancelled) is
        a no-op, so timer-cleanup races stay harmless."""
        if not self.cancelled and not self._done:
            self.cancelled = True
            if self._queue is not None:
                self._queue._live -= 1

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq


class EventQueue:
    """Heap-based future event list with a current-time clock."""

    def __init__(self):
        self._heap: List[Event] = []
        self._seq = itertools.count()
        #: pending non-cancelled events (len() is O(1), not a heap scan).
        self._live = 0
        self.now = 0.0
        self.processed = 0

    def schedule(self, delay: float, callback: Callback, *args: Any,
                 priority: int = 0) -> Event:
        """Schedule *callback(*args)* to run *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        ev = Event(self.now + delay, priority, next(self._seq), callback, args,
                   queue=self)
        heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def schedule_abs(self, when: float, callback: Callback, *args: Any,
                     priority: int = 0) -> Event:
        """Schedule at *exactly* the absolute time *when*.

        Routing through a relative delay would land the event at
        ``now + (when - now)`` — one ulp off *when* for most floats.  The
        batched fast path needs events at bit-exact times (its equivalence
        gate compares float timestamps), so this constructs the event
        directly at *when*.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule into the past (when={when}, now={self.now})")
        ev = Event(when, priority, next(self._seq), callback, args, queue=self)
        heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is empty.

        Cancelled heads are popped eagerly so the answer is exact; the
        batched fast path uses this to pick its flush boundaries without
        disturbing event order."""
        while self._heap:
            ev = self._heap[0]
            if ev.cancelled:
                heapq.heappop(self._heap)
                continue
            return ev.time
        return None

    def step(self) -> bool:
        """Run the next pending event; returns False when the queue is empty."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            if ev.time < self.now:
                raise SimulationError("event queue went backwards in time")
            self._live -= 1
            ev._done = True
            self.now = ev.time
            ev.callback(*ev.args)
            self.processed += 1
            return True
        return False

    def run_until(self, t_end: float) -> None:
        """Run events with time <= *t_end*, then advance the clock to it."""
        while self._heap:
            ev = self._heap[0]
            if ev.cancelled:
                heapq.heappop(self._heap)
                continue
            if ev.time > t_end:
                break
            self.step()
        if t_end > self.now:
            self.now = t_end

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue (optionally bounded); returns events processed."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count

    def __len__(self) -> int:
        return self._live

    def empty(self) -> bool:
        return self._live == 0
