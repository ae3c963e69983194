"""Process-wide observability session with a zero-cost-when-disabled guard.

Instrumented hot paths (data plane, shim, client, simulator) do::

    from repro.obs import runtime as _obs
    ...
    obs = _obs.ACTIVE
    if obs is not None:
        with obs.tracer.span("dataplane.process"):
            ...

When no session is enabled, ``ACTIVE`` is ``None`` and the cost is one
module-attribute load plus an identity check — unmeasurable next to the
microseconds the guarded work takes (``benchmarks/bench_core_ops.py``
guards this claim).

A session does not change how a run executes.  The batched lanes engine
(:mod:`repro.net.fastpath`) stays in its lanes with a session live and
feeds the same registry instruments in bulk — ``Histogram.observe_batch``
and ``Counter.inc(n)`` — with the values and order the per-packet path
would give them, plus one span per pipeline stage per flush instead of
per-packet spans.  Over a simulated rack the primary clock should be
:func:`sim_clock`: the lanes set it to their own timestamps while a
write completes, as the scalar path's ``sim.now`` would read.
:func:`enable` installs a fresh
:class:`Observability` (new registry, new tracer), so runs are isolated by
construction; :func:`session` is the context-manager form that guarantees
teardown.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator, Optional

from repro.errors import ConfigurationError
from repro.obs.registry import Registry
from repro.obs.span import Tracer

#: The live session, or None.  Hot paths read this directly.
ACTIVE: Optional["Observability"] = None


class Observability:
    """One run's registry + tracer, plus pre-bound hot-path instruments.

    The pre-bound attributes exist so per-packet code paths pay one
    attribute load instead of a registry dict lookup per event.
    """

    def __init__(self,
                 clock: Optional[Callable[[], float]] = None,
                 wall_clock: Optional[Callable[[], float]] = None,
                 keep_events: bool = False):
        clock = clock if clock is not None else time.perf_counter
        wall = wall_clock if wall_clock is not None else time.perf_counter
        self.registry = Registry()
        self.tracer = Tracer(clock=clock, wall_clock=wall,
                             registry=self.registry,
                             keep_events=keep_events)
        # Hot-path instruments (see module docstring).
        self.client_latency = self.registry.histogram("client.request")
        self.client_hits = self.registry.counter("client.cache_hits")
        self.client_misses = self.registry.counter("client.cache_misses")
        self.net_delivered = self.registry.counter("net.delivered")
        self.net_dropped = self.registry.counter("net.dropped")
        self.shim_update_rtt = self.registry.histogram("shim.cache_update.rtt")
        # Reliability layer (client retries, server dedup, degraded mode,
        # controller failover).
        self.client_retries = self.registry.counter("client.retries")
        self.client_timeouts = self.registry.counter("client.timeouts")
        self.client_stale_drops = self.registry.counter("client.stale_drops")
        self.shim_dedup_hits = self.registry.counter("shim.dedup_hits")
        self.shim_degraded = self.registry.counter("shim.degraded_entries")
        self.failover_latency = self.registry.histogram(
            "controller.failover_latency")


def enable(clock: Optional[Callable[[], float]] = None,
           wall_clock: Optional[Callable[[], float]] = None,
           keep_events: bool = False) -> Observability:
    """Install a fresh observability session; error if one is live."""
    global ACTIVE
    if ACTIVE is not None:
        raise ConfigurationError(
            "an observability session is already enabled; disable() it "
            "first (sessions do not nest, by design: run isolation)")
    ACTIVE = Observability(clock=clock, wall_clock=wall_clock,
                           keep_events=keep_events)
    return ACTIVE


def disable() -> Optional[Observability]:
    """Tear down the live session (no-op when none); returns it."""
    global ACTIVE
    previous, ACTIVE = ACTIVE, None
    return previous


@contextlib.contextmanager
def session(clock: Optional[Callable[[], float]] = None,
            wall_clock: Optional[Callable[[], float]] = None,
            keep_events: bool = False) -> Iterator[Observability]:
    """``with session(...) as obs:`` — enable now, always disable after."""
    obs = enable(clock=clock, wall_clock=wall_clock, keep_events=keep_events)
    try:
        yield obs
    finally:
        disable()


def sim_clock(sim) -> Callable[[], float]:
    """Primary clock for discrete-event runs: the simulator's virtual time."""
    return lambda: sim.now
