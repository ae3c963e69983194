"""Observability: spans, streaming metrics, exporters, and the run guard.

The measurement substrate behind ``netcache-repro perf`` and every later
performance PR.  Disabled by default — instrumented hot paths check
:data:`repro.obs.runtime.ACTIVE` (one attribute load) and do nothing when
no session is live.  See ``docs/OBSERVABILITY.md`` for the span taxonomy,
metric names, and snapshot schema.

Typical use::

    from repro import obs

    with obs.session(clock=obs.sim_clock(cluster.sim)) as o:
        cluster.run(1.0)
    print(obs.registry_to_jsonl(o.registry))
"""

from repro.obs.export import (
    latency_summary,
    parse_jsonl,
    registry_from_jsonl,
    registry_to_jsonl,
    tracer_to_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    exponential_edges,
)
from repro.obs.registry import Registry
from repro.obs.runtime import (
    Observability,
    disable,
    enable,
    session,
    sim_clock,
)
from repro.obs.span import Span, SpanStats, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Observability",
    "Registry",
    "Span",
    "SpanStats",
    "Tracer",
    "disable",
    "enable",
    "exponential_edges",
    "latency_summary",
    "parse_jsonl",
    "registry_from_jsonl",
    "registry_to_jsonl",
    "session",
    "sim_clock",
    "tracer_to_jsonl",
]
