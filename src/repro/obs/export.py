"""Exporters: JSON lines, machine round-trippable.

The JSONL form is the archival format — one metric per line, sorted by
name, every field needed to reconstruct the metric —
so ``registry_from_jsonl(registry_to_jsonl(r))`` is exact and
re-serializing yields byte-identical text (tested).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.registry import Registry
from repro.obs.span import Tracer


def registry_to_jsonl(registry: Registry) -> str:
    """One JSON object per metric, one per line, sorted by name."""
    lines = []
    for name, snap in registry.collect().items():
        record = {"name": name}
        record.update(snap)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_jsonl(text: str) -> Dict[str, Dict]:
    """Parse exporter output back into name -> snapshot dicts.

    Tracer records (``"kind": "span_summary"`` / ``"span_event"``) are
    skipped, so a combined registry + tracer dump parses as metrics.
    """
    out: Dict[str, Dict] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"bad JSONL metric line {lineno}: {exc}") from exc
        if "kind" in record:
            continue
        name = record.pop("name", None)
        if name is None or "type" not in record:
            raise ConfigurationError(
                f"JSONL metric line {lineno} missing name/type")
        out[name] = record
    return out


def registry_from_jsonl(text: str) -> Registry:
    """Reconstruct a live registry from exporter output (exact round-trip)."""
    registry = Registry()
    for name, snap in parse_jsonl(text).items():
        kind = snap["type"]
        if kind == "counter":
            registry.counter(name).inc(snap["value"])
        elif kind == "gauge":
            registry.gauge(name).set(snap["value"])
        elif kind == "histogram":
            hist = registry.histogram(name, edges=snap["edges"])
            if len(snap["counts"]) != len(snap["edges"]) + 1:
                raise ConfigurationError(
                    f"histogram {name!r} counts/edges length mismatch")
            hist.counts = list(snap["counts"])
            hist.count = snap["count"]
            hist.sum = snap["sum"]
            hist.min = snap["min"]
            hist.max = snap["max"]
        else:
            raise ConfigurationError(f"unknown metric type {kind!r}")
    return registry


def tracer_to_jsonl(tracer: Tracer) -> str:
    """Span aggregates (and buffered events, if kept) as JSON lines."""
    lines = []
    for name, agg in tracer.summary().items():
        record = {"kind": "span_summary", "name": name}
        record.update(agg)
        lines.append(json.dumps(record, sort_keys=True))
    for event in tracer.events:
        record = {"kind": "span_event"}
        record.update(event)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def latency_summary(registry: Registry,
                    names: Optional[List[str]] = None) -> Dict[str, Dict]:
    """Quantile digest of every histogram (or the named ones) — the shape
    embedded in perf snapshots."""
    out: Dict[str, Dict] = {}
    for name in (names if names is not None else registry.names()):
        metric = registry.get(name)
        if metric is None or metric.snapshot()["type"] != "histogram":
            continue
        digest = {"count": metric.count, "mean": metric.mean,
                  "min": metric.min, "max": metric.max}
        digest.update(metric.quantiles())
        out[name] = digest
    return out
