"""Streaming metric primitives: Counter, Gauge, Histogram.

These are deliberately tiny, allocation-free-on-the-hot-path instruments in
the spirit of Prometheus client metrics.  The :class:`Histogram` uses fixed
buckets (geometric by default, spanning microseconds to tens of seconds)
with rank-based quantile estimation: the estimate for a quantile is the
upper edge of the bucket containing the order statistic at that rank,
clamped to the observed [min, max].  The estimate is therefore always
within one bucket width of the true empirical quantile — the property
tests in ``tests/test_prop_obs.py`` check exactly that bound against
:func:`statistics.quantiles`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Default geometric bucket edges for latency-style histograms (seconds):
#: 1 µs up to ~11 s, two buckets per octave (√2 growth, ≈ 41% width).
DEFAULT_EDGES: Sequence[float] = tuple()  # filled below


def exponential_edges(lo: float, hi: float,
                      growth: float = 2.0 ** 0.5) -> List[float]:
    """Geometric bucket upper edges from *lo* until *hi* is covered."""
    if lo <= 0 or hi <= lo:
        raise ConfigurationError("need 0 < lo < hi for exponential buckets")
    if growth <= 1.0:
        raise ConfigurationError("growth must be > 1")
    edges = [lo]
    while edges[-1] < hi:
        edges.append(edges[-1] * growth)
    return edges


DEFAULT_EDGES = tuple(exponential_edges(1e-6, 10.0))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ConfigurationError("counters only go up")
        self._value += n

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def snapshot(self) -> Dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A value that can go up and down (queue depth, cache size...)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    def set(self, v: float) -> None:
        self._value = v

    def inc(self, n: float = 1.0) -> None:
        self._value += n

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def snapshot(self) -> Dict:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Fixed-bucket streaming histogram with quantile estimation.

    ``edges`` are bucket *upper* bounds (Prometheus ``le`` semantics):
    bucket ``i`` counts values in ``(edges[i-1], edges[i]]``; bucket 0 also
    absorbs everything at or below ``edges[0]``, and one extra overflow
    bucket counts values above ``edges[-1]``.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, edges: Optional[Sequence[float]] = None):
        self.name = name
        chosen = tuple(edges) if edges is not None else DEFAULT_EDGES
        if len(chosen) < 1:
            raise ConfigurationError("histogram needs at least one edge")
        if any(b <= a for a, b in zip(chosen, chosen[1:])):
            raise ConfigurationError("bucket edges must be strictly increasing")
        self.edges = chosen
        self.counts = [0] * (len(chosen) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, v: float) -> None:
        self.counts[bisect_left(self.edges, v)] += 1
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def observe_batch(self, values) -> None:
        """:meth:`observe` every one of *values*, in order, in bulk.

        Counts, min and max come out equal to the loop's, and ``sum``
        bit-identical: it is a strict left fold (``ufunc.accumulate``), not
        numpy's pairwise reduction.
        """
        v = np.asarray(values, dtype=float)
        if not v.size:
            return
        binned = np.bincount(np.searchsorted(self.edges, v, "left"),
                             minlength=len(self.counts))
        self.counts = [c + b for c, b in zip(self.counts, binned.tolist())]
        self.count += int(v.size)
        self.sum = float(np.add.accumulate(np.concatenate(([self.sum], v)))[-1])
        lo, hi = float(v.min()), float(v.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    # -- reading ---------------------------------------------------------------

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the *q*-quantile (0 <= q <= 1); None when empty.

        Returns the upper edge of the bucket containing the order statistic
        at rank ``ceil(q * count)``, clamped to the observed [min, max], so
        the error is bounded by that bucket's width.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= rank:
                est = self.edges[i] if i < len(self.edges) else self.max
                return min(max(est, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def quantiles(self) -> Dict[str, Optional[float]]:
        return {"p50": self.quantile(0.50), "p90": self.quantile(0.90),
                "p99": self.quantile(0.99), "p999": self.quantile(0.999)}

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def reset(self) -> None:
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def snapshot(self) -> Dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "edges": list(self.edges),
            "counts": list(self.counts),
        }
