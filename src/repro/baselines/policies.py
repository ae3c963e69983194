"""Cache-update policy ablation (§4.3 "Cache Update").

The paper argues that classical per-query policies (LRU/LFU) are unusable on
a switch because the control plane can install only ~10K table entries per
second, while the data plane sees ~10^9 queries per second; NetCache instead
inserts a key only when the heavy-hitter detector says it is hot.

These policy models make that argument measurable: each policy processes a
query stream under a *table-update budget per interval*; updates beyond the
budget are dropped (the switch driver simply cannot apply them), and the
resulting hit ratio is what the ablation benchmark compares.

Since the cache-geometry seam, the shared contract lives in
:mod:`repro.core.geometry`: every policy here is an
:class:`~repro.core.geometry.AdmissionPolicy` implementing only the stream
surface (they never drive the live controller's victim sampling), driven
by that module's ``UpdateBudget`` and ``run_policy`` like the geometry
tournament — import those from there.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, List, Tuple

from repro.core.geometry import AdmissionPolicy, UpdateBudget, run_policy
from repro.errors import ConfigurationError


class CachePolicy(AdmissionPolicy):
    """Stream-surface policy base: feed keys, observe hits, count updates.

    Degenerate :class:`~repro.core.geometry.AdmissionPolicy`: the control
    surface stays inert (``pick_victim`` returns None — these policies do
    their own eviction inline) and the capacity must be a real cache size.
    """

    name = "abstract"

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        super().__init__(capacity)


class LruPolicy(CachePolicy):
    """Insert on every miss, evict least-recently-used."""

    name = "lru"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._cache: "OrderedDict[bytes, None]" = OrderedDict()

    def access(self, key: bytes, budget: UpdateBudget) -> bool:
        if key in self._cache:
            self.hits += 1
            self._cache.move_to_end(key)
            return True
        self.misses += 1
        cost = 2 if len(self._cache) >= self.capacity else 1
        self.updates_attempted += cost
        if budget.take(cost):
            self.updates_applied += cost
            if len(self._cache) >= self.capacity:
                self._cache.popitem(last=False)
            self._cache[key] = None
        return False


class LfuPolicy(CachePolicy):
    """Insert on miss only if the key's frequency beats the coldest entry."""

    name = "lfu"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._cache: Dict[bytes, int] = {}
        self._freq: Counter = Counter()

    def access(self, key: bytes, budget: UpdateBudget) -> bool:
        self._freq[key] += 1
        if key in self._cache:
            self.hits += 1
            self._cache[key] = self._freq[key]
            return True
        self.misses += 1
        if len(self._cache) < self.capacity:
            self.updates_attempted += 1
            if budget.take(1):
                self.updates_applied += 1
                self._cache[key] = self._freq[key]
            return False
        victim = min(self._cache, key=self._cache.__getitem__)
        if self._freq[key] > self._cache[victim]:
            self.updates_attempted += 2
            if budget.take(2):
                self.updates_applied += 2
                del self._cache[victim]
                self._cache[key] = self._freq[key]
        return False


class ThresholdPolicy(CachePolicy):
    """NetCache-style: count misses, batch-insert hot keys at interval end."""

    name = "netcache-threshold"

    def __init__(self, capacity: int, threshold: int = 8):
        super().__init__(capacity)
        if threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        self.threshold = threshold
        self._cache: Dict[bytes, int] = {}
        self._miss_counts: Counter = Counter()

    def access(self, key: bytes, budget: UpdateBudget) -> bool:
        if key in self._cache:
            self.hits += 1
            self._cache[key] += 1
            return True
        self.misses += 1
        self._miss_counts[key] += 1
        return False

    def end_interval(self, budget: UpdateBudget) -> None:
        hot = [(c, k) for k, c in self._miss_counts.items()
               if c >= self.threshold]
        hot.sort(reverse=True)
        for count, key in hot:
            if len(self._cache) < self.capacity:
                self.updates_attempted += 1
                if budget.take(1):
                    self.updates_applied += 1
                    self._cache[key] = count
                continue
            victim = min(self._cache, key=self._cache.__getitem__)
            if count <= self._cache[victim]:
                break  # remaining candidates are colder still
            self.updates_attempted += 2
            if budget.take(2):
                self.updates_applied += 2
                del self._cache[victim]
                self._cache[key] = count
        # Counters reset each interval, like the statistics module.
        self._miss_counts.clear()
        for k in self._cache:
            self._cache[k] = 0


def compare_policies(stream_factory, capacity: int,
                     queries_per_interval: int,
                     updates_per_interval: int,
                     threshold: int = 8) -> List[Tuple[str, float, int]]:
    """Run all three policies on identical streams; returns
    (name, hit_ratio, updates) rows."""
    rows = []
    for policy in (LruPolicy(capacity), LfuPolicy(capacity),
                   ThresholdPolicy(capacity, threshold=threshold)):
        hit_ratio, updates = run_policy(policy, stream_factory(),
                                        queries_per_interval,
                                        updates_per_interval)
        rows.append((policy.name, hit_ratio, updates))
    return rows
