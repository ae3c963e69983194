"""Cache-update policy ablation (§4.3 "Cache Update").

The paper argues that classical per-query policies (LRU/LFU) are unusable on
a switch because the control plane can install only ~10K table entries per
second, while the data plane sees ~10^9 queries per second; NetCache instead
inserts a key only when the heavy-hitter detector says it is hot.

These policy models make that argument measurable: each policy processes a
query stream under a *table-update budget per interval*; updates beyond the
budget are dropped (the switch driver simply cannot apply them), and the
resulting hit ratio is what the ablation benchmark compares.

:class:`CachePolicy` is the one base: :func:`run_policy` feeds it a query
stream through :meth:`~CachePolicy.access` and
:meth:`~CachePolicy.end_interval` under an :class:`UpdateBudget`.  The
geometry tournament's layout policy (:mod:`repro.tools.tournament`)
subclasses it too.  None of them drives the live controller, whose
eviction is :func:`repro.core.controller.pick_victim`.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, Iterable, Tuple

from repro.errors import ConfigurationError


class UpdateBudget:
    """Table-entry updates available per interval (switch driver limit)."""

    def __init__(self, per_interval: int):
        if per_interval < 0:
            raise ConfigurationError("budget must be non-negative")
        self.per_interval = per_interval
        self.remaining = per_interval
        self.spent = 0
        self.denied = 0

    def take(self, n: int = 1) -> bool:
        if self.remaining >= n:
            self.remaining -= n
            self.spent += n
            return True
        self.denied += n
        return False

    def refill(self) -> None:
        self.remaining = self.per_interval


class CachePolicy:
    """Stream policy base: feed keys, observe hits, count updates."""

    name = "abstract"

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.updates_attempted = 0
        self.updates_applied = 0

    def access(self, key: bytes, budget: UpdateBudget) -> bool:
        raise NotImplementedError

    def end_interval(self, budget: UpdateBudget) -> None:
        """Hook for policies that batch updates per interval."""

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def run_policy(policy: CachePolicy, stream: Iterable[bytes],
               queries_per_interval: int,
               updates_per_interval: int) -> Tuple[float, int]:
    """Feed *stream* through *policy* with interval-based update budgets.

    Returns (hit_ratio, updates_applied).
    """
    if queries_per_interval <= 0:
        raise ConfigurationError("queries_per_interval must be positive")
    budget = UpdateBudget(updates_per_interval)
    in_interval = 0
    for key in stream:
        policy.access(key, budget)
        in_interval += 1
        if in_interval >= queries_per_interval:
            policy.end_interval(budget)
            budget.refill()
            in_interval = 0
    policy.end_interval(budget)
    return policy.hit_ratio, policy.updates_applied


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
