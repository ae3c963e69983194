"""Dynamic workloads: popularity churn (§7.1, §7.4).

The paper evaluates three ways the popularity *ranking* changes over time
while the Zipf shape stays fixed (same as SwitchKV):

* **hot-in** — the N coldest items jump to the top of the ranking;
* **random** — N random items from the top-M are swapped with random cold
  items;
* **hot-out** — the N hottest items drop to the bottom.

A :class:`PopularityMap` holds the permutation from rank to item id; the
churn operations mutate it in place.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from repro.errors import ConfigurationError


class PopularityMap:
    """Permutation rank -> item id (rank 0 is the hottest), held as one
    int64 array so batches of ranks map to items with one gather."""

    def __init__(self, num_items: int, seed: int = 0):
        if num_items <= 0:
            raise ConfigurationError("num_items must be positive")
        self.num_items = num_items
        self._rng = random.Random(seed)
        self._item_of_rank = np.arange(num_items, dtype=np.int64)
        self.changes = 0

    def item_at(self, rank: int) -> int:
        return int(self._item_of_rank[rank])

    def items_array(self) -> np.ndarray:
        """Rank -> item id table as an int64 array (vectorized item_at):
        a read-only view of the live table, valid until the next churn."""
        table = self._item_of_rank.view()
        table.flags.writeable = False
        return table

    def top_items(self, k: int) -> List[int]:
        """The *k* currently-hottest item ids, hottest first."""
        return self._item_of_rank[:k].tolist()

    # -- churn operations --------------------------------------------------------

    def hot_in(self, n: int) -> List[int]:
        """Move the *n* coldest items to the top (radical change).

        Returns the item ids that became hot.
        """
        n = self._clamp(n)
        table = self._item_of_rank
        self._item_of_rank = np.concatenate([table[-n:], table[:-n]])
        self.changes += 1
        return table[-n:].tolist()

    def hot_out(self, n: int) -> List[int]:
        """Move the *n* hottest items to the bottom (small change).

        Returns the item ids that went cold.
        """
        n = self._clamp(n)
        table = self._item_of_rank
        self._item_of_rank = np.concatenate([table[n:], table[:n]])
        self.changes += 1
        return table[:n].tolist()

    def random_replace(self, n: int, top_m: int) -> List[int]:
        """Swap *n* random items of the top *top_m* with random cold items
        (moderate change).  Returns the item ids that became hot."""
        if top_m > self.num_items:
            raise ConfigurationError("top_m exceeds the key space")
        n = min(self._clamp(n), top_m, self.num_items - top_m)
        if n <= 0:
            return []
        # Distinct hot and distinct cold positions: the n swaps touch
        # disjoint slots, so they apply as one exchange.
        hot = np.array(self._rng.sample(range(top_m), n), dtype=np.int64)
        cold = np.array(self._rng.sample(range(top_m, self.num_items), n),
                        dtype=np.int64)
        table = self._item_of_rank
        table[hot], table[cold] = table[cold], table[hot]
        self.changes += 1
        return table[hot].tolist()

    def _clamp(self, n: int) -> int:
        if n <= 0:
            raise ConfigurationError("change size must be positive")
        return min(n, self.num_items)


class ChurnSchedule:
    """Applies one churn operation every *interval* seconds of sim time.

    ``kind`` is one of ``hot-in`` / ``random`` / ``hot-out``; the defaults
    follow §7.4 (N=200, cache M=10 000; hot-in every 10 s, the others every
    second).
    """

    KINDS = ("hot-in", "random", "hot-out")

    def __init__(self, popularity: PopularityMap, kind: str, n: int = 200,
                 top_m: int = 10_000, interval: float = 1.0):
        if kind not in self.KINDS:
            raise ConfigurationError(f"unknown churn kind {kind!r}")
        if interval <= 0:
            raise ConfigurationError("interval must be positive")
        self.popularity = popularity
        self.kind = kind
        self.n = n
        self.top_m = top_m
        self.interval = interval
        self.applied = 0

    def apply_once(self) -> List[int]:
        """Apply one churn step; returns item ids whose popularity rose."""
        self.applied += 1
        if self.kind == "hot-in":
            return self.popularity.hot_in(self.n)
        if self.kind == "hot-out":
            self.popularity.hot_out(self.n)
            return []
        return self.popularity.random_replace(self.n, self.top_m)
