"""SpaceSaving heavy-hitter algorithm (Metwally et al. 2005).

This is *not* part of the NetCache data plane; it serves two roles in the
reproduction:

* a software baseline heavy-hitter detector for the ablation benchmark
  (``bench_ablation_hh``), standing in for the server-side monitoring
  component that systems like SwitchKV deploy; and
* a ground-truth-ish reference the tests compare the Count-Min + Bloom
  pipeline against.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ConfigurationError


class SpaceSaving:
    """SpaceSaving top-k summary over byte-string keys.

    Maintains at most *capacity* (key, count) entries.  When a new key
    arrives and the summary is full, the minimum-count entry is evicted and
    the new key inherits its count, so a tracked key's count never
    underestimates.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self.capacity = capacity
        self._counts: Dict[bytes, int] = {}
        self.total = 0

    def update(self, key: bytes, count: int = 1) -> None:
        """Record *count* occurrences of *key*."""
        self.total += count
        if key in self._counts:
            self._counts[key] += count
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = count
            return
        victim = min(self._counts, key=self._counts.__getitem__)
        victim_count = self._counts.pop(victim)
        self._counts[key] = victim_count + count

    def estimate(self, key: bytes) -> int:
        """Upper-bound estimate of the key's count (0 if not tracked)."""
        return self._counts.get(key, 0)

    def top(self, k: int) -> List[Tuple[bytes, int]]:
        """Return the *k* highest-count entries as (key, estimate) pairs."""
        items = sorted(self._counts.items(), key=lambda kv: kv[1], reverse=True)
        return items[:k]

    def reset(self) -> None:
        self._counts.clear()
        self.total = 0

    def __len__(self) -> int:
        return len(self._counts)
