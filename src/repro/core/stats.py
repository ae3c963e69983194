"""Query statistics module (§4.4.3, Fig 7).

Four components wired in data-plane order:

1. a sampler in front of everything (high-pass filter that keeps 16-bit
   counters meaningful at line rate);
2. a per-key counter register array for *cached* keys;
3. a Count-Min sketch estimating frequencies of *uncached* keys;
4. a Bloom filter deduplicating hot-key reports to the controller.

The controller clears all of it periodically; the clearing cycle bounds how
fast the cache reacts to workload changes (§7.4 uses one second).

All per-key derived indexes route through a :class:`~repro.sketch.digest.
DigestTable`: the steady-state cost of one statistics pass is a dict probe
plus a handful of array ops instead of 7 hash computations, and a batch
hashes the keys it has not seen in one kernel call.  The batch
entry points (:meth:`QueryStatistics.sample_batch`,
:meth:`QueryStatistics.heavy_hitter_count_batch`,
:meth:`QueryStatistics.cache_count_batch`) process whole sampled-query
streams with vectorized counter updates while producing bit-for-bit the
same state and reports as the scalar path (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.constants import (
    BLOOM_BITS,
    BLOOM_HASHES,
    CM_COUNTER_BITS,
    CM_SKETCH_ROWS,
    CM_SKETCH_WIDTH,
    HOT_THRESHOLD,
    LOOKUP_TABLE_ENTRIES,
    SAMPLE_RATE,
)
from repro.core.primitives import RegisterArray
from repro.errors import ConfigurationError
from repro.sketch.bloom import BloomFilter
from repro.sketch.countmin import CountMinSketch
from repro.sketch.digest import digest_table_for
from repro.sketch.sampler import PacketSampler


class QueryStatistics:
    """The switch's query-statistics engine."""

    def __init__(self,
                 entries: int = LOOKUP_TABLE_ENTRIES,
                 hot_threshold: int = HOT_THRESHOLD,
                 sample_rate: float = SAMPLE_RATE,
                 seed: int = 0):
        if hot_threshold <= 0:
            raise ConfigurationError("hot_threshold must be positive")
        self.sampler = PacketSampler(rate=sample_rate, seed=seed ^ 0x5A)
        self.counters = RegisterArray("cache_counters", entries,
                                      CM_COUNTER_BITS // 8)
        self.sketch = CountMinSketch(width=CM_SKETCH_WIDTH, depth=CM_SKETCH_ROWS,
                                     counter_bits=CM_COUNTER_BITS, seed=seed)
        self.bloom = BloomFilter(bits=BLOOM_BITS, num_hashes=BLOOM_HASHES,
                                 seed=seed ^ 0xB10)
        #: per-key derived-index intern table shared by every path below.
        self.digests = digest_table_for(self.sketch, self.bloom)
        self.hot_threshold = hot_threshold
        self.reports = 0
        self.resets = 0

    # -- data-plane operations -----------------------------------------------

    def cache_count(self, key: bytes, key_index: int) -> None:
        """Count a cache hit for the key at *key_index* (Alg 1 line 5)."""
        if self.sampler.sample(key):
            self.counters.add(key_index, 1)

    def heavy_hitter_count(self, key: bytes) -> Optional[bytes]:
        """Count a miss; return the key if it should be reported as hot.

        Implements Alg 1 lines 7-9: sample, update the Count-Min sketch,
        compare against the threshold, and pass new heavy hitters through
        the Bloom filter so each is reported at most once per interval.
        """
        digest = self.digests.get(key)
        if not self.sampler.sample(key):
            return None
        estimate = self.sketch.update_at(digest.cm_indexes)
        if estimate < self.hot_threshold:
            return None
        if self.bloom.add_at(digest.bloom_bits):
            return None  # already reported this interval
        self.reports += 1
        return key

    # -- batch data-plane operations ------------------------------------------

    def sample_batch(self, keys: Sequence[bytes]) -> np.ndarray:
        """Sampler decisions for a key batch (boolean mask, key order)."""
        return self.sampler.sample_batch(keys)

    def cache_count_batch(self, key_indexes: Sequence[int],
                          decisions: np.ndarray) -> None:
        """Batch of cache-hit counts: *key_indexes* (a layout's hit-index
        array, taken as it is) aligned with the boolean *decisions* mask
        (from :meth:`sample_batch`)."""
        self.counters.add_batch(
            np.asarray(key_indexes)[np.asarray(decisions, dtype=bool)], 1)

    def heavy_hitter_count_batch(
            self, keys: Sequence[bytes],
            decisions: Optional[np.ndarray] = None) -> List:
        """Batch equivalent of :meth:`heavy_hitter_count`.

        Returns the hot keys to report as ``(position, key)`` pairs,
        *position* indexing into *keys* (the batched data plane uses it to
        recover each report's arrival timestamp), in stream order, exactly
        as the scalar loop would have: the Count-Min update is
        sequential-equivalent (running counts for duplicate slots) and the
        Bloom test-and-set runs over threshold crossers in order.  Pass
        *decisions* to reuse sampler verdicts already drawn for this batch
        (the data plane samples hits and misses in one interleaved pass).
        """
        table = self.digests
        rows = table.get_batch(keys)
        if decisions is None:
            decisions = self.sample_batch(keys)
        sampled_pos = np.flatnonzero(np.asarray(decisions, dtype=bool))
        if not len(sampled_pos):
            return []
        sampled_rows = rows[sampled_pos]
        estimates = self.sketch.update_batch(table.cm[sampled_rows])
        crossers = np.flatnonzero(estimates >= self.hot_threshold)
        if not len(crossers):
            return []
        reported = self.bloom.add_at_batch(
            table.bloom[sampled_rows[crossers]])
        hot: List = []
        for p in sampled_pos[crossers[~reported]].tolist():
            self.reports += 1
            hot.append((p, keys[p]))
        return hot

    # -- control-plane operations ----------------------------------------------

    def read_counter(self, key_index: int) -> int:
        """Controller reads the hit counter of one cached key."""
        return self.counters.read_int(key_index)

    def set_hot_threshold(self, threshold: int) -> None:
        if threshold <= 0:
            raise ConfigurationError("hot_threshold must be positive")
        self.hot_threshold = threshold

    def set_sample_rate(self, rate: float) -> None:
        self.sampler.set_rate(rate)

    def reset(self) -> None:
        """Clear counters, sketch, and Bloom filter (periodic, §4.4.3).

        O(1) in every structure's width: each reset is an epoch bump (see
        docs/PERFORMANCE.md).  Interned digests stay valid: they hold only
        indexes that no reset moves.
        """
        self.counters.clear()
        self.sketch.reset()
        self.bloom.reset()
        self.resets += 1

    @property
    def sram_bytes(self) -> int:
        return (self.counters.sram_bytes + self.sketch.sram_bytes +
                self.bloom.sram_bytes)
