"""Scalar reference implementations of the sketch structures.

These are the pure-Python, hash-per-access implementations that the
vectorized hot path (:mod:`repro.sketch.digest`, the numpy-backed
:class:`~repro.sketch.countmin.CountMinSketch` and
:class:`~repro.sketch.bloom.BloomFilter`) replaced.  They are retained as
the *executable specification*: the Hypothesis equivalence tests in
``tests/test_prop_hotpath.py`` drive random operation sequences through
both implementations and require bit-for-bit identical observable state.

Do not use these in production paths — they exist so that any future change
to the fast path that would silently alter hash placement, saturation, or
reporting behaviour fails an equivalence test instead of corrupting
committed BENCH baselines and chaos replays.
"""

from __future__ import annotations

from typing import List, Optional

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
from repro.errors import ConfigurationError
from repro.sketch.hashing import HashFamily
from repro.sketch.sampler import PacketSampler


class ScalarCountMinSketch:
    """Pre-vectorization Count-Min sketch: Python lists, hash per access."""

    def __init__(self, width: int = 64 * 1024, depth: int = 4,
                 counter_bits: int = 16, seed: int = 0):
        if width <= 0 or depth <= 0:
            raise ConfigurationError("width and depth must be positive")
        if not 1 <= counter_bits <= 64:
            raise ConfigurationError("counter_bits must be in [1, 64]")
        self.width = width
        self.depth = depth
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self._hashes = HashFamily(depth, seed=seed)
        self._rows: List[List[int]] = [[0] * width for _ in range(depth)]
        self.total_updates = 0

    def update(self, key: bytes, count: int = 1) -> int:
        estimate = self.max_count
        for row, idx in enumerate(self._hashes.indexes(key, self.width)):
            cell = min(self.max_count, self._rows[row][idx] + count)
            self._rows[row][idx] = cell
            if cell < estimate:
                estimate = cell
        self.total_updates += count
        return estimate

    def estimate(self, key: bytes) -> int:
        return min(
            self._rows[row][idx]
            for row, idx in enumerate(self._hashes.indexes(key, self.width))
        )

    def reset(self) -> None:
        for row in self._rows:
            for i in range(len(row)):
                row[i] = 0
        self.total_updates = 0


class ScalarBloomFilter:
    """Pre-vectorization Bloom filter: bytearrays, hash per access."""

    def __init__(self, bits: int = 256 * 1024, num_hashes: int = 3,
                 seed: int = 1):
        if bits <= 0:
            raise ConfigurationError("bits must be positive")
        if num_hashes <= 0:
            raise ConfigurationError("num_hashes must be positive")
        self.bits = bits
        self.num_hashes = num_hashes
        self._hashes = HashFamily(num_hashes, seed=seed)
        self._arrays = [bytearray(bits) for _ in range(num_hashes)]
        self.inserted = 0

    def add(self, key: bytes) -> bool:
        present = True
        for row in range(self.num_hashes):
            idx = self._hashes.index(row, key, self.bits)
            arr = self._arrays[row]
            if not arr[idx]:
                present = False
                arr[idx] = 1
        if not present:
            self.inserted += 1
        return present

    def contains(self, key: bytes) -> bool:
        return all(
            self._arrays[row][self._hashes.index(row, key, self.bits)]
            for row in range(self.num_hashes)
        )

    def reset(self) -> None:
        for arr in self._arrays:
            for i in range(len(arr)):
                arr[i] = 0
        self.inserted = 0


class ScalarQueryStatistics:
    """Pre-vectorization statistics engine, wired exactly like
    :class:`repro.core.stats.QueryStatistics` (same component seeds, same
    Alg 1 control flow) but built from the scalar structures above: every
    access hashes the key from scratch, resets are O(width) loops.

    It is duck-type compatible with the statistics surface the data plane
    uses (``cache_count``, ``heavy_hitter_count``, ``read_counter``,
    ``reset``, ...), so a :class:`~repro.core.dataplane.NetCacheDataplane`
    can be constructed over it.  The ``hotpath`` perf scenario races it
    against the vectorized engine on the same query stream and requires
    identical reports; the Hypothesis tests require identical state.
    """

    def __init__(self,
                 entries: int = LOOKUP_TABLE_ENTRIES,
                 hot_threshold: int = HOT_THRESHOLD,
                 sample_rate: float = SAMPLE_RATE,
                 seed: int = 0):
        if hot_threshold <= 0:
            raise ConfigurationError("hot_threshold must be positive")
        self.sampler = PacketSampler(rate=sample_rate, seed=seed ^ 0x5A)
        self._counters = [0] * entries
        self._counter_max = (1 << (8 * (CM_COUNTER_BITS // 8))) - 1
        self.sketch = ScalarCountMinSketch(
            width=CM_SKETCH_WIDTH, depth=CM_SKETCH_ROWS,
            counter_bits=CM_COUNTER_BITS, seed=seed)
        self.bloom = ScalarBloomFilter(bits=BLOOM_BITS,
                                       num_hashes=BLOOM_HASHES,
                                       seed=seed ^ 0xB10)
        self.hot_threshold = hot_threshold
        self.reports = 0
        self.resets = 0

    def cache_count(self, key: bytes, key_index: int) -> None:
        if self.sampler.sample(key):
            self._counters[key_index] = min(self._counter_max,
                                            self._counters[key_index] + 1)

    def heavy_hitter_count(self, key: bytes) -> Optional[bytes]:
        if not self.sampler.sample(key):
            return None
        estimate = self.sketch.update(key)
        if estimate < self.hot_threshold:
            return None
        if self.bloom.add(key):
            return None
        self.reports += 1
        return key

    def read_counter(self, key_index: int) -> int:
        return self._counters[key_index]

    def set_hot_threshold(self, threshold: int) -> None:
        if threshold <= 0:
            raise ConfigurationError("hot_threshold must be positive")
        self.hot_threshold = threshold

    def set_sample_rate(self, rate: float) -> None:
        self.sampler.set_rate(rate)

    def reset(self) -> None:
        self._counters = [0] * len(self._counters)
        self.sketch.reset()
        self.bloom.reset()
        self.resets += 1
