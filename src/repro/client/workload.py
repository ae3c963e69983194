"""Workload specification and query stream generation (§7.1).

A :class:`Workload` couples a key space, a read popularity distribution, a
write popularity distribution, and a read/write mix.  It serves two
consumers:

* the discrete-event client draws concrete ``(op, key)`` queries from it;
* the rate-equilibrium simulator reads the exact per-item probability
  vectors (no sampling noise), which is how Figs 10(a/b/d/e/f) are computed.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.client.dynamics import PopularityMap
from repro.client.zipf import KeySpace, ZipfDistribution, ZipfGenerator
from repro.errors import ConfigurationError
from repro.net.protocol import Op


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """Declarative workload description."""

    num_keys: int = 100_000
    read_skew: float = 0.99
    write_skew: float = 0.0  # uniform writes by default (§7.3)
    write_ratio: float = 0.0
    value_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigurationError("write_ratio must be in [0, 1]")
        if self.value_size <= 0:
            raise ConfigurationError("value_size must be positive")


class Workload:
    """Executable workload: query stream + exact probability vectors."""

    #: ids from which a value's seedling takes one more digit than ten.
    _WIDER = 10 ** np.arange(10, 15, dtype=np.int64)

    def __init__(self, spec: WorkloadSpec,
                 popularity: Optional[PopularityMap] = None):
        self.spec = spec
        self.keyspace = KeySpace(spec.num_keys)
        self.popularity = popularity or PopularityMap(spec.num_keys,
                                                      seed=spec.seed)
        self._read_gen = ZipfGenerator(spec.num_keys, spec.read_skew,
                                       seed=spec.seed)
        self._write_gen = ZipfGenerator(spec.num_keys, spec.write_skew,
                                        seed=spec.seed + 1)
        self._rng = np.random.default_rng(spec.seed + 2)
        self._op_buffer: Optional[np.ndarray] = None
        self._op_pos = 0

    # -- stream interface ---------------------------------------------------------

    def _next_is_write(self) -> bool:
        w = self.spec.write_ratio
        if w <= 0.0:
            return False
        if w >= 1.0:
            return True
        if self._op_buffer is None or self._op_pos >= len(self._op_buffer):
            self._op_buffer = self._rng.random(4096) < w
            self._op_pos = 0
        is_write = bool(self._op_buffer[self._op_pos])
        self._op_pos += 1
        return is_write

    def next_query(self) -> Tuple[Op, bytes]:
        """Draw the next (op, key) pair."""
        if self._next_is_write():
            rank = self._write_gen.next_rank()
            op = Op.PUT
        else:
            rank = self._read_gen.next_rank()
            op = Op.GET
        item = self.popularity.item_at(rank)
        return op, self.keyspace.key(item)

    def queries(self, count: int) -> Iterator[Tuple[Op, bytes]]:
        for _ in range(count):
            yield self.next_query()

    def _next_is_writes(self, count: int) -> np.ndarray:
        """Batch form of :meth:`_next_is_write` (same draws, same buffer)."""
        w = self.spec.write_ratio
        if w <= 0.0:
            return np.zeros(count, dtype=bool)
        if w >= 1.0:
            return np.ones(count, dtype=bool)
        out = np.empty(count, dtype=bool)
        filled = 0
        while filled < count:
            if self._op_buffer is None or self._op_pos >= len(self._op_buffer):
                self._op_buffer = self._rng.random(4096) < w
                self._op_pos = 0
            take = min(count - filled, len(self._op_buffer) - self._op_pos)
            out[filled:filled + take] = \
                self._op_buffer[self._op_pos:self._op_pos + take]
            self._op_pos += take
            filled += take
        return out

    def next_queries(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw the next *count* queries as ``(write_mask, item_ids)``.

        Equivalent to *count* calls of :meth:`next_query` — identical op
        flags, identical ranks, identical generator states afterwards —
        because the op flags and the two rank generators each consume their
        own RNG stream in the same per-stream order either way.
        """
        flags = self._next_is_writes(count)
        n_writes = int(flags.sum())
        ranks = np.empty(count, dtype=np.int64)
        if n_writes:
            ranks[flags] = self._write_gen.next_ranks(n_writes)
        if count - n_writes:
            ranks[~flags] = self._read_gen.next_ranks(count - n_writes)
        items = self.popularity.items_array()[ranks]
        return flags, items

    def fork(self, salt: int) -> "Workload":
        """An independent query stream over the *same* popularity map.

        Used to attach additional open-loop clients: the fork shares the
        keyspace and :class:`PopularityMap` (so every client, and the rate
        simulator, agrees on which items are hot) but draws its op flags
        and ranks from generators reseeded with *salt* — concurrent
        clients consume disjoint RNG streams exactly as if each had been
        built from its own spec.
        """
        spec = dataclasses.replace(self.spec, seed=self.spec.seed + salt)
        return Workload(spec, popularity=self.popularity)

    def value_for(self, key: bytes) -> bytes:
        """Deterministic value for *key* (store preloading + verification)."""
        item = self.keyspace.item(key)
        seedling = f"v{item:010d}".encode()
        reps = -(-self.spec.value_size // len(seedling))
        return (seedling * reps)[: self.spec.value_size]

    def values_for(self, items: np.ndarray) -> list:
        """:meth:`value_for` of the key of each id in *items*, built as
        one byte matrix per seedling width: ``v`` and the id's decimal
        digits, at least ten of them, repeated out to the value size."""
        items = np.asarray(items, dtype=np.int64)
        size = self.spec.value_size
        widths = 10 + np.searchsorted(self._WIDER, items, side="right")
        out = np.empty(len(items), dtype=f"S{size}")
        for width in np.unique(widths).tolist():
            rows = np.flatnonzero(widths == width)
            seedling = np.empty((len(rows), width + 1), dtype=np.uint8)
            seedling[:, 0] = ord("v")
            rest = items[rows]
            for column in range(width, 0, -1):
                seedling[:, column] = rest % 10 + ord("0")
                rest //= 10
            tiled = seedling.take(np.arange(size) % (width + 1), axis=1)
            out[rows] = tiled.view(f"S{size}").ravel()
        return out.tolist()

    # -- exact probability vectors (rate simulator) ----------------------------------

    def read_item_probs(self) -> np.ndarray:
        """Per-item read probability, indexed by item id."""
        return self._item_probs(ZipfDistribution(self.spec.num_keys,
                                                 self.spec.read_skew))

    def write_item_probs(self) -> np.ndarray:
        """Per-item write probability, indexed by item id."""
        return self._item_probs(ZipfDistribution(self.spec.num_keys,
                                                 self.spec.write_skew))

    def _item_probs(self, dist: ZipfDistribution) -> np.ndarray:
        probs = np.zeros(self.spec.num_keys)
        probs[self.popularity.items_array()] = dist.probs
        return probs

    def hottest_keys(self, k: int) -> list:
        """The *k* currently-hottest keys (cache warm-up, §7.4)."""
        return self.keyspace.keys(self.popularity.top_items(k))
