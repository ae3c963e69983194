"""Key-digest interning: compute every per-key derived index once.

Each packet that reaches the query-statistics engine needs 7 independent
hashes of its key — one per Count-Min row and one per Bloom array — all of
them pure functions of the raw key bytes.  The Tofino computes these in
parallel hash units at line rate; in Python they dominate the wall-clock
cost of a run.

:class:`DigestTable` keeps them as numpy columns: a dict maps a key to a
row, and row *r* of ``cm`` and ``bloom`` holds exactly the values the
scalar code would compute — same hash family, same seeds, same modular
reduction — so cached and uncached lookups are bit-for-bit
interchangeable (property-tested in ``tests/test_prop_digest.py``).  The
table is bounded; rows are recycled as a FIFO ring.  The batch path
(:meth:`DigestTable.get_batch`) fills every missed row of a batch with one
:func:`~repro.sketch.hashing.hash_bytes_batch` call; the scalar path
(:meth:`DigestTable.get`, :meth:`DigestTable.compute`) hashes key by key
with :func:`~repro.sketch.hashing.hash_bytes` and is the executable spec.
No digest depends on the statistics epoch, so a statistics ``reset()``
leaves the table as it is.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sketch.hashing import HashFamily, hash_bytes, hash_bytes_batch

#: default bound on interned keys; at 56 bytes of columns per row this is
#: 3.5 MB, comfortably covering the hot head plus the recently-seen tail of
#: a Zipf stream.
DEFAULT_CAPACITY = 64 * 1024


class KeyDigest:
    """All derived indexes of one key, as the scalar path hands them out.

    ``cm_indexes`` are the Count-Min slot indexes (one per row) and
    ``bloom_bits`` the Bloom filter bit positions (one per array).
    """

    __slots__ = ("key", "cm_indexes", "bloom_bits")

    def __init__(self, key: bytes, cm_indexes: Tuple[int, ...],
                 bloom_bits: Tuple[int, ...]):
        self.key = key
        self.cm_indexes = cm_indexes
        self.bloom_bits = bloom_bits

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"KeyDigest({self.key!r}, cm={self.cm_indexes}, "
                f"bloom={self.bloom_bits})")


class DigestTable:
    """Bounded FIFO memo table of key digests, held as columns.

    Rows ``0 .. capacity-1`` are a ring: a new key takes the row after the
    previous new key's, evicting the key that held it, so eviction is FIFO
    over insertion order and replays are deterministic — the same key
    stream always produces the same hit/miss/eviction sequence.
    Correctness never depends on the cache: an evicted key is simply
    recomputed to the identical digest.

    Row ids are only good until the next :meth:`get` or :meth:`get_batch`:
    read the columns first.
    """

    def __init__(self,
                 cm_family: HashFamily, cm_width: int,
                 bloom_family: HashFamily, bloom_bits: int,
                 capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ConfigurationError("digest capacity must be positive")
        if cm_width <= 0 or bloom_bits <= 0:
            raise ConfigurationError("moduli must be positive")
        self._cm_seeds = tuple(cm_family.seeds)
        self._cm_width = cm_width
        self._bloom_seeds = tuple(bloom_family.seeds)
        self._bloom_bits = bloom_bits
        #: one kernel call hashes a key under all of these.
        self._seeds = np.array(self._cm_seeds + self._bloom_seeds,
                               dtype=np.uint64)
        self.capacity = capacity
        self._row_of: Dict[bytes, int] = {}
        #: key held by each row that has been used so far.
        self._key_of: List[bytes] = []
        #: ring position: the row the next new key takes.
        self._next = 0
        # Uninitialised on purpose (zeroing would commit 3.5 MB per table
        # up front): a row is written when a key takes it, before
        # anything reads it.
        self.cm = np.empty((capacity, len(self._cm_seeds)), dtype=np.int64)
        self.bloom = np.empty((capacity, len(self._bloom_seeds)),
                              dtype=np.int64)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._row_of)

    # -- scalar path (executable spec) -------------------------------------------

    def compute(self, key: bytes) -> KeyDigest:
        """Build a digest without touching the memo table (reference path)."""
        cm = tuple(hash_bytes(key, s) % self._cm_width
                   for s in self._cm_seeds)
        bloom = tuple(hash_bytes(key, s) % self._bloom_bits
                      for s in self._bloom_seeds)
        return KeyDigest(key, cm, bloom)

    def get(self, key: bytes) -> KeyDigest:
        """Memoized digest of *key* (computes and interns on miss)."""
        row = self._row_of.get(key)
        if row is not None:
            self.hits += 1
            return KeyDigest(key, tuple(self.cm[row].tolist()),
                             tuple(self.bloom[row].tolist()))
        self.misses += 1
        digest = self.compute(key)
        row = self._admit(key)
        self.cm[row] = digest.cm_indexes
        self.bloom[row] = digest.bloom_bits
        return digest

    def _admit(self, key: bytes) -> int:
        """Give *key* the next ring row, evicting the key that holds it."""
        row = self._next
        self._next = row + 1 if row + 1 < self.capacity else 0
        key_of = self._key_of
        if row == len(key_of):
            key_of.append(key)
        else:
            del self._row_of[key_of[row]]
            self.evictions += 1
            key_of[row] = key
        self._row_of[key] = row
        return row

    # -- batch path -----------------------------------------------------------------

    def get_batch(self, keys: Sequence[bytes]) -> np.ndarray:
        """Row of every key of a batch, in order; equivalent to
        :meth:`get` per key (same hits, misses, evictions, FIFO order)
        with all missed rows hashed in one kernel call.

        A position whose ring row is taken by a later miss of the same
        batch — a hit on a key that is then evicted, or more misses than
        the table has rows — is given a scratch row past ``capacity``
        instead, so every returned row holds its own key's digest.
        """
        probe = self._row_of.get
        admit = self._admit
        first = self._next
        rows = []
        miss_pos = []
        for key in keys:
            row = probe(key)
            if row is None:
                miss_pos.append(len(rows))
                row = admit(key)
            rows.append(row)
        rows = np.array(rows, dtype=np.intp)
        self.hits += len(rows) - len(miss_pos)
        if not miss_pos:
            return rows
        self.misses += len(miss_pos)
        fill = miss_pos = np.array(miss_pos, dtype=np.intp)
        # This batch's miss j took ring row first + j, so a position has
        # lost its row if the last miss to take that row comes after it.
        capacity = self.capacity
        offset = (rows - first) % capacity
        taken = np.flatnonzero(offset < len(miss_pos))
        last = offset[taken]
        last += (len(miss_pos) - 1 - last) // capacity * capacity
        lost = taken[miss_pos[last] > taken]
        if len(lost):
            rows[lost] = self._scratch_rows(len(lost))
            fill = np.union1d(miss_pos, lost)
        fill_rows = rows[fill]
        h = hash_bytes_batch([keys[p] for p in fill.tolist()], self._seeds)
        depth = len(self._cm_seeds)
        self.cm[fill_rows] = (h[:depth] % self._cm_width).T
        self.bloom[fill_rows] = (h[depth:] % self._bloom_bits).T
        return rows

    def _scratch_rows(self, count: int) -> np.ndarray:
        """Row ids of *count* scratch rows, growing the columns to hold
        them; their contents last until the next batch."""
        short = self.capacity + count - len(self.cm)
        if short > 0:
            for name in ("cm", "bloom"):
                column = getattr(self, name)
                pad = np.empty((short,) + column.shape[1:], column.dtype)
                setattr(self, name, np.concatenate([column, pad]))
        return np.arange(self.capacity, self.capacity + count)

    def stats(self) -> Dict[str, int]:
        """Telemetry snapshot (perf scenarios embed this)."""
        return {"size": len(self._row_of), "capacity": self.capacity,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


def digest_table_for(sketch, bloom,
                     capacity: int = DEFAULT_CAPACITY) -> DigestTable:
    """Wire a :class:`DigestTable` to live sketch/bloom instances."""
    return DigestTable(sketch.hash_family, sketch.width,
                       bloom.hash_family, bloom.bits, capacity=capacity)
