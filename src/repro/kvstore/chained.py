"""Chained hash table — the TommyDS-style backend.

TommyDS (the library the paper's storage servers use, §6) is a chained
hash table with per-bucket linked lists.  This is the faithful equivalent:
an array of singly-linked chains, power-of-two bucket counts, and resize on
average chain length.  It shares the interface of
:class:`repro.kvstore.hashtable.HashTable`, so :class:`~repro.kvstore.store.KVStore`
can run on either backend, and the property tests drive both against the
same dict model.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sketch.hashing import hash_bytes


class _Node:
    __slots__ = ("key", "value", "hash", "next")

    def __init__(self, key: bytes, value: bytes, h: int, next_node):
        self.key = key
        self.value = value
        #: the key's 64-bit hash, so a rebuild re-masks instead of
        #: re-hashing.
        self.hash = h
        self.next = next_node


class ChainedHashTable:
    """Separate-chaining byte-string map."""

    MIN_BUCKETS = 8

    def __init__(self, initial_capacity: int = 64, max_chain: float = 2.0,
                 seed: int = 0xDC):
        if initial_capacity < 1:
            raise ConfigurationError("initial_capacity must be >= 1")
        if max_chain <= 0:
            raise ConfigurationError("max_chain must be positive")
        buckets = self.MIN_BUCKETS
        while buckets < initial_capacity:
            buckets *= 2
        self._buckets = [None] * buckets
        self._max_chain = max_chain
        self._seed = seed
        self._size = 0
        self.total_probes = 0
        self.total_lookups = 0

    # -- internals -----------------------------------------------------------

    def _hash(self, key: bytes) -> int:
        return hash_bytes(key, self._seed)

    def _find(self, key: bytes,
              h: int) -> Tuple[int, Optional[_Node], Optional[_Node]]:
        """(bucket index, node or None, predecessor or None) for *key*,
        whose :meth:`_hash` is *h*."""
        idx = h & (len(self._buckets) - 1)
        prev = None
        node = self._buckets[idx]
        probes = 0
        while node is not None:
            probes += 1
            if node.key == key:
                break
            prev, node = node, node.next
        self.total_probes += max(1, probes)
        self.total_lookups += 1
        return idx, node, prev

    def _nodes(self) -> Iterator[_Node]:
        for head in self._buckets:
            node = head
            while node is not None:
                yield node
                node = node.next

    def _maybe_grow(self) -> None:
        if self._size + 1 > self._max_chain * len(self._buckets):
            old = list(self._nodes())
            self._buckets = [None] * (len(self._buckets) * 2)
            self._size = 0
            for node in old:
                self.put(node.key, node.value, node.hash)

    # -- public API ------------------------------------------------------------

    def put(self, key: bytes, value: bytes, h: Optional[int] = None) -> bool:
        """Insert or overwrite; returns True if the key was new.  *h* is
        the key's hash under this table's seed, for a caller that has it."""
        if h is None:
            h = self._hash(key)
        idx, node, _ = self._find(key, h)
        if node is not None:
            node.value = value
            return False
        self._maybe_grow()
        idx = h & (len(self._buckets) - 1)  # buckets may have moved
        self._buckets[idx] = _Node(key, value, h, self._buckets[idx])
        self._size += 1
        return True

    def get(self, key: bytes, h: Optional[int] = None) -> Optional[bytes]:
        """Return the value or None; *h* as for :meth:`put`."""
        _, node, _ = self._find(key, self._hash(key) if h is None else h)
        return node.value if node is not None else None

    def delete(self, key: bytes) -> bool:
        idx, node, prev = self._find(key, self._hash(key))
        if node is None:
            return False
        if prev is None:
            self._buckets[idx] = node.next
        else:
            prev.next = node.next
        self._size -= 1
        return True

    def contains(self, key: bytes, h: Optional[int] = None) -> bool:
        """True if *key* is present; *h* as for :meth:`put`."""
        _, node, _ = self._find(key, self._hash(key) if h is None else h)
        return node is not None

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        for node in self._nodes():
            yield node.key, node.value

    def keys(self) -> Iterator[bytes]:
        for key, _ in self.items():
            yield key

    def clear(self) -> None:
        self._buckets = [None] * self.MIN_BUCKETS
        self._size = 0

    @property
    def capacity(self) -> int:
        return len(self._buckets)

    @property
    def load_factor(self) -> float:
        return self._size / len(self._buckets)

    def mean_probe_length(self) -> float:
        if not self.total_lookups:
            return 0.0
        return self.total_probes / self.total_lookups

    def max_chain_length(self) -> int:
        worst = 0
        for head in self._buckets:
            n, node = 0, head
            while node is not None:
                n, node = n + 1, node.next
            worst = max(worst, n)
        return worst

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: bytes) -> bool:
        return self.contains(key)
