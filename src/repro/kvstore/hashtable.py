"""From-scratch open-addressing hash table.

The paper's storage servers run "a simple (not optimized) in-memory key-value
store with TommyDS" (§6).  TommyDS is a C library we cannot import, so we
build the equivalent substrate: an open-addressing table with linear probing,
tombstone deletion, and load-factor-driven resizing.  The storage server and
the shim layer sit on top of this table rather than a Python ``dict`` so the
substrate is genuinely implemented, testable, and instrumentable.  Probe
statistics (``total_probes``/``total_lookups``) are diagnostics: a server's
service time is fixed at ``1/service_rate``, and the dual-path diff compares
them between the two engines (``server*.store.probes``).
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sketch.hashing import hash_bytes

_EMPTY = 0
_FULL = 1
_TOMBSTONE = 2


class HashTable:
    """Open-addressing byte-string -> byte-string map with linear probing."""

    MIN_CAPACITY = 8

    def __init__(self, initial_capacity: int = 64, max_load: float = 0.7,
                 seed: int = 0xDB):
        if initial_capacity < 1:
            raise ConfigurationError("initial_capacity must be >= 1")
        if not 0.1 <= max_load < 1.0:
            raise ConfigurationError("max_load must be in [0.1, 1)")
        cap = self.MIN_CAPACITY
        while cap < initial_capacity:
            cap *= 2
        self._capacity = cap
        self._max_load = max_load
        self._seed = seed
        self._states: List[int] = [_EMPTY] * cap
        self._keys: List[Optional[bytes]] = [None] * cap
        self._values: List[Optional[bytes]] = [None] * cap
        #: 64-bit hash of each FULL slot's key, so a rebuild re-masks
        #: instead of re-hashing.
        self._hashes = array("Q", bytes(8 * cap))
        self._size = 0
        self._occupied = 0  # FULL + TOMBSTONE
        self.total_probes = 0
        self.total_lookups = 0

    # -- internals -----------------------------------------------------------

    def _hash(self, key: bytes) -> int:
        return hash_bytes(key, self._seed)

    def _find(self, key: bytes, h: int) -> Tuple[int, bool]:
        """Return (slot, found) for *key*, whose :meth:`_hash` is *h*.  If
        not found, slot is the insertion point (first tombstone seen, else
        first empty)."""
        idx = h & (self._capacity - 1)
        first_tombstone = -1
        probes = 0
        while True:
            probes += 1
            state = self._states[idx]
            if state == _EMPTY:
                self.total_probes += probes
                self.total_lookups += 1
                if first_tombstone >= 0:
                    return first_tombstone, False
                return idx, False
            if state == _TOMBSTONE:
                if first_tombstone < 0:
                    first_tombstone = idx
            elif self._keys[idx] == key:
                self.total_probes += probes
                self.total_lookups += 1
                return idx, True
            idx = (idx + 1) & (self._capacity - 1)

    def _resize(self, new_capacity: int) -> None:
        """Rebuild at *new_capacity*: re-insert every FULL slot in slot
        order, as :meth:`put` would, and charge each re-insertion's probe
        walk to the statistics.  The new table holds no tombstone and no
        duplicate, so each walk ends at the first empty slot."""
        mask = new_capacity - 1
        new_keys: List[Optional[bytes]] = [None] * new_capacity
        new_values: List[Optional[bytes]] = [None] * new_capacity
        new_hashes = array("Q", bytes(8 * new_capacity))
        new_states = [_EMPTY] * new_capacity
        moved = probes = 0
        # A slot holds a key exactly when it is FULL.
        for key, value, h in zip(self._keys, self._values, self._hashes):
            if key is None:
                continue
            idx = h & mask
            probes += 1
            while new_keys[idx] is not None:
                idx = (idx + 1) & mask
                probes += 1
            new_keys[idx] = key
            new_values[idx] = value
            new_hashes[idx] = h
            new_states[idx] = _FULL
            moved += 1
        self._capacity = new_capacity
        self._states, self._keys, self._values, self._hashes = (
            new_states, new_keys, new_values, new_hashes)
        self._size = self._occupied = moved
        self.total_probes += probes
        self.total_lookups += moved

    def _grow(self) -> None:
        # Double if genuinely full; same size rebuild clears tombstones.
        if self._size + 1 > int(self._capacity * self._max_load * 0.75):
            self._resize(self._capacity * 2)
        else:
            self._resize(self._capacity)

    # -- public API ------------------------------------------------------------

    def put(self, key: bytes, value: bytes, h: Optional[int] = None) -> bool:
        """Insert or overwrite; returns True if the key was new.  *h* is
        the key's hash under this table's seed, for a caller that has it
        (bulk loads hash all their keys in one kernel call)."""
        if h is None:
            h = self._hash(key)
        stats = self.total_probes, self.total_lookups
        idx, found = self._find(key, h)
        if found:
            self._values[idx] = value
            return False
        if self._occupied + 1 > int(self._capacity * self._max_load):
            # The rebuild moves every slot: find again afterwards, and
            # charge this put that second lookup only.
            self.total_probes, self.total_lookups = stats
            self._grow()
            idx, _ = self._find(key, h)
        if self._states[idx] != _TOMBSTONE:
            self._occupied += 1
        self._states[idx] = _FULL
        self._keys[idx] = key
        self._values[idx] = value
        self._hashes[idx] = h
        self._size += 1
        return True

    def put_batch(self, keys: Sequence[bytes], values: Sequence[bytes],
                  hashes: Sequence[int]) -> int:
        """:meth:`put` of each ``(key, value, hash)`` in order; returns how
        many keys were new.  Slots, rebuilds and probe statistics are those
        of the scalar loop: one tight pass with the probe walk inlined."""
        states, tkeys, tvalues, thashes = (
            self._states, self._keys, self._values, self._hashes)
        mask = self._capacity - 1
        limit = int(self._capacity * self._max_load)
        size, occupied = self._size, self._occupied
        start = size
        probes = lookups = 0
        for key, value, h in zip(keys, values, hashes):
            idx = h & mask
            tombstone = -1
            walked = 1
            while True:
                state = states[idx]
                if state == _EMPTY:
                    break
                if state == _TOMBSTONE:
                    if tombstone < 0:
                        tombstone = idx
                elif tkeys[idx] == key:
                    break
                idx = (idx + 1) & mask
                walked += 1
            if state == _FULL:
                probes += walked
                lookups += 1
                tvalues[idx] = value
                continue
            if occupied + 1 > limit:
                # As in put: the rebuild moves every slot, and only the
                # lookup in the rebuilt table is charged.
                self._size, self._occupied = size, occupied
                self.total_probes += probes
                self.total_lookups += lookups
                self._grow()
                states, tkeys, tvalues, thashes = (
                    self._states, self._keys, self._values, self._hashes)
                mask = self._capacity - 1
                limit = int(self._capacity * self._max_load)
                size, occupied = self._size, self._occupied
                probes = lookups = 0
                idx = h & mask
                walked = 1
                while states[idx] != _EMPTY:
                    idx = (idx + 1) & mask
                    walked += 1
            elif tombstone >= 0:
                idx = tombstone
            probes += walked
            lookups += 1
            if states[idx] != _TOMBSTONE:
                occupied += 1
            states[idx] = _FULL
            tkeys[idx] = key
            tvalues[idx] = value
            thashes[idx] = h
            size += 1
        self._size, self._occupied = size, occupied
        self.total_probes += probes
        self.total_lookups += lookups
        return size - start

    def get(self, key: bytes, h: Optional[int] = None) -> Optional[bytes]:
        """Return the value or None; *h* as for :meth:`put`."""
        idx, found = self._find(key, self._hash(key) if h is None else h)
        return self._values[idx] if found else None

    def delete(self, key: bytes) -> bool:
        """Remove the key; returns True if it was present."""
        idx, found = self._find(key, self._hash(key))
        if not found:
            return False
        self._states[idx] = _TOMBSTONE
        self._keys[idx] = None
        self._values[idx] = None
        self._size -= 1
        return True

    def contains(self, key: bytes, h: Optional[int] = None) -> bool:
        """True if *key* is present; *h* as for :meth:`put`."""
        _, found = self._find(key, self._hash(key) if h is None else h)
        return found

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        for i in range(self._capacity):
            if self._states[i] == _FULL:
                yield self._keys[i], self._values[i]

    def keys(self) -> Iterator[bytes]:
        for k, _ in self.items():
            yield k

    def clear(self) -> None:
        self._capacity = self.MIN_CAPACITY
        self._states = [_EMPTY] * self._capacity
        self._keys = [None] * self._capacity
        self._values = [None] * self._capacity
        self._hashes = array("Q", bytes(8 * self._capacity))
        self._size = 0
        self._occupied = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def load_factor(self) -> float:
        return self._size / self._capacity

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: bytes) -> bool:
        return self.contains(key)
