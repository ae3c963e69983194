"""The in-memory key-value store a storage server runs.

Wraps the from-scratch :class:`~repro.kvstore.hashtable.HashTable` with the
Get/Put/Delete interface, value-size enforcement, per-core sharding (the
paper's servers use Receive Side Scaling / Flow Director to shard keys over
16 cores, §1/§6), and simple operation statistics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import MAX_VALUE_SIZE
from repro.errors import ConfigurationError, ValueFormatError
from repro.kvstore.hashtable import HashTable
from repro.sketch.hashing import hash_bytes, hash_bytes_batch

_CORE_SEED = 0xC04E

def _shard_seed(core):
    """Hash seed of the shard of *core* (an int or an array of them)."""
    return _CORE_SEED + core


def _hash_columns(keys: Sequence[bytes],
                  num_cores: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(core, slot hash)`` of each key in a store of *num_cores* shards,
    two kernel calls: the core :meth:`KVStore._core_of` computes, and the
    key's hash under that core's shard seed."""
    core = (hash_bytes_batch(keys, (_CORE_SEED,))[0]
            % np.uint64(num_cores)).astype(np.int32)
    shard_seeds = _shard_seed(core).astype(np.uint64)[None, :]
    return core, hash_bytes_batch(keys, shard_seeds)[0]


class ReadColumns:
    """What a read of each key of a fixed key universe costs its store, as
    numpy columns indexed by key id (the position of the key in *keys*).

    ``core`` and ``slot_hash`` are pure functions of the key and of the
    stores' shard count, hashed once here.  :meth:`KVStore.get_batch`
    resolves the probe length of an id on first touch — a walk from the
    stored hash — and trusts it for as long as ``stamp`` equals the
    store's structural version of that core, which moves when the core's
    shard gains a key (and so may resize) or loses one, never on an
    overwrite.  One set of columns serves every store of a rack, because
    a key id is only ever read through the store that owns the key.
    """

    __slots__ = ("keys", "num_cores", "core", "slot_hash", "probes", "stamp")

    def __init__(self, keys: Sequence[bytes], num_cores: int):
        n = len(keys)
        self.keys = keys
        self.num_cores = num_cores
        self.core, self.slot_hash = _hash_columns(keys, num_cores)
        self.probes = np.zeros(n, dtype=np.int32)
        #: structural version the row was resolved at; -1 = never.
        self.stamp = np.full(n, -1, dtype=np.int64)


class KVStore:
    """A sharded in-memory store.

    Parameters
    ----------
    num_cores:
        Number of per-core shards.  Keys are hashed over cores the way RSS
        spreads flows; per-core counters expose intra-server imbalance, which
        the paper notes amplifies the skew problem (§1).
    max_value_size:
        Upper bound on value length (storage servers can hold values larger
        than the switch cache; default allows 8x the switch maximum).
    """

    def __init__(self, num_cores: int = 16,
                 max_value_size: int = 8 * MAX_VALUE_SIZE):
        if num_cores <= 0:
            raise ConfigurationError("num_cores must be positive")
        self.num_cores = num_cores
        self.max_value_size = max_value_size
        self._shards = [
            HashTable(seed=_shard_seed(i)) for i in range(num_cores)
        ]
        self.core_ops: List[int] = [0] * num_cores
        #: per core, how often a key's probe length may have changed.
        self._structure = np.zeros(num_cores, dtype=np.int64)
        self.gets = 0
        self.puts = 0
        self.deletes = 0

    def _core_of(self, key: bytes) -> int:
        return hash_bytes(key, _CORE_SEED) % self.num_cores

    def _shard(self, key: bytes) -> HashTable:
        core = self._core_of(key)
        self.core_ops[core] += 1
        return self._shards[core]

    # -- API -------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for *key*, or None if absent."""
        self.gets += 1
        return self._shard(key).get(key)

    def peek_batch(self, ids: np.ndarray,
                   columns: ReadColumns) -> List[Optional[bytes]]:
        """What reads of ``columns.keys[i] for i in ids`` would return now
        (None where absent), moving no counter — ``gets``, ``core_ops`` or
        the shards' probe totals — for delivery observers."""
        shards, keys = self._shards, columns.keys
        out = []
        for i, c, h in zip(ids.tolist(), columns.core[ids].tolist(),
                           columns.slot_hash[ids].tolist()):
            shard = shards[c]
            before = shard.total_probes, shard.total_lookups
            out.append(shard.get(keys[i], h))
            shard.total_probes, shard.total_lookups = before
        return out

    def get_batch(self, ids: np.ndarray, columns: ReadColumns,
                  write_at: Sequence[int] = (), apply=None) -> None:
        """Read the keys ``columns.keys[i] for i in ids`` (with repeats)
        and discard the values.

        Equivalent to calling :meth:`get` once per id in stream order —
        same ``gets``, ``core_ops`` and per-shard ``total_probes`` /
        ``total_lookups`` — with the hashing and probing paid once per key
        (see :class:`ReadColumns`) and the counters applied as per-core
        totals.

        A slice that also writes passes *write_at* (ascending) and
        *apply*: ``apply(j)`` performs the slice's j-th write on this
        store, through whatever layer the caller runs writes, after the
        first ``write_at[j]`` reads.  Every row is resolved ahead; only a
        write that moves a structural version (a key came or went, so
        probe lengths may have) makes the reads before it be charged as
        resolved before it and the rest be resolved again.
        """
        if columns.num_cores != self.num_cores:
            raise ConfigurationError(
                f"columns hashed for {columns.num_cores} cores read "
                f"through a store of {self.num_cores}")
        core = columns.core[ids]
        self._refresh(columns, ids, core)
        done, version = 0, self._structure.sum()
        for j, k in enumerate(write_at):
            apply(j)
            moved = self._structure.sum()
            if moved != version:
                version = moved
                self._charge(columns, ids[done:k], core[done:k])
                done = k
                self._refresh(columns, ids[k:], core[k:])
        self._charge(columns, ids[done:], core[done:])

    def _refresh(self, columns: ReadColumns, ids: np.ndarray,
                 core: np.ndarray) -> None:
        """Resolve the rows of *ids* whose stamp is behind their core."""
        stale = columns.stamp[ids] != self._structure[core]
        if stale.any():
            self._resolve(columns, np.unique(ids[stale]))

    def _charge(self, columns: ReadColumns, ids: np.ndarray,
                core: np.ndarray) -> None:
        """Count one read per id at the probe length its row holds."""
        shards = self._shards
        lookups = np.bincount(core, minlength=self.num_cores)
        # float64 weights: exact below 2**53 probes per call.
        probes = np.bincount(core, weights=columns.probes[ids],
                             minlength=self.num_cores)
        self.gets += len(ids)
        core_ops = self.core_ops
        for c in np.flatnonzero(lookups).tolist():
            k = int(lookups[c])
            core_ops[c] += k
            shards[c].total_lookups += k
            shards[c].total_probes += int(probes[c])

    def _resolve(self, columns: ReadColumns, ids: np.ndarray) -> None:
        """(Re)compute the probe lengths of *ids*: one probe walk each,
        from the stored hash."""
        keys = columns.keys
        shards = self._shards
        core = columns.core[ids]
        probes = []
        for i, c, h in zip(ids.tolist(), core.tolist(),
                           columns.slot_hash[ids].tolist()):
            shard = shards[c]
            # One scalar lookup, measured and taken back off the shard's
            # statistics.
            before = shard.total_probes, shard.total_lookups
            shard.contains(keys[i], h)
            probes.append(shard.total_probes - before[0])
            shard.total_probes, shard.total_lookups = before
        columns.probes[ids] = probes
        columns.stamp[ids] = self._structure[core]

    def _check_value(self, value: bytes) -> None:
        if len(value) > self.max_value_size:
            raise ValueFormatError(
                f"value of {len(value)} bytes exceeds store limit "
                f"{self.max_value_size}"
            )

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite *key*."""
        self._check_value(value)
        self.puts += 1
        core = self._core_of(key)
        self.core_ops[core] += 1
        if self._shards[core].put(key, value):
            self._structure[core] += 1

    def put_batch(self, keys: Sequence[bytes],
                  values: Sequence[bytes]) -> None:
        """:meth:`put` for each ``(key, value)`` pair in order (bulk
        loads): the cores and slot hashes come from two kernel calls, the
        rows are grouped by core with one stable sort, and each shard
        takes its rows in one :meth:`HashTable.put_batch` call.  Value
        sizes are checked before anything is stored."""
        if len(keys) != len(values):
            raise ConfigurationError(
                f"{len(keys)} keys but {len(values)} values")
        if not keys:
            return
        self._check_value(max(values, key=len))
        cores, slot_hashes = _hash_columns(keys, self.num_cores)
        order = np.argsort(cores, kind="stable")
        rows, hashes = order.tolist(), slot_hashes[order].tolist()
        self.puts += len(keys)
        end = 0
        for core, count in enumerate(
                np.bincount(cores, minlength=self.num_cores).tolist()):
            if not count:
                continue
            start, end = end, end + count
            self.core_ops[core] += count
            self._structure[core] += self._shards[core].put_batch(
                [keys[i] for i in rows[start:end]],
                [values[i] for i in rows[start:end]], hashes[start:end])

    def delete(self, key: bytes) -> bool:
        """Remove *key*; returns True if it existed."""
        self.deletes += 1
        core = self._core_of(key)
        self.core_ops[core] += 1
        existed = self._shards[core].delete(key)
        if existed:
            self._structure[core] += 1
        return existed

    def contains(self, key: bytes) -> bool:
        return self._shards[self._core_of(key)].contains(key)

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def __contains__(self, key: bytes) -> bool:
        return self.contains(key)

    # -- diagnostics -------------------------------------------------------------

    def core_imbalance(self) -> float:
        """max/mean ratio of per-core operation counts (1.0 = perfectly even)."""
        total = sum(self.core_ops)
        if total == 0:
            return 1.0
        mean = total / self.num_cores
        return max(self.core_ops) / mean

    def probe_totals(self) -> Tuple[int, int]:
        """``(probes, lookups)`` summed over the shards."""
        return (sum(s.total_probes for s in self._shards),
                sum(s.total_lookups for s in self._shards))

    def stats(self) -> Dict[str, float]:
        return {
            "items": float(len(self)),
            "gets": float(self.gets),
            "puts": float(self.puts),
            "deletes": float(self.deletes),
            "core_imbalance": self.core_imbalance(),
        }
