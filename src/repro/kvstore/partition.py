"""Hash partitioning of the key space across storage servers.

The paper assumes key-value items are hash-partitioned to the storage
servers (§3); clients compute the partition themselves and address the owning
server directly (§4.1), so the partitioner is shared by clients, servers, and
the simulators.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sketch.hashing import hash_bytes, hash_bytes_batch

PARTITION_SEED = 0x5EED


class HashPartitioner:
    """Maps keys to one of N partitions and partitions to server node ids."""

    def __init__(self, server_ids: Sequence[int], seed: int = PARTITION_SEED):
        if not server_ids:
            raise ConfigurationError("need at least one server")
        if len(set(server_ids)) != len(server_ids):
            raise ConfigurationError("server ids must be unique")
        self.server_ids: List[int] = list(server_ids)
        self.seed = seed

    @property
    def num_partitions(self) -> int:
        return len(self.server_ids)

    def partition_of(self, key: bytes) -> int:
        """Partition index in [0, N) that owns *key*."""
        return hash_bytes(key, self.seed) % self.num_partitions

    def partitions_of(self, keys: Sequence[bytes]) -> np.ndarray:
        """:meth:`partition_of` every key, hashed in one kernel call."""
        hashes = hash_bytes_batch(keys, (self.seed,))[0]
        return (hashes % np.uint64(self.num_partitions)).astype(np.int64)

    def server_for(self, key: bytes) -> int:
        """Node id of the server that owns *key*."""
        return self.server_ids[self.partition_of(key)]

    def split_keys(self, keys: Sequence[bytes]) -> Dict[int, np.ndarray]:
        """Positions in *keys* of the keys each partition index owns,
        ascending: one kernel call and one stable sort."""
        parts = self.partitions_of(keys)
        order = np.argsort(parts, kind="stable")
        counts = np.bincount(parts, minlength=self.num_partitions)
        return dict(enumerate(np.split(order, np.cumsum(counts)[:-1])))
