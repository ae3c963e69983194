"""Consistent hashing with virtual nodes (§8 "Load balancing").

The related-work baseline: "Traditional methods use consistent hashing
[Karger et al.] and virtual nodes [Dabek et al.] to mitigate load
imbalance, but these solutions fall short when dealing with workload
changes."  This module implements the ring — sorted virtual-node tokens,
binary-search lookup — so the claim can be measured: virtual nodes even
out *key-count* imbalance across servers, but they cannot split the load
of a single hot key, so Zipf skew still concentrates on whoever owns the
head.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sketch.hashing import hash_bytes

RING_SEED = 0xC0F5


class ConsistentHashRing:
    """A hash ring with per-server virtual nodes."""

    def __init__(self, server_ids: Sequence[int], virtual_nodes: int = 64,
                 seed: int = RING_SEED):
        if not server_ids:
            raise ConfigurationError("need at least one server")
        if len(set(server_ids)) != len(server_ids):
            raise ConfigurationError("server ids must be unique")
        if virtual_nodes <= 0:
            raise ConfigurationError("virtual_nodes must be positive")
        self.server_ids: List[int] = list(server_ids)
        self.virtual_nodes = virtual_nodes
        self.seed = seed
        self._index_of: Dict[int, int] = {
            sid: i for i, sid in enumerate(self.server_ids)
        }
        tokens: List[tuple] = []
        for sid in self.server_ids:
            for v in range(virtual_nodes):
                token = hash_bytes(f"vn:{sid}:{v}".encode(), seed)
                tokens.append((token, sid))
        tokens.sort()
        self._tokens = [t for t, _ in tokens]
        self._owners = [s for _, s in tokens]

    @property
    def num_partitions(self) -> int:
        return len(self.server_ids)

    # -- lookup -----------------------------------------------------------------

    def server_for(self, key: bytes) -> int:
        """First virtual node clockwise from the key's ring position."""
        point = hash_bytes(key, self.seed ^ 0x5A5A)
        idx = bisect.bisect_right(self._tokens, point)
        if idx == len(self._tokens):
            idx = 0  # wrap around the ring
        return self._owners[idx]

    def partition_of(self, key: bytes) -> int:
        return self._index_of[self.server_for(key)]


def ring_load_vector(probs: np.ndarray, keyspace, ring: ConsistentHashRing
                     ) -> np.ndarray:
    """Per-server query-load fractions under ring placement."""
    loads = np.zeros(ring.num_partitions)
    for item in np.flatnonzero(probs):
        loads[ring.partition_of(keyspace.key(int(item)))] += probs[item]
    return loads
