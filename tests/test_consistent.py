"""Tests for consistent hashing with virtual nodes (§8 baseline)."""

import numpy as np
import pytest

from repro.baselines.consistent import ConsistentHashRing, ring_load_vector
from repro.client.zipf import KeySpace, ZipfDistribution
from repro.errors import ConfigurationError


@pytest.fixture()
def ring():
    return ConsistentHashRing([10, 20, 30, 40], virtual_nodes=64)


class TestLookup:
    def test_deterministic(self, ring):
        other = ConsistentHashRing([10, 20, 30, 40], virtual_nodes=64)
        for i in range(100):
            key = f"key{i}".encode()
            assert ring.server_for(key) == other.server_for(key)

    def test_all_servers_reachable(self, ring):
        owners = {ring.server_for(f"key{i}".encode()) for i in range(2000)}
        assert owners == {10, 20, 30, 40}

    def test_partition_of_matches_server_for(self, ring):
        key = b"akey"
        assert ring.server_ids[ring.partition_of(key)] == ring.server_for(key)


class TestVirtualNodes:
    def test_key_count_roughly_uniform(self, ring):
        counts = {s: 0 for s in ring.server_ids}
        for i in range(8000):
            counts[ring.server_for(f"key{i}".encode())] += 1
        assert min(counts.values()) > 1000  # ideal 2000 each


class TestMinimalDisruption:
    def test_join_moves_about_one_over_n(self):
        keys = [f"key{i}".encode() for i in range(4000)]
        before = ConsistentHashRing([1, 2, 3, 4, 5, 6, 7])
        after = ConsistentHashRing([1, 2, 3, 4, 5, 6, 7, 8])
        moved = sum(before.server_for(k) != after.server_for(k)
                    for k in keys) / len(keys)
        assert 0.04 < moved < 0.25  # ideal 1/8 = 0.125

    def test_modulo_hashing_would_move_most(self):
        # The contrast consistent hashing exists for.
        keys = [f"key{i}".encode() for i in range(4000)]
        from repro.sketch.hashing import hash_bytes

        moved = sum(1 for k in keys
                    if hash_bytes(k) % 7 != hash_bytes(k) % 8) / len(keys)
        assert moved > 0.8


class TestFallsShortUnderSkew:
    def test_virtual_nodes_cannot_split_a_hot_key(self):
        # §8's point, measured: the ring evens out key placement, but the
        # hottest key's entire load still lands on one server, so the skew
        # penalty matches plain hash partitioning.
        num_keys, servers = 50_000, list(range(16))
        probs = ZipfDistribution(num_keys, 0.99).probs
        keyspace = KeySpace(num_keys)
        ring = ConsistentHashRing(servers, virtual_nodes=128)
        loads = ring_load_vector(probs, keyspace, ring)
        imbalance = loads.max() / loads.mean()
        assert imbalance > 2.0  # nowhere near balanced
        # Whereas a small cache (top 100 keys removed) fixes it.
        masked = probs.copy()
        masked[np.argsort(probs)[::-1][:100]] = 0.0
        cached_loads = ring_load_vector(masked, keyspace, ring)
        assert cached_loads.max() / cached_loads.mean() < 1.5

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing([])
        with pytest.raises(ConfigurationError):
            ConsistentHashRing([1], virtual_nodes=0)
        with pytest.raises(ConfigurationError):
            ConsistentHashRing([1, 1])
