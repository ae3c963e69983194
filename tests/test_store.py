"""Tests for the sharded KV store."""

import pytest

from repro.errors import ConfigurationError, ValueFormatError
import numpy as np

from repro.kvstore.store import KVStore, ReadColumns


class TestApi:
    def test_get_put_delete(self):
        store = KVStore(num_cores=4)
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert store.delete(b"k") is True
        assert store.get(b"k") is None

    def test_contains(self):
        store = KVStore()
        store.put(b"k", b"v")
        assert b"k" in store and b"x" not in store

    def test_len_across_shards(self):
        store = KVStore(num_cores=4)
        for i in range(100):
            store.put(f"key{i}".encode(), b"v")
        assert len(store) == 100

    def test_value_size_enforced(self):
        store = KVStore(max_value_size=16)
        with pytest.raises(ValueFormatError):
            store.put(b"k", b"v" * 17)

    def test_op_counters(self):
        store = KVStore()
        store.put(b"k", b"v")
        store.get(b"k")
        store.delete(b"k")
        assert (store.puts, store.gets, store.deletes) == (1, 1, 1)

    def test_put_batch_refuses_unpaired_rows(self):
        store = KVStore(num_cores=4)
        with pytest.raises(ConfigurationError):
            store.put_batch([b"a", b"b", b"c"], [b"1", b"2"])
        with pytest.raises(ConfigurationError):
            store.put_batch([b"a"], [b"1", b"2"])
        assert len(store) == 0 and store.puts == 0

    def test_put_batch_checks_every_value_before_storing(self):
        store = KVStore(max_value_size=16)
        with pytest.raises(ValueFormatError):
            store.put_batch([b"a", b"b"], [b"v", b"v" * 17])
        assert len(store) == 0 and store.puts == 0


def test_peek_batch_reads_like_get_and_moves_no_counter():
    store = KVStore(num_cores=4)
    keys = [f"key{i}".encode() for i in range(50)]
    for key in keys[:40]:
        store.put(key, key * 2)
    columns = ReadColumns(keys, 4)
    ids = np.array([3, 45, 3, 39, 0, 49])

    def counters():
        return (store.gets, list(store.core_ops), store.probe_totals())

    before = counters()
    peeked = store.peek_batch(ids, columns)
    assert counters() == before
    assert peeked == [store.get(keys[i]) for i in ids.tolist()]
    assert peeked[1] is None and peeked[0] == keys[3] * 2


class TestSharding:
    def test_key_sticks_to_one_core(self):
        store = KVStore(num_cores=8)
        core = store._core_of(b"somekey")
        for _ in range(5):
            assert store._core_of(b"somekey") == core

    def test_cores_all_used(self):
        store = KVStore(num_cores=4)
        for i in range(400):
            store.put(f"key{i}".encode(), b"v")
        assert all(ops > 0 for ops in store.core_ops)

    def test_core_imbalance_metric(self):
        store = KVStore(num_cores=4)
        for i in range(1000):
            store.put(f"key{i}".encode(), b"v")
        assert 1.0 <= store.core_imbalance() < 1.5

    def test_skewed_single_key_imbalance(self):
        # Per-core sharding amplifies single-key skew (§1): all hits land
        # on one core.
        store = KVStore(num_cores=4)
        store.put(b"hot", b"v")
        for _ in range(100):
            store.get(b"hot")
        assert store.core_imbalance() > 3.0

    def test_invalid_cores(self):
        with pytest.raises(ConfigurationError):
            KVStore(num_cores=0)


class TestStats:
    def test_stats_dict(self):
        store = KVStore()
        store.put(b"k", b"v")
        stats = store.stats()
        assert stats["items"] == 1.0 and stats["puts"] == 1.0
