"""Tests for the open-addressing hash table."""

import pytest

from repro.errors import ConfigurationError
from repro.kvstore.hashtable import HashTable


class TestBasics:
    def test_missing_key_none(self):
        assert HashTable().get(b"nope") is None

    def test_put_get(self):
        t = HashTable()
        assert t.put(b"k", b"v") is True
        assert t.get(b"k") == b"v"

    def test_overwrite(self):
        t = HashTable()
        t.put(b"k", b"v1")
        assert t.put(b"k", b"v2") is False
        assert t.get(b"k") == b"v2"
        assert len(t) == 1

    def test_delete(self):
        t = HashTable()
        t.put(b"k", b"v")
        assert t.delete(b"k") is True
        assert t.get(b"k") is None
        assert t.delete(b"k") is False

    def test_contains(self):
        t = HashTable()
        t.put(b"k", b"v")
        assert b"k" in t and b"x" not in t

    def test_len(self):
        t = HashTable()
        for i in range(10):
            t.put(str(i).encode(), b"v")
        assert len(t) == 10


class TestResizing:
    def test_grows_past_initial_capacity(self):
        t = HashTable(initial_capacity=8)
        for i in range(1000):
            t.put(f"key{i}".encode(), f"val{i}".encode())
        assert len(t) == 1000
        for i in range(0, 1000, 97):
            assert t.get(f"key{i}".encode()) == f"val{i}".encode()

    def test_load_factor_bounded(self):
        t = HashTable(initial_capacity=8, max_load=0.7)
        for i in range(500):
            t.put(str(i).encode(), b"v")
        assert t.load_factor <= 0.7

    def test_tombstones_cleaned_by_rebuild(self):
        t = HashTable(initial_capacity=16)
        for round_ in range(20):
            for i in range(10):
                t.put(f"r{round_}i{i}".encode(), b"v")
            for i in range(10):
                t.delete(f"r{round_}i{i}".encode())
        assert len(t) == 0
        # Capacity should not have ballooned from tombstone pressure alone.
        assert t.capacity <= 256

    def test_overwrite_at_the_load_threshold_does_not_rebuild(self):
        # 5 of 8 slots occupied is the last state below max_load=0.7; the
        # next *new* key grows the table, an overwrite inserts nothing.
        t = HashTable(initial_capacity=8, max_load=0.7)
        for i in range(5):
            t.put(str(i).encode(), b"v")
        assert t.capacity == 8
        assert t.put(b"0", b"again") is False
        assert t.capacity == 8
        assert t.get(b"0") == b"again"
        lookups = t.total_lookups
        assert t.put(b"new", b"v") is True
        assert t.capacity == 16
        # The growing put is charged the rebuild's five re-inserts plus
        # one lookup of its own, not the find that preceded the rebuild.
        assert t.total_lookups == lookups + 6


class TestDeletionProbing:
    def test_lookup_past_tombstone(self):
        # Force keys into collision, delete the first, second must remain
        # reachable (tombstone continues the probe chain).
        t = HashTable(initial_capacity=8)
        keys = [f"key{i}".encode() for i in range(200)]
        for k in keys:
            t.put(k, k)
        for k in keys[::2]:
            t.delete(k)
        for k in keys[1::2]:
            assert t.get(k) == k

    def test_reinsert_after_delete(self):
        t = HashTable()
        t.put(b"k", b"v1")
        t.delete(b"k")
        t.put(b"k", b"v2")
        assert t.get(b"k") == b"v2"
        assert len(t) == 1


class TestDiagnostics:
    def test_probe_stats_accumulate(self):
        t = HashTable()
        t.put(b"k", b"v")
        t.get(b"k")
        assert t.total_lookups and t.total_probes >= t.total_lookups

    def test_items_iterates_live_entries(self):
        t = HashTable()
        t.put(b"a", b"1")
        t.put(b"b", b"2")
        t.delete(b"a")
        assert dict(t.items()) == {b"b": b"2"}

    def test_clear(self):
        t = HashTable()
        t.put(b"a", b"1")
        t.clear()
        assert len(t) == 0 and t.get(b"a") is None

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            HashTable(initial_capacity=0)
        with pytest.raises(ConfigurationError):
            HashTable(max_load=1.5)
