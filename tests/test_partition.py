"""Tests for hash partitioning."""

import pytest

from repro.errors import ConfigurationError
from repro.kvstore.partition import HashPartitioner


@pytest.fixture()
def part():
    return HashPartitioner([10, 20, 30, 40])


class TestMapping:
    def test_partition_in_range(self, part):
        for i in range(100):
            assert 0 <= part.partition_of(f"k{i}".encode()) < 4

    def test_server_for_consistent(self, part):
        key = b"somekey"
        assert part.server_for(key) == part.server_ids[part.partition_of(key)]

    def test_deterministic(self, part):
        other = HashPartitioner([10, 20, 30, 40])
        for i in range(50):
            k = f"k{i}".encode()
            assert part.partition_of(k) == other.partition_of(k)


class TestBalance:
    def test_roughly_uniform(self):
        part = HashPartitioner(list(range(8)))
        counts = [0] * 8
        for i in range(8000):
            counts[part.partition_of(f"key{i}".encode())] += 1
        assert min(counts) > 700  # expected 1000 each

    def test_split_keys_covers_all(self, part):
        keys = [f"k{i}".encode() for i in range(200)]
        groups = part.split_keys(keys)
        assert sum(len(v) for v in groups.values()) == 200
        assert set(groups) == {0, 1, 2, 3}


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner([])

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner([1, 1])
