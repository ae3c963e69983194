"""Tests for the Bloom filter."""

import pytest

from repro.errors import ConfigurationError
from repro.sketch.bloom import BloomFilter


@pytest.fixture()
def bloom():
    return BloomFilter(bits=4096, num_hashes=3, seed=2)


class TestMembership:
    def test_empty_contains_nothing(self, bloom):
        assert not bloom.contains(b"k")

    def test_add_then_contains(self, bloom):
        bloom.add(b"k")
        assert bloom.contains(b"k")

    def test_no_false_negatives(self, bloom):
        keys = [f"key{i}".encode() for i in range(300)]
        for k in keys:
            bloom.add(k)
        assert all(bloom.contains(k) for k in keys)

    def test_first_add_reports_absent(self, bloom):
        assert bloom.add(b"k") is False

    def test_second_add_reports_present(self, bloom):
        bloom.add(b"k")
        assert bloom.add(b"k") is True

    def test_dedup_role(self, bloom):
        # The NetCache role: a hot key passes the filter exactly once.
        reports = sum(1 for _ in range(10) if not bloom.add(b"hot"))
        assert reports == 1


class TestFalsePositives:
    def test_fp_rate_reasonable(self):
        bloom = BloomFilter(bits=4096, num_hashes=3, seed=7)
        for i in range(200):
            bloom.add(f"in{i}".encode())
        fps = sum(1 for i in range(2000)
                  if bloom.contains(f"out{i}".encode()))
        # Analytic rate at this fill is ~0.01%; allow generous slack.
        assert fps < 20


class TestReset:
    def test_reset_clears(self, bloom):
        bloom.add(b"k")
        bloom.reset()
        assert not bloom.contains(b"k")
        assert bloom.inserted == 0


class TestGeometry:
    def test_sram_accounting_paper_geometry(self):
        bloom = BloomFilter(bits=256 * 1024, num_hashes=3)
        assert bloom.sram_bytes == 3 * 256 * 1024 // 8

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(bits=0)
        with pytest.raises(ConfigurationError):
            BloomFilter(num_hashes=0)
