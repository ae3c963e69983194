"""Tests for the Count-Min sketch."""

import pytest

from repro.errors import ConfigurationError
from repro.sketch.countmin import CountMinSketch


@pytest.fixture()
def sketch():
    return CountMinSketch(width=1024, depth=4, counter_bits=16, seed=5)


class TestBasics:
    def test_estimate_starts_zero(self, sketch):
        assert sketch.estimate(b"nothing") == 0

    def test_update_returns_estimate(self, sketch):
        assert sketch.update(b"k") == 1
        assert sketch.update(b"k") == 2

    def test_estimate_after_updates(self, sketch):
        for _ in range(7):
            sketch.update(b"k")
        assert sketch.estimate(b"k") == 7

    def test_bulk_count(self, sketch):
        sketch.update(b"k", count=100)
        assert sketch.estimate(b"k") == 100

    def test_never_underestimates(self, sketch):
        truth = {}
        for i in range(500):
            key = f"key{i % 50}".encode()
            truth[key] = truth.get(key, 0) + 1
            sketch.update(key)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_estimate_is_tight_when_sparse(self, sketch):
        # With 20 keys in a 1024-wide, 4-deep sketch, collisions across all
        # four rows are essentially impossible.
        for i in range(20):
            sketch.update(f"key{i}".encode(), count=i + 1)
        for i in range(20):
            assert sketch.estimate(f"key{i}".encode()) == i + 1

    def test_total_updates(self, sketch):
        sketch.update(b"a")
        sketch.update(b"b", count=4)
        assert sketch.total_updates == 5


class TestSaturation:
    def test_counter_saturates_not_wraps(self):
        sketch = CountMinSketch(width=64, depth=2, counter_bits=8)
        sketch.update(b"k", count=1000)
        assert sketch.estimate(b"k") == 255

    def test_saturated_counter_stays_maxed(self):
        sketch = CountMinSketch(width=64, depth=2, counter_bits=8)
        sketch.update(b"k", count=255)
        assert sketch.update(b"k") == 255


class TestReset:
    def test_reset_clears(self, sketch):
        sketch.update(b"k", count=9)
        sketch.reset()
        assert sketch.estimate(b"k") == 0
        assert sketch.total_updates == 0


class TestGeometry:
    def test_sram_accounting(self):
        sketch = CountMinSketch(width=64 * 1024, depth=4, counter_bits=16)
        assert sketch.sram_bytes == 4 * 64 * 1024 * 2  # paper geometry

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(width=0)
        with pytest.raises(ConfigurationError):
            CountMinSketch(depth=0)
        with pytest.raises(ConfigurationError):
            CountMinSketch(counter_bits=0)
