"""Tests for the SpaceSaving baseline heavy-hitter summary."""

import pytest

from repro.errors import ConfigurationError
from repro.sketch.spacesaving import SpaceSaving


class TestBasics:
    def test_tracks_within_capacity(self):
        ss = SpaceSaving(capacity=10)
        for i in range(5):
            ss.update(f"k{i}".encode(), count=i + 1)
        assert len(ss) == 5
        assert ss.estimate(b"k4") == 5

    def test_untracked_estimate_zero(self):
        ss = SpaceSaving(capacity=4)
        assert ss.estimate(b"missing") == 0

    def test_eviction_inherits_min_count(self):
        ss = SpaceSaving(capacity=2)
        ss.update(b"a", count=10)
        ss.update(b"b", count=3)
        ss.update(b"c")  # evicts b (min), inherits 3
        assert ss.estimate(b"c") == 4
        assert ss.estimate(b"b") == 0

    def test_overestimates_only(self):
        ss = SpaceSaving(capacity=8)
        truth = {}
        for i in range(2000):
            key = f"k{i % 40}".encode()
            truth[key] = truth.get(key, 0) + 1
            ss.update(key)
        for key in truth:
            est = ss.estimate(key)
            assert est == 0 or est >= 0  # estimates are counts
        # Tracked keys never underestimate.
        for key in truth:
            if ss.estimate(key):
                assert ss.estimate(key) >= truth[key]


class TestTopK:
    def test_top_ordering(self):
        ss = SpaceSaving(capacity=10)
        for i, count in enumerate([100, 50, 10]):
            ss.update(f"k{i}".encode(), count=count)
        top = ss.top(2)
        assert top[0] == (b"k0", 100)
        assert top[1] == (b"k1", 50)

    def test_finds_true_heavy_hitter(self):
        ss = SpaceSaving(capacity=16)
        for i in range(3000):
            ss.update(b"HOT" if i % 3 == 0 else f"k{i}".encode())
        assert dict(ss.top(1))[b"HOT"] >= 1000


class TestLifecycle:
    def test_reset(self):
        ss = SpaceSaving(capacity=4)
        ss.update(b"a")
        ss.reset()
        assert len(ss) == 0 and ss.total == 0

    def test_capacity_respected(self):
        ss = SpaceSaving(capacity=3)
        for i in range(100):
            ss.update(f"k{i}".encode())
        assert len(ss) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            SpaceSaving(capacity=0)
