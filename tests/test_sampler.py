"""Tests for the statistics sampler."""

import pytest

from repro.errors import ConfigurationError
from repro.sketch.sampler import PacketSampler


class TestRates:
    def test_rate_one_samples_everything(self):
        s = PacketSampler(rate=1.0)
        assert all(s.sample(b"k") for _ in range(100))
        assert s.sampled == s.observed == 100

    def test_rate_zero_samples_nothing(self):
        s = PacketSampler(rate=0.0)
        assert not any(s.sample(b"k") for _ in range(100))
        assert s.sampled == 0 and s.observed == 100

    def test_intermediate_rate_rough(self):
        s = PacketSampler(rate=0.25, seed=3)
        hits = sum(s.sample(str(i).encode()) for i in range(4000))
        assert 800 <= hits <= 1200

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            PacketSampler(rate=1.5)
        with pytest.raises(ConfigurationError):
            PacketSampler(rate=-0.1)

    def test_set_rate_runtime(self):
        s = PacketSampler(rate=0.0)
        s.set_rate(1.0)
        assert s.sample(b"k")


class TestCounters:
    def test_reset_stats(self):
        s = PacketSampler(rate=1.0)
        s.sample(b"k")
        s.reset_stats()
        assert s.observed == 0 and s.sampled == 0
