"""Tests for links: latency, serialization, loss."""

import pytest

from repro.errors import ConfigurationError
from repro.net.links import Link


class TestBasics:
    def test_other_endpoint(self):
        link = Link(1, 2)
        assert link.other(1) == 2 and link.other(2) == 1

    def test_other_rejects_stranger(self):
        with pytest.raises(ConfigurationError):
            Link(1, 2).other(3)

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Link(1, 1)

    def test_nan_latency_rejected(self):
        with pytest.raises(ConfigurationError, match="latency"):
            Link(1, 2, latency=float("nan"))

    def test_plain_delay_is_latency(self):
        link = Link(1, 2, latency=5e-6)
        assert link.delivery_plan(1, now=0.0) == [pytest.approx(5e-6)]


class TestSerialization:
    def test_rate_limits_back_to_back(self):
        link = Link(1, 2, latency=0.0, rate_pps=1000.0)
        assert link.delivery_plan(1, now=0.0) == [pytest.approx(1e-3)]
        assert link.delivery_plan(1, now=0.0) == [pytest.approx(2e-3)]

    def test_directions_independent(self):
        link = Link(1, 2, latency=0.0, rate_pps=1000.0)
        link.delivery_plan(1, now=0.0)
        assert link.delivery_plan(2, now=0.0) == [pytest.approx(1e-3)]

    def test_idle_gap_resets_queue(self):
        link = Link(1, 2, latency=0.0, rate_pps=1000.0)
        link.delivery_plan(1, now=0.0)
        assert link.delivery_plan(1, now=1.0) == [pytest.approx(1e-3)]


class TestLoss:
    def test_lossless_by_default(self):
        link = Link(1, 2)
        assert all(link.delivery_plan(1, 0.0) for _ in range(100))

    def test_total_loss_invalid(self):
        with pytest.raises(ConfigurationError):
            Link(1, 2, loss_prob=1.0)

    def test_loss_rate_rough(self):
        link = Link(1, 2, loss_prob=0.3, seed=1)
        drops = sum(not link.delivery_plan(1, 0.0) for _ in range(2000))
        assert 450 <= drops <= 750
        assert link.dropped == drops

    def test_deterministic_given_seed(self):
        outcomes = []
        for _ in range(2):
            link = Link(1, 2, loss_prob=0.5, seed=9)
            outcomes.append([not link.delivery_plan(1, 0.0)
                             for _ in range(50)])
        assert outcomes[0] == outcomes[1]
