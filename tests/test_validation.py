"""Cross-validation: the packet-level simulator and the rate-equilibrium
model must agree on small racks (the standing consistency check that makes
the full-scale model's numbers trustworthy)."""

import pytest

from repro.analysis.validation import drive_at


class TestNetCacheRack:
    def test_prediction_is_feasible(self):
        # Driving the DES rack at the model's predicted saturation rate
        # loses (almost) nothing.
        point = drive_at(1.0, enable_cache=True)
        assert point.delivery_ratio > 0.95

    def test_prediction_is_tight(self):
        # 60% above the prediction, queues overflow.
        point = drive_at(1.6, enable_cache=True)
        assert point.delivery_ratio < 0.95

    def test_hit_ratio_agrees(self):
        point = drive_at(0.9, enable_cache=True)
        assert abs(point.des_hit_ratio - point.model_hit_ratio) < 0.02


class TestNoCacheRack:
    def test_prediction_is_feasible(self):
        point = drive_at(1.0, enable_cache=False)
        assert point.delivery_ratio > 0.95

    def test_prediction_is_tight(self):
        point = drive_at(1.6, enable_cache=False)
        assert point.delivery_ratio < 0.95

    def test_model_sees_the_skew_penalty(self):
        cached = drive_at(0.9, enable_cache=True)
        plain = drive_at(0.9, enable_cache=False)
        # The model predicts a large gap; both substrates show it.
        assert cached.model_throughput > 3 * plain.model_throughput
        assert cached.delivered > 3 * plain.delivered


class TestAcrossSkews:
    @pytest.mark.parametrize("skew", [0.0, 0.9])
    def test_agreement_holds_per_skew(self, skew):
        point = drive_at(1.0, skew=skew, enable_cache=True)
        assert point.delivery_ratio > 0.93
        assert abs(point.des_hit_ratio - point.model_hit_ratio) < 0.03
