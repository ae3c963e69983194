"""Tests for the multi-rack scaling simulation (Fig 10f)."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.scaling import ScalingConfig, sweep

# Scaled-down geometry; the uplink is ~2.5x one rack's server capacity,
# matching the full-scale ratio (2 BQPS uplink vs 1.28 BQPS of servers).
CFG = ScalingConfig(servers_per_rack=16, num_keys=50_000,
                    leaf_cache_items=500, spine_cache_items=500,
                    server_rate=1e6, rack_uplink_rate=4e7)


def throughputs(num_racks):
    """Design -> saturated throughput at *num_racks* racks."""
    return {p.design: p.throughput for p in sweep((num_racks,), CFG)}


class TestShapes:
    def test_nocache_flat(self):
        t1 = throughputs(1)["NoCache"]
        t8 = throughputs(8)["NoCache"]
        # Adding 8x servers barely helps (bottlenecked by hottest key).
        assert t8 < 2.0 * t1

    def test_leaf_cache_sublinear(self):
        t1 = throughputs(1)["Leaf-Cache"]
        t16 = throughputs(16)["Leaf-Cache"]
        assert t16 > t1  # grows...
        assert t16 < 12 * t1  # ...but clearly sublinearly

    def test_leaf_spine_scales_linearly(self):
        t1 = throughputs(1)["Leaf-Spine-Cache"]
        t16 = throughputs(16)["Leaf-Spine-Cache"]
        assert t16 > 8 * t1

    def test_ordering_at_scale(self):
        t = throughputs(16)
        assert t["NoCache"] < t["Leaf-Cache"] < t["Leaf-Spine-Cache"]

    def test_cache_designs_beat_nocache_at_one_rack(self):
        t = throughputs(1)
        assert t["Leaf-Cache"] > 3 * t["NoCache"]


class TestSweep:
    def test_sweep_covers_grid(self):
        points = sweep((1, 2), CFG)
        assert len(points) == 6
        designs = {p.design for p in points}
        assert designs == {"NoCache", "Leaf-Cache", "Leaf-Spine-Cache"}
        assert all(p.num_servers == p.num_racks * 16 for p in points)

    def test_throughputs_positive(self):
        assert all(p.throughput > 0 for p in sweep((1, 4), CFG))


class TestValidation:
    # A negative size used to slice [:-k]: every leaf cached all but one of
    # its items (2.0 BQPS at one rack), or the spine nearly everything.
    def test_negative_leaf_cache_is_refused(self):
        with pytest.raises(ConfigurationError):
            ScalingConfig(leaf_cache_items=-1)

    def test_negative_spine_cache_is_refused(self):
        with pytest.raises(ConfigurationError):
            ScalingConfig(spine_cache_items=-1)
