"""Hypothesis twin: the Fig 10(f) sweep against its per-rack loop.

``reference_sweep`` is :func:`repro.sim.scaling.sweep` as it was first
written: every design of every rack count rebuilds the Zipf vector and the
item -> rack map, and each rack's hot set comes from a full scan of the
rack ids (``flatnonzero(racks == rack)``) and a full ``argsort``.  The
sweep groups items by rack once per rack count and picks hot sets with
``argpartition``; it must return the *same bits* — every
:class:`ScalingPoint` field, the throughput by ``float.hex`` — including
caches of 0 items and caches at or above a rack's item count.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.client.zipf import ZipfDistribution
from repro.errors import ConfigurationError
from repro.sim import scaling
from repro.sim.ratesim import fast_partition_vector
from repro.sim.scaling import ScalingConfig, ScalingPoint, sweep


def _layout(num_racks, config):
    num_servers = num_racks * config.servers_per_rack
    probs = ZipfDistribution(config.num_keys, config.skew).probs
    part = fast_partition_vector(config.num_keys, num_servers,
                                 config.partition_seed)
    return probs, part, part // config.servers_per_rack, num_servers


def _leaf_residual(probs, racks, num_racks, items_per_leaf):
    residual = probs.copy()
    for rack in range(num_racks):
        items = np.flatnonzero(racks == rack)
        if items.size == 0:
            continue
        hot = items[np.argsort(residual[items])[::-1][:items_per_leaf]]
        residual[hot] = 0.0
    return residual


def _nocache(num_racks, config):
    probs, part, _racks, num_servers = _layout(num_racks, config)
    per_server = np.bincount(part, weights=probs, minlength=num_servers)
    return float(config.server_rate / per_server.max())


def _leaf_cache(num_racks, config):
    probs, _part, racks, _ = _layout(num_racks, config)
    residual = _leaf_residual(probs, racks, num_racks,
                              config.leaf_cache_items)
    rack_demand = np.bincount(racks, weights=probs, minlength=num_racks)
    rack_residual = np.bincount(racks, weights=residual, minlength=num_racks)
    bounds = [config.rack_uplink_rate / rack_demand.max()]
    per_server_worst = rack_residual.max() / config.servers_per_rack
    if per_server_worst > 0:
        bounds.append(config.server_rate / per_server_worst)
    return float(min(bounds))


def _leaf_spine(num_racks, config):
    probs, _part, racks, _ = _layout(num_racks, config)
    after_spine = probs.copy()
    order = np.argsort(probs)[::-1]
    after_spine[order[: config.spine_cache_items]] = 0.0
    residual = _leaf_residual(after_spine, racks, num_racks,
                              config.leaf_cache_items)
    rack_demand = np.bincount(racks, weights=after_spine, minlength=num_racks)
    rack_residual = np.bincount(racks, weights=residual, minlength=num_racks)
    bounds = []
    if rack_demand.max() > 0:
        bounds.append(config.rack_uplink_rate / rack_demand.max())
    per_server_worst = rack_residual.max() / config.servers_per_rack
    if per_server_worst > 0:
        bounds.append(config.server_rate / per_server_worst)
    if not bounds:
        raise ConfigurationError("caches absorbed the entire workload")
    return float(min(bounds))


def reference_sweep(rack_counts, config):
    """The sweep as a per-rack loop: every layout, every rack, every pass."""
    points = []
    for racks in rack_counts:
        n = racks * config.servers_per_rack
        points += [ScalingPoint("NoCache", racks, n, _nocache(racks, config)),
                   ScalingPoint("Leaf-Cache", racks, n,
                                _leaf_cache(racks, config)),
                   ScalingPoint("Leaf-Spine-Cache", racks, n,
                                _leaf_spine(racks, config))]
    return points


def differing_points(got, want) -> list:
    """(design, racks) of every point whose bits differ, and a length
    mismatch as ``"length"``."""
    if len(got) != len(want):
        return ["length"]
    return [(b.design, b.num_racks) for a, b in zip(got, want)
            if (a.design, a.num_racks, a.num_servers) !=
            (b.design, b.num_racks, b.num_servers)
            or not isinstance(a.throughput, float)
            or a.throughput.hex() != b.throughput.hex()]


@st.composite
def sweeps(draw):
    """(rack_counts, config) of one sweep."""
    num_keys = draw(st.integers(1, 3_000))
    cache_sizes = st.one_of(st.just(0), st.integers(1, 40),
                            st.integers(0, num_keys + 2))
    config = ScalingConfig(
        servers_per_rack=draw(st.integers(1, 16)),
        num_keys=num_keys,
        skew=draw(st.sampled_from([0.5, 0.99, 1.5])),
        server_rate=draw(st.sampled_from([1e5, 1e7])),
        leaf_cache_items=draw(cache_sizes),
        spine_cache_items=draw(cache_sizes),
        rack_uplink_rate=draw(st.sampled_from([4e6, 2e9])),
        partition_seed=draw(st.integers(0, 2 ** 16)),
    )
    rack_counts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    return rack_counts, config


@settings(max_examples=200, deadline=None)
@given(case=sweeps())
def test_sweep_is_bitwise_the_per_rack_loop(case):
    rack_counts, config = case
    try:
        want = reference_sweep(rack_counts, config)
    except ConfigurationError:
        with pytest.raises(ConfigurationError):
            sweep(rack_counts, config)
        return
    assert differing_points(sweep(rack_counts, config), want) == []


def test_off_by_one_group_bounds_are_named(monkeypatch):
    """Sabotage: each rack's run starts one item late, so it takes its
    successor's first item.  The twin must name the cached designs."""
    config = ScalingConfig(servers_per_rack=4, num_keys=5_000,
                           leaf_cache_items=50, spine_cache_items=50)
    racks = [2, 4, 8]
    want = reference_sweep(racks, config)
    assert differing_points(sweep(racks, config), want) == []

    bounds = scaling._group_bounds

    def late(rack_ids, num_racks):
        shifted = bounds(rack_ids, num_racks).copy()
        shifted[1:-1] += 1
        return shifted

    monkeypatch.setattr(scaling, "_group_bounds", late)
    named = differing_points(sweep(racks, config), want)
    assert named
    assert {design for design, _ in named} <= {"Leaf-Cache",
                                               "Leaf-Spine-Cache"}
