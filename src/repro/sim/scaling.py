"""Multi-rack scaling simulation (§5 "Scaling to multiple racks", Fig 10f).

The paper simulates scaling NetCache from one rack to 32 racks (4 096
servers) under three designs:

* **NoCache** — hash-partitioned servers only; the hottest server bottlenecks
  the whole system, so throughput barely grows with more servers;
* **Leaf-Cache** — each ToR caches the hottest items *of its own rack*.
  Racks are internally balanced, but "the load imbalance between racks still
  exists": queries to a rack's hot items still converge on that rack, and the
  rack's ingress capacity (its uplinks / upstream pipes) is fixed, so the
  hottest rack saturates while others idle;
* **Leaf-Spine-Cache** — spine switches additionally cache the globally
  hottest items, absorbing inter-rack skew before it reaches any rack;
  throughput grows linearly with servers.

This follows the paper's simulation assumptions: read-only workload and
switch caches that fully absorb queries to the items they hold.

Hot sets.  The spine's is the ``spine_cache_items`` largest probabilities,
chosen once per :func:`sweep`.  Items are grouped by rack once per rack
count (a stable argsort of the rack ids, runs bounded by a ``bincount``
``cumsum``) for both cache designs, and each leaf's hot set is its run's
``leaf_cache_items`` largest loads, by ``argpartition``.  That is exact:
racks are disjoint, so a rack's residual depends only on which of its
items it zeroes; Zipf probabilities (skew > 0) are distinct, so the hot
set is unique up to items a higher tier already zeroed; and every
``bincount`` runs over the full per-item arrays in item order
(``tests/test_prop_scaling.py`` keeps the per-rack ``argsort`` loop).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from repro.constants import PIPE_RATE, SERVER_RATE
from repro.client.zipf import ZipfDistribution
from repro.errors import ConfigurationError
from repro.sim.ratesim import fast_partition_vector


@dataclasses.dataclass(frozen=True)
class ScalingConfig:
    """Parameters of the Fig 10(f) sweep."""

    servers_per_rack: int = 128
    num_keys: int = 1_000_000
    skew: float = 0.99
    server_rate: float = SERVER_RATE
    #: items each ToR can absorb for its rack.
    leaf_cache_items: int = 10_000
    #: globally-hottest items the spine tier absorbs.
    spine_cache_items: int = 10_000
    #: a rack's ingress capacity: two upstream egress pipes' worth of
    #: replies (the single-rack plateau of Fig 10c).
    rack_uplink_rate: float = 2 * PIPE_RATE
    partition_seed: int = 0x5EED

    def __post_init__(self):
        if self.servers_per_rack <= 0 or self.num_keys <= 0:
            raise ConfigurationError("rack and key space must be non-empty")
        if self.leaf_cache_items < 0 or self.spine_cache_items < 0:
            raise ConfigurationError("cache sizes must be non-negative")


@dataclasses.dataclass
class ScalingPoint:
    """One (design, rack count) result."""

    design: str
    num_racks: int
    num_servers: int
    throughput: float


def _probs(config: ScalingConfig) -> np.ndarray:
    return ZipfDistribution(config.num_keys, config.skew).probs


def _top(values: np.ndarray, k: int) -> np.ndarray:
    """Indexes of the *k* largest *values* (all of them if k >= len)."""
    if k >= len(values):
        return np.arange(len(values))
    return np.argpartition(values, -k)[-k:] if k else np.empty(0, np.intp)


def _after_spine(probs: np.ndarray, config: ScalingConfig) -> np.ndarray:
    """Per-item load the spine tier leaves to the racks."""
    load = probs.copy()
    load[_top(probs, config.spine_cache_items)] = 0.0
    return load


def _group_bounds(racks: np.ndarray, num_racks: int) -> np.ndarray:
    """Each rack's run's start in the stable rack order, then the end."""
    counts = np.bincount(racks, minlength=num_racks)
    return np.concatenate(([0], np.cumsum(counts)))


class _Racks:
    """One rack count's item -> server and item -> rack maps (the rack ids
    in their narrowest dtype), and each rack's items in item order."""

    def __init__(self, num_racks: int, config: ScalingConfig):
        self.config = config
        self.part = fast_partition_vector(config.num_keys,
                                          num_racks * config.servers_per_rack,
                                          config.partition_seed)
        self.racks = (self.part // config.servers_per_rack
                      ).astype(np.min_scalar_type(num_racks - 1))
        order = np.argsort(self.racks, kind="stable")
        self.groups = np.split(order, _group_bounds(self.racks,
                                                    num_racks)[1:-1])

    def nocache(self, probs: np.ndarray) -> float:
        per_server = np.bincount(self.part, weights=probs, minlength=len(
            self.groups) * self.config.servers_per_rack)
        return float(self.config.server_rate / per_server.max())

    def cached(self, load: np.ndarray) -> float:
        """Two constraints per rack: (i) its servers carry the load the
        ToR leaves (its rack's top items absorbed), evenly because the
        leaf cache balanced the rack; (ii) *all* of the rack's query
        replies — cache hits included — leave through the rack's
        fixed-capacity uplinks, so the rack with the most demand binds."""
        config, residual = self.config, load.copy()
        for items in self.groups:
            residual[items[_top(load[items], config.leaf_cache_items)]] = 0.0
        rack_demand, rack_residual = (
            np.bincount(self.racks, weights=w, minlength=len(self.groups))
            for w in (load, residual))
        bounds = []
        if rack_demand.max() > 0:
            bounds.append(config.rack_uplink_rate / rack_demand.max())
        per_server_worst = rack_residual.max() / config.servers_per_rack
        if per_server_worst > 0:
            bounds.append(config.server_rate / per_server_worst)
        if not bounds:
            raise ConfigurationError("caches absorbed the entire workload")
        return float(min(bounds))


def sweep(rack_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
          config: ScalingConfig = ScalingConfig()) -> List[ScalingPoint]:
    """Run all three designs over *rack_counts* (the Fig 10f series)."""
    probs = _probs(config)
    after_spine = _after_spine(probs, config)
    points: List[ScalingPoint] = []
    for num_racks in rack_counts:
        n = num_racks * config.servers_per_rack
        racks = _Racks(num_racks, config)
        points += [ScalingPoint("NoCache", num_racks, n, racks.nocache(probs)),
                   ScalingPoint("Leaf-Cache", num_racks, n,
                                racks.cached(probs)),
                   ScalingPoint("Leaf-Spine-Cache", num_racks, n,
                                racks.cached(after_spine))]
        del racks   # not alive while the next rack count's is built
    return points
