"""Cross-validation: packet-level measurements vs the equilibrium model.

The evaluation leans on two substrates — the discrete-event simulator for
transients/latency and the rate-equilibrium model for full-scale throughput.
This module checks them against each other on configurations small enough
to run packet-by-packet: the model predicts a saturation throughput; the
packet-level rack is then driven *at* that predicted rate (loss should be
negligible — the prediction is feasible) and *above* it (loss must appear —
the prediction is tight), and the cache-hit split must agree.

Used by the test suite (`test_validation.py`) as a standing consistency
check; a change to either substrate that breaks their agreement fails
loudly.
"""

from __future__ import annotations

import dataclasses

from repro.sim.cluster import Cluster, ClusterConfig, default_workload
from repro.sim.ratesim import (
    RateSimConfig,
    RateSimResult,
    mask_from_keys,
    simulate,
)


@dataclasses.dataclass
class ValidationPoint:
    """DES behaviour at one offered load, against the model's prediction."""

    offered: float
    delivered: float
    des_hit_ratio: float
    model_throughput: float
    model_hit_ratio: float

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.offered


def predict(num_servers: int, server_rate: float, workload,
            cached_keys=None) -> RateSimResult:
    """Equilibrium prediction for a small rack (switch never binds)."""
    config = RateSimConfig(
        num_servers=num_servers, server_rate=server_rate,
        switch_rate=1e15, pipe_rate=1e15,
        exact_partition=True,  # match the DES partitioner placement
    )
    mask = None
    if cached_keys is not None:
        mask = mask_from_keys(cached_keys, workload.keyspace)
    return simulate(workload.read_item_probs(), mask, config)


def drive_at(load_factor: float,
             num_servers: int = 8,
             server_rate: float = 10_000.0,
             num_keys: int = 2_000,
             skew: float = 0.99,
             cache_items: int = 100,
             enable_cache: bool = True,
             sim_seconds: float = 0.2,
             seed: int = 0) -> ValidationPoint:
    """Run the packet-level rack at ``load_factor`` x the model's predicted
    saturation throughput and report what it delivered."""
    workload = default_workload(num_keys=num_keys, skew=skew, seed=seed)
    cluster = Cluster(ClusterConfig(
        num_servers=num_servers, server_rate=server_rate,
        enable_cache=enable_cache, cache_items=cache_items,
        lookup_entries=max(256, 2 * cache_items),
        value_slots=max(256, 2 * cache_items),
        server_queue_limit=32, seed=seed,
    ))
    cluster.load_workload_data(workload)
    cached = None
    if enable_cache:
        cluster.warm_cache(workload, cache_items)
        cached = cluster.switch.dataplane.cached_keys()
    model = predict(num_servers, server_rate, workload, cached)

    offered = load_factor * model.throughput
    client = cluster.add_workload_client(workload, rate=offered)
    cluster.run(sim_seconds)
    delivered = client.received / sim_seconds
    hit_ratio = client.cache_hits / max(1, client.received)
    return ValidationPoint(
        offered=offered,
        delivered=delivered,
        des_hit_ratio=hit_ratio,
        model_throughput=model.throughput,
        model_hit_ratio=model.hit_ratio,
    )
