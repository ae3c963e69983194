"""Integration: a full rack under load, cache vs no cache."""

import numpy as np

from repro.sim.cluster import Cluster, ClusterConfig, default_workload


def run_rack(enable_cache, seconds=0.08, rate=150_000.0, seed=7):
    workload = default_workload(num_keys=2_000, skew=0.99, seed=seed)
    cluster = Cluster(ClusterConfig(
        num_servers=8, server_rate=10_000.0, enable_cache=enable_cache,
        cache_items=100, lookup_entries=1024, value_slots=1024,
        server_queue_limit=64, seed=seed,
    ))
    cluster.load_workload_data(workload)
    if enable_cache:
        cluster.warm_cache(workload, 100)
    client = cluster.add_workload_client(workload, rate=rate)
    cluster.run(seconds)
    return cluster, client


class TestThroughputUnderSkew:
    def test_cache_serves_most_hot_traffic(self):
        cluster, client = run_rack(enable_cache=True)
        hit_ratio = client.cache_hits / max(1, client.received)
        # Zipf 0.99 over 2000 keys: top-100 mass is ~60%.
        assert hit_ratio > 0.4

    def test_netcache_delivers_more_than_nocache(self):
        _, cached = run_rack(enable_cache=True)
        _, plain = run_rack(enable_cache=False)
        assert cached.received > 1.5 * plain.received

    def test_nocache_drops_under_skew(self):
        cluster, client = run_rack(enable_cache=False)
        drops = sum(s.drops for s in cluster.servers.values())
        assert drops > 0  # bottleneck server's queue overflows

    def test_server_load_flatter_with_cache(self):
        cached_cluster, _ = run_rack(enable_cache=True)
        plain_cluster, _ = run_rack(enable_cache=False)

        def imbalance(cluster):
            # Offered load (received), not processed: saturated servers
            # drop the excess, which would hide the skew.
            loads = np.array([s.received
                              for s in cluster.servers.values()], float)
            return loads.max() / max(1.0, loads.mean())

        assert imbalance(cached_cluster) < imbalance(plain_cluster)


class TestLatencyUnderLoad:
    def test_hits_bypass_servers(self):
        cluster, client = run_rack(enable_cache=True, rate=20_000.0)
        lat = np.array(client.latencies)
        assert lat.size > 500
        # Bimodal: a fast mode (switch) and a slow mode (server).
        fast = np.percentile(lat, 25)
        slow = np.percentile(lat, 90)
        assert slow > 2 * fast


class TestStatisticsPipelineLive:
    def test_controller_caches_emergent_hot_key(self):
        workload = default_workload(num_keys=500, skew=0.99, seed=9)
        cluster = Cluster(ClusterConfig(
            num_servers=4, server_rate=50_000.0, cache_items=16,
            lookup_entries=256, value_slots=256, hot_threshold=4,
            controller_update_interval=0.005, seed=9,
        ))
        cluster.load_workload_data(workload)
        cluster.start_controller()
        # Cold cache; hammer one key through the real client.
        hot = workload.keyspace.key(123)
        raw = cluster.clients[0]
        for i in range(30):
            cluster.sim.schedule(i * 1e-4, raw.get, hot)
        cluster.run(0.1)
        assert cluster.switch.dataplane.is_cached(hot)
        # Subsequent reads are served by the switch.
        assert cluster.sync_client().get(hot) == workload.value_for(hot)
        assert raw.cache_hits >= 1
