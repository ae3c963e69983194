"""Integration: the write-through coherence protocol under adversity
(packet loss, write bursts, concurrent cache updates)."""

from repro.sim.cluster import Cluster, ClusterConfig, default_workload


def lossy_cluster(loss, seed=5):
    workload = default_workload(num_keys=200, skew=0.99, seed=seed,
                                value_size=32)
    cluster = Cluster(ClusterConfig(
        num_servers=4, cache_items=16, lookup_entries=256, value_slots=256,
        link_loss=loss, seed=seed,
    ))
    cluster.load_workload_data(workload)
    cluster.warm_cache(workload, 16)
    return cluster, workload


class TestLossyLinks:
    def test_cache_update_survives_loss(self):
        cluster, workload = lossy_cluster(loss=0.2)
        hot = workload.hottest_keys(1)[0]
        raw = cluster.clients[0]
        # Issue a put; retransmissions must eventually update the switch.
        done = []
        for attempt in range(20):
            raw.put(hot, b"NEWVALUE", callback=lambda v, l: done.append(1))
            cluster.run(0.05)
            if done:
                break
        assert done, "put reply lost 20 times in a row (loss=0.2?)"
        cluster.run(0.2)  # let retries finish
        server = cluster.servers[cluster.partitioner.server_for(hot)]
        assert server.store.get(hot) == b"NEWVALUE"
        cached = cluster.switch.dataplane.read_cached_value(hot)
        assert cached in (None, b"NEWVALUE")  # never a stale value
        assert server.shim.retransmissions >= 0

    def test_retransmission_counter_moves_under_loss(self):
        cluster, workload = lossy_cluster(loss=0.4, seed=11)
        hot = workload.hottest_keys(1)[0]
        raw = cluster.clients[0]
        for i in range(10):
            raw.put(hot, bytes([i + 1]) * 8)
        cluster.run(0.5)
        server = cluster.servers[cluster.partitioner.server_for(hot)]
        assert server.shim.updates_sent > server.shim.updates_acked or \
            server.shim.retransmissions > 0 or server.shim.updates_acked > 0


class TestWriteBursts:
    def test_rapid_writes_serialize_and_converge(self):
        cluster, workload = lossy_cluster(loss=0.0)
        hot = workload.hottest_keys(1)[0]
        raw = cluster.clients[0]
        for i in range(20):
            raw.put(hot, bytes([i + 1]) * 16)
        cluster.run(0.5)
        server = cluster.servers[cluster.partitioner.server_for(hot)]
        final = bytes([20]) * 16
        assert server.store.get(hot) == final
        cached = cluster.switch.dataplane.read_cached_value(hot)
        assert cached in (None, final)
        assert server.shim.pending_updates == 0
        # Read-after-burst returns the last write.
        assert cluster.sync_client().get(hot) == final

    def test_interleaved_writes_two_keys(self):
        cluster, workload = lossy_cluster(loss=0.0)
        k1, k2 = workload.hottest_keys(2)
        raw = cluster.clients[0]
        for i in range(5):
            raw.put(k1, bytes([i + 1]) * 8)
            raw.put(k2, bytes([i + 101]) * 8)
        cluster.run(0.3)
        client = cluster.sync_client()
        assert client.get(k1) == bytes([5]) * 8
        assert client.get(k2) == bytes([105]) * 8


class TestReadsDuringWrites:
    def test_read_between_invalidate_and_update_goes_to_server(self):
        cluster, workload = lossy_cluster(loss=0.0)
        hot = workload.hottest_keys(1)[0]
        raw = cluster.clients[0]
        results = []
        raw.put(hot, b"FRESH-VALUE!")
        # Immediately race a read; whatever it returns must be the old or
        # the new value, never garbage, and after settling it's the new.
        raw.get(hot, callback=lambda v, l: results.append(v))
        cluster.run(0.2)
        assert results[0] in (workload.value_for(hot), b"FRESH-VALUE!")
        assert cluster.sync_client().get(hot) == b"FRESH-VALUE!"
