"""Tests for the client library against a live simulated rack."""


class TestSyncClient:
    def test_get_cached(self, small_cluster, small_workload):
        client = small_cluster.sync_client()
        hot = small_workload.hottest_keys(1)[0]
        assert client.get(hot) == small_workload.value_for(hot)
        assert small_cluster.clients[0].cache_hits == 1

    def test_get_uncached(self, small_cluster, small_workload):
        client = small_cluster.sync_client()
        cold = small_workload.keyspace.key(
            small_workload.popularity.item_at(390))
        assert client.get(cold) == small_workload.value_for(cold)
        assert small_cluster.clients[0].cache_hits == 0
        # Of a mixed page of keys, the switch answers exactly the hot ones.
        page = small_workload.hottest_keys(5) + [
            small_workload.keyspace.key(small_workload.popularity.item_at(r))
            for r in (380, 385, 390)]
        for key in page:
            assert client.get(key) == small_workload.value_for(key)
        assert small_cluster.clients[0].cache_hits == 5

    def test_get_missing_key(self, small_cluster, small_workload):
        client = small_cluster.sync_client()
        # A key outside the loaded workload but in keyspace format.
        assert client.get(b"k" + b"9" * 15) is None

    def test_put_then_get(self, small_cluster, small_workload):
        client = small_cluster.sync_client()
        key = small_workload.keyspace.key(5)
        client.put(key, b"fresh")
        assert client.get(key) == b"fresh"

    def test_put_cached_key_read_after_write(self, small_cluster,
                                             small_workload):
        client = small_cluster.sync_client()
        hot = small_workload.hottest_keys(1)[0]
        client.put(hot, b"updated-value")
        assert client.get(hot) == b"updated-value"
        # Two writes in flight to one key land in issue order.
        small_cluster.clients[0].put(hot, b"first-write")
        client.put(hot, b"final-write")
        small_cluster.run(0.05)
        assert client.get(hot) == b"final-write"

    def test_delete(self, small_cluster, small_workload):
        client = small_cluster.sync_client()
        hot = small_workload.hottest_keys(1)[0]
        client.delete(hot)
        assert client.get(hot) is None


class TestAsyncClient:
    def test_callbacks_and_latency(self, small_cluster, small_workload):
        raw = small_cluster.clients[0]
        seen = []
        raw.get(small_workload.hottest_keys(1)[0],
                callback=lambda v, lat: seen.append((v, lat)))
        small_cluster.run(0.01)
        assert len(seen) == 1
        value, latency = seen[0]
        assert value is not None and latency > 0

    def test_outstanding_tracking(self, small_cluster, small_workload):
        raw = small_cluster.clients[0]
        raw.get(small_workload.hottest_keys(1)[0])
        assert raw.outstanding == 1
        small_cluster.run(0.01)
        assert raw.outstanding == 0

    def test_sent_received_counters(self, small_cluster, small_workload):
        raw = small_cluster.clients[0]
        for i in range(5):
            raw.get(small_workload.keyspace.key(i))
        small_cluster.run(0.01)
        assert raw.sent == 5 and raw.received == 5
        assert len(raw.latencies) == 5

    def test_drop_stale(self, small_cluster, small_workload):
        raw = small_cluster.clients[0]
        raw.get(small_workload.keyspace.key(0))
        dropped = raw.drop_stale(older_than=float("inf"))
        assert dropped == 1 and raw.outstanding == 0


class TestLatencySplit:
    def test_hits_faster_than_misses(self, small_cluster, small_workload):
        client = small_cluster.sync_client()
        raw = small_cluster.clients[0]
        hot = small_workload.hottest_keys(1)[0]
        cold = small_workload.keyspace.key(
            small_workload.popularity.item_at(395))
        client.get(hot)
        hit_latency = raw.latencies[-1]
        client.get(cold)
        miss_latency = raw.latencies[-1]
        # Cache hits skip the server: strictly lower latency (Fig 10c).
        assert hit_latency < miss_latency
