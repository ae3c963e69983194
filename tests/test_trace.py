"""Tests for the delivery digest, and the hops a plain delivery hook sees."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.net.packet import make_get
from repro.net.protocol import Op
from repro.net.trace import DeliveryTrace


class TestDeliveryTrace:
    KEY = b"0123456789abcdef"

    def _records(self, n=300, seed=5):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.random(n))
        seqs = rng.permutation(n)
        return times, seqs

    def test_order_independent_multiset(self):
        # Scalar hook feeding in delivery order and a batched note in any
        # permutation must agree: the digest is a multiset invariant.
        times, seqs = self._records()
        scalar = DeliveryTrace()
        hook = scalar.as_hook()
        for t, s in zip(times, seqs):
            hook(t, 1, 2, make_get(1, 2, self.KEY, seq=int(s)))
        batched = DeliveryTrace()
        perm = np.random.default_rng(0).permutation(len(times))
        batched.note_batch(times[perm], 1, 2, int(Op.GET), seqs[perm])
        assert scalar.digest() == batched.digest()
        assert scalar.count == len(times)

    def test_sensitive_to_every_field(self):
        times, seqs = self._records(64)

        def digest(times=times, src=1, dst=2, op=int(Op.GET), seqs=seqs):
            d = DeliveryTrace()
            d.note_batch(times, src, dst, op, seqs)
            return d.digest()

        base = digest()
        assert digest(src=3) != base
        assert digest(dst=3) != base
        assert digest(op=int(Op.GET_REPLY)) != base
        assert digest(seqs=seqs + 1) != base
        assert digest(times=np.nextafter(times, np.inf)) != base  # one ulp

    def test_hook_buffer_flushes_incrementally(self):
        trace = DeliveryTrace()
        hook = trace.as_hook()
        n = DeliveryTrace._BUFFER + 10
        for i in range(n):
            hook(float(i), 1, 2, make_get(1, 2, self.KEY, seq=i))
        assert trace.count == DeliveryTrace._BUFFER  # buffered tail pending
        assert trace.digest().endswith(f":{n}")      # digest() flushes

    def test_attach_records_simulator_deliveries(self, small_cluster,
                                                 small_workload):
        trace = DeliveryTrace().attach(small_cluster.sim)
        client = small_cluster.sync_client()
        client.get(small_workload.hottest_keys(1)[0])
        assert trace.digest().endswith(":2")  # client->tor, tor->client


@pytest.fixture()
def traced(small_cluster, small_workload):
    """The rack with a plain delivery hook recording every hop."""
    hops = []

    def record(time, src, dst, pkt):
        hops.append(SimpleNamespace(dst=dst, op=pkt.op.name, seq=pkt.seq,
                                    key=pkt.key,
                                    served_by_cache=pkt.served_by_cache))

    small_cluster.sim.delivery_hooks.append(record)
    return small_cluster, small_workload, hops


def for_key(hops, key):
    return [hop for hop in hops if hop.key == key]


class TestRecording:
    def test_cache_hit_journey_skips_servers(self, traced):
        cluster, workload, hops = traced
        client = cluster.sync_client()
        hot = workload.hottest_keys(1)[0]
        client.get(hot)
        journey = for_key(hops, hot)
        # client -> switch, switch -> client: exactly two hops.
        assert len(journey) == 2
        assert journey[-1].served_by_cache
        server_ids = set(cluster.servers)
        assert not any(hop.dst in server_ids for hop in journey)

    def test_miss_journey_visits_server(self, traced):
        cluster, workload, hops = traced
        client = cluster.sync_client()
        cold = workload.keyspace.key(workload.popularity.item_at(395))
        client.get(cold)
        journey = for_key(hops, cold)
        assert len(journey) == 4  # client->tor->server->tor->client
        server_ids = set(cluster.servers)
        assert any(hop.dst in server_ids for hop in journey)

    def test_write_journey_includes_cache_update(self, traced):
        cluster, workload, hops = traced
        client = cluster.sync_client()
        hot = workload.hottest_keys(1)[0]
        client.put(hot, b"traced-write")
        cluster.run(0.01)
        ops = {hop.op for hop in for_key(hops, hot)}
        assert "PUT_CACHED" in ops
        assert "CACHE_UPDATE" in ops and "CACHE_UPDATE_ACK" in ops

    def test_journey_by_seq(self, traced):
        cluster, workload, hops = traced
        client = cluster.sync_client()
        client.get(workload.hottest_keys(1)[0])
        seq = hops[0].seq
        assert sum(hop.seq == seq for hop in hops) == 2
