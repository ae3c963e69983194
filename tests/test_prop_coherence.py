"""Property-based end-to-end coherence test.

Any interleaving of Get/Put/Delete issued by a client must observe
dict semantics (read-your-writes), no matter which keys happen to be
cached, invalidated, or mid-update — the write-through protocol's whole
job.  Afterwards, every *valid* cached value must equal the owning
server's value (no stale entries survive).

The delivery observers behind the chaos suite take rows one at a time or
in batches; both feeds must leave them in the same state.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.coherence import CoherenceMonitor
from repro.faults import ChaosConfig, ChaosRunner
from repro.faults.invariants import WriteDurabilityInvariant
from repro.net.protocol import Op
from repro.net.simulator import DeliveryRows, Simulator, delivery_row
from repro.sim.cluster import Cluster, ClusterConfig, default_workload

NUM_KEYS = 24


def build_cluster():
    workload = default_workload(num_keys=NUM_KEYS, skew=0.99, seed=3,
                                value_size=32)
    cluster = Cluster(ClusterConfig(
        num_servers=4, cache_items=8, lookup_entries=128, value_slots=128,
        seed=3,
    ))
    cluster.load_workload_data(workload)
    cluster.warm_cache(workload, 8)
    return cluster, workload


operations = st.lists(
    st.tuples(
        st.sampled_from(["get", "put", "delete"]),
        st.integers(0, NUM_KEYS - 1),
        st.integers(0, 7),
    ),
    max_size=40,
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(operations)
def test_client_sees_dict_semantics(op_list):
    cluster, workload = build_cluster()
    client = cluster.sync_client(timeout=5.0)
    model = {
        workload.keyspace.key(i): workload.value_for(workload.keyspace.key(i))
        for i in range(NUM_KEYS)
    }
    for kind, key_idx, value_idx in op_list:
        key = workload.keyspace.key(key_idx)
        if kind == "get":
            assert client.get(key) == model.get(key)
        elif kind == "put":
            value = bytes([value_idx + 1]) * 16
            client.put(key, value)
            model[key] = value
        else:
            client.delete(key)
            model.pop(key, None)

    # Drain in-flight coherence traffic, then audit the cache directly.
    cluster.run(0.05)
    dataplane = cluster.switch.dataplane
    for key in dataplane.cached_keys():
        cached = dataplane.read_cached_value(key)
        if cached is None:
            continue  # invalid entry: served by the server, always safe
        owner = cluster.servers[cluster.partitioner.server_for(key)]
        assert cached == owner.store.get(key)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(operations)
def test_no_pending_updates_leak(op_list):
    cluster, workload = build_cluster()
    client = cluster.sync_client(timeout=5.0)
    for kind, key_idx, value_idx in op_list:
        key = workload.keyspace.key(key_idx)
        if kind == "put":
            client.put(key, bytes([value_idx + 1]) * 8)
        elif kind == "delete":
            client.delete(key)
        else:
            client.get(key)
    cluster.run(0.1)
    for server in cluster.servers.values():
        assert server.shim.pending_updates == 0
        assert server.shim.blocked_writes == 0


@pytest.fixture(scope="module")
def recorded_stream():
    """Every delivery of a small mixed rack whose clients retry (writes
    are retransmitted and deduplicated), as ``(time, src, dst, packet)``
    with the packet copied as delivered; and the rack.  Every fifth read
    reply of a written key is given a value no write made, so the stream
    carries stale reads as well."""
    runner = ChaosRunner(ChaosConfig(
        seed=5, duration=0.02, drain=0.02, retries=True,
        write_ratio=0.3, rate=50_000.0, retry_timeout=9e-6, retry_max=20,
        retry_backoff=1.0))
    stream = []
    runner.cluster.sim.delivery_hooks.append(
        lambda t, src, dst, pkt: stream.append((t, src, dst, pkt.copy())))
    runner.run()
    written = {pkt.key for _, _, _, pkt in stream if pkt.op == Op.PUT}
    replies = [pkt for _, _, _, pkt in stream
               if pkt.op == Op.GET_REPLY and pkt.key in written]
    for pkt in replies[::5]:
        pkt.value = b"never-written"
    return tuple(stream), runner.cluster


def observers(cluster):
    """A fresh monitor and durability checker, on a simulator of their
    own; the checker audits *cluster*'s stores at quiesce."""
    monitor = CoherenceMonitor(Simulator())
    durability = WriteDurabilityInvariant().bind(SimpleNamespace(
        sim=Simulator(), partitioner=cluster.partitioner,
        servers=cluster.servers))
    return monitor, durability


def outcome(monitor, durability):
    found = []
    durability.on_quiesce(1.0, lambda *violation: found.append(violation))
    return (monitor.violations, monitor.reads_checked, monitor.writes_seen,
            found)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_batch_feed_matches_the_row_feed(recorded_stream, data):
    stream, cluster = recorded_stream
    by_row = observers(cluster)
    for delivery in stream:
        for observer in by_row:
            observer(*delivery)
    rows = [delivery_row(*delivery) for delivery in stream]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)),
                                     max_size=40)))
    batched = observers(cluster)
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        chunk = DeliveryRows(*map(list, zip(*rows[lo:hi]))) if hi > lo \
            else DeliveryRows(*[[]] * len(DeliveryRows._fields))
        for observer in batched:
            observer.on_delivery_batch(chunk)
    expected = outcome(*by_row)
    assert outcome(*batched) == expected
    violations, reads_checked, writes_seen, _ = expected
    assert violations and reads_checked and writes_seen
