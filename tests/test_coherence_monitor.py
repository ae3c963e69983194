"""Tests for the runtime coherence monitor — and, through it, the
write-through protocol under stress."""

from repro.analysis.coherence import CoherenceMonitor
from repro.sim.cluster import Cluster, ClusterConfig, default_workload


def rig(loss=0.0, seed=8):
    workload = default_workload(num_keys=200, skew=0.99, seed=seed,
                                value_size=32)
    cluster = Cluster(ClusterConfig(
        num_servers=4, cache_items=16, lookup_entries=256, value_slots=256,
        link_loss=loss, seed=seed,
    ))
    cluster.load_workload_data(workload)
    cluster.warm_cache(workload, 16)
    monitor = CoherenceMonitor(cluster.sim)
    return cluster, workload, monitor


class TestCleanRuns:
    def test_read_only_clean(self):
        cluster, workload, monitor = rig()
        client = cluster.sync_client()
        for key in workload.hottest_keys(10):
            client.get(key)
        assert monitor.clean
        # Reads of never-written keys are not even checked.
        assert monitor.reads_checked == 0

    def test_write_storm_clean(self):
        cluster, workload, monitor = rig()
        raw = cluster.clients[0]
        keys = workload.hottest_keys(4)
        results = []
        for i in range(40):
            key = keys[i % 4]
            raw.put(key, bytes([i + 1]) * 8)
            raw.get(key, callback=lambda v, l: results.append(v))
        cluster.run(0.5)
        assert monitor.reads_checked >= 30
        assert monitor.clean, monitor.violations[:3]

    def test_write_storm_with_loss_clean(self):
        cluster, workload, monitor = rig(loss=0.15, seed=12)
        raw = cluster.clients[0]
        keys = workload.hottest_keys(3)
        for i in range(30):
            key = keys[i % 3]
            raw.put(key, bytes([i + 1]) * 8)
            if i % 2:
                raw.get(key)
        cluster.run(1.0)
        assert monitor.clean, monitor.violations[:3]

    def test_deletes_clean(self):
        cluster, workload, monitor = rig()
        client = cluster.sync_client()
        hot = workload.hottest_keys(1)[0]
        client.delete(hot)
        assert client.get(hot) is None
        client.put(hot, b"back")
        assert client.get(hot) == b"back"
        assert monitor.clean


class TestDetection:
    def test_monitor_catches_manufactured_staleness(self):
        # Sabotage the switch: after a committed write, force the *old*
        # value back into the cache behind the protocol's back.  The
        # monitor must flag the stale serve — proving the clean results
        # above are meaningful.
        cluster, workload, monitor = rig()
        client = cluster.sync_client()
        hot = workload.hottest_keys(1)[0]
        old_value = workload.value_for(hot)
        client.put(hot, b"THE-NEW-VALUE")
        cluster.run(0.05)
        dataplane = cluster.switch.dataplane
        dataplane.evict(hot)
        server_id = cluster.partitioner.server_for(hot)
        assert dataplane.install(hot, old_value,
                                 cluster.switch.egress_port_of(server_id))
        got = client.get(hot)
        assert got == old_value  # the sabotage worked...
        assert not monitor.clean  # ...and the monitor saw it
        violation = monitor.violations[0]
        assert violation.key == hot
        assert violation.served_by_cache
