"""Switch failure/reboot (§3): the cache is not critical state.

"If the switch fails, operators can simply reboot the switch with an empty
cache ... Because NetCache caches are small, they will refill rapidly."
"""

import pytest

from repro.sim.cluster import Cluster, ClusterConfig, default_workload


@pytest.fixture()
def rig():
    workload = default_workload(num_keys=500, skew=0.99, seed=6)
    cluster = Cluster(ClusterConfig(
        num_servers=4, cache_items=32, lookup_entries=256, value_slots=256,
        hot_threshold=4, controller_update_interval=0.005, seed=6,
    ))
    cluster.load_workload_data(workload)
    cluster.warm_cache(workload, 32)
    return cluster, workload


class TestReboot:
    def test_reboot_empties_cache(self, rig):
        cluster, _ = rig
        dropped = cluster.switch.reboot()
        assert dropped == 32
        assert cluster.switch.dataplane.cache_size() == 0

    def test_no_data_loss(self, rig):
        cluster, workload = rig
        client = cluster.sync_client()
        hot = workload.hottest_keys(1)[0]
        client.put(hot, b"critical-write")
        cluster.switch.reboot()
        # The write survives on the server; reads are served from there.
        assert client.get(hot) == b"critical-write"
        assert cluster.clients[0].cache_hits <= 1  # pre-reboot hit at most

    def test_statistics_cleared_on_reboot(self, rig):
        cluster, workload = rig
        client = cluster.sync_client()
        client.get(workload.hottest_keys(1)[0])
        cluster.switch.reboot()
        stats = cluster.switch.dataplane.stats
        assert stats.sketch.total_updates == 0

    def test_cache_refills_after_reboot(self, rig):
        cluster, workload = rig
        cluster.start_controller()
        cluster.switch.reboot()
        assert cluster.switch.dataplane.cache_size() == 0
        # Resume traffic: the HH detector re-reports, controller refills.
        raw = cluster.clients[0]
        hot_keys = workload.hottest_keys(5)
        for i in range(60):
            cluster.sim.schedule(i * 2e-4, raw.get, hot_keys[i % 5])
        cluster.run(0.1)
        dataplane = cluster.switch.dataplane
        assert dataplane.cache_size() >= 5
        assert all(dataplane.is_cached(k) for k in hot_keys)

    def test_reboot_keeps_pipe_memory_consistent(self, rig):
        cluster, workload = rig
        cluster.switch.reboot()
        for mm in cluster.switch.dataplane.layout.memory:
            assert mm.used_slots == 0
            assert len(mm) == 0
        # Memory is immediately reusable.
        hot = workload.hottest_keys(1)[0]
        server_id = cluster.partitioner.server_for(hot)
        assert cluster.switch.install(hot, b"refill", server_id)
