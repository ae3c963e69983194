"""Controller hardening tests: failure detector wiring, skip-dead
admission, insertion leases, and degraded-key recovery — driven on a real
simulated rack so probes, leases, and RPC latencies follow the clock."""

from repro.core.controller import CacheController
from repro.sim.cluster import Cluster, ClusterConfig, default_workload


def build(**overrides):
    cfg = ClusterConfig(num_servers=2, cache_items=8, lookup_entries=64,
                        value_slots=64, controller_update_interval=0.002,
                        **overrides)
    cluster = Cluster(cfg)
    workload = default_workload(num_keys=50, skew=0.99, write_ratio=0.0)
    cluster.load_workload_data(workload)
    return cluster, workload


class TestFailureDetector:
    def test_crash_is_detected_and_recovered(self):
        cluster, _ = build()
        controller = cluster.controller
        cluster.start_controller()
        sid = cluster.plan.server_ids[0]
        cluster.crash_server(sid)
        # threshold(3) * heartbeat(5ms) rounds declare it dead.
        cluster.run(0.03)
        assert not controller.detector.is_alive(sid)
        assert controller.detector.deaths == 1
        cluster.restart_server(sid)
        cluster.run(0.01)
        assert controller.detector.is_alive(sid)
        assert controller.detector.recoveries == 1
        assert controller.detector.failover_latencies[0] > 0

    def test_partition_counts_as_dead(self):
        # The control-plane probe goes over the ToR link: a partitioned
        # server is as dead to the controller as a crashed one.
        cluster, _ = build()
        cluster.start_controller()
        sid = cluster.plan.server_ids[0]
        cluster.partition_node(sid)
        cluster.run(0.03)
        assert not cluster.controller.detector.is_alive(sid)
        cluster.heal_node(sid)
        cluster.run(0.01)
        assert cluster.controller.detector.is_alive(sid)


class TestSkipDeadAdmission:
    def test_insertions_skip_dead_owner(self):
        cluster, workload = build()
        controller = cluster.controller
        cluster.start_controller()
        sid = cluster.plan.server_ids[0]
        cluster.crash_server(sid)
        cluster.run(0.03)  # detector declares sid dead
        assert not controller.detector.is_alive(sid)
        # Report keys owned by the dead server hot: none may be admitted.
        owned = [workload.keyspace.key(i) for i in range(50)
                 if cluster.partitioner.server_for(
                     workload.keyspace.key(i)) == sid]
        before = controller.insertions
        for key in owned[:4]:
            controller.report_hot_key(key)
        cluster.run(0.01)
        assert controller.insertions == before
        assert controller.skipped_dead >= 1


class TestInsertionLeases:
    def test_normal_insertion_completes_its_lease(self):
        cluster, workload = build()
        controller = cluster.controller
        cluster.start_controller()
        key = workload.hottest_keys(1)[0]
        controller.report_hot_key(key)
        cluster.run(0.01)
        assert controller.insertions == 1
        assert controller.leases.completed == 1
        assert len(controller.leases) == 0
        # Blocked writes released: a write round-trips normally.
        sync = cluster.sync_client(timeout=0.5)
        sync.put(key, b"fresh-value")
        assert sync.get(key) == b"fresh-value"

    def test_crash_inside_window_aborts_lease(self):
        cluster, workload = build()
        controller = cluster.controller
        cluster.start_controller()
        key = workload.hottest_keys(1)[0]
        sid = cluster.partitioner.server_for(key)
        controller.report_hot_key(key)
        # Run exactly to the first update tick, then crash the owner inside
        # the insertion_latency completion window.
        cluster.run(0.00201)
        assert len(controller.leases) == 1
        cluster.crash_server(sid)
        # Crash outlasts the lease; the reaper aborts once the server is
        # back (the abort RPC needs it reachable).
        cluster.run(0.05)
        cluster.restart_server(sid)
        cluster.run(0.05)
        assert controller.insertion_aborts == 1
        assert len(controller.leases) == 0
        assert not cluster.switch.dataplane.is_cached(key)
        server = cluster.servers[sid]
        assert server.shim.insertion_aborts == 1
        assert server.shim.blocked_writes == 0

    def test_lease_timeout_must_exceed_insertion_latency(self):
        # A lease that expired before its insertion completes would abort
        # every insertion.
        assert (CacheController.LEASE_TIMEOUT
                > CacheController.INSERTION_LATENCY)


class TestDegradedRecovery:
    def _force_degraded(self, cluster, workload):
        """Drive a key into write-around mode by exhausting its shim's
        update retries against a switch that never acks."""
        controller = cluster.controller
        cluster.start_controller()
        key = workload.hottest_keys(1)[0]
        controller.report_hot_key(key)
        cluster.run(0.01)  # key is now cached
        assert cluster.switch.dataplane.is_cached(key)
        sid = cluster.partitioner.server_for(key)
        server = cluster.servers[sid]
        server.shim.max_update_retries = 2
        # Swallow CACHE_UPDATEs at the switch so acks never come back.
        original = cluster.switch.handle_packet

        def drop_updates(pkt):
            from repro.net.protocol import Op
            if pkt.op == Op.CACHE_UPDATE:
                return
            original(pkt)

        cluster.switch.handle_packet = drop_updates
        sync = cluster.sync_client(timeout=0.5)
        sync.put(key, b"write-around-1")
        cluster.run(0.01)
        cluster.switch.handle_packet = original
        return key, server

    def test_degraded_key_evicted_and_recovered(self):
        cluster, workload = build()
        key, server = self._force_degraded(cluster, workload)
        assert server.shim.degraded_entries == 1
        # Controller evicted the stale switch entry and acked the shim.
        cluster.run(0.02)
        assert not cluster.switch.dataplane.is_cached(key)
        assert cluster.controller.degraded_evictions == 1
        assert key not in server.shim.degraded_keys
        assert server.shim.degraded_recovered == 1
        # Post-recovery writes flow as plain uncached writes.
        sync = cluster.sync_client(timeout=0.5)
        sync.put(key, b"after-recovery")
        assert sync.get(key) == b"after-recovery"

    def test_degraded_report_queued_while_controller_stalled(self):
        cluster, workload = build()
        controller = cluster.controller
        cluster.start_controller()
        cluster.stall_controller()
        sid = cluster.plan.server_ids[0]
        controller.report_degraded_key(sid, b"k" * 16)
        assert controller.degraded_evictions == 0  # queued, not processed
        cluster.resume_controller()
        assert controller.degraded_evictions == 1
        cluster.run(0.01)
        # Ack delivered after resume (key was never degraded: no-op clear).
        assert cluster.servers[sid].shim.degraded_recovered == 0
