"""Chaos integration: correlated failures against a live rack.

The two scenarios the paper's correctness story hinges on (§3, §4.3):

* a switch reboot in the middle of a write burst must converge with zero
  stale reads — the cache is not critical state;
* a partition between a storage server's shim and the switch must leave
  retry-until-ack spinning until the heal, after which the new value is
  installed and acknowledged.
"""

from repro.faults import (
    ChaosConfig,
    ChaosRunner,
    InvariantSuite,
    run_chaos,
)
from repro.faults.invariants import StaleReadInvariant
from repro.sim.cluster import Cluster, ClusterConfig, default_workload


def build_rig(seed=8, loss=0.0):
    workload = default_workload(num_keys=200, skew=0.99, seed=seed,
                                value_size=32)
    cluster = Cluster(ClusterConfig(
        num_servers=4, cache_items=16, lookup_entries=256, value_slots=256,
        hot_threshold=4, controller_update_interval=0.005, link_loss=loss,
        seed=seed,
    ))
    cluster.load_workload_data(workload)
    cluster.warm_cache(workload, 16)
    for server in cluster.servers.values():
        server.shim.max_update_retries = 5_000
    return cluster, workload


class TestRebootMidWriteBurst:
    def test_converges_with_zero_stale_reads(self):
        cluster, workload = build_rig()
        cluster.start_controller()
        suite = InvariantSuite(cluster, interval=0.002)
        suite.start()
        hot_keys = workload.hottest_keys(4)
        raw = cluster.clients[0]
        # A write burst with the reboot landing in the middle of it.
        for i in range(30):
            for j, key in enumerate(hot_keys):
                cluster.sim.schedule(i * 1e-4, raw.put, key,
                                     bytes([i + 1, j + 1]) * 8)
        cluster.sim.schedule(1.5e-3, cluster.reboot_switch)
        cluster.run(0.05)
        # Every key converged to the last written value, on the server...
        client = cluster.sync_client()
        for j, key in enumerate(hot_keys):
            assert client.get(key) == bytes([30, j + 1]) * 8
        cluster.run(0.05)  # drain the reads' own cache updates
        # ...and the invariants (incl. the stale-read monitor) stayed clean.
        violations = suite.finalize()
        assert violations == [], [v.describe() for v in violations]

    def test_runner_reboot_scenario_is_clean(self):
        report = run_chaos("reboot", seed=8, duration=0.3,
                           write_ratio=0.2)
        assert report.clean
        assert report.faults_injected == 1
        assert report.recovery_time is not None

    def test_cache_refills_after_chaos_reboot(self):
        config = ChaosConfig(seed=9, duration=0.4, write_ratio=0.0)
        runner = ChaosRunner(config)
        runner.schedule.reboot_switch(0.1)
        runner.injector = runner.injector.__class__(runner.cluster,
                                                   runner.schedule)
        report = runner.run()
        assert report.clean
        # Heavy-hitter reports refilled the cache after the wipe.
        assert runner.cluster.switch.dataplane.cache_size() > 0


class TestShimSwitchPartition:
    def test_retry_until_ack_installs_after_heal(self):
        cluster, workload = build_rig()
        hot = workload.hottest_keys(1)[0]
        server_id = cluster.partitioner.server_for(hot)
        server = cluster.servers[server_id]
        raw = cluster.clients[0]

        acked = []
        raw.put(hot, b"SURVIVES-SPLIT", callback=lambda v, l: acked.append(1))
        # Step until the shim has sent its CACHE_UPDATE but before the ack
        # returns, then cut the server<->switch cable: the ack and every
        # retry drop.  (The client still gets its reply: §4.3 acks the
        # write before the switch copy updates.)
        cluster.sim.start()
        while server.shim.pending_updates == 0:
            assert cluster.sim.events.step(), "update never started"
        cluster.partition_node(server_id)
        cluster.run(0.01)
        assert acked, "client reply should precede the partition"
        assert server.shim.retransmissions > 10
        assert server.shim.pending_updates == 1
        # The first update copy may have crossed before the cut (only the
        # ack dropped); either way the old value must never serve.
        mid_split = cluster.switch.dataplane.read_cached_value(hot)
        assert mid_split in (None, b"SURVIVES-SPLIT")

        cluster.heal_node(server_id)
        cluster.run(0.01)
        # After the heal the retry loop lands the value on the switch.
        assert server.shim.pending_updates == 0
        assert server.shim.updates_acked >= 1
        assert cluster.switch.dataplane.read_cached_value(hot) == \
            b"SURVIVES-SPLIT"

    def test_reads_served_by_store_during_partition_of_update_path(self):
        cluster, workload = build_rig()
        suite = InvariantSuite(cluster,
                               checkers=[StaleReadInvariant()])
        suite.start()
        hot = workload.hottest_keys(1)[0]
        server_id = cluster.partitioner.server_for(hot)
        raw = cluster.clients[0]
        raw.put(hot, b"NEW-DURING-SPLIT")
        cluster.run(0.001)
        cluster.partition_node(server_id)
        cluster.run(0.005)
        # The owning server is unreachable, so reads of *other* servers'
        # keys still flow; reads of the hot key can't complete — but no
        # reply that does arrive may be stale.
        other = next(k for k in workload.hottest_keys(16)
                     if cluster.partitioner.server_for(k) != server_id)
        client = cluster.sync_client()
        assert client.get(other) is not None
        cluster.heal_node(server_id)
        cluster.run(0.02)
        assert client.get(hot) == b"NEW-DURING-SPLIT"
        cluster.run(0.02)
        assert suite.finalize() == []

    def test_runner_partition_scenario_retries_and_recovers(self):
        config = ChaosConfig(seed=13, duration=0.4, write_ratio=0.3,
                             rate=30_000.0)
        runner = ChaosRunner(config)
        sid = runner.cluster.plan.server_ids[0]
        runner.schedule.partition(0.1, sid, duration=0.1)
        runner.injector = runner.injector.__class__(runner.cluster,
                                                   runner.schedule)
        report = runner.run()
        assert report.clean, report.violations
        assert report.link_drops > 0
        assert report.recovery_time is not None


class TestCombinedScenario:
    def test_acceptance_combo_twice_byte_identical(self):
        """The ISSUE acceptance script: reboot + partition, replayed."""
        reports = [run_chaos("combo", seed=7) for _ in range(2)]
        assert reports[0].event_log_text() == reports[1].event_log_text()
        assert reports[0].clean
        assert reports[0].recovery_time is not None
        log = reports[0].event_log_text()
        assert "switch-reboot" in log and "link-down" in log

    def test_crash_scenario_with_controller_stall(self):
        report = run_chaos("crash", seed=21, duration=0.3)
        assert report.clean
        assert report.node_drops >= 0
        assert "server-crash" in report.event_log_text()
        assert "controller-stall" in report.event_log_text()

    def test_dup_reorder_scenario_clean(self):
        report = run_chaos("loss-burst", seed=5, duration=0.3,
                           write_ratio=0.2)
        assert report.clean, report.violations
        assert report.duplicates > 0
        assert report.reorders > 0
