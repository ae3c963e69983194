"""Unit tests for the fault-injection subsystem (repro.faults) and the
link/simulator/cluster fault hooks it drives."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    ChaosConfig,
    ChaosRunner,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    InvariantSuite,
    run_chaos,
    scripted_schedule,
)
from repro.faults.invariants import (
    AgreementInvariant,
    CounterMonotonicityInvariant,
    PendingWriteInvariant,
)
from repro.net.links import Link
from repro.net.packet import make_get
from repro.net.simulator import Node, Simulator
from repro.sim.cluster import Cluster, ClusterConfig, default_workload


class _Sink(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.got = []

    def handle_packet(self, pkt):
        self.got.append(pkt)


def two_node_sim(**link_kwargs):
    sim = Simulator()
    a, b = _Sink(1), _Sink(2)
    sim.add_node(a)
    sim.add_node(b)
    link = sim.connect(1, 2, **link_kwargs)
    return sim, a, b, link


# -- link fault surface ------------------------------------------------------------


class TestLinkFaults:
    def test_down_link_drops_everything(self):
        link = Link(1, 2)
        link.take_down()
        assert link.delivery_plan(1, 0.0) == []
        assert link.dropped == 1
        link.bring_up()
        assert link.delivery_plan(1, 0.0)

    def test_loss_burst_expires(self):
        link = Link(1, 2, seed=3)
        link.start_loss_burst(0.99, until=1.0)
        in_burst = sum(not link.delivery_plan(1, 0.5) for _ in range(100))
        after = sum(not link.delivery_plan(1, 2.0) for _ in range(100))
        assert in_burst >= 90
        assert after == 0

    def test_burst_combines_with_base_loss(self):
        link = Link(1, 2, loss_prob=0.5, seed=1)
        link.start_loss_burst(0.5, until=1.0)
        assert link.effective_loss(0.0) == pytest.approx(0.75)
        assert link.effective_loss(1.0) == pytest.approx(0.5)

    def test_duplication_yields_two_copies(self):
        link = Link(1, 2, seed=2)
        link.set_duplication(0.99)
        plans = [link.delivery_plan(1, 0.0) for _ in range(50)]
        doubled = [p for p in plans if len(p) == 2]
        assert len(doubled) >= 45
        assert all(p[1] > p[0] for p in doubled)
        assert link.duplicated == len(doubled)

    def test_reordering_inflates_delay(self):
        link = Link(1, 2, latency=1e-6, seed=4)
        link.set_reordering(0.99)
        delays = [link.delivery_plan(1, 0.0)[0] for _ in range(50)]
        assert link.reordered >= 45
        assert max(delays) > 1e-6

    def test_fault_process_deterministic(self):
        def run():
            link = Link(1, 2, loss_prob=0.3, seed=9)
            link.set_duplication(0.3)
            link.set_reordering(0.3)
            return [tuple(link.delivery_plan(1, 0.0)) for _ in range(60)]

        assert run() == run()

    def test_on_drop_hook_fires(self):
        drops = []
        link = Link(1, 2)
        link.on_drop = lambda l, now: drops.append((l, now))
        link.take_down()
        link.delivery_plan(1, 3.5)
        assert drops == [(link, 3.5)]


# -- simulator accounting ------------------------------------------------------------


class TestSimulatorFaults:
    def test_link_drop_reaches_global_counter(self):
        sim, a, b, link = two_node_sim()
        link.take_down()
        assert sim.transmit(1, 2, make_get(1, 2, b"k" * 16)) is False
        assert link.dropped == 1
        assert sim.lost == 1

    def test_direct_delivery_plan_also_counts_globally(self):
        # A drop counted on the link must reach the simulator even when
        # transmit() is bypassed.
        sim, a, b, link = two_node_sim(loss_prob=0.6, seed=2)
        drops = sum(not link.delivery_plan(1, 0.0) for _ in range(200))
        assert drops > 0
        assert sim.lost == drops == link.dropped

    def test_drop_hooks_observe(self):
        seen = []
        sim, a, b, link = two_node_sim()
        sim.drop_hooks.append(lambda now, l: seen.append(l))
        link.take_down()
        sim.transmit(1, 2, make_get(1, 2, b"k" * 16))
        assert seen == [link]

    def test_down_node_blackholes(self):
        sim, a, b, link = two_node_sim()
        sim.set_node_down(2)
        assert sim.node_is_down(2)
        assert sim.transmit(1, 2, make_get(1, 2, b"k" * 16)) is False
        assert sim.node_drops == 1 and sim.lost == 1
        sim.set_node_down(2, False)
        assert sim.transmit(1, 2, make_get(1, 2, b"k" * 16))
        sim.run()
        assert len(b.got) == 1

    def test_node_down_at_delivery_time(self):
        sim, a, b, link = two_node_sim(latency=1e-3)
        assert sim.transmit(1, 2, make_get(1, 2, b"k" * 16))
        sim.set_node_down(2)  # crashes while the packet is in flight
        sim.run()
        assert b.got == [] and sim.node_drops == 1

    def test_unknown_node_rejected(self):
        sim, *_ = two_node_sim()
        with pytest.raises(ConfigurationError):
            sim.set_node_down(99)

    def test_duplicated_packet_delivered_twice(self):
        sim, a, b, link = two_node_sim(seed=2)
        link.set_duplication(0.99)
        for _ in range(10):
            sim.transmit(1, 2, make_get(1, 2, b"k" * 16))
        sim.run()
        assert len(b.got) > 10


# -- schedules ---------------------------------------------------------------------


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        sched = FaultSchedule()
        sched.reboot_switch(0.5)
        sched.partition(0.1, 7, duration=0.2)
        times = [e.time for e in sched.events()]
        assert times == sorted(times)
        assert times[0] == pytest.approx(0.1)

    def test_paired_events(self):
        sched = FaultSchedule().crash_server(0.1, 5, duration=0.2)
        kinds = [e.kind for e in sched.events()]
        assert kinds == [FaultKind.SERVER_CRASH, FaultKind.SERVER_RESTART]
        assert sched.events()[1].time == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(-1.0, FaultKind.SWITCH_REBOOT)
        with pytest.raises(ConfigurationError):
            FaultEvent(0.0, FaultKind.LINK_DOWN)  # needs a node
        with pytest.raises(ConfigurationError):
            FaultSchedule().loss_burst(0.0, 1, duration=0.1, prob=1.0)
        with pytest.raises(ConfigurationError):
            FaultSchedule().partition(0.0, 1, duration=0.0)

    def test_describe_is_stable(self):
        ev = FaultEvent(0.125, FaultKind.LOSS_BURST, node=3,
                        duration=0.25, prob=0.5)
        assert ev.describe() == \
            "t=0.125000000 loss-burst node=3 dur=0.250000000 p=0.500000"

    def test_random_schedule_reproducible(self):
        a = FaultSchedule.random(5, 1.0, nodes=[1, 2, 3])
        b = FaultSchedule.random(5, 1.0, nodes=[1, 2, 3])
        assert a.events() == b.events()
        c = FaultSchedule.random(6, 1.0, nodes=[1, 2, 3])
        assert a.events() != c.events()


# -- cluster hooks -----------------------------------------------------------------


@pytest.fixture()
def tiny_rig():
    workload = default_workload(num_keys=100, skew=0.99, seed=2,
                                value_size=16)
    cluster = Cluster(ClusterConfig(
        num_servers=4, cache_items=8, lookup_entries=128, value_slots=128,
        seed=2,
    ))
    cluster.load_workload_data(workload)
    cluster.warm_cache(workload, 8)
    return cluster, workload


class TestClusterHooks:
    def test_partition_and_heal(self, tiny_rig):
        cluster, _ = tiny_rig
        sid = cluster.plan.server_ids[0]
        cluster.partition_node(sid)
        assert not cluster.link_to(sid).up
        cluster.heal_node(sid)
        assert cluster.link_to(sid).up

    def test_crash_validates_server_id(self, tiny_rig):
        cluster, _ = tiny_rig
        with pytest.raises(ConfigurationError):
            cluster.crash_server(cluster.plan.tor_id)

    def test_crashed_server_unreachable_until_restart(self, tiny_rig):
        cluster, workload = tiny_rig
        # Pick an uncached key owned by the crashed server.
        sid = cluster.plan.server_ids[0]
        key = next(k for k in (workload.keyspace.key(i) for i in range(100))
                   if cluster.partitioner.server_for(k) == sid
                   and not cluster.switch.dataplane.is_cached(k))
        cluster.crash_server(sid)
        raw = cluster.clients[0]
        got = []
        raw.get(key, callback=lambda v, l: got.append(v))
        cluster.run(0.05)
        assert got == []
        cluster.restart_server(sid)
        raw.get(key, callback=lambda v, l: got.append(v))
        cluster.run(0.05)
        assert got == [workload.value_for(key)]

    def test_reboot_switch_reports_lost_entries(self, tiny_rig):
        cluster, _ = tiny_rig
        assert cluster.reboot_switch() == 8
        assert cluster.switch.dataplane.cache_size() == 0

    def test_stall_controller_misses_resets(self, tiny_rig):
        cluster, _ = tiny_rig
        cluster.start_controller()
        cluster.stall_controller()
        cluster.run(5 * cluster.config.stats_interval)
        stalled_resets = cluster.switch.dataplane.stats.resets
        cluster.resume_controller()
        cluster.run(5 * cluster.config.stats_interval)
        assert cluster.switch.dataplane.stats.resets > stalled_resets

    def test_heal_all_faults(self, tiny_rig):
        cluster, _ = tiny_rig
        sid = cluster.plan.server_ids[0]
        cluster.partition_node(sid)
        cluster.crash_server(cluster.plan.server_ids[1])
        cluster.link_to(sid).set_duplication(0.5)
        cluster.heal_all_faults()
        assert cluster.link_to(sid).up
        assert cluster.link_to(sid).dup_prob == 0.0
        assert not cluster.sim.node_is_down(cluster.plan.server_ids[1])


# -- injector ---------------------------------------------------------------------


class TestInjector:
    def test_fires_in_order_and_logs(self, tiny_rig):
        cluster, _ = tiny_rig
        sid = cluster.plan.server_ids[0]
        sched = FaultSchedule()
        sched.partition(0.01, sid, duration=0.02)
        sched.reboot_switch(0.02)
        injector = FaultInjector(cluster, sched)
        assert injector.arm() == 3
        cluster.run(0.05)
        assert injector.injected == 3
        assert injector.log[0].startswith("t=0.010000000 link-down")
        assert "switch-reboot entries-lost=8" in injector.log[1]
        assert injector.log[2].startswith("t=0.030000000 link-up")

    def test_cannot_arm_twice(self, tiny_rig):
        cluster, _ = tiny_rig
        injector = FaultInjector(cluster, FaultSchedule())
        injector.arm()
        with pytest.raises(ConfigurationError):
            injector.arm()


# -- invariants -------------------------------------------------------------------


class TestInvariants:
    def test_clean_on_fault_free_traffic(self, tiny_rig):
        cluster, workload = tiny_rig
        cluster.start_controller()
        suite = InvariantSuite(cluster, interval=0.005)
        suite.start()
        client = cluster.sync_client()
        keys = [workload.keyspace.key(i) for i in range(20)]
        for i, key in enumerate(keys):
            if i % 3 == 0:
                client.put(key, bytes([i + 1]) * 8)
            client.get(key)
        cluster.run(0.1)
        assert suite.finalize() == []
        assert suite.clean
        assert suite.ticks > 0
        assert suite.reads_checked > 0

    def test_agreement_catches_sabotaged_cache(self, tiny_rig):
        cluster, workload = tiny_rig
        hot = workload.hottest_keys(1)[0]
        dataplane = cluster.switch.dataplane
        res = dataplane.layout.lookup.lookup(hot)
        pipe = dataplane.pipe_of_port(res.egress_port)
        # Corrupt the cached copy behind the protocol's back.
        dataplane.layout.values[pipe].write(res.allocation, b"garbage-value!")
        suite = InvariantSuite(cluster, checkers=[AgreementInvariant()])
        violations = suite.finalize()
        assert len(violations) == 1
        assert violations[0].invariant == "switch-store-agreement"
        assert not suite.clean

    def test_pending_write_flags_leftover_state(self, tiny_rig):
        cluster, workload = tiny_rig
        hot = workload.hottest_keys(1)[0]
        server = cluster.servers[cluster.partitioner.server_for(hot)]
        server.shim.begin_insertion(hot)  # never finished
        suite = InvariantSuite(cluster, checkers=[PendingWriteInvariant()])
        raw = cluster.clients[0]
        raw.put(hot, b"blocked!")
        cluster.run(0.05)
        assert server.shim.blocked_writes == 1
        violations = suite.finalize()
        assert any("blocked writes" in v.detail for v in violations)

    def test_counter_monotonicity_tracks_resets(self, tiny_rig):
        cluster, workload = tiny_rig
        checker = CounterMonotonicityInvariant()
        suite = InvariantSuite(cluster, checkers=[checker])
        client = cluster.sync_client()
        hot = workload.hottest_keys(1)[0]
        for _ in range(10):
            client.get(hot)
        suite.check_now()
        cluster.switch.reset_statistics()  # counters fall; reset excuses it
        suite.check_now()
        assert suite.clean

    def test_counter_regression_without_reset_is_flagged(self, tiny_rig):
        cluster, workload = tiny_rig
        checker = CounterMonotonicityInvariant()
        suite = InvariantSuite(cluster, checkers=[checker])
        client = cluster.sync_client()
        hot = workload.hottest_keys(1)[0]
        for _ in range(10):
            client.get(hot)
        suite.check_now()
        # Roll the counter back without bumping stats.resets.
        index = cluster.switch.dataplane.layout.key_index_of(hot)
        cluster.switch.dataplane.stats.counters.write_int(index, 0)
        suite.check_now()
        assert not suite.clean
        assert suite.violations[0].invariant == "counter-monotonicity"

    @pytest.mark.parametrize("layout", ["paper", "setassoc", "orbit"])
    def test_counter_monotonicity_ticks_on_every_layout(self, layout):
        # The checker reaches the key index through the CacheLayout
        # interface, not through the paper geometry's lookup table.
        workload = default_workload(num_keys=100, skew=0.99, seed=2,
                                    value_size=16)
        cluster = Cluster(ClusterConfig(
            num_servers=4, cache_items=8, lookup_entries=128,
            value_slots=128, seed=2, layout=layout))
        cluster.load_workload_data(workload)
        cluster.warm_cache(workload, 8)
        suite = InvariantSuite(cluster,
                               checkers=[CounterMonotonicityInvariant()])
        client = cluster.sync_client()
        hot = workload.hottest_keys(1)[0]
        for _ in range(10):
            client.get(hot)
        suite.check_now()
        assert suite.clean
        dataplane = cluster.switch.dataplane
        dataplane.stats.counters.write_int(
            dataplane.layout.key_index_of(hot), 0)
        suite.check_now()
        assert [v.invariant for v in suite.violations] == \
            ["counter-monotonicity"]

    def test_interval_validated(self, tiny_rig):
        cluster, _ = tiny_rig
        with pytest.raises(ConfigurationError):
            InvariantSuite(cluster, interval=0.0)


# -- runner ------------------------------------------------------------------------


class TestChaosRunner:
    def test_report_fields_consistent(self):
        report = run_chaos("reboot", seed=3, duration=0.2, drain=0.1)
        assert report.faults_injected == 1
        assert report.queries_received <= report.queries_sent
        assert report.clean
        assert report.recovery_time is not None
        assert report.event_log_text().endswith("quiesce\n")
        assert "entries-lost" in report.event_log_text()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            scripted_schedule("tsunami", ChaosConfig(), [1])

    def test_custom_schedule_runner(self):
        config = ChaosConfig(seed=4, duration=0.2, drain=0.1)
        runner = ChaosRunner(config)
        sid = runner.cluster.plan.server_ids[0]
        runner.schedule.partition(0.05, sid, duration=0.05)
        report = runner.run()
        assert report.faults_injected == 2
        assert report.clean

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(duration=0.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(rate=-1.0)

    @pytest.mark.parametrize("field", ["controller_update_interval",
                                       "stats_interval"])
    def test_zero_controller_interval_rejected(self, field):
        with pytest.raises(ConfigurationError, match="interval"):
            ChaosRunner(ChaosConfig(**{field: 0.0}))


#: ``run_chaos(name, seed=0, duration=0.2)``: the sha256 of its event log
#: and its report counters, recorded before the rack config was merged
#: into one hierarchy; the merge must not move a single one.
REPLAY_PINS = {
    "combo": (
        "ed1a2e02196f77fb22a10c85f3f2e2e38bfdd0bdb78ddc68dd5494652ee1d8b6",
        dict(faults_injected=4, queries_sent=4001, queries_received=3863,
             cache_hits=1881, link_drops=141, node_drops=0, duplicates=0,
             reorders=0, retries=3, updates_sent=30, updates_acked=27,
             writes_blocked=0, invariant_ticks=39, reads_checked=1647,
             recovery_time=0.0, client_retries=0, client_timeouts=0,
             client_stale_drops=0, dedup_hits=0, degraded_entries=0,
             degraded_recovered=0, insertion_aborts=0,
             servers_detected_dead=1, failovers=1)),
    "loss-retry": (
        "815c642a0502e7c8452acf717dcd20f66f5880399ccfb732bae51a516b93aea9",
        dict(faults_injected=2, queries_sent=4001, queries_received=3857,
             cache_hits=1818, link_drops=921, node_drops=0, duplicates=0,
             reorders=0, retries=73, updates_sent=114, updates_acked=41,
             writes_blocked=0, invariant_ticks=39, reads_checked=2091,
             recovery_time=0.0, client_retries=704, client_timeouts=144,
             client_stale_drops=0, dedup_hits=34, degraded_entries=0,
             degraded_recovered=0, insertion_aborts=0,
             servers_detected_dead=0, failovers=0)),
}


@pytest.mark.parametrize("scenario", sorted(REPLAY_PINS))
def test_chaos_replay_pinned(scenario):
    digest, counters = REPLAY_PINS[scenario]
    report = run_chaos(scenario, seed=0, duration=0.2)
    assert report.violations == []
    assert hashlib.sha256(
        report.event_log_text().encode()).hexdigest() == digest
    assert {name: getattr(report, name) for name in counters} == counters
