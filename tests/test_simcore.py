"""Scalar vs batched equivalence, engine eligibility, lane records and
coverage telemetry.

The differential tests here are the hand-picked scenarios; random ones live
in ``tests/test_prop_simcore.py`` and the committed 100k-packet pin in
``tests/test_golden_simcore.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.analysis.coherence import CoherenceMonitor
from repro.errors import ConfigurationError
from repro.faults import ChaosConfig, ChaosRunner
from repro.faults.invariants import WriteDurabilityInvariant
from repro.net import fastpath
from repro.net.fastpath import FastPathEngine
from repro.net.trace import DeliveryTrace
from repro.reliability.retry import RetryPolicy
from repro.sim.cluster import Cluster, ClusterConfig, default_workload
from repro.sim.experiments import fig10c_rack
from repro.sim.rotation import PartitionFilteredWorkload
from repro.sim.simcore import (
    SimCoreConfig,
    SimCoreRunner,
    build_rack,
    counters_snapshot,
    diff_snapshots,
    run_batched,
    run_scalar,
)


def tiny(**overrides):
    defaults = dict(num_servers=4, num_keys=500, cache_items=16,
                    lookup_entries=256, rate=2e5, duration=0.05, seed=3)
    defaults.update(overrides)
    return SimCoreConfig(**defaults)


def slow_server_burst(cluster, client):
    """One server at 20k q/s from 10 to 13 ms, at 10M q/s around that: its
    queue outgrows the 320 us minimum retry timeout, some replies come
    after their timers fire, and then the queue drains."""
    server = cluster.servers[cluster.plan.server_ids[0]]
    ev = cluster.sim.events
    ev.schedule_abs(0.010, setattr, server, "service_time", 5e-5)
    ev.schedule_abs(0.013, setattr, server, "service_time",
                    server.service_time)


def run_with_script(config, script, batched):
    """Like run_scalar/run_batched but with a fault script applied to the
    freshly built rack before the run (identically under both paths)."""
    cluster, client, _ = build_rack(config)
    trace = DeliveryTrace()
    if not batched:
        trace.attach(cluster.sim)
    script(cluster, client)
    if batched:
        engine = FastPathEngine(cluster, trace=trace)
        engine.run(config.duration)
        return counters_snapshot(cluster, client, trace, engine=engine)
    cluster.sim.run_until(cluster.sim.now + config.duration)
    return counters_snapshot(cluster, client, trace)


class TestDifferential:
    def test_read_only_byte_identical(self):
        cfg = tiny()
        assert diff_snapshots(run_scalar(cfg), run_batched(cfg)) == []

    def test_writes_byte_identical(self):
        cfg = tiny(write_ratio=0.1, seed=5)
        assert diff_snapshots(run_scalar(cfg), run_batched(cfg)) == []

    def test_faults_byte_identical(self):
        # Crash + restart, a loss burst, and a duplication window: the
        # engine must fall back to the scalar loop for the dirty stretch
        # and replay the link RNG decisions exactly.
        cfg = tiny(duration=0.06, seed=7)
        sid = {}

        def script(cluster, client):
            sid["victim"] = cluster.plan.server_ids[0]
            ev = cluster.sim.events
            cl_link = cluster.link_to(client.node_id)
            srv_link = cluster.link_to(cluster.plan.server_ids[1])
            ev.schedule_abs(0.010, cluster.crash_server, sid["victim"])
            ev.schedule_abs(0.015, cl_link.start_loss_burst, 0.5, 0.033)
            ev.schedule_abs(0.020, srv_link.set_duplication, 0.3)
            ev.schedule_abs(0.030, cluster.restart_server, sid["victim"])
            ev.schedule_abs(0.035, srv_link.set_duplication, 0.0)

        a = run_with_script(cfg, script, batched=False)
        b = run_with_script(cfg, script, batched=True)
        assert diff_snapshots(a, b) == []
        # The scenario actually exercised the fault paths.
        assert a["sim.lost"] > 0
        assert any(a[k] > 0 for k in a if k.endswith(".duplicated"))

    def test_unwarmed_cache_byte_identical(self):
        # Cold cache: the controller inserts during the run, so hot-key
        # reports and install/evict traffic flow under both paths.
        cfg = tiny(warm=False, hot_threshold=4, duration=0.04)
        a, b = run_scalar(cfg), run_batched(cfg)
        assert diff_snapshots(a, b) == []
        assert a["controller.insertions"] > 0

    def test_retries_byte_identical(self):
        # Retry policies ride the lanes: the flag-horizon scan registers
        # real timers only for requests whose deadline could fire, and
        # the scalar/batched timer RNG streams must coincide exactly.
        cfg = tiny(retries=True, seed=9)
        a, b = run_scalar(cfg), run_batched(cfg)
        assert diff_snapshots(a, b) == []

    def test_multi_client_byte_identical(self):
        # Two open-loop clients at different rates: the k-way merged send
        # stream must interleave exactly like the scalar event heap.
        cfg = tiny(num_clients=2, client_rates=(2e5, 7e4), seed=4)
        a, b = run_scalar(cfg), run_batched(cfg)
        assert diff_snapshots(a, b) == []
        assert a["client1.sent"] > 0

    def test_mixed_multi_client_retries_byte_identical(self):
        # The full widened contract at once: write lanes + k-way merge +
        # vectorized retry deadlines, all byte-identical.
        cfg = tiny(write_ratio=0.05, num_clients=2, rate=1e5,
                   retries=True, seed=6)
        a, b = run_scalar(cfg), run_batched(cfg)
        assert diff_snapshots(a, b) == []
        assert a["dataplane.writes_seen"] > 0

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(write_ratio=0.05, num_clients=2, client_rates=(1.2e5, 8e4),
             retries=True, seed=6),
    ])
    def test_query_refill_inside_a_window_byte_identical(self, overrides,
                                                          monkeypatch):
        # Seven pre-drawn queries per refill: every send window spans
        # many refills, and a window's sends still leave as one chunk.
        cfg = tiny(duration=0.02, **overrides)
        scalar = run_scalar(cfg)
        monkeypatch.setattr(fastpath, "QUERY_BATCH", 7)
        batched = run_batched(cfg)
        assert diff_snapshots(scalar, batched) == []
        assert batched["fastpath.coverage"] == 1.0
        assert batched["fastpath.fallbacks"] == {}

    def test_down_server_with_retries_byte_identical(self):
        # A crashed server turns lane entries into node drops whose
        # retransmission chains must replay exactly (including the
        # eventual timeout accounting).
        cfg = tiny(duration=0.03, retries=True, seed=8)
        sid = {}

        def script(cluster, client):
            sid["victim"] = cluster.plan.server_ids[0]
            ev = cluster.sim.events
            ev.schedule_abs(0.008, cluster.crash_server, sid["victim"])
            ev.schedule_abs(0.020, cluster.restart_server, sid["victim"])

        a = run_with_script(cfg, script, batched=False)
        b = run_with_script(cfg, script, batched=True)
        assert diff_snapshots(a, b) == []
        assert a["sim.node_drops"] > 0
        assert a["client.retransmissions"] > 0

    def test_write_invalidation_coherence_byte_identical(self):
        # Heavy writes on a hot cached set: invalidations, value updates
        # and blocked-write drains interleave with batched reads.
        cfg = tiny(write_ratio=0.3, seed=13)
        a, b = run_scalar(cfg), run_batched(cfg)
        assert diff_snapshots(a, b) == []
        assert a["dataplane.invalidations"] > 0
        assert a["dataplane.updates_received"] > 0


class TestRackConfig:
    """``SimCoreConfig`` is a ``ClusterConfig``: ``build_rack`` hands the
    config itself to the rack, so every rack field reaches it."""

    def test_rack_fields_reach_the_rack(self):
        cluster, client, _ = build_rack(tiny(server_rate=5e5,
                                             link_latency=7e-6))
        assert {s.service_rate for s in cluster.servers.values()} == {5e5}
        ends = list(cluster.servers) + [c.node_id for c in cluster.clients]
        assert {cluster.link_to(n).latency for n in ends} == {7e-6}

    def test_value_slots_follow_lookup_entries(self):
        config = dataclasses.replace(SimCoreConfig(), lookup_entries=4096)
        cluster, _, _ = build_rack(config)
        layout = cluster.switch.dataplane.layout
        assert {m.slots_per_array for m in layout.memory} == {4096}

    def test_retry_fields_reach_every_client(self):
        cluster, client, _ = build_rack(tiny(num_clients=2, retries=True,
                                             retry_max=7, retry_timeout=1e-3))
        workers = cluster.clients[1:]
        assert workers[0] is client and len(workers) == 2
        for each in workers:
            assert each.versioned_writes
            assert each.retry_policy.max_retries == 7
            assert each.retry_policy.timeout == 1e-3
            assert each.retry_policy.seed == 3
        cluster, client, _ = build_rack(tiny())
        assert client.retry_policy is None and not client.versioned_writes

    def test_link_loss_reaches_the_client_cable(self):
        cluster, client, _ = build_rack(SimCoreConfig(link_loss=0.1,
                                                      rate=2e4,
                                                      duration=0.05))
        cluster.run(0.05)
        link = cluster.link_to(client.node_id)
        assert link.loss_prob == 0.1
        assert link.dropped > 0


class TestEligibility:
    def _rack(self, **cluster_over):
        over = dict(num_servers=4, cache_items=16, lookup_entries=256,
                    value_slots=256, seed=1)
        over.update(cluster_over)
        cluster = Cluster(ClusterConfig(**over))
        workload = default_workload(num_keys=300, seed=1)
        cluster.load_workload_data(workload)
        return cluster, workload

    def test_retry_policy_accepted(self):
        cluster, workload = self._rack()
        cluster.add_workload_client(workload, rate=1e5,
                                    retry_policy=RetryPolicy())
        engine = FastPathEngine(cluster)
        assert engine._tmin == pytest.approx(
            RetryPolicy().min_delay())

    def test_rate_controller_rejected(self):
        cluster, workload = self._rack()
        cluster.add_workload_client(workload, rate=1e5, aimd=True)
        with pytest.raises(ConfigurationError):
            FastPathEngine(cluster)

    def test_server_queue_limit_rejected(self):
        cluster, workload = self._rack(server_queue_limit=64)
        cluster.add_workload_client(workload, rate=1e5)
        with pytest.raises(ConfigurationError):
            FastPathEngine(cluster)

    def test_nocache_rack_runs_in_lanes(self):
        # A plain switch routes every read on: all misses, no reports, and
        # the snapshot of a rack without dataplane or controller still
        # diffs clean against the event loop.
        snaps = []
        for lanes in (False, True):
            cluster, workload = self._rack(enable_cache=False)
            client = cluster.add_workload_client(workload, rate=1e5)
            if lanes:
                cluster.run(0.02)
                assert cluster.scalar_reason is None
                assert cluster.engine.coverage() == 1.0
            else:
                cluster.sim.run_until(0.02)
            snaps.append(counters_snapshot(cluster, client,
                                           engine=cluster.engine))
        scalar, batched = snaps
        assert diff_snapshots(scalar, batched) == []
        assert "dataplane.cache_hits" not in scalar
        assert "controller.rounds" not in scalar
        assert scalar["switch.forwarded"] > 0
        assert scalar["client.cache_hits"] == 0

    def test_started_simulator_rejected(self):
        cluster, workload = self._rack()
        cluster.add_workload_client(workload, rate=1e5)
        cluster.sim.start()
        with pytest.raises(ConfigurationError, match="start"):
            FastPathEngine(cluster)

    def test_second_workload_client_accepted(self):
        cluster, workload = self._rack()
        cluster.add_workload_client(workload, rate=1e5)
        cluster.add_workload_client(workload.fork(7919), rate=5e4)
        engine = FastPathEngine(cluster)
        assert len(engine._states) == 2

    def test_non_positive_duration_or_rate_rejected(self):
        for bad in (dict(duration=0), dict(duration=-0.01), dict(rate=0),
                    dict(num_clients=2, client_rates=(1e5, -1.0))):
            with pytest.raises(ConfigurationError, match="must be positive"):
                tiny(**bad)


#: Fig 10(c)'s rack capacity at its defaults (8 servers x 50k q/s).
FIG10C_CAPACITY = 8 * 50_000.0


class TestBatchHooks:
    """Batch-capable delivery hooks ride the lanes and see what the event
    loop shows them, on every layout and with several clients."""

    @pytest.mark.parametrize("layout,extra", [
        ("paper", {}), ("setassoc", {}),
        ("orbit", dict(value_size=96, num_value_stages=2))])
    def test_hooks_fed_by_the_lanes_match_the_event_loop(self, layout,
                                                         extra):
        config = SimCoreConfig(
            num_servers=4, num_keys=300, cache_items=32, lookup_entries=128,
            write_ratio=0.2, num_clients=2, client_rates=(6e4, 3.7e4),
            duration=0.02, seed=11, layout=layout, **extra)
        runs = []
        for lanes in (False, True):
            cluster, client, _ = build_rack(config)
            monitor = CoherenceMonitor(cluster.sim)
            durability = WriteDurabilityInvariant().bind(cluster)
            if lanes:
                cluster.run(config.duration)
            else:
                cluster.sim.run_until(config.duration)
            lost = []
            durability.on_quiesce(cluster.sim.now,
                                  lambda *violation: lost.append(violation))
            runs.append(((monitor.violations, monitor.reads_checked,
                          monitor.writes_seen, lost),
                         counters_snapshot(cluster, client,
                                           engine=cluster.engine),
                         cluster.engine))
        (seen, loop_snap, _), (lanes_seen, lanes_snap, engine) = runs
        assert engine.coverage() == 1.0 and engine.hook_ties == 0
        assert lanes_seen == seen
        assert seen[1] > 0 and seen[2] > 0
        assert diff_snapshots(loop_snap, lanes_snap) == []


class TestClusterRun:
    """``Cluster.run`` picks the lanes engine once per rack and says why
    when it does not."""

    def test_scalar_reason_says_why(self):
        # An invariant suite's delivery hooks take rows: a chaos rack runs
        # in lanes.
        runner = ChaosRunner(ChaosConfig(duration=0.005, drain=0.002))
        runner.run()
        assert runner.cluster.scalar_reason is None
        assert runner.cluster.engine is not None
        assert runner.cluster.engine.coverage() == 1.0
        # A hook without the batch form keeps it on the event loop.
        runner = ChaosRunner(ChaosConfig(duration=0.005, drain=0.002))
        delivered = []
        runner.cluster.sim.delivery_hooks.append(
            lambda time, src, dst, pkt: delivered.append(pkt))
        runner.run()
        assert runner.cluster.engine is None
        assert runner.cluster.scalar_reason == "foreign_hook"
        assert delivered
        # A rejection-sampled workload cannot be drawn in batches: the
        # engine's ConfigurationError is the reason.
        cluster, client = fig10c_rack(True, 2e4, num_servers=4,
                                      num_keys=300)
        cluster.add_workload_client(
            PartitionFilteredWorkload(client.workload, cluster, (0, 1)),
            rate=2e4)
        cluster.run(0.002)
        assert cluster.engine is None
        assert cluster.scalar_reason == (
            "fast path needs workloads that draw query batches over a "
            "keyspace, not PartitionFilteredWorkload")
        assert cluster.total_received() > 0
        # A Fig 10(c) rack runs in lanes, saturated or not.
        for enable_cache in (False, True):
            cluster, _ = fig10c_rack(enable_cache, 1.1 * FIG10C_CAPACITY)
            cluster.run(0.001)
            assert cluster.scalar_reason is None
            assert cluster.sim.driver is cluster.engine
            assert cluster.engine.coverage() == 1.0

    def test_sync_client_steps_through_the_engine(self):
        # Stepping the simulator after a lanes run first runs the lanes up
        # to the next event: while the blocking get waits its turn at the
        # saturated server, the open-loop client keeps sending, exactly
        # as on the event loop.
        after_get, after_run = [], []
        for lanes in (False, True):
            cluster, client = fig10c_rack(False, 1.1 * FIG10C_CAPACITY)
            advance = cluster.run if lanes else (
                lambda s: cluster.sim.run_until(cluster.sim.now + s))
            advance(0.002)
            key = client.workload.hottest_keys(1)[0]
            assert cluster.sync_client().get(key) == \
                client.workload.value_for(key)
            after_get.append(counters_snapshot(cluster, client,
                                               engine=cluster.engine))
            advance(0.002)
            after_run.append(counters_snapshot(cluster, client,
                                               engine=cluster.engine))
        assert diff_snapshots(*after_get) == []
        assert diff_snapshots(*after_run) == []
        assert after_run[1]["fastpath.coverage"] == 1.0

    def test_equal_time_replies_compare_as_a_multiset(self):
        # Seed 0's NoCache rack at 1.1x capacity delivers two replies at
        # exactly t = 0.0010575454545454573; the heap and the lanes hand
        # them to the client in opposite orders.
        lanes, lanes_client = fig10c_rack(False, 1.1 * FIG10C_CAPACITY)
        lanes.run(0.002)
        scalar, scalar_client = fig10c_rack(False, 1.1 * FIG10C_CAPACITY)
        scalar.sim.run_until(0.002)
        a = counters_snapshot(scalar, scalar_client)
        b = counters_snapshot(lanes, lanes_client, engine=lanes.engine)
        assert b["fastpath.reply_ties"] > 0
        assert a["client.latencies"] != b["client.latencies"]
        assert diff_snapshots(a, b) == []
        # Without a counted tie the same lists must match exactly.
        b["fastpath.reply_ties"] = 0
        assert [line.split(":")[0] for line in diff_snapshots(a, b)] == \
            ["client.latencies"]


class TestBenchmarkRunner:
    def test_runner_replays_the_engine_it_wraps(self):
        # The repo benchmark builds lanes racks through SimCoreRunner;
        # it must stay exactly FastPathEngine.run on the same rack.
        cfg = tiny(write_ratio=0.05, num_clients=2, retries=True, seed=2)
        cluster, client, workload = build_rack(cfg)
        trace = DeliveryTrace()
        runner = SimCoreRunner(cluster, client, workload, trace=trace)
        assert isinstance(runner.engine, FastPathEngine)
        runner.run(cfg.duration)
        via_runner = counters_snapshot(cluster, client, trace,
                                       engine=runner.engine)

        cluster, client, _ = build_rack(cfg)
        trace = DeliveryTrace()
        engine = FastPathEngine(cluster, trace=trace)
        engine.run(cfg.duration)
        direct = counters_snapshot(cluster, client, trace, engine=engine)
        assert via_runner["client.sent"] > 0
        assert via_runner == direct


class TestLaneRecords:
    """``_Chunk`` and ``_Lane``: the record every stage passes on and the
    FIFO it waits in."""

    @staticmethod
    def chunk(t, **optional):
        t = np.asarray(t, dtype=float)
        n = len(t)
        return fastpath._Chunk(t, np.arange(n), np.arange(100, 100 + n),
                               t - 1.0, np.full(n, 1, np.int16), **optional)

    def test_take_is_exclusive_or_inclusive_at_the_limit(self):
        lane = fastpath._Lane()
        lane.push(self.chunk([1.0, 2.0, 3.0]))
        lane.push(self.chunk([4.0, 5.0]))
        assert [c.t.tolist() for c in lane.take(2.0, False)] == [[1.0]]
        assert [c.t.tolist() for c in lane.take(2.0, True)] == [[2.0]]
        assert lane.pending() == 3
        # Both chunks in one take; the consumed one leaves the lane.
        assert [c.seqs.tolist() for c in lane.take(4.0, True)] == \
            [[102], [100]]
        assert [c.t.tolist() for c in lane.rest()] == [[5.0]]
        assert lane.take(4.5, True) == []

    def test_monotone_lane_stops_at_the_first_chunk_past_the_limit(self):
        # Out of order on purpose: a monotone lane trusts its producers
        # and never looks behind a chunk that starts past the limit; the
        # multi-producer lane looks at every chunk.
        for monotone, below, at in ((True, [], [[5.0], [1.0]]),
                                    (False, [[1.0]], [[5.0]])):
            lane = fastpath._Lane(monotone=monotone)
            lane.push(self.chunk([5.0, 6.0]))
            lane.push(self.chunk([1.0, 7.0]))
            assert [c.t.tolist() for c in lane.take(5.0, False)] == below
            assert [c.t.tolist() for c in lane.take(5.0, True)] == at
            assert lane.pending() == 2
        lane.clear()
        assert lane.pending() == 0 and lane.rest() == []

    def test_empty_chunk_is_not_queued(self):
        lane = fastpath._Lane()
        lane.push(self.chunk([]))
        assert lane.chunks == []

    def test_rows_propagates_only_the_columns_that_mean_something(self):
        single = self.chunk([1.0, 2.0, 3.0])
        picked = single.rows(np.array([True, False, True]))
        assert picked.idx is None and picked.val is None
        assert not picked.w and not picked.hit and picked.pos == 0
        assert picked.seqs.tolist() == [100, 102]

        vals = np.array([None, b"v", None], dtype=object)
        mixed = self.chunk([1.0, 2.0, 3.0], idx=np.array([0, 1, 0]),
                           val=vals, w=True, hit=True)
        kept = mixed.rows(slice(1, None))
        assert kept.w and kept.val.tolist() == [b"v", None]
        assert kept.idx.tolist() == [1, 0] and kept.hit
        reads = mixed.rows(np.array([0, 2]), t=np.array([8.0, 9.0]),
                           op=np.array([5, 5], np.int16), w=False)
        assert reads.val is None and not reads.w and reads.hit
        assert reads.t.tolist() == [8.0, 9.0]
        assert reads.op.tolist() == [5, 5]
        assert reads.sent.tolist() == [0.0, 2.0]


class TestCoverage:
    """Fast-path coverage accounting and scalar-fallback telemetry."""

    def _run_engine(self, cfg, script=None):
        cluster, client, _ = build_rack(cfg)
        if script is not None:
            script(cluster, client)
        engine = FastPathEngine(cluster, trace=DeliveryTrace())
        engine.run(cfg.duration)
        return engine

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(write_ratio=0.1, seed=5),
        dict(retries=True, seed=9),
        dict(num_clients=2, client_rates=(2e5, 7e4), seed=4),
        dict(write_ratio=0.05, num_clients=2, rate=1e5, retries=True),
    ])
    def test_full_coverage_on_clean_scenarios(self, overrides):
        # The widened contract: writes, retries, and extra clients no
        # longer force scalar sends — clean runs stay 100% on the lanes.
        engine = self._run_engine(tiny(**overrides))
        assert engine.coverage() == 1.0
        assert engine.scalar_fallbacks == 0
        assert engine.fallback_reasons == {}

    def test_healthy_mixed_rack_never_leaves_the_lanes(self):
        # The benchmark's lanes_mixed rack at seed 1: healthy, so every
        # reply lands within ~11 us against a 320 us minimum timeout and
        # the reply-latency bound holds throughout: no window falls back,
        # and no send is handed a real retry timer.
        cfg = SimCoreConfig(rate=1e6, duration=0.1, write_ratio=0.05,
                            num_clients=2, client_rates=(6e5, 4e5),
                            retries=True, seed=1)
        engine = self._run_engine(cfg)
        assert engine.coverage() == 1.0
        assert engine.fallback_reasons == {}
        assert engine.retry_scalarized == 0

    @pytest.mark.parametrize("layout", [
        dict(layout="paper"),
        dict(layout="orbit", value_size=96, num_value_stages=2),
    ], ids=["paper", "orbit-multipass"])
    def test_reply_bound_fails_under_a_burst_and_recovers(self, layout):
        # The burst pushes queue wait past tmin: the bound fails, the
        # requests in flight get their real timers and the event loop
        # takes over, replies slower than their timers retransmit, and
        # once the queue drains the bound holds and the lanes resume.
        cfg = tiny(write_ratio=0.1, retries=True, duration=0.04, **layout)
        cluster, client, _ = build_rack(cfg)
        slow_server_burst(cluster, client)
        trace = DeliveryTrace()
        engine = FastPathEngine(cluster, trace=trace)
        engine.run(cfg.duration)
        lanes = counters_snapshot(cluster, client, trace, engine=engine)
        scalar = run_with_script(cfg, slow_server_burst, batched=False)
        assert diff_snapshots(scalar, lanes) == []
        assert scalar["client.retransmissions"] > 0
        assert set(engine.fallback_reasons) == {"retry_bound"}
        assert engine.fallback_reasons["retry_bound"] >= 1
        assert engine._mode == "fast", "the bound never held again"
        if cfg.layout == "orbit":
            assert scalar["layout.recirculations"] > 0

    def test_link_fault_fallback_counted(self):
        def script(cluster, client):
            link = cluster.link_to(client.node_id)
            cluster.sim.events.schedule_abs(
                0.01, link.start_loss_burst, 0.5, 0.02)

        engine = self._run_engine(tiny(duration=0.04), script)
        assert engine.fallback_reasons.get("link_fault", 0) > 0
        # Some sends went scalar during the burst, but the run as a whole
        # stays mostly on the fast path.
        assert 0.0 < engine.coverage() < 1.0
        assert engine.coverage() >= 0.5

    def test_node_down_fallback_counted(self):
        # A ToR outage is global — the engine must leave the lanes.
        def script(cluster, client):
            ev = cluster.sim.events
            tor = cluster.plan.tor_id
            ev.schedule_abs(0.010, cluster.sim.set_node_down, tor, True)
            ev.schedule_abs(0.025, cluster.sim.set_node_down, tor, False)

        engine = self._run_engine(tiny(duration=0.04), script)
        assert engine.fallback_reasons.get("node_down", 0) > 0

    def test_server_crash_absorbed_in_lane(self):
        # A crashed storage server does NOT force scalar mode: its lane
        # entries become per-entry drops while other owners stay batched.
        def script(cluster, client):
            sid = cluster.plan.server_ids[0]
            ev = cluster.sim.events
            ev.schedule_abs(0.010, cluster.crash_server, sid)
            ev.schedule_abs(0.025, cluster.restart_server, sid)

        engine = self._run_engine(tiny(duration=0.04), script)
        assert engine.fallback_reasons == {}
        assert engine.coverage() == 1.0

    def test_link_fault_fallback_mirrored_to_obs_counter(self):
        def script(cluster, client):
            link = cluster.link_to(client.node_id)
            cluster.sim.events.schedule_abs(
                0.01, link.start_loss_burst, 0.5, 0.02)

        with obs.session() as session:
            engine = self._run_engine(tiny(duration=0.04), script)
        assert engine.fallback_reasons.get("link_fault", 0) > 0
        mirrored = session.registry.counter("fastpath.fallback.link_fault")
        assert mirrored.value == engine.fallback_reasons["link_fault"]

    def test_clean_rack_under_a_session_stays_in_lanes(self):
        # Observing a run is no reason to leave the lanes: they feed the
        # session themselves, with one span per stage flush.
        with obs.session() as session:
            engine = self._run_engine(tiny(duration=0.01))
        assert engine.coverage() == 1.0
        assert engine.fallback_reasons == {}
        replies = session.registry.get("client.request").count
        assert replies == engine.cluster.total_received() > 0
        spans = session.tracer.summary()
        assert spans["fastpath.client_replies"]["count"] < replies / 10
