"""Property-based tests for the fault subsystem.

Three properties anchor the chaos machinery:

1. **Replay determinism** — any seeded schedule (random generation or
   arbitrary builder calls) produces the same event list, and running it
   through a live rack twice yields byte-identical event logs and reports.
2. **Invariant soundness** — the checkers never fire on a fault-free run,
   regardless of the operation interleaving the client issues.
3. **Engine equivalence** — a chaos rack run in lanes, its invariant
   suite fed by the lanes, gives the report and counters of the same rack
   on the event loop; two sabotage tests prove the comparison can fail.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import geometry
from repro.faults import (
    ChaosConfig,
    ChaosRunner,
    FaultSchedule,
    InvariantSuite,
    scripted_schedule,
)
from repro.faults.injector import FaultInjector
from repro.faults.runner import SCENARIO_OVERRIDES, SCENARIOS
from repro.kvstore.shim import ServerShim
from repro.net import fastpath
from repro.reliability.dedup import DedupWindow
from repro.sim.cluster import Cluster, ClusterConfig, default_workload
from repro.sim.simcore import counters_snapshot, diff_snapshots

NUM_KEYS = 24


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       num_faults=st.integers(1, 8),
       duration=st.floats(0.1, 10.0, allow_nan=False))
def test_random_schedule_replays_identically(seed, num_faults, duration):
    nodes = [1, 2, 3, 4]
    a = FaultSchedule.random(seed, duration, nodes, num_faults=num_faults)
    b = FaultSchedule.random(seed, duration, nodes, num_faults=num_faults)
    assert a.events() == b.events()
    assert [e.describe() for e in a.events()] == \
        [e.describe() for e in b.events()]


schedule_ops = st.lists(
    st.tuples(
        st.sampled_from(["partition", "loss", "dup", "reorder", "crash",
                         "reboot", "stall"]),
        st.floats(0.0, 0.3, allow_nan=False),
        st.floats(0.01, 0.1, allow_nan=False),
        st.integers(0, 3),
    ),
    max_size=6,
)


def build_schedule(ops, server_ids):
    sched = FaultSchedule()
    for kind, start, span, node_idx in ops:
        node = server_ids[node_idx % len(server_ids)]
        if kind == "partition":
            sched.partition(start, node, span)
        elif kind == "loss":
            sched.loss_burst(start, node, span, 0.5)
        elif kind == "dup":
            sched.duplicate(start, node, span, 0.3)
        elif kind == "reorder":
            sched.reorder(start, node, span, 0.3)
        elif kind == "crash":
            sched.crash_server(start, node, span)
        elif kind == "reboot":
            sched.reboot_switch(start)
        else:
            sched.stall_controller(start, span)
    return sched


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=schedule_ops, seed=st.integers(0, 1000))
def test_chaos_run_replays_byte_identically(ops, seed):
    """Same seed + same schedule => same event log and same counters."""
    def one_run():
        config = ChaosConfig(seed=seed, duration=0.1, drain=0.05,
                             num_keys=50, rate=5_000.0)
        runner = ChaosRunner(config)
        runner.schedule = build_schedule(ops, runner.cluster.plan.server_ids)
        runner.injector = runner.injector.__class__(runner.cluster,
                                                   runner.schedule)
        return runner.run()

    first, second = one_run(), one_run()
    assert first.event_log_text() == second.event_log_text()
    assert first.queries_sent == second.queries_sent
    assert first.queries_received == second.queries_received
    assert first.link_drops == second.link_drops
    assert first.retries == second.retries
    assert first.recovery_time == second.recovery_time


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=st.sampled_from(["combo", "reboot", "partition"]),
       seed=st.integers(0, 1000))
def test_scripted_schedules_deterministic(scenario, seed):
    config = ChaosConfig(seed=seed, duration=0.1)
    a = scripted_schedule(scenario, config, [2, 3, 4, 5])
    b = scripted_schedule(scenario, config, [2, 3, 4, 5])
    assert [e.describe() for e in a.events()] == \
        [e.describe() for e in b.events()]


operations = st.lists(
    st.tuples(
        st.sampled_from(["get", "put", "delete"]),
        st.integers(0, NUM_KEYS - 1),
        st.integers(0, 7),
    ),
    max_size=30,
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(operations)
def test_invariants_clean_on_fault_free_run(op_list):
    """No checker may fire when nothing is injected (soundness)."""
    workload = default_workload(num_keys=NUM_KEYS, skew=0.99, seed=3,
                                value_size=32)
    cluster = Cluster(ClusterConfig(
        num_servers=4, cache_items=8, lookup_entries=128, value_slots=128,
        seed=3,
    ))
    cluster.load_workload_data(workload)
    cluster.warm_cache(workload, 8)
    cluster.start_controller()
    suite = InvariantSuite(cluster, interval=0.002)
    suite.start()
    client = cluster.sync_client(timeout=5.0)
    for kind, key_idx, value_idx in op_list:
        key = workload.keyspace.key(key_idx)
        if kind == "get":
            client.get(key)
        elif kind == "put":
            client.put(key, bytes([value_idx + 1]) * 16)
        else:
            client.delete(key)
    cluster.run(0.05)  # drain in-flight cache updates
    violations = suite.finalize()
    assert violations == [], [v.describe() for v in violations]


# -- chaos racks in lanes: the event loop as the reference ---------------------------


def chaos_snapshot(runner, report):
    """Every counter of a finished chaos run, plus each field of its
    report as ``report.<field>``: one dict for ``diff_snapshots``."""
    cluster = runner.cluster
    snap = counters_snapshot(cluster, cluster.clients[-1],
                             engine=cluster.engine)
    snap.update({f"report.{field.name}": getattr(report, field.name)
                 for field in dataclasses.fields(report)})
    return snap


def loop_and_lanes(make_runner):
    """``(report, snapshot, engine)`` of a chaos rack run on the event loop
    (its ``scalar_reason`` pinned before the first run) and of the same
    rack run as ``Cluster.run`` picks, in lanes."""
    out = []
    for lanes in (False, True):
        runner = make_runner()
        if not lanes:
            runner.cluster.scalar_reason = "event loop"
        report = runner.run()
        out.append((report, chaos_snapshot(runner, report),
                    runner.cluster.engine))
    return out


def assert_lanes_replay(make_runner):
    (loop, loop_snap, no_engine), (lanes, lanes_snap, engine) = \
        loop_and_lanes(make_runner)
    assert no_engine is None
    assert engine is not None and engine.coverage() > 0
    # A fault the lanes cannot replay falls back, and says why.
    assert set(engine.fallback_reasons) <= {"link_fault"}
    if engine.hook_ties:
        # Equal-time deliveries reached the hooks in stage order, not in
        # event order: only what the hooks derive may move.
        for key in ("report.violations", "report.reads_checked"):
            loop_snap.pop(key), lanes_snap.pop(key)
    else:
        assert lanes == loop
    assert diff_snapshots(loop_snap, lanes_snap) == []
    return loop


def scenario_runner(scenario: str, seed: int):
    """A scripted scenario's runner, as ``run_chaos`` builds it, at the
    small size of the differential: 1,000 queries."""
    config = ChaosConfig(seed=seed, duration=0.05, drain=0.05,
                         **SCENARIO_OVERRIDES.get(scenario, {}))
    runner = ChaosRunner(config, scenario=scenario)
    runner.schedule = scripted_schedule(scenario, config,
                                        runner.cluster.plan.server_ids)
    runner.injector = FaultInjector(runner.cluster, runner.schedule)
    return runner


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_scenario_replays_in_lanes(scenario):
    report = assert_lanes_replay(lambda: scenario_runner(scenario, seed=1))
    assert report.reads_checked > 0
    assert report.clean


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16),
       kind=st.sampled_from(["random", "loss-retry"]),
       prob=st.floats(0.1, 0.95),
       start=st.floats(0.0, 0.8),
       span=st.floats(0.05, 0.6),
       server=st.integers(0, 3),
       write_ratio=st.floats(0.0, 0.4))
def test_faulted_racks_replay_in_lanes(seed, kind, prob, start, span, server,
                                       write_ratio):
    """Random schedules, and loss bursts of any strength and placement on
    any server under client retries, replay in lanes."""
    def make():
        config = ChaosConfig(seed=seed, duration=0.04, drain=0.04,
                             write_ratio=write_ratio,
                             retries=kind == "loss-retry")
        runner = ChaosRunner(config, scenario=kind)
        ids = runner.cluster.plan.server_ids
        d = config.duration
        if kind == "random":
            runner.schedule = FaultSchedule.random(seed, d, ids)
        else:
            runner.schedule = FaultSchedule(seed=seed).loss_burst(
                start * d, ids[server % len(ids)], span * d, prob)
        runner.injector = FaultInjector(runner.cluster, runner.schedule)
        return runner

    assert_lanes_replay(make)


class TestChaosSabotage:
    """The lanes feed the invariant suite: a defect inside a lane flush
    is caught there, and a defect in what the lanes report is caught on
    the lanes side only."""

    #: one server, under client retries, at 25k q/s and crashed for
    #: 0.3 ms of every 1 ms: a write the lanes apply just before a crash
    #: loses its reply, and its retransmission after the restart reaches
    #: the shim's dedup window.
    RETRYING = dict(seed=0, num_servers=1, duration=0.05, drain=0.03,
                    retries=True, write_ratio=0.5, rate=20_000.0,
                    retry_max=20)

    def retrying_runner(self):
        config = ChaosConfig(**self.RETRYING)
        runner = ChaosRunner(config)
        sid = runner.cluster.plan.server_ids[0]
        runner.cluster.servers[sid].service_time = 40e-6
        runner.schedule = FaultSchedule(seed=config.seed)
        for ms in range(round(config.duration * 1e3)):
            runner.schedule.crash_server(ms * 1e-3 + 5e-4, sid, 3e-4)
        runner.injector = FaultInjector(runner.cluster, runner.schedule)
        return runner

    def test_dedup_bypass_for_a_lane_applied_write_names_exactly_once(
            self, monkeypatch):
        # Find a token the lanes applied inside a flush (a write
        # completion through the real shim) whose retransmission then
        # hit the shim's dedup window.
        flushing, applied, found = [], set(), []
        complete_write = fastpath.FastPathEngine._complete_write
        apply_write = ServerShim._apply_write
        lookup = DedupWindow.lookup

        def in_flush(engine, *args):
            flushing.append(True)
            try:
                return complete_write(engine, *args)
            finally:
                flushing.pop()

        def note(shim, pkt):
            if flushing:
                applied.add((pkt.src, pkt.token))
            return apply_write(shim, pkt)

        def spot(window, client, token):
            entry = lookup(window, client, token)
            if entry is not None and (client, token) in applied \
                    and not found:
                found.append((client, token))
            return entry

        monkeypatch.setattr(fastpath.FastPathEngine, "_complete_write",
                            in_flush)
        monkeypatch.setattr(ServerShim, "_apply_write", note)
        monkeypatch.setattr(DedupWindow, "lookup", spot)
        self.retrying_runner().run()
        assert found
        monkeypatch.undo()

        def bypass(window, client, token):
            if (client, token) == found[0]:
                return None     # the shim applies the duplicate again
            return lookup(window, client, token)

        monkeypatch.setattr(DedupWindow, "lookup", bypass)
        runs = loop_and_lanes(self.retrying_runner)
        client, token = found[0]
        for report, _, _ in runs:
            assert [v for v in report.violations
                    if "exactly-once-write" in v
                    and f"client={client} token={token}" in v], \
                report.violations
        (_, loop_snap, _), (_, lanes_snap, engine) = runs
        # The queue of the one server outgrows the retry budget at times,
        # and the event loop takes those windows.
        assert engine.coverage() > 0
        assert set(engine.fallback_reasons) <= {"retry_bound"}
        assert diff_snapshots(loop_snap, lanes_snap) == []

    def test_pre_invalidation_hit_value_names_the_stale_read(
            self, monkeypatch):
        # The lanes report each hit the value its entry held before the
        # last write invalidated it; the event loop serves the registers.
        stale = {}
        peek_value = geometry.PaperLayout.peek_value
        handle_write = geometry.PaperLayout.handle_write

        def remember(layout, key):
            value = peek_value(layout, key)
            if value is not None:
                stale[key] = value
            return handle_write(layout, key)

        def stale_peek(layout, key):
            value = peek_value(layout, key)
            return value if value is None else stale.get(key, value)

        monkeypatch.setattr(geometry.PaperLayout, "handle_write", remember)
        monkeypatch.setattr(geometry.PaperLayout, "peek_value", stale_peek)
        (loop, loop_snap, _), (lanes, lanes_snap, _) = loop_and_lanes(
            lambda: ChaosRunner(ChaosConfig(
                seed=4, duration=0.05, drain=0.03, retries=True,
                write_ratio=0.3)))
        assert loop.clean
        diffs = diff_snapshots(loop_snap, lanes_snap)
        assert len(diffs) == 1, diffs
        assert diffs[0].startswith("report.violations: [] != [")
        assert "no-stale-read" in diffs[0]
