"""Property-based differential replay: scalar loop vs lanes engine.

Hypothesis drives random small racks (topology, workload mix, faults) and
asserts the batched fast path reproduces the scalar event loop's counters
*byte-identically* — delivery/loss/drop totals, per-key hit counters,
per-server and per-link accounting, and the order-sensitive delivery-trace
digest.  Any divergence the hand-picked scenarios in ``test_simcore.py``
miss should shrink to a small reproducer here.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.net.fastpath import FastPathEngine
from repro.net.trace import DeliveryTrace
from repro.reliability.retry import RetryPolicy
from repro.sim.experiments import fig10c_rack
from repro.sim.simcore import (
    SimCoreConfig,
    build_rack,
    counters_snapshot,
    diff_snapshots,
)

DURATION = 0.03
#: ``NetCacheSwitch.report_latency``: how long a report is in flight.
REPORT_LATENCY = 50e-6


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A structurally valid fault script (times are fractions of the run)."""

    flap_server: bool      # crash at 0.2, restart at 0.6
    victim: int            # index into server_ids (modulo num_servers)
    loss_burst: bool       # client link, 0.3 -> 0.55
    burst_prob: float
    dup_window: bool       # one server link, 0.4 -> 0.7
    dup_prob: float
    #: >= 0: a reordering window opens on the client link while this
    #: hot-key report (counted from the run's first, modulo how many
    #: there are) is half way to the controller, so the lanes engine
    #: falls back with the report still in its lane; -1: no such window.
    report_cut: int = -1

    def apply(self, cluster, client, report_times=()):
        ev = cluster.sim.events
        d = DURATION
        ids = cluster.plan.server_ids
        if self.flap_server:
            sid = ids[self.victim % len(ids)]
            ev.schedule_abs(0.2 * d, cluster.crash_server, sid)
            ev.schedule_abs(0.6 * d, cluster.restart_server, sid)
        if self.loss_burst:
            link = cluster.link_to(client.node_id)
            ev.schedule_abs(0.3 * d, link.start_loss_burst,
                            self.burst_prob, 0.55 * d)
        if self.dup_window:
            link = cluster.link_to(ids[(self.victim + 1) % len(ids)])
            ev.schedule_abs(0.4 * d, link.set_duplication, self.dup_prob)
            ev.schedule_abs(0.7 * d, link.set_duplication, 0.0)
        if self.report_cut >= 0 and report_times:
            arrival = report_times[self.report_cut % len(report_times)]
            link = cluster.link_to(client.node_id)
            ev.schedule_abs(arrival - REPORT_LATENCY / 2,
                            link.set_reordering, 0.3)
            ev.schedule_abs(arrival + 2 * REPORT_LATENCY,
                            link.set_reordering, 0.0)


configs = st.builds(
    SimCoreConfig,
    num_servers=st.integers(2, 5),
    num_keys=st.sampled_from([100, 250, 400]),
    cache_items=st.sampled_from([8, 16, 32]),
    lookup_entries=st.just(128),
    write_ratio=st.sampled_from([0.0, 0.1, 0.3]),
    rate=st.sampled_from([5e4, 1e5, 2e5]),
    duration=st.just(DURATION),
    warm=st.booleans(),
    hot_threshold=st.sampled_from([4, 8]),
    retries=st.booleans(),
    seed=st.integers(0, 2**16),
)


@st.composite
def multi_client_configs(draw):
    """Random client counts and per-client rates for the k-way merge."""
    base = draw(configs)
    k = draw(st.integers(1, 3))
    rates = tuple(draw(st.sampled_from([3e4, 5e4, 1e5])) for _ in range(k))
    return dataclasses.replace(base, num_clients=k, client_rates=rates)

plans = st.builds(
    FaultPlan,
    flap_server=st.booleans(),
    victim=st.integers(0, 4),
    loss_burst=st.booleans(),
    burst_prob=st.sampled_from([0.2, 0.5]),
    dup_window=st.booleans(),
    dup_prob=st.sampled_from([0.2, 0.4]),
    report_cut=st.integers(-1, 40),
)


def report_arrivals(config, plan):
    """When each hot-key report reaches the controller, from a scalar run
    of the plan without its report cut.  The cut opens after the chosen
    report left the switch, so that report still leaves at the same time
    in the runs that have the cut."""
    cluster, client, _ = build_rack(config)
    assert cluster.switch.report_latency == REPORT_LATENCY
    dataclasses.replace(plan, report_cut=-1).apply(cluster, client)
    times = []
    deliver = cluster.switch.hot_key_handler

    def spy(key):
        times.append(cluster.sim.now)
        deliver(key)

    cluster.switch.hot_key_handler = spy
    cluster.sim.run_until(cluster.sim.now + config.duration)
    return times


def run_path(config, plan, batched, report_times=(), session=False):
    """One path of *config* under *plan*; with *session*, inside an
    observability session on the rack's sim clock, so the snapshot
    carries the registry."""
    cluster, client, _ = build_rack(config)
    trace = DeliveryTrace()
    if not batched:
        trace.attach(cluster.sim)
    plan.apply(cluster, client, report_times)
    if session:
        with obs.session(clock=obs.sim_clock(cluster.sim)):
            return drive(config, cluster, client, trace, batched)
    return drive(config, cluster, client, trace, batched)


def drive(config, cluster, client, trace, batched):
    if batched:
        engine = FastPathEngine(cluster, trace=trace)
        materialize, in_lane = engine._materialize, []

        def spy():
            in_lane.append(engine._reports.pending())
            materialize()

        engine._materialize = spy
        engine.run(config.duration)
        snap = counters_snapshot(cluster, client, trace, engine=engine)
        snap["fastpath.reports_materialized"] = sum(in_lane)
        snap["fastpath.ends_in_lanes"] = engine._mode == "fast"
        return snap
    cluster.sim.run_until(cluster.sim.now + config.duration)
    return counters_snapshot(cluster, client, trace)


def replay_both(config, plan):
    times = report_arrivals(config, plan) if plan.report_cut >= 0 else ()
    scalar = run_path(config, plan, False, times)
    batched = run_path(config, plan, True, times)
    assert diff_snapshots(scalar, batched) == []
    if times and not (plan.flap_server or plan.loss_burst
                      or plan.dup_window):
        # Nothing else could have had the engine in scalar mode already:
        # the cut found the report in its lane, and the empty diff says
        # it reached the controller as an event at its original time.
        assert batched["fastpath.reports_materialized"] >= 1


@given(config=configs, plan=plans)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_batched_replays_scalar_exactly(config, plan):
    replay_both(config, plan)


@given(config=multi_client_configs(), plan=plans)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_kway_merge_replays_scalar_exactly(config, plan):
    """The vectorized k-way merge of analytic send streams interleaves
    exactly like k independent scalar clients racing on the event heap —
    per-client counters, per-link accounting, and the order-sensitive
    trace digest all byte-identical, faults and retries included."""
    replay_both(config, plan)


#: a quarter-size Fig 10(c) rack: 4 servers x 20k q/s.
CLUSTER_RACK = dict(num_servers=4, server_rate=20_000.0, num_keys=400,
                    cache_items=32)


@given(enable_cache=st.booleans(), load=st.floats(0.3, 1.5),
       controller=st.booleans(), seed=st.integers(0, 2**16),
       splits=st.lists(st.sampled_from([0.001, 0.0025, 0.004]),
                       min_size=1, max_size=3),
       tail=st.sampled_from([0.0, 0.002]))
@example(enable_cache=False, load=1.5, controller=False, seed=0,
         splits=[0.0025, 0.004], tail=0.002)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cluster_run_replays_scalar_exactly(enable_cache, load, controller,
                                            seed, splits, tail):
    """``Cluster.run`` in one to three calls, then perhaps a trailing
    ``sim.run_until`` (which goes through the engine the first call
    attached), against ``sim.run_until`` on a fresh twin; offered loads
    past capacity build server queues."""
    rate = load * CLUSTER_RACK["num_servers"] * CLUSTER_RACK["server_rate"]
    racks = []
    for lanes in (True, False):
        cluster, client = fig10c_rack(enable_cache, rate, seed=seed,
                                      **CLUSTER_RACK)
        if controller:
            cluster.start_controller()
        racks.append((cluster, client))
    (lanes, lanes_client), (scalar, scalar_client) = racks
    for seconds in splits:
        lanes.run(seconds)
    if tail:
        lanes.sim.run_until(lanes.sim.now + tail)
    scalar.sim.run_until(lanes.sim.now)
    assert lanes.scalar_reason is None
    batched = counters_snapshot(lanes, lanes_client, engine=lanes.engine)
    assert diff_snapshots(counters_snapshot(scalar, scalar_client),
                          batched) == []
    assert batched["fastpath.coverage"] == 1.0


_RACK = dict(num_servers=4, num_keys=400, cache_items=16,
             lookup_entries=128, rate=1e5, duration=DURATION)
NO_FAULTS = FaultPlan(flap_server=False, victim=0, loss_burst=False,
                      burst_prob=0.5, dup_window=False, dup_prob=0.2)


class SlowServers:
    """No fault: servers at ~9k q/s from 30% to 45% of the run, so their
    queues outgrow the retry budget.  The lanes' reply-latency bound
    fails, the event loop retransmits, and once the queues drain the
    bound holds and the lanes resume."""

    def apply(self, cluster, client, report_times=()):
        ev = cluster.sim.events
        for server in cluster.servers.values():
            ev.schedule_abs(0.3 * DURATION, setattr, server, "service_time",
                            1.1e-4)
            ev.schedule_abs(0.45 * DURATION, setattr, server, "service_time",
                            server.service_time)


@pytest.mark.parametrize("config, plan", [
    (SimCoreConfig(retries=True, seed=1, **_RACK), SlowServers()),
    (SimCoreConfig(write_ratio=0.1, num_clients=2, client_rates=(1e5, 5e4),
                   retries=True, seed=12, **_RACK), NO_FAULTS),
    (SimCoreConfig(retries=True, seed=13, **_RACK),
     dataclasses.replace(NO_FAULTS, loss_burst=True)),
], ids=["read-overloaded", "mixed-retries", "fallback"])
def test_registry_replays_scalar_exactly(config, plan):
    """Inside a session the lanes feed the registry what the per-packet
    loop feeds it: every ``obs.*`` metric of the snapshot — the
    ``client.request`` histogram down to its float sum, the hit/miss and
    delivered/dropped counters, cache-update RTTs — is identical."""
    scalar = run_path(config, plan, False, session=True)
    batched = run_path(config, plan, True, session=True)
    assert diff_snapshots(scalar, batched) == []
    assert scalar["obs.client.request"]["count"] > 0
    if isinstance(plan, SlowServers):
        assert scalar["obs.client.timeouts"]["value"] > 0
        assert set(batched["fastpath.fallbacks"]) == {"retry_bound"}
        assert 0.0 < batched["fastpath.coverage"] < 1.0
        assert batched["fastpath.ends_in_lanes"]
    if config.write_ratio:
        assert scalar["obs.shim.cache_update.rtt"]["count"] > 0
    if getattr(plan, "loss_burst", False):
        assert batched["fastpath.fallbacks"] == {"link_fault": 1}
        assert scalar["obs.net.dropped"]["value"] > 0
    elif plan is NO_FAULTS:
        assert batched["fastpath.coverage"] == 1.0


@dataclasses.dataclass(frozen=True)
class RetryRack:
    """No fault: every server at one service time, the first one
    *slowdown* times slower for the middle fifth of the run, and every
    client on one retry policy.  Across the draws the lanes' reply-latency
    bound holds throughout, fails and recovers, or never holds."""

    service_time: float
    slowdown: float
    timeout: float
    jitter: float

    def apply(self, cluster, client, report_times=()):
        policy = RetryPolicy(timeout=self.timeout, jitter=self.jitter,
                             seed=7)
        for each in cluster.clients:
            each.retry_policy = policy
        servers = list(cluster.servers.values())
        for server in servers:
            server.service_time = self.service_time
        if self.slowdown > 1.0:
            ev = cluster.sim.events
            ev.schedule_abs(0.4 * DURATION, setattr, servers[0],
                            "service_time", self.service_time * self.slowdown)
            ev.schedule_abs(0.6 * DURATION, setattr, servers[0],
                            "service_time", self.service_time)


retry_racks = st.builds(
    RetryRack,
    service_time=st.sampled_from([1e-7, 5e-6, 2e-5, 4e-5]),
    slowdown=st.sampled_from([1.0, 4.0, 20.0]),
    timeout=st.sampled_from([100e-6, 400e-6, 1e-3]),
    jitter=st.sampled_from([0.0, 0.2, 0.6]))

LAYOUTS = {"paper": {}, "setassoc": {},
           "orbit": dict(value_size=96, num_value_stages=2)}


@st.composite
def retry_configs(draw):
    layout = draw(st.sampled_from(sorted(LAYOUTS)))
    return SimCoreConfig(
        num_servers=draw(st.integers(2, 4)),
        num_keys=draw(st.sampled_from([100, 400])),
        cache_items=draw(st.sampled_from([8, 32])), lookup_entries=128,
        write_ratio=draw(st.sampled_from([0.0, 0.1])),
        rate=draw(st.sampled_from([2e4, 5e4, 1e5, 2e5])),
        duration=DURATION, retries=True, layout=layout,
        seed=draw(st.integers(0, 2**16)), **LAYOUTS[layout])


@given(config=retry_configs(), rack=retry_racks)
@example(config=SimCoreConfig(retries=True, seed=2, **_RACK),
         rack=RetryRack(1e-7, 1.0, 400e-6, 0.2))
@example(config=SimCoreConfig(write_ratio=0.1, retries=True, seed=3,
                              layout="orbit", value_size=96,
                              num_value_stages=2, **_RACK),
         rack=RetryRack(5e-6, 20.0, 400e-6, 0.2))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_retry_racks_replay_scalar_exactly(config, rack):
    """Both sides of the reply-latency bound's threshold: service rate,
    offered load, retry timeout and jitter, and layout drawn at random;
    the lanes take whole windows, the event loop steps while the bound
    fails, or both, and the counters stay byte-identical to the event
    loop's.

    Offered load stays below half the servers' capacity, during the
    burst too when the rack writes: an overloaded rack with writes
    diverges through exact float ties at its servers, with or without
    the bound (a known gap of the engine, not of the bound)."""
    load = config.rate * rack.service_time / config.num_servers
    assume(load < 0.5 and (load * rack.slowdown < 0.5
                           or not config.write_ratio))
    scalar = run_path(config, rack, False)
    batched = run_path(config, rack, True)
    assert diff_snapshots(scalar, batched) == []
    fallbacks = batched["fastpath.fallbacks"]
    assert set(fallbacks) <= {"retry_bound"}
    event("retry_bound fallback" if fallbacks else "whole windows")
