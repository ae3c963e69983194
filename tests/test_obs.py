"""Unit tests for the observability layer (repro.obs).

Covers span nesting and exception safety, registry isolation between
runs, metric semantics, exporter round-trips, and the instrumentation
hooks in the data plane / client / simulator behind the zero-cost guard.
"""

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import runtime
from repro.obs.export import (
    latency_summary,
    parse_jsonl,
    registry_from_jsonl,
    registry_to_jsonl,
    tracer_to_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.registry import Registry
from repro.obs.span import Tracer


class FakeClock:
    """Deterministic clock the tests advance by hand."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with observability disabled."""
    runtime.disable()
    yield
    runtime.disable()


# -- spans ----------------------------------------------------------------------


def test_span_records_duration_and_count():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("work"):
        clock.advance(2.0)
    summary = tracer.summary()
    assert summary["work"]["count"] == 1
    assert summary["work"]["total"] == pytest.approx(2.0)
    assert summary["work"]["errors"] == 0


def test_span_nesting_parent_depth_and_exclusive_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer") as outer:
        clock.advance(1.0)
        with tracer.span("inner") as inner:
            assert inner.parent is outer
            assert inner.depth == 1
            assert tracer.current() is inner
            clock.advance(3.0)
        clock.advance(1.0)
    assert tracer.depth == 0
    summary = tracer.summary()
    assert summary["outer"]["total"] == pytest.approx(5.0)
    # Exclusive = outer minus the 3 s spent in the child.
    assert summary["outer"]["exclusive"] == pytest.approx(2.0)
    assert summary["inner"]["exclusive"] == pytest.approx(3.0)


def test_span_recursive_same_name():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("recurse"):
        clock.advance(1.0)
        with tracer.span("recurse"):
            clock.advance(1.0)
    summary = tracer.summary()
    assert summary["recurse"]["count"] == 2
    # total double-counts nested time by design; exclusive does not.
    assert summary["recurse"]["exclusive"] == pytest.approx(2.0)


def test_span_exception_safety():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("boom"):
                clock.advance(1.0)
                raise ValueError("kaboom")
    # Both spans were closed, the stack is empty, the error is attributed
    # to every span the exception unwound through.
    assert tracer.depth == 0
    summary = tracer.summary()
    assert summary["boom"]["errors"] == 1
    assert summary["boom"]["total"] == pytest.approx(1.0)
    assert summary["outer"]["errors"] == 1


def test_span_histograms_land_in_registry():
    clock = FakeClock()
    registry = Registry()
    tracer = Tracer(clock=clock, registry=registry)
    with tracer.span("step"):
        clock.advance(0.25)
    hist = registry.get("span.step")
    assert hist is not None and hist.count == 1
    assert hist.sum == pytest.approx(0.25)


def test_tracer_event_buffer_bounded():
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep_events=True, max_events=2)
    for _ in range(5):
        with tracer.span("e"):
            clock.advance(0.1)
    assert len(tracer.events) == 2
    assert tracer.events_dropped == 3
    assert tracer.events[0]["name"] == "e"


def test_wall_shares_sum_to_one():
    sim = FakeClock()
    wall = FakeClock()
    tracer = Tracer(clock=sim, wall_clock=wall)
    with tracer.span("a"):
        wall.advance(3.0)
    with tracer.span("b"):
        wall.advance(1.0)
    shares = tracer.wall_shares()
    assert shares["a"] == pytest.approx(0.75)
    assert shares["b"] == pytest.approx(0.25)
    assert sum(shares.values()) == pytest.approx(1.0)


# -- metrics --------------------------------------------------------------------


def test_counter_and_gauge_semantics():
    c = Counter("c")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ConfigurationError):
        c.inc(-1)
    g = Gauge("g")
    g.set(2.5)
    g.inc()
    assert g.value == pytest.approx(3.5)


def test_histogram_quantiles_on_known_data():
    hist = Histogram("h", edges=[float(i) for i in range(101)])
    for v in range(1, 101):  # 1..100, one per bucket
        hist.observe(float(v))
    assert hist.count == 100
    assert hist.quantile(0.0) == pytest.approx(1.0)
    assert hist.quantile(0.5) == pytest.approx(50.0)
    assert hist.quantile(0.99) == pytest.approx(99.0)
    assert hist.quantile(1.0) == pytest.approx(100.0)
    assert hist.mean == pytest.approx(50.5)


def test_histogram_empty_and_validation():
    hist = Histogram("h")
    assert hist.quantile(0.5) is None
    assert hist.mean is None
    with pytest.raises(ConfigurationError):
        hist.quantile(1.5)
    with pytest.raises(ConfigurationError):
        Histogram("bad", edges=[1.0, 1.0])


def test_histogram_clamps_to_observed_range():
    hist = Histogram("h", edges=[1.0, 10.0, 100.0])
    hist.observe(3.0)
    hist.observe(4.0)
    # The rank bucket's upper edge is 10.0, but no value exceeds 4.0.
    assert hist.quantile(0.99) == pytest.approx(4.0)
    hist.observe(1e6)  # overflow bucket
    assert hist.quantile(1.0) == pytest.approx(1e6)


def test_registry_get_or_create_and_type_conflicts():
    registry = Registry()
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(ConfigurationError):
        registry.gauge("x")
    registry.histogram("h").observe(1.0)
    registry.reset()
    assert registry.get("h").count == 0
    assert registry.counter("x").value == 0


# -- run isolation ----------------------------------------------------------------


def test_sessions_do_not_nest_and_disable_is_idempotent():
    obs.enable()
    with pytest.raises(ConfigurationError):
        obs.enable()
    assert obs.disable() is not None
    assert obs.disable() is None
    assert runtime.ACTIVE is None


def test_registry_isolation_between_sessions():
    with obs.session() as first:
        first.registry.counter("only.here").inc()
    with obs.session() as second:
        assert "only.here" not in second.registry
        assert second is not first


def test_session_tears_down_on_exception():
    with pytest.raises(RuntimeError):
        with obs.session():
            raise RuntimeError("mid-run crash")
    assert runtime.ACTIVE is None


# -- exporters --------------------------------------------------------------------


def _populated_registry() -> Registry:
    registry = Registry()
    registry.counter("queries.total").inc(42)
    registry.gauge("cache.size").set(16.5)
    hist = registry.histogram("latency", edges=[0.001, 0.01, 0.1])
    for v in (0.0005, 0.004, 0.05, 5.0):
        hist.observe(v)
    return registry


def test_jsonl_round_trip_is_exact():
    registry = _populated_registry()
    text = registry_to_jsonl(registry)
    rebuilt = registry_from_jsonl(text)
    assert registry_to_jsonl(rebuilt) == text
    assert parse_jsonl(text)["queries.total"]["value"] == 42
    assert rebuilt.get("latency").quantile(0.5) == \
        registry.get("latency").quantile(0.5)


def test_parse_jsonl_rejects_garbage():
    with pytest.raises(ConfigurationError):
        parse_jsonl("not json\n")
    with pytest.raises(ConfigurationError):
        parse_jsonl('{"type": "counter", "value": 1}\n')  # no name


def test_tracer_jsonl_export():
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep_events=True)
    with tracer.span("phase"):
        clock.advance(1.0)
    text = tracer_to_jsonl(tracer)
    lines = text.strip().splitlines()
    assert any('"kind": "span_summary"' in ln for ln in lines)
    assert any('"kind": "span_event"' in ln for ln in lines)


def test_latency_summary_digest():
    registry = _populated_registry()
    digest = latency_summary(registry)
    assert set(digest) == {"latency"}
    assert digest["latency"]["count"] == 4
    assert digest["latency"]["p50"] is not None


# -- instrumentation hooks ---------------------------------------------------------


def _mini_dataplane():
    from repro.core.dataplane import NetCacheDataplane
    from repro.net.routing import RoutingTable

    routing = RoutingTable(default_port=0)
    routing.add_route(1, 1)
    routing.add_route(2, 2)
    dp = NetCacheDataplane(routing, num_pipes=1, ports_per_pipe=8,
                           entries=64, value_slots=64)
    dp.install(b"0123456789abcdef", b"v" * 16, 1)
    return dp


def test_dataplane_spans_only_when_enabled():
    from repro.net.packet import make_get

    dp = _mini_dataplane()
    dp.process(make_get(2, 1, b"0123456789abcdef"), 2)
    with obs.session() as o:
        dp.process(make_get(2, 1, b"0123456789abcdef"), 2)
        assert o.tracer.summary()["dataplane.process"]["count"] == 1
    # The disabled-path call above left no trace anywhere to find.
    assert runtime.ACTIVE is None


def test_cluster_run_populates_client_and_net_metrics(small_cluster,
                                                     small_workload):
    with obs.session(clock=obs.sim_clock(small_cluster.sim)) as o:
        client = small_cluster.sync_client()
        hot = small_workload.hottest_keys(1)[0]
        client.get(hot)
        client.put(hot, b"new-value")
        client.get(hot)
        assert o.client_hits.value >= 2
        assert o.client_latency.count == 3
        assert o.net_delivered.value > 0
        summary = o.tracer.summary()
        assert summary["dataplane.process"]["count"] >= 3
        assert summary["shim.handle_write"]["count"] == 1
        # Sim-time latencies are real link latencies, not zero.
        assert o.client_latency.max > 0


def test_chaos_runner_emits_spans_and_recovery_gauge():
    from repro.faults import run_chaos

    with obs.session() as o:
        report = run_chaos(scenario="reboot", seed=3, duration=0.1,
                           num_servers=2, rate=5_000.0)
        assert report.recovery_time is not None
        summary = o.tracer.summary()
        assert summary["chaos.faulted"]["count"] == 1
        assert summary["chaos.drain"]["count"] == 1
        assert o.registry.get("chaos.recovery_time").value >= 0.0
