"""The controller's bulk victim decision against its per-key spec.

``CacheController._pick_victim`` samples a cached-key list it keeps
across decisions, reads the sampled counters in one register gather,
and takes the candidate's estimate from one ``estimate_batch`` call per
round.  The spec is the per-key loop it replaced: a fresh
``cached_keys()`` list per decision, ``min(sample, key=counter_of)``,
``estimate(candidate)`` and a re-read of the coldest counter.  The twin
holds one decision at a time to the spec (victim, RNG state, register
reads); the rack differential holds whole runs to it through
``diff_snapshots``, and one sabotage run proves that differential can
fail.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import CacheController
from repro.core.switch import NetCacheSwitch
from repro.faults import FaultInjector
from repro.faults.runner import (
    SCENARIO_OVERRIDES,
    ChaosConfig,
    ChaosRunner,
    scripted_schedule,
)
from repro.kvstore.partition import HashPartitioner
from repro.kvstore.server import StorageServer
from repro.net.fastpath import FastPathEngine
from repro.net.trace import DeliveryTrace
from repro.sim.simcore import (
    SimCoreConfig,
    build_rack,
    counters_snapshot,
    diff_snapshots,
)


def spec_pick_victim(controller, candidate):
    """The per-key victim decision: sample keys, read each counter, take
    the first minimum, compare the candidate's estimate with a re-read."""
    switch = controller.switch
    cached = switch.cached_keys()
    if not cached:
        return None
    sample = (cached if len(cached) <= controller.sample_size
              else controller._rng.sample(cached, controller.sample_size))
    coldest = min(sample, key=switch.counter_of)
    estimate = switch.dataplane.stats.sketch.estimate(candidate)
    if estimate <= switch.counter_of(coldest):
        return None
    return coldest


class PerKeyController(CacheController):
    """A controller whose rounds run :func:`spec_pick_victim`."""

    def _update_round(self):
        self.rounds += 1
        inserted = 0
        pending, self._pending = self._pending, []
        self._pending_set.clear()
        for key in pending:
            if self.switch.dataplane.is_cached(key):
                continue
            victim = None
            if self.switch.dataplane.cache_size() >= self.cache_capacity:
                victim = spec_pick_victim(self, key)
                if victim is None:
                    self.rejections += 1
                    continue
            if self._insert(key, victim=victim):
                inserted += 1
        return inserted


class StaleListController(CacheController):
    """Sabotage: keeps sampling the cached-key list it held before an
    install or evict."""

    def _insert(self, key, victim=None):
        inserted = super()._insert(key, victim)
        self._cached_version = self.switch.dataplane.contents_version
        return inserted


# -- one decision at a time ----------------------------------------------------------

MAX_FILL = 40
#: the 16-bit per-key counter register's ceiling
SATURATED = 0xFFFF
COUNTS = st.one_of(st.integers(0, 3), st.just(SATURATED))


def cached_key(i):
    return b"cached-%d" % i


def build_controller(seed, sample_size, fill, counts, stale, candidates):
    """A switch holding *fill* keys with the drawn counters (the stale
    ones written an epoch ago), a sketch holding the candidates' counts,
    and a controller over it."""
    switch = NetCacheSwitch(1, num_pipes=1, ports_per_pipe=8,
                            entries=64, value_slots=64)
    server = StorageServer(10, gateway=1)
    controller = CacheController(
        switch, HashPartitioner([10]), {10: server},
        cache_capacity=MAX_FILL, sample_size=sample_size, seed=seed)
    dataplane = switch.dataplane
    # Mixed key lengths, so the cached list mixes lengths too.
    keys = [cached_key(i) * (1 + i % 3) for i in range(fill)]
    for key in keys:
        assert dataplane.install(key, b"v", 0)
    counters = dataplane.stats.counters
    sketch = dataplane.stats.sketch
    for old in (True, False):
        for key, count, is_stale in zip(keys, counts, stale):
            if is_stale == old:
                counters.write_int(dataplane.layout.key_index_of(key), count)
        for key, count, is_stale in candidates:
            if is_stale == old and count:
                sketch.update(key, count)
        if old:
            counters.clear()
            sketch.reset()
    return controller


def test_counters_of_is_the_counter_of_loop():
    """Values and register reads, uncached keys (0, no read) included."""
    bulk = build_controller(1, 8, 6, [3, 0, SATURATED, 1, 1, 2],
                            [False, True] * 3, [])
    spec = build_controller(1, 8, 6, [3, 0, SATURATED, 1, 1, 2],
                            [False, True] * 3, [])
    keys = spec.switch.cached_keys() + [b"uncached"]
    keys = keys[3:] + keys[:3]
    got = bulk.switch.dataplane.counters_of(keys)
    assert got.tolist() == [spec.switch.counter_of(k) for k in keys]
    assert (bulk.switch.dataplane.stats.counters.reads
            == spec.switch.dataplane.stats.counters.reads == 6)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sample_size=st.sampled_from([1, 4, 8, 32]),
       fill=st.integers(0, MAX_FILL),
       counts=st.lists(COUNTS, min_size=MAX_FILL, max_size=MAX_FILL),
       stale=st.lists(st.booleans(), min_size=MAX_FILL, max_size=MAX_FILL),
       candidates=st.lists(
           st.tuples(st.binary(min_size=1, max_size=20),
                     st.one_of(st.integers(0, 4), st.just(SATURATED)),
                     st.booleans()),
           min_size=1, max_size=12, unique_by=lambda c: c[0]))
def test_bulk_decision_is_the_per_key_loop(seed, sample_size, fill, counts,
                                           stale, candidates):
    """Same victim or rejection, same RNG state and same counter-register
    reads after every decision; an accepted decision is applied to both
    sides, so later ones sample a list that an evict and install moved."""
    spec = build_controller(seed, sample_size, fill, counts, stale,
                            candidates)
    bulk = build_controller(seed, sample_size, fill, counts, stale,
                            candidates)
    keys = [key for key, _, _ in candidates]
    estimates = bulk.switch.dataplane.stats.sketch.estimate_batch(keys)
    for key, estimate in zip(keys, estimates.tolist()):
        want = spec_pick_victim(spec, key)
        got = bulk._pick_victim(estimate)
        assert got == want
        assert bulk._rng.getstate() == spec._rng.getstate()
        assert (bulk.switch.dataplane.stats.counters.reads
                == spec.switch.dataplane.stats.counters.reads)
        if want is not None and not spec.switch.dataplane.is_cached(key):
            for side in (spec, bulk):
                assert side.switch.evict(want)
                assert side.switch.dataplane.install(key, b"v", 0)


# -- whole racks ---------------------------------------------------------------------

#: a ``lanes_read``-shaped rack: warm 64-item cache, reads only (105
#: insertions, 41 evictions at seed 1)
READ = SimCoreConfig(rate=1e6, duration=0.05, seed=1)
#: a cold ``lanes_bigkeys``-shaped rack: the cache fills from empty, then
#: churns (428 evictions at seed 1)
COLD = SimCoreConfig(num_keys=20_000, cache_items=256, lookup_entries=1024,
                     num_servers=16, warm=False, rate=1e6, duration=0.05,
                     seed=1)


def run_rack(config, controller_class=CacheController):
    cluster, client, _ = build_rack(config)
    cluster.controller.__class__ = controller_class
    trace = DeliveryTrace()
    engine = FastPathEngine(cluster, trace=trace)
    engine.run(config.duration)
    snap = counters_snapshot(cluster, client, trace, engine=engine)
    snap["stats.counters.reads"] = \
        cluster.switch.dataplane.stats.counters.reads
    return snap


def run_loss_retry(controller_class=CacheController):
    """The ``loss-retry`` chaos scenario, built as ``run_chaos`` builds it:
    loss bursts on two server links under retrying clients."""
    duration = 0.06
    config = ChaosConfig(
        seed=1, rate=100_000, duration=duration, drain=0.05,
        stats_interval=duration / 3, invariant_interval=duration / 30,
        retry_max=80, retry_backoff=1.0, retry_timeout=200e-6,
        **SCENARIO_OVERRIDES["loss-retry"])
    runner = ChaosRunner(config, scenario="loss-retry")
    runner.schedule = scripted_schedule("loss-retry", config,
                                        runner.cluster.plan.server_ids)
    runner.injector = FaultInjector(runner.cluster, runner.schedule)
    cluster = runner.cluster
    cluster.controller.__class__ = controller_class
    report = runner.run()
    assert report.clean
    snap = counters_snapshot(cluster, cluster.clients[-1])
    snap["stats.counters.reads"] = \
        cluster.switch.dataplane.stats.counters.reads
    snap["chaos.event_log"] = report.event_log_text()
    return snap


@pytest.mark.parametrize("config", [READ, COLD], ids=["read", "cold"])
def test_rack_matches_the_per_key_controller(config):
    bulk = run_rack(config)
    assert bulk["controller.evictions"] > 0
    assert diff_snapshots(run_rack(config, PerKeyController), bulk) == []


def test_loss_retry_rack_matches_the_per_key_controller():
    bulk = run_loss_retry()
    assert bulk["controller.evictions"] > 0
    assert diff_snapshots(run_loss_retry(PerKeyController), bulk) == []


def test_a_stale_cached_key_list_is_named():
    diffs = diff_snapshots(run_rack(READ), run_rack(READ, StaleListController))
    named = {diff.split(":")[0] for diff in diffs}
    assert {"cache.key_counters", "controller.evictions"} <= named, diffs
