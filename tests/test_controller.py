"""Tests for the cache-update controller."""

import pytest

from repro.core.controller import CacheController
from repro.core.switch import NetCacheSwitch
from repro.errors import ConfigurationError
from repro.kvstore.partition import HashPartitioner
from repro.kvstore.server import StorageServer
from repro.net.simulator import Simulator


def rig(capacity=4, num_servers=2):
    sim = Simulator()
    switch = NetCacheSwitch(1, num_pipes=1, ports_per_pipe=8,
                            entries=64, value_slots=64)
    switch.dataplane.stats.set_sample_rate(1.0)
    sim.add_node(switch)
    servers = {}
    for i in range(num_servers):
        sid = 10 + i
        server = StorageServer(sid, gateway=1)
        sim.add_node(server)
        sim.connect(1, sid)
        switch.attach_neighbor(i, sid)
        servers[sid] = server
    partitioner = HashPartitioner(list(servers))
    controller = CacheController(switch, partitioner, servers,
                                 cache_capacity=capacity, sample_size=8,
                                 seed=3)
    return sim, switch, servers, partitioner, controller


def load(servers, partitioner, items):
    for key, value in items.items():
        servers[partitioner.server_for(key)].store.put(key, value)


def key(i):
    return f"ctrlkey{i:09d}".encode()


class TestReports:
    def test_reports_deduplicated(self):
        _, _, _, _, controller = rig()
        controller.report_hot_key(key(1))
        controller.report_hot_key(key(1))
        assert len(controller._pending) == 1

    def test_handler_registered_on_switch(self):
        _, switch, _, _, controller = rig()
        assert switch.hot_key_handler == controller.report_hot_key


class TestInsertion:
    def test_hot_key_inserted_below_capacity(self):
        sim, switch, servers, part, controller = rig()
        load(servers, part, {key(1): b"v1"})
        controller.report_hot_key(key(1))
        assert controller.update_round() == 1
        assert switch.dataplane.is_cached(key(1))
        assert switch.dataplane.read_cached_value(key(1)) == b"v1"

    def test_missing_value_rejected(self):
        _, switch, _, _, controller = rig()
        controller.report_hot_key(key(1))
        assert controller.update_round() == 0
        assert controller.rejections == 1

    def test_already_cached_skipped(self):
        sim, switch, servers, part, controller = rig()
        load(servers, part, {key(1): b"v1"})
        controller.report_hot_key(key(1))
        controller.update_round()
        controller.report_hot_key(key(1))
        assert controller.update_round() == 0
        assert controller.insertions == 1

    def test_insertion_blocks_and_releases_writes(self):
        sim, switch, servers, part, controller = rig()
        load(servers, part, {key(1): b"v1"})
        server = servers[part.server_for(key(1))]
        controller.report_hot_key(key(1))
        controller.update_round()
        # After insertion completes, no blocked writes remain.
        assert server.shim.blocked_writes == 0


class TestEviction:
    def _fill(self, controller, servers, part, capacity):
        items = {key(i): b"v" for i in range(capacity)}
        load(servers, part, items)
        for i in range(capacity):
            controller.report_hot_key(key(i))
        controller.update_round()

    def test_hotter_candidate_evicts_coldest(self):
        sim, switch, servers, part, controller = rig(capacity=4)
        self._fill(controller, servers, part, 4)
        assert switch.dataplane.cache_size() == 4
        # Make the candidate hot in the sketch, cached keys stay cold.
        candidate = key(99)
        load(servers, part, {candidate: b"hot"})
        for _ in range(50):
            switch.dataplane.stats.sketch.update(candidate)
        controller.report_hot_key(candidate)
        controller.update_round()
        assert switch.dataplane.is_cached(candidate)
        assert switch.dataplane.cache_size() == 4
        assert controller.evictions == 1

    def test_colder_candidate_rejected(self):
        sim, switch, servers, part, controller = rig(capacity=4)
        self._fill(controller, servers, part, 4)
        # Warm the cached keys' counters.
        for i in range(4):
            idx = switch.dataplane.layout.key_index_of(key(i))
            switch.dataplane.stats.counters.add(idx, 100)
        candidate = key(99)
        load(servers, part, {candidate: b"meh"})
        switch.dataplane.stats.sketch.update(candidate, count=2)
        controller.report_hot_key(candidate)
        controller.update_round()
        assert not switch.dataplane.is_cached(candidate)
        assert controller.rejections >= 1


class TestPreload:
    def test_preload_respects_capacity(self):
        sim, switch, servers, part, controller = rig(capacity=3)
        items = {key(i): b"v" for i in range(10)}
        load(servers, part, items)
        installed = controller.preload(list(items))
        assert installed == 3
        assert switch.dataplane.cache_size() == 3


class TestPeriodicDriving:
    def test_start_schedules_ticks(self):
        sim, switch, servers, part, controller = rig()
        load(servers, part, {key(1): b"v1"})
        controller.start()
        controller.report_hot_key(key(1))
        sim.run_until(1.5)
        assert switch.dataplane.is_cached(key(1))
        # Stats were reset at t=1.0.
        assert switch.dataplane.stats.resets >= 1
        controller.stop()

    def test_invalid_config(self):
        sim, switch, servers, part, _ = rig()
        with pytest.raises(ConfigurationError):
            CacheController(switch, part, servers, cache_capacity=0)
        for interval in ("update_interval", "stats_interval"):
            with pytest.raises(ConfigurationError, match=interval):
                CacheController(switch, part, servers,
                                **{interval: float("nan")})


class TestReorganization:
    def _fragment(self, switch, servers, part, controller):
        # Mixed sizes, then evict every other to scatter free slots.
        items = {key(i): b"v" * (16 * (1 + i % 3)) for i in range(24)}
        load(servers, part, items)
        for k in items:
            controller.report_hot_key(k)
        controller.update_round()
        for i in range(0, 24, 2):
            switch.evict(key(i))

    def test_reorganize_reduces_fragmentation(self):
        sim, switch, servers, part, controller = rig(capacity=64)
        self._fragment(switch, servers, part, controller)
        mm = switch.dataplane.layout.memory[0]
        before = mm.fragmentation()
        controller.fragmentation_threshold = 0.0  # force repack
        if before > 0:
            assert controller.reorganize() >= 1
            assert mm.fragmentation() <= before

    def test_reorganize_preserves_served_values(self):
        sim, switch, servers, part, controller = rig(capacity=64)
        self._fragment(switch, servers, part, controller)
        controller.fragmentation_threshold = 0.0
        controller.reorganize()
        for i in range(1, 24, 2):
            assert switch.dataplane.read_cached_value(key(i)) == \
                b"v" * (16 * (1 + i % 3))

    def test_periodic_tick_scheduled(self):
        sim, switch, servers, part, controller = rig()
        controller.reorganize_interval = 0.5
        controller.fragmentation_threshold = 0.0
        controller.start()
        sim.run_until(1.1)
        controller.stop()
        # Tick fired (possibly repacking nothing, but counted if needed).
        assert controller.reorganizations >= 0
