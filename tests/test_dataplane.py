"""Tests for the NetCache data plane (Algorithm 1)."""

import pytest

from repro.core.dataplane import Action, NetCacheDataplane
from repro.net.packet import (
    Packet,
    make_cache_update,
    make_delete,
    make_get,
    make_put,
)
from repro.net.protocol import Op
from repro.net.routing import RoutingTable

KEY = b"0123456789abcdef"
CLIENT, SERVER_A, SERVER_B = 100, 1, 2


@pytest.fixture()
def dp():
    routing = RoutingTable()
    routing.add_route(CLIENT, 10)   # upstream port
    routing.add_route(SERVER_A, 0)  # pipe 0 (ports 0..3)
    routing.add_route(SERVER_B, 4)  # pipe 1 (ports 4..7)
    dataplane = NetCacheDataplane(routing, num_pipes=2, ports_per_pipe=4,
                                  entries=64, value_slots=64)
    # The paper's default sampling (1/16) would make the tiny query counts
    # in these tests probabilistic; count everything instead.
    dataplane.stats.set_sample_rate(1.0)
    return dataplane


class TestReadPath:
    def test_miss_forwards_to_server(self, dp):
        pkt = make_get(CLIENT, SERVER_A, KEY)
        res = dp.process(pkt, ingress_port=10)
        assert res.action is Action.FORWARD and res.egress_port == 0
        assert pkt.op == Op.GET  # untouched
        assert dp.cache_misses == 1

    def test_hit_turns_packet_around(self, dp):
        dp.install(KEY, b"cached-value", egress_port=0)
        pkt = make_get(CLIENT, SERVER_A, KEY)
        res = dp.process(pkt, ingress_port=10)
        # Mirrored to the client's upstream port, already a reply.
        assert res.egress_port == 10
        assert pkt.op == Op.GET_REPLY and pkt.value == b"cached-value"
        assert (pkt.src, pkt.dst) == (SERVER_A, CLIENT)
        assert pkt.served_by_cache
        assert dp.cache_hits == 1

    def test_hit_counts_statistics(self, dp):
        dp.install(KEY, b"v", egress_port=0)
        dp.process(make_get(CLIENT, SERVER_A, KEY), 10)
        assert dp.counter_of(KEY) == 1

    def test_invalid_entry_is_a_miss(self, dp):
        dp.install(KEY, b"v", egress_port=0)
        dp.process(make_put(CLIENT, SERVER_A, KEY, b"new"), 10)  # invalidates
        pkt = make_get(CLIENT, SERVER_A, KEY)
        res = dp.process(pkt, 10)
        assert res.egress_port == 0 and pkt.op == Op.GET
        assert dp.cache_misses == 1

    def test_hot_key_reported(self, dp):
        dp.stats.set_hot_threshold(3)
        reported = []
        for _ in range(5):
            res = dp.process(make_get(CLIENT, SERVER_A, KEY), 10)
            if res.hot_key:
                reported.append(res.hot_key)
        assert reported == [KEY]


class TestWritePath:
    def test_uncached_write_passes_through(self, dp):
        pkt = make_put(CLIENT, SERVER_A, KEY, b"v")
        res = dp.process(pkt, 10)
        assert res.egress_port == 0 and pkt.op == Op.PUT

    def test_cached_write_invalidates_and_rewrites(self, dp):
        dp.install(KEY, b"v", egress_port=0)
        pkt = make_put(CLIENT, SERVER_A, KEY, b"new")
        res = dp.process(pkt, 10)
        assert pkt.op == Op.PUT_CACHED
        assert res.egress_port == 0
        assert dp.invalidations == 1

    def test_cached_delete_rewrites(self, dp):
        dp.install(KEY, b"v", egress_port=0)
        pkt = make_delete(CLIENT, SERVER_A, KEY)
        dp.process(pkt, 10)
        assert pkt.op == Op.DELETE_CACHED


class TestUpdatePath:
    def test_update_revalidates_with_new_value(self, dp):
        dp.install(KEY, b"old-value", egress_port=0)
        dp.process(make_put(CLIENT, SERVER_A, KEY, b"new-value"), 10)
        upd = make_cache_update(SERVER_A, SERVER_A, KEY, b"new-value", seq=1)
        res = dp.process(upd, 0)
        assert res.action is Action.DROP
        ack = res.generated[0].packet
        assert ack.op == Op.CACHE_UPDATE_ACK and ack.dst == SERVER_A
        # Next read is a hit with the new value.
        pkt = make_get(CLIENT, SERVER_A, KEY)
        dp.process(pkt, 10)
        assert pkt.value == b"new-value" and pkt.served_by_cache

    def test_update_for_evicted_key_still_acked(self, dp):
        upd = make_cache_update(SERVER_A, SERVER_A, KEY, b"v", seq=1)
        res = dp.process(upd, 0)
        assert res.action is Action.DROP
        assert res.generated[0].packet.op == Op.CACHE_UPDATE_ACK

    def test_oversized_update_not_applied(self, dp):
        dp.install(KEY, b"x" * 16, egress_port=0)  # 1 slot
        dp.process(make_put(CLIENT, SERVER_A, KEY, b"y" * 32), 10)
        upd = make_cache_update(SERVER_A, SERVER_A, KEY, b"y" * 32, seq=1)
        dp.process(upd, 0)
        # Entry must stay invalid (data plane cannot grow allocations).
        pkt = make_get(CLIENT, SERVER_A, KEY)
        dp.process(pkt, 10)
        assert not pkt.served_by_cache

    def test_stale_update_does_not_regress(self, dp):
        dp.install(KEY, b"a" * 8, egress_port=0)
        dp.process(make_cache_update(SERVER_A, SERVER_A, KEY, b"b" * 8, seq=5), 0)
        dp.process(make_cache_update(SERVER_A, SERVER_A, KEY, b"c" * 8, seq=4), 0)
        assert dp.read_cached_value(KEY) == b"b" * 8


class TestPipePlacement:
    def test_value_lives_in_owning_pipe(self, dp):
        dp.install(KEY, b"v", egress_port=4)  # server B, pipe 1
        assert len(dp.layout.memory[1]) == 1
        assert len(dp.layout.memory[0]) == 0

    def test_hit_from_other_pipe_server(self, dp):
        dp.install(KEY, b"v", egress_port=4)
        pkt = make_get(CLIENT, SERVER_B, KEY)
        res = dp.process(pkt, 10)
        assert pkt.served_by_cache and res.egress_port == 10


class TestControlPlane:
    def test_install_and_evict(self, dp):
        assert dp.install(KEY, b"v", 0)
        assert dp.is_cached(KEY) and dp.cache_size() == 1
        assert dp.evict(KEY)
        assert not dp.is_cached(KEY)
        assert not dp.evict(KEY)

    def test_install_empty_value_refused(self, dp):
        assert dp.install(KEY, b"", 0) is False

    def test_install_out_of_memory(self):
        routing = RoutingTable(default_port=0)
        dataplane = NetCacheDataplane(routing, num_pipes=1, ports_per_pipe=4,
                                      entries=64, value_slots=1)
        assert dataplane.install(b"a" * 16, b"x" * 128, 0)
        assert not dataplane.install(b"b" * 16, b"x" * 128, 0)

    def test_read_cached_value_states(self, dp):
        assert dp.read_cached_value(KEY) is None
        dp.install(KEY, b"v", 0)
        assert dp.read_cached_value(KEY) == b"v"
        dp.process(make_put(CLIENT, SERVER_A, KEY, b"w"), 10)
        assert dp.read_cached_value(KEY) is None  # invalid

    def test_contents_version_bumps(self, dp):
        v0 = dp.contents_version
        dp.install(KEY, b"v", 0)
        dp.evict(KEY)
        assert dp.contents_version == v0 + 2

    def test_observe_read_matches_real_path(self, dp):
        dp.stats.set_hot_threshold(2)
        assert dp.observe_read(KEY) is None
        assert dp.observe_read(KEY) == KEY  # crossed threshold
        dp.install(KEY, b"v", 0)
        assert dp.observe_read(KEY) is None  # now a hit
        assert dp.counter_of(KEY) == 1


class TestNonNetCacheTraffic:
    def test_foreign_packet_routed_normally(self, dp):
        pkt = Packet(src=CLIENT, dst=SERVER_A, src_port=80, dst_port=443)
        res = dp.process(pkt, 10)
        assert res.action is Action.FORWARD and res.egress_port == 0
        assert dp.cache_hits == dp.cache_misses == 0

    def test_reply_passthrough(self, dp):
        reply = make_get(CLIENT, SERVER_A, KEY).make_reply(Op.GET_REPLY, b"v")
        res = dp.process(reply, 0)
        assert res.egress_port == 10

    def test_hit_ratio(self, dp):
        dp.install(KEY, b"v", 0)
        dp.process(make_get(CLIENT, SERVER_A, KEY), 10)
        dp.process(make_get(CLIENT, SERVER_A, b"f" * 16), 10)
        assert dp.hit_ratio() == pytest.approx(0.5)
