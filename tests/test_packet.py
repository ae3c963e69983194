"""Tests for the packet model."""

import pytest

from repro.constants import MAX_VALUE_SIZE
from repro.errors import KeyFormatError, ValueFormatError
from repro.net.packet import (
    Packet,
    make_cache_update,
    make_delete,
    make_get,
    make_put,
)
from repro.net.protocol import Op

KEY = b"0123456789abcdef"


class TestConstruction:
    def test_get_shape(self):
        pkt = make_get(1, 2, KEY, seq=5)
        assert pkt.op == Op.GET and pkt.udp and pkt.value is None
        assert pkt.src == 1 and pkt.dst == 2 and pkt.seq == 5

    def test_put_carries_value_over_tcp(self):
        pkt = make_put(1, 2, KEY, b"v" * 10)
        assert pkt.op == Op.PUT and not pkt.udp and pkt.value == b"v" * 10

    def test_delete_has_no_value(self):
        pkt = make_delete(1, 2, KEY)
        assert pkt.op == Op.DELETE and pkt.value is None and not pkt.udp

    def test_cache_update_requires_value(self):
        pkt = make_cache_update(1, 2, KEY, b"v", seq=3)
        assert pkt.op == Op.CACHE_UPDATE and pkt.seq == 3

    def test_wrong_key_length_rejected(self):
        with pytest.raises(KeyFormatError):
            make_get(1, 2, b"short")

    def test_oversized_value_rejected(self):
        with pytest.raises(ValueFormatError):
            make_put(1, 2, KEY, b"v" * (MAX_VALUE_SIZE + 1))

    def test_max_value_accepted(self):
        pkt = make_put(1, 2, KEY, b"v" * MAX_VALUE_SIZE)
        assert len(pkt.value) == MAX_VALUE_SIZE

    def test_packet_ids_unique(self):
        a, b = make_get(1, 2, KEY), make_get(1, 2, KEY)
        assert a.pkt_id != b.pkt_id


class TestNetCacheClassification:
    def test_default_port_is_netcache(self):
        assert make_get(1, 2, KEY).is_netcache

    def test_other_ports_not_netcache(self):
        pkt = Packet(src=1, dst=2, src_port=80, dst_port=443)
        assert not pkt.is_netcache

    def test_reply_still_netcache(self):
        reply = make_get(1, 2, KEY).make_reply(Op.GET_REPLY, value=b"v")
        assert reply.is_netcache


class TestReplies:
    def test_make_reply_swaps_addresses(self):
        pkt = make_get(1, 2, KEY, seq=9)
        reply = pkt.make_reply(Op.GET_REPLY, value=b"v")
        assert (reply.src, reply.dst) == (2, 1)
        assert reply.seq == 9 and reply.key == KEY
        assert reply.value == b"v"

    def test_turn_around_mutates_in_place(self):
        pkt = make_get(3, 4, KEY)
        pkt.turn_around(Op.GET_REPLY, value=b"data")
        assert (pkt.src, pkt.dst) == (4, 3)
        assert pkt.op == Op.GET_REPLY and pkt.value == b"data"

    def test_turn_around_rejects_large_value(self):
        pkt = make_get(3, 4, KEY)
        with pytest.raises(ValueFormatError):
            pkt.turn_around(Op.GET_REPLY, value=b"x" * (MAX_VALUE_SIZE + 1))


class TestCopy:
    def test_copy_is_independent(self):
        pkt = make_put(1, 2, KEY, b"v")
        clone = pkt.copy()
        clone.turn_around(Op.PUT_REPLY)
        assert pkt.src == 1 and clone.src == 2
        assert clone.pkt_id != pkt.pkt_id
