"""Tests for the byte-level wire format."""

import pytest

from repro.errors import PacketFormatError
from repro.net import wire
from repro.net.packet import make_delete, make_get, make_put
from repro.net.protocol import Op

KEY = b"0123456789abcdef"


class TestAddressMapping:
    def test_ip_roundtrip(self):
        for node in (0, 1, 255, 256, 65535):
            assert wire.ip_to_node(wire.node_to_ip(node)) == node

    def test_mac_roundtrip(self):
        for node in (0, 7, 65535):
            assert wire.mac_to_node(wire.node_to_mac(node)) == node

    def test_node_out_of_range(self):
        with pytest.raises(PacketFormatError):
            wire.node_to_ip(1 << 16)

    def test_foreign_ip_rejected(self):
        with pytest.raises(PacketFormatError):
            wire.ip_to_node(bytes([192, 168, 0, 1]))


class TestRoundTrip:
    def test_get_roundtrip(self):
        pkt = make_get(1, 2, KEY, seq=42)
        decoded, length = wire.roundtrip(pkt)
        assert decoded.op == Op.GET and decoded.seq == 42
        assert decoded.key == KEY and decoded.value is None
        assert (decoded.src, decoded.dst) == (1, 2)
        assert decoded.udp

    def test_put_roundtrip(self):
        pkt = make_put(3, 4, KEY, b"hello world", seq=7)
        decoded, _ = wire.roundtrip(pkt)
        assert decoded.op == Op.PUT and decoded.value == b"hello world"
        assert not decoded.udp

    def test_delete_roundtrip(self):
        decoded, _ = wire.roundtrip(make_delete(5, 6, KEY, seq=1))
        assert decoded.op == Op.DELETE and decoded.value is None

    def test_empty_value_distinct_from_absent(self):
        pkt = make_put(1, 2, KEY, b"")
        decoded, _ = wire.roundtrip(pkt)
        assert decoded.value == b""
        decoded2, _ = wire.roundtrip(make_get(1, 2, KEY))
        assert decoded2.value is None

    def test_served_by_cache_flag(self):
        pkt = make_get(1, 2, KEY)
        pkt.turn_around(Op.GET_REPLY, value=b"v")
        pkt.served_by_cache = True
        decoded, _ = wire.roundtrip(pkt)
        assert decoded.served_by_cache


class TestMalformed:
    def test_truncated(self):
        data = wire.encode(make_get(1, 2, KEY))
        with pytest.raises(PacketFormatError):
            wire.decode(data[:20])

    def test_bad_magic(self):
        data = bytearray(wire.encode(make_get(1, 2, KEY)))
        off = 14 + 20 + 8  # eth + ip + udp
        data[off] ^= 0xFF
        with pytest.raises(PacketFormatError):
            wire.decode(bytes(data))

    def test_bad_ethertype(self):
        data = bytearray(wire.encode(make_get(1, 2, KEY)))
        data[12] = 0x86  # IPv6
        with pytest.raises(PacketFormatError):
            wire.decode(bytes(data))

    def test_length_field_mismatch(self):
        data = bytearray(wire.encode(make_put(1, 2, KEY, b"v" * 8)))
        with pytest.raises(PacketFormatError):
            wire.decode(bytes(data[:-2]))

    def test_unknown_op(self):
        pkt = make_get(1, 2, KEY)
        data = bytearray(wire.encode(pkt))
        off = 14 + 20 + 8 + 2  # ...+ magic
        data[off] = 200
        with pytest.raises(PacketFormatError):
            wire.decode(bytes(data))

    def test_garbage(self):
        with pytest.raises(PacketFormatError):
            wire.decode(b"\x00" * 64)
