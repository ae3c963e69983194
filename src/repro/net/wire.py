"""Wire format: serialize packets to bytes and back.

The simulator passes :class:`~repro.net.packet.Packet` objects around
directly, but the protocol is defined at the byte level (Fig 2b), and the
parser is the part of the P4 program most sensitive to format errors.  This
module implements the exact byte layout so format-level properties
(round-trip, length checks, port classification) can be tested.

Layout (little is network byte order, big-endian)::

    ETH:  dst_mac(6) src_mac(6) ethertype(2)=0x0800
    IPV4: ver_ihl(1) tos(1) total_len(2) id(2) flags(2) ttl(1)
          proto(1) csum(2) src_ip(4) dst_ip(4)
    L4:   src_port(2) dst_port(2)  [UDP: len(2) csum(2) | TCP stub: seq(4)]
    NETCACHE: magic(2)=0x4E43 ('NC') op(1) flags(1) seq(4)
              key(16) value_len(2) [token(8)] value(value_len)

The optional token field is present only when the IDEMPOTENT flag bit
(0x04) is set; legacy packets without a token keep the exact pre-token
byte layout (pinned by ``tests/test_golden_wire.py``).

Node ids map to IPs as ``10.0.(id >> 8).(id & 0xff)`` and to MACs derived
from the id; the inverse mapping recovers ids on parse.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.constants import KEY_SIZE, MAX_VALUE_SIZE
from repro.errors import PacketFormatError
from repro.net.packet import Packet
from repro.net.protocol import (
    HDR_FLAG_HAS_VALUE,
    HDR_FLAG_IDEMPOTENT,
    HDR_FLAG_SERVED_BY_CACHE,
    Op,
)

MAGIC = 0x4E43  # "NC"

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_UDP = struct.Struct("!HHHH")
_TCP_STUB = struct.Struct("!HHI")
_NC_FIXED = struct.Struct("!HBBI16sH")
_NC_TOKEN = struct.Struct("!Q")

ETHERTYPE_IPV4 = 0x0800
PROTO_UDP = 17
PROTO_TCP = 6


def node_to_ip(node: int) -> bytes:
    """Map a node id to a 10.0.0.0/16-style IPv4 address."""
    if not 0 <= node < (1 << 16):
        raise PacketFormatError(f"node id {node} out of IPv4 mapping range")
    return bytes([10, 0, (node >> 8) & 0xFF, node & 0xFF])


def ip_to_node(ip: bytes) -> int:
    """Inverse of :func:`node_to_ip`."""
    if len(ip) != 4 or ip[0] != 10 or ip[1] != 0:
        raise PacketFormatError(f"address {ip!r} is not a simulator node address")
    return (ip[2] << 8) | ip[3]


def node_to_mac(node: int) -> bytes:
    """Map a node id to a locally-administered MAC address."""
    return bytes([0x02, 0, 0, 0, (node >> 8) & 0xFF, node & 0xFF])


def mac_to_node(mac: bytes) -> int:
    """Inverse of :func:`node_to_mac`."""
    if len(mac) != 6 or mac[0] != 0x02:
        raise PacketFormatError(f"MAC {mac!r} is not a simulator node address")
    return (mac[4] << 8) | mac[5]


def encode(pkt: Packet) -> bytes:
    """Serialize *pkt* to its on-wire byte representation."""
    value = pkt.value if pkt.value is not None else b""
    if len(value) > MAX_VALUE_SIZE:
        raise PacketFormatError("value too large for wire format")
    key = pkt.key if pkt.key else bytes(KEY_SIZE)
    if len(key) != KEY_SIZE:
        raise PacketFormatError(f"key must be {KEY_SIZE} bytes")

    flags = HDR_FLAG_SERVED_BY_CACHE if pkt.served_by_cache else 0
    if pkt.value is not None:
        flags |= HDR_FLAG_HAS_VALUE
    token = b""
    if pkt.token is not None:
        if not 0 <= pkt.token < (1 << 64):
            raise PacketFormatError("idempotency token must fit in 64 bits")
        flags |= HDR_FLAG_IDEMPOTENT
        token = _NC_TOKEN.pack(pkt.token)
    nc = _NC_FIXED.pack(MAGIC, int(pkt.op), flags, pkt.seq & 0xFFFFFFFF, key,
                        len(value)) + token + value

    if pkt.udp:
        l4 = _UDP.pack(pkt.src_port, pkt.dst_port, _UDP.size + len(nc), 0) + nc
        proto = PROTO_UDP
    else:
        l4 = _TCP_STUB.pack(pkt.src_port, pkt.dst_port, pkt.seq & 0xFFFFFFFF) + nc
        proto = PROTO_TCP

    total_len = _IPV4.size + len(l4)
    ip = _IPV4.pack(
        0x45, 0, total_len, pkt.pkt_id & 0xFFFF, 0, 64, proto, 0,
        node_to_ip(pkt.src), node_to_ip(pkt.dst),
    )
    eth = _ETH.pack(node_to_mac(pkt.dst), node_to_mac(pkt.src), ETHERTYPE_IPV4)
    return eth + ip + l4


def decode(data: bytes) -> Packet:
    """Parse wire bytes into a :class:`Packet`.

    Raises :class:`PacketFormatError` on any structural violation, mirroring
    the parser dropping malformed packets.
    """
    try:
        dst_mac, src_mac, ethertype = _ETH.unpack_from(data, 0)
        if ethertype != ETHERTYPE_IPV4:
            raise PacketFormatError(f"unsupported ethertype {ethertype:#x}")
        off = _ETH.size
        (ver_ihl, _tos, total_len, _ident, _flags, _ttl, proto, _csum,
         src_ip, dst_ip) = _IPV4.unpack_from(data, off)
        if ver_ihl != 0x45:
            raise PacketFormatError("only IPv4 without options is supported")
        if total_len != len(data) - _ETH.size:
            raise PacketFormatError("IPv4 total length mismatch")
        off += _IPV4.size

        if proto == PROTO_UDP:
            src_port, dst_port, udp_len, _csum2 = _UDP.unpack_from(data, off)
            off += _UDP.size
            udp = True
            if udp_len != len(data) - off + _UDP.size:
                raise PacketFormatError("UDP length mismatch")
            l4_seq = None
        elif proto == PROTO_TCP:
            src_port, dst_port, l4_seq = _TCP_STUB.unpack_from(data, off)
            off += _TCP_STUB.size
            udp = False
        else:
            raise PacketFormatError(f"unsupported L4 protocol {proto}")

        magic, op_raw, flags, seq, key, value_len = _NC_FIXED.unpack_from(data, off)
        if magic != MAGIC:
            raise PacketFormatError("bad NetCache magic")
        off += _NC_FIXED.size
        token = None
        if flags & HDR_FLAG_IDEMPOTENT:
            (token,) = _NC_TOKEN.unpack_from(data, off)
            off += _NC_TOKEN.size
        if value_len > MAX_VALUE_SIZE:
            raise PacketFormatError("value length exceeds maximum")
        if len(data) - off != value_len:
            raise PacketFormatError("value length mismatch")
        value = data[off : off + value_len] if flags & HDR_FLAG_HAS_VALUE else None
        try:
            op = Op(op_raw)
        except ValueError as exc:
            raise PacketFormatError(f"unknown op {op_raw}") from exc
        if not udp and l4_seq != seq:
            raise PacketFormatError("TCP stub sequence disagrees with NetCache SEQ")
    except struct.error as exc:
        raise PacketFormatError(f"truncated packet: {exc}") from exc

    pkt = Packet(
        src=mac_to_node(src_mac),
        dst=mac_to_node(dst_mac),
        src_port=src_port,
        dst_port=dst_port,
        udp=udp,
        op=op,
        seq=seq,
        key=key,
        value=value,
        token=token,
    )
    pkt.served_by_cache = bool(flags & HDR_FLAG_SERVED_BY_CACHE)
    if ip_to_node(src_ip) != pkt.src or ip_to_node(dst_ip) != pkt.dst:
        raise PacketFormatError("IP and MAC addresses disagree")
    return pkt


def roundtrip(pkt: Packet) -> Tuple[Packet, int]:
    """Encode then decode; returns (packet, wire length). Test helper."""
    data = encode(pkt)
    return decode(data), len(data)
