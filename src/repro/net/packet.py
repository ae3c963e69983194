"""In-simulator packet model.

A :class:`Packet` carries the standard L2-L4 headers plus the NetCache
fields (OP, SEQ, KEY, VALUE).  The switch pipeline mutates packets exactly
the way the P4 program does: adding the value header on cache hits, swapping
source/destination for switch-generated replies, rewriting the OP field for
cached writes.

Addresses are small integers (node ids) rather than textual IPs — the
simulator's routing tables key on them directly; :mod:`repro.net.wire`
serializes packets to real bytes for format-level tests.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Optional

from repro.constants import KEY_SIZE, MAX_VALUE_SIZE, NETCACHE_PORT
from repro.errors import KeyFormatError, PacketFormatError, ValueFormatError
from repro.net.protocol import Op

_packet_ids = itertools.count()


@dataclasses.dataclass
class Packet:
    """One simulated packet.

    Attributes mirror Fig 2(b): Ethernet/IP/TCP-UDP headers followed by the
    NetCache payload.  ``udp=True`` marks read queries (the paper uses UDP
    for reads and TCP for writes).
    """

    src: int
    dst: int
    src_port: int = NETCACHE_PORT
    dst_port: int = NETCACHE_PORT
    udp: bool = True

    op: Op = Op.INVALID
    seq: int = 0
    key: bytes = b""
    value: Optional[bytes] = None
    #: Idempotency token for retried writes: every retransmission of a
    #: PUT/DELETE carries the same token so the server-side dedup window
    #: can apply the write exactly once.  None = legacy packet, encoded
    #: byte-identically to the pre-token format.
    token: Optional[int] = None

    #: Monotonic id for tracing; not part of the wire format.
    pkt_id: int = dataclasses.field(default_factory=lambda: next(_packet_ids))
    #: Creation timestamp (simulator fills this in).
    created_at: float = 0.0
    #: True when the value was served from the switch cache (for metrics;
    #: a real deployment would infer this from the reply's source).
    served_by_cache: bool = False
    #: Node id of the previous hop (set by the simulator on delivery; a real
    #: switch knows this as the physical ingress port).
    last_hop: Optional[int] = None

    def __post_init__(self) -> None:
        if self.key and len(self.key) != KEY_SIZE:
            raise KeyFormatError(
                f"keys must be exactly {KEY_SIZE} bytes, got {len(self.key)}"
            )
        if self.value is not None and len(self.value) > MAX_VALUE_SIZE:
            raise ValueFormatError(
                f"values are limited to {MAX_VALUE_SIZE} bytes, "
                f"got {len(self.value)}"
            )

    # -- protocol helpers --------------------------------------------------

    @property
    def is_netcache(self) -> bool:
        """True if the packet targets the reserved NetCache port."""
        return NETCACHE_PORT in (self.src_port, self.dst_port)

    def make_reply(self, op: Op, value: Optional[bytes] = None) -> "Packet":
        """Build the reply packet: L2-L4 addresses and ports swapped."""
        return Packet(
            src=self.dst,
            dst=self.src,
            src_port=self.dst_port,
            dst_port=self.src_port,
            udp=self.udp,
            op=op,
            seq=self.seq,
            key=self.key,
            value=value,
        )

    def turn_around(self, op: Op, value: Optional[bytes] = None) -> None:
        """Mutate this packet into a reply in place.

        This is what the switch data plane does for cache hits: it swaps the
        L2-L4 source/destination fields and appends the value header (§4.2),
        rather than allocating a new packet.
        """
        self.src, self.dst = self.dst, self.src
        self.src_port, self.dst_port = self.dst_port, self.src_port
        self.op = op
        if value is not None:
            self.value = self._check_value(value)

    @staticmethod
    def _check_value(value: bytes) -> bytes:
        if len(value) > MAX_VALUE_SIZE:
            raise ValueFormatError(
                f"values are limited to {MAX_VALUE_SIZE} bytes, got {len(value)}"
            )
        return value

    def copy(self) -> "Packet":
        """Deep-enough copy (bytes are immutable) with a fresh packet id."""
        clone = dataclasses.replace(self, pkt_id=next(_packet_ids))
        return clone


def make_get(src: int, dst: int, key: bytes, seq: int = 0) -> Packet:
    """Build a Get query (UDP, no value)."""
    return Packet(src=src, dst=dst, udp=True, op=Op.GET, seq=seq, key=key)


def make_put(src: int, dst: int, key: bytes, value: bytes, seq: int = 0) -> Packet:
    """Build a Put query (TCP path, carries the new value)."""
    return Packet(src=src, dst=dst, udp=False, op=Op.PUT, seq=seq, key=key, value=value)


def make_delete(src: int, dst: int, key: bytes, seq: int = 0) -> Packet:
    """Build a Delete query (TCP path, empty value)."""
    return Packet(src=src, dst=dst, udp=False, op=Op.DELETE, seq=seq, key=key)


def make_cache_update(
    src: int, dst: int, key: bytes, value: bytes, seq: int
) -> Packet:
    """Server -> switch data-plane value update (§4.3)."""
    if value is None:
        raise PacketFormatError("cache update requires a value")
    return Packet(
        src=src, dst=dst, udp=True, op=Op.CACHE_UPDATE, seq=seq, key=key, value=value
    )
