"""NetCache application-layer protocol definitions (§4.1, Fig 2b).

NetCache is embedded in the L4 payload; a reserved port distinguishes
NetCache packets.  The OP field distinguishes query types; in addition to the
client-visible Get/Put/Delete, the protocol uses internal opcodes for the
coherence machinery: the switch rewrites the OP of a write to a cached key so
the server knows the key is cached (§4.3), and servers push new values to the
switch with CACHE_UPDATE packets.
"""

from __future__ import annotations

import enum


class Op(enum.IntEnum):
    """NetCache operation codes carried in the OP header field."""

    GET = 1
    PUT = 2
    DELETE = 3

    #: Reply to a GET (value present if found).
    GET_REPLY = 4
    #: Reply to a PUT.
    PUT_REPLY = 5
    #: Reply to a DELETE.
    DELETE_REPLY = 6

    #: PUT whose key the switch found in its cache; the switch invalidated
    #: the entry and rewrote the op so the server runs the coherence path.
    PUT_CACHED = 7
    #: DELETE on a cached key (same rewrite as PUT_CACHED).
    DELETE_CACHED = 8

    #: Server -> switch data-plane value update after a write to a cached
    #: key (write-through completion).
    CACHE_UPDATE = 9
    #: Switch -> server ack for a CACHE_UPDATE (the reliable-update
    #: mechanism retries until this arrives).
    CACHE_UPDATE_ACK = 10

    #: Data-plane -> controller heavy-hitter report.
    HOT_REPORT = 11

    #: Sentinel for malformed packets in tests.
    INVALID = 0


#: Ops that mutate the store.
WRITE_OPS = frozenset({Op.PUT, Op.DELETE, Op.PUT_CACHED, Op.DELETE_CACHED})

#: Replies, keyed by request op.
REPLY_FOR = {
    Op.GET: Op.GET_REPLY,
    Op.PUT: Op.PUT_REPLY,
    Op.PUT_CACHED: Op.PUT_REPLY,
    Op.DELETE: Op.DELETE_REPLY,
    Op.DELETE_CACHED: Op.DELETE_REPLY,
}

#: Rewrites applied by the switch when a write hits the cache (§4.3).
CACHED_WRITE_REWRITE = {
    Op.PUT: Op.PUT_CACHED,
    Op.DELETE: Op.DELETE_CACHED,
}


# -- NetCache header FLAGS bits (wire format, see net/wire.py) ---------------

#: The value in this packet was served from the switch cache.
HDR_FLAG_SERVED_BY_CACHE = 0x01
#: A value field follows the fixed header.
HDR_FLAG_HAS_VALUE = 0x02
#: An 8-byte idempotency token precedes the value; all retransmissions of
#: a write carry the same token so servers can deduplicate (exactly-once).
HDR_FLAG_IDEMPOTENT = 0x04


def is_write(op: Op) -> bool:
    """True for write queries (TCP path in the paper)."""
    return op in WRITE_OPS
