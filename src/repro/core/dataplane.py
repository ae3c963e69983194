"""The NetCache switch data plane (Algorithm 1, Fig 8).

:class:`NetCacheDataplane` is the functional model of the compiled P4
program: given a packet and its ingress port, it performs the cache lookup,
serves or invalidates cached items, updates the query statistics, and decides
the egress port.  Where keys and value bytes actually live is delegated to a
pluggable :class:`~repro.core.geometry.CacheLayout` (the paper's design is
:class:`~repro.core.geometry.PaperLayout`, the default); the dataplane keeps
the (logically global) statistics engine and the per-packet counters.

The surrounding :class:`~repro.core.switch.NetCacheSwitch` node handles
actual packet motion; this class never talks to the simulator, which keeps it
unit-testable packet by packet.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional, Sequence

import numpy as np

from repro.constants import (
    LOOKUP_TABLE_ENTRIES,
    NUM_PIPES,
    NUM_VALUE_STAGES,
    RECIRCULATION_DELAY,
    VALUE_ARRAY_SLOTS,
    VALUE_SLOT_SIZE,
)
from repro.core.geometry import (
    CacheLayout,
    LayoutHit,
    make_layout,
)
from repro.core.primitives import port_to_pipe
from repro.core.stats import QueryStatistics
from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.protocol import CACHED_WRITE_REWRITE, Op
from repro.net.routing import RoutingTable
from repro.obs import runtime as _obs


class Action(enum.Enum):
    """What the pipeline decided to do with the packet."""

    FORWARD = "forward"
    DROP = "drop"


@dataclasses.dataclass
class PipelineResult:
    """Outcome of one pipeline traversal."""

    action: Action
    egress_port: Optional[int] = None
    #: key to report hot to the controller (Alg 1 line 9), if any.
    hot_key: Optional[bytes] = None
    #: extra packets the pipeline generated (e.g. a CACHE_UPDATE_ACK), each
    #: paired with its egress port.
    generated: List["PortedPacket"] = dataclasses.field(default_factory=list)
    #: extra pipeline latency before the packet leaves (recirculation
    #: passes for multi-pass layouts; 0.0 for single-pass serves).
    delay: float = 0.0


@dataclasses.dataclass
class PortedPacket:
    port: int
    packet: Packet


@dataclasses.dataclass
class ReadBatchResult:
    """Outcome of :meth:`NetCacheDataplane.process_read_batch`."""

    #: True where the read was served from the cache, in stream order.
    hit_mask: np.ndarray
    #: ``(position, key)`` hot-key reports, positions indexing the batch.
    hot: List
    #: per-hit extra reply latency in hit-stream order (recirculation
    #: passes, ``extra_passes * RECIRCULATION_DELAY``); None for
    #: single-pass layouts.
    hit_delays: Optional[np.ndarray] = None


class NetCacheDataplane:
    """Functional model of the NetCache P4 program."""

    def __init__(self,
                 routing: RoutingTable,
                 num_pipes: int = NUM_PIPES,
                 ports_per_pipe: int = 64,
                 entries: int = LOOKUP_TABLE_ENTRIES,
                 num_value_stages: int = NUM_VALUE_STAGES,
                 value_slots: int = VALUE_ARRAY_SLOTS,
                 slot_bytes: int = VALUE_SLOT_SIZE,
                 stats: Optional[QueryStatistics] = None,
                 layout=None):
        if num_pipes <= 0:
            raise ConfigurationError("num_pipes must be positive")
        self.routing = routing
        self.num_pipes = num_pipes
        self.ports_per_pipe = ports_per_pipe
        self.layout: CacheLayout = make_layout(
            layout,
            num_pipes=num_pipes,
            ports_per_pipe=ports_per_pipe,
            entries=entries,
            num_value_stages=num_value_stages,
            value_slots=value_slots,
            slot_bytes=slot_bytes,
        )
        self.stats = stats or QueryStatistics(entries=entries)
        #: bumped on every install/evict so callers can cache derived views
        #: of the cache contents.
        self.contents_version = 0
        # Telemetry.
        self.cache_hits = 0
        self.cache_misses = 0
        self.writes_seen = 0
        self.invalidations = 0
        self.updates_received = 0

    # -- helpers ----------------------------------------------------------------

    def pipe_of_port(self, port: int) -> int:
        return port_to_pipe(port, self.ports_per_pipe) % self.num_pipes

    def _route(self, dst: int) -> int:
        return self.routing.lookup(dst)

    # -- the pipeline (Algorithm 1) ------------------------------------------------

    def process(self, pkt: Packet, ingress_port: int) -> PipelineResult:
        """Run one packet through ingress + egress processing."""
        obs = _obs.ACTIVE
        if obs is not None:
            with obs.tracer.span("dataplane.process"):
                return self._process(pkt, ingress_port)
        return self._process(pkt, ingress_port)

    def _process(self, pkt: Packet, ingress_port: int) -> PipelineResult:
        if not pkt.is_netcache:
            return PipelineResult(Action.FORWARD, self._route(pkt.dst))

        if pkt.op == Op.GET:
            return self._process_get(pkt)
        if pkt.op in (Op.PUT, Op.DELETE):
            return self._process_write(pkt)
        if pkt.op == Op.CACHE_UPDATE:
            return self._process_update(pkt)
        # Replies, acks and anything else ride normal routing.
        return PipelineResult(Action.FORWARD, self._route(pkt.dst))

    # Read queries: Alg 1 lines 1-9.
    def _process_get(self, pkt: Packet) -> PipelineResult:
        hit = self.layout.lookup_hit(pkt.key)
        if hit is not None:
            return self._serve_hit(pkt, hit)
        return self._miss_path(pkt)

    def _serve_hit(self, pkt: Packet, hit: LayoutHit) -> PipelineResult:
        self.cache_hits += 1
        self.stats.cache_count(pkt.key, hit.key_index)
        value = self.layout.read_value(hit)
        client = pkt.src
        # Ingress saved the route back to the client (match on source
        # address, §4.4.4); egress mirrors the reply to that upstream port.
        reply_port = self._route(client)
        pkt.turn_around(Op.GET_REPLY, value=value)
        pkt.served_by_cache = True
        return PipelineResult(Action.FORWARD, reply_port,
                              delay=hit.extra_passes * RECIRCULATION_DELAY)

    def _miss_path(self, pkt: Packet) -> PipelineResult:
        self.cache_misses += 1
        hot = self.stats.heavy_hitter_count(pkt.key)
        return PipelineResult(
            Action.FORWARD, self._route(pkt.dst), hot_key=hot
        )

    # Write queries: Alg 1 lines 10-13.
    def _process_write(self, pkt: Packet) -> PipelineResult:
        self.writes_seen += 1
        if self.layout.handle_write(pkt.key):
            self.invalidations += 1
            # Tell the server its key is cached so it runs the coherence
            # path (§4.3: "modifies the operation field ... to special
            # values").
            pkt.op = CACHED_WRITE_REWRITE[pkt.op]
        return PipelineResult(Action.FORWARD, self._route(pkt.dst))

    # Server -> switch value updates (§4.3).
    def _process_update(self, pkt: Packet) -> PipelineResult:
        self.updates_received += 1
        applied = self.layout.apply_update(pkt.key, pkt.value, pkt.seq)
        ack = pkt.make_reply(Op.CACHE_UPDATE_ACK)
        ack.served_by_cache = applied
        ack_port = self._route(ack.dst)
        # The update packet itself terminates at the switch.
        return PipelineResult(Action.DROP,
                              generated=[PortedPacket(ack_port, ack)])

    def observe_read(self, key: bytes) -> Optional[bytes]:
        """Statistics-only accounting of one read (no packet motion).

        Runs the same lookup/valid/statistics path as a real Get and returns
        the key if it should be reported hot.  The hybrid emulation
        (:mod:`repro.sim.emulation`) uses this to drive the real statistics
        and controller machinery without paying per-packet event costs.
        """
        hit = self.layout.lookup_hit(key)
        if hit is not None:
            self.cache_hits += 1
            self.stats.cache_count(key, hit.key_index)
            return None
        self.cache_misses += 1
        return self.stats.heavy_hitter_count(key)

    def _read_batch(self, keys: List[bytes],
                    read_values: bool) -> "ReadBatchResult":
        """The read pipeline over a batch: classify, sample, count.

        Classifies the whole stream against the cache layout (with
        *read_values* each valid hit also reads its value registers,
        which is the accounting difference between a real Get and a
        statistics-only observation), draws every sampler decision in
        stream order (hits and misses interleave exactly as the scalar
        path would), then applies the hit counters and the miss
        sketch/Bloom path with vectorized batch updates.
        """
        if not keys:
            return ReadBatchResult(np.zeros(0, dtype=bool), [])
        stats = self.stats
        hit_mask, hit_indexes, miss_keys, miss_pos, hit_delays = \
            self.layout.classify_reads(keys, read_values)
        self.cache_hits += len(hit_indexes)
        self.cache_misses += len(miss_keys)
        decisions = stats.sample_batch(keys)
        if hit_indexes:
            stats.cache_count_batch(hit_indexes, decisions[hit_mask])
        hot: List = []
        if miss_keys:
            reported = stats.heavy_hitter_count_batch(
                miss_keys, decisions=decisions[~hit_mask])
            hot = [(miss_pos[p], key) for p, key in reported]
        return ReadBatchResult(hit_mask, hot, hit_delays)

    def observe_reads(self, keys: Sequence[bytes]) -> List[bytes]:
        """Batch :meth:`observe_read`: returns the keys to report hot.

        Bit-for-bit equivalent to looping ``observe_read`` — that
        equivalence is what makes it safe for the hybrid emulation's
        sampled-query stream.
        """
        return [key for _, key in self._read_batch(list(keys), False).hot]

    def process_read_batch(self, keys: Sequence[bytes]) -> "ReadBatchResult":
        """Run a batch of Get packets through the read pipeline.

        Equivalent to calling :meth:`_process_get` once per key in stream
        order — same table/status/value-register accounting, same sampler
        draws, same Count-Min/Bloom updates, same hot reports.  Packet
        rewriting and routing stay with the caller (the batched fast path
        routes whole lanes at once).  Hot reports come back as
        ``(position, key)`` pairs so the caller can schedule each at its
        packet's arrival time.
        """
        if not isinstance(keys, list):
            keys = list(keys)
        return self._read_batch(keys, True)

    # -- control-plane API (used by the controller) ---------------------------------

    def cached_keys(self) -> List[bytes]:
        return self.layout.cached_keys()

    def is_cached(self, key: bytes) -> bool:
        return self.layout.is_cached(key)

    def cache_size(self) -> int:
        return self.layout.cache_size()

    def install(self, key: bytes, value: bytes, egress_port: int,
                candidate_count: Optional[int] = None) -> bool:
        """Insert *key* -> *value*, placed per the layout's geometry.

        Returns False when the layout has no room for the item (caller may
        evict or defragment and retry).  Empty values are not cacheable: a
        Get on them is served by the storage server.  *candidate_count*,
        the key's frequency estimate, lets a layout that picks its own
        victim (SetAssoc's in-set displacement) decide.
        """
        if not self.layout.install(key, value, egress_port,
                                   candidate_count):
            return False
        self.contents_version += 1
        return True

    def evict(self, key: bytes) -> bool:
        """Remove *key* from the cache; returns False if absent."""
        if not self.layout.evict(key):
            return False
        self.contents_version += 1
        return True

    def read_cached_value(self, key: bytes) -> Optional[bytes]:
        """Control-plane read of a cached (valid) value; None otherwise."""
        return self.layout.read_cached_value(key)

    def counter_of(self, key: bytes) -> int:
        """Controller read of one cached key's hit counter."""
        key_index = self.layout.key_index_of(key)
        if key_index is None:
            return 0
        return self.stats.read_counter(key_index)

    def reset_statistics(self) -> None:
        self.stats.reset()

    def clear_cache(self) -> int:
        """Drop every cached item (switch reboot, §3 "Switch").

        The switch holds no critical state: a rebooted NetCache switch
        comes back with an empty cache and refills from heavy-hitter
        reports.  Returns the number of entries dropped.
        """
        dropped = 0
        for key in self.cached_keys():
            if self.evict(key):
                dropped += 1
        self.reset_statistics()
        return dropped

    def hit_ratio(self) -> float:
        """Fraction of reads served by the cache; 0.0 on an idle switch."""
        total = self.cache_hits + self.cache_misses
        if total <= 0:
            return 0.0
        return self.cache_hits / total
