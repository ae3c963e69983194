"""Switch nodes for the simulator.

:class:`PlainSwitch` is a standard L2/L3 switch (used for spines and for the
NoCache baseline).  :class:`NetCacheSwitch` wraps the
:class:`~repro.core.dataplane.NetCacheDataplane`: NetCache packets run
through the pipeline; everything else is routed normally, which is the
paper's compatibility story (§4.1).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.core.dataplane import Action, NetCacheDataplane, ReadBatchResult
from repro.errors import ConfigurationError, RoutingError
from repro.net.packet import Packet
from repro.net.routing import RoutingTable
from repro.net.simulator import Node


class PlainSwitch(Node):
    """Destination-routed switch with a port <-> neighbour map."""

    def __init__(self, node_id: int, default_port: Optional[int] = None):
        super().__init__(node_id)
        self.routing = RoutingTable(default_port=default_port)
        self._neighbor_of_port: Dict[int, int] = {}
        self._port_of_neighbor: Dict[int, int] = {}
        self.forwarded = 0

    # -- wiring (done by the cluster builder) ----------------------------------

    def attach_neighbor(self, port: int, neighbor_id: int,
                        route: bool = True) -> None:
        """Bind *neighbor_id* to *port*; optionally install the direct route."""
        if port in self._neighbor_of_port:
            raise ConfigurationError(f"port {port} already attached")
        if neighbor_id in self._port_of_neighbor:
            raise ConfigurationError(f"neighbor {neighbor_id} already attached")
        self._neighbor_of_port[port] = neighbor_id
        self._port_of_neighbor[neighbor_id] = port
        if route:
            self.routing.add_route(neighbor_id, port)

    def add_remote_route(self, dst: int, via_neighbor: int) -> None:
        """Route a non-adjacent destination through a neighbour."""
        port = self._port_of_neighbor.get(via_neighbor)
        if port is None:
            raise RoutingError(f"{via_neighbor} is not attached to this switch")
        self.routing.add_route(dst, port)

    def port_of(self, neighbor_id: int) -> int:
        port = self._port_of_neighbor.get(neighbor_id)
        if port is None:
            raise RoutingError(f"{neighbor_id} is not attached to this switch")
        return port

    def neighbor_at(self, port: int) -> int:
        nb = self._neighbor_of_port.get(port)
        if nb is None:
            raise RoutingError(f"no neighbor on port {port}")
        return nb

    # -- forwarding ---------------------------------------------------------------

    def _send_out(self, port: int, pkt: Packet) -> None:
        self.forwarded += 1
        self.sim.transmit(self.node_id, self.neighbor_at(port), pkt)

    def handle_packet(self, pkt: Packet) -> None:
        self._send_out(self.routing.lookup(pkt.dst), pkt)

    # -- batched fast path (see repro.net.fastpath) -----------------------------------

    #: bumped by every cache install/evict; a plain switch caches nothing.
    contents_version = 0

    def cached_keys(self):
        return []

    def process_read_batch(self, items) -> ReadBatchResult:
        """Batch arrival of Get packets (their keys' item ids): each is
        routed on, one ``forwarded`` apiece, with no cache hit and no
        hot-key report."""
        self.forwarded += len(items)
        return ReadBatchResult(np.zeros(len(items), dtype=bool), [])

    def process_write_packet(self, pkt: Packet) -> None:
        """One write arrival, routed on unchanged: one ``forwarded``."""
        self.forwarded += 1

    def process_reply_batch(self, count: int) -> None:
        """Batch of replies transiting server -> client: each routed on."""
        self.forwarded += count


class NetCacheSwitch(PlainSwitch):
    """A ToR (or spine) switch running the NetCache program.

    Parameters mirror :class:`NetCacheDataplane`.  The controller registers a
    ``hot_key_handler``; the data plane's heavy-hitter reports are delivered
    through it (in hardware this is the switch-OS driver channel, Fig 4).
    """

    def __init__(self, node_id: int, default_port: Optional[int] = None,
                 **dataplane_kwargs):
        super().__init__(node_id, default_port=default_port)
        self.dataplane = NetCacheDataplane(self.routing, **dataplane_kwargs)
        self.hot_key_handler: Optional[Callable[[bytes], None]] = None
        #: latency of the data-plane -> controller report channel (seconds).
        self.report_latency = 50e-6
        self.processed = 0

    def handle_packet(self, pkt: Packet) -> None:
        self.processed += 1
        ingress_port = self._ingress_port(pkt)
        result = self.dataplane.process(pkt, ingress_port)
        if result.hot_key is not None and self.hot_key_handler is not None:
            self.sim.schedule(self.report_latency, self.hot_key_handler,
                              result.hot_key)
        for ported in result.generated:
            self._send_out(ported.port, ported.packet)
        if result.action is Action.FORWARD:
            if result.delay:
                # Multi-pass layouts serve large values over several
                # recirculation passes; the reply leaves late by that much.
                self.sim.schedule(result.delay, self._send_out,
                                  result.egress_port, pkt)
            else:
                self._send_out(result.egress_port, pkt)

    def _ingress_port(self, pkt: Packet) -> int:
        """Best-effort ingress port (used only for pipe accounting)."""
        port = self._port_of_neighbor.get(pkt.last_hop)
        return port if port is not None else 0

    # -- batched fast path (see repro.net.fastpath) -----------------------------------

    def process_read_batch(self, items) -> ReadBatchResult:
        """Batch arrival of Get packets, given by their keys' keyspace
        item ids: switch counters + read pipeline.

        Per-packet accounting matches :meth:`handle_packet` for a Get: one
        ``processed`` and — since every read forwards exactly one packet,
        the cache reply or the miss forward — one ``forwarded``.  Actual
        transmission and hot-report scheduling stay with the caller.
        """
        n = len(items)
        self.processed += n
        result = self.dataplane.process_read_batch(items)
        self.forwarded += n
        return result

    def process_write_packet(self, pkt: Packet):
        """One write arrival from the batched fast path.

        Runs the *real* write pipeline — lookup, cache-hit invalidation,
        ``PUT`` → ``PUT_CACHED`` rewrite — via :meth:`NetCacheDataplane.
        process`, with the same counter increments as :meth:`handle_packet`
        (writes never produce a hot-key report or generated packets, and
        always forward).  Transmission stays with the caller; ``pkt.op``
        carries any rewrite back.
        """
        self.processed += 1
        result = self.dataplane.process(pkt, self._ingress_port(pkt))
        if result.action is Action.FORWARD:
            self.forwarded += 1
        return result

    def process_reply_batch(self, count: int) -> None:
        """Batch of Get replies transiting server -> client: each is one
        ``processed`` plus one routed ``forwarded``, no dataplane state."""
        self.processed += count
        self.forwarded += count

    # -- control-plane surface used by the controller ---------------------------------

    def egress_port_of(self, server_id: int) -> int:
        """Port (and thus egress pipe) that connects to *server_id*."""
        return self.port_of(server_id)

    def install(self, key: bytes, value: bytes, server_id: int) -> bool:
        return self.dataplane.install(key, value, self.egress_port_of(server_id))

    def evict(self, key: bytes) -> bool:
        return self.dataplane.evict(key)

    def cached_keys(self):
        return self.dataplane.cached_keys()

    @property
    def contents_version(self) -> int:
        return self.dataplane.contents_version

    def counter_of(self, key: bytes) -> int:
        return self.dataplane.counter_of(key)

    def reset_statistics(self) -> None:
        self.dataplane.reset_statistics()

    def reboot(self) -> int:
        """Simulate a switch reboot: the cache empties, routing survives
        (it is re-installed by the regular control plane at boot), and the
        rack keeps serving from the storage servers (§3).  Returns the
        number of cache entries lost."""
        return self.dataplane.clear_cache()
