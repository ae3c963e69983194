"""Discrete-event network simulator.

Ties together the event queue, links, and nodes.  A :class:`Node` is anything
with a ``node_id`` and a ``handle_packet(sim, pkt)`` method; the NetCache
switch, storage servers, clients, and the controller are all nodes.

The simulator is intentionally small: nodes hand packets to
:meth:`Simulator.transmit` naming the neighbour to deliver to (nodes know
their attachment: clients/servers know their ToR; switches map ports to
neighbours).  Loss and serialization happen on links.

Delivery hooks observe every delivery as ``hook(time, src, dst, pkt)``.  A
hook that also has ``on_delivery_batch(rows)`` is *batch-capable*: the
batched engine (:mod:`repro.net.fastpath`) feeds it the deliveries it
carries in its lanes as :class:`DeliveryRows`, in delivery order, instead
of falling back to this loop.  :class:`DeliveryObserver` is the base for
such hooks: one per-row body behind both forms.
"""

from __future__ import annotations

from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from repro.errors import ConfigurationError, SimulationError
from repro.net.events import Event, EventQueue
from repro.net.links import Link
from repro.net.packet import Packet
from repro.net.protocol import Op
from repro.obs import runtime as _obs


class DeliveryRows(NamedTuple):
    """Deliveries in delivery order, one sequence per column: the batch
    form of a delivery-hook call.

    ``src``/``dst`` are the hop; ``op`` compares equal to an
    :class:`~repro.net.protocol.Op`; ``client`` and ``server`` are the
    packet's two ends (``pkt.src``/``pkt.dst`` of a query, swapped on a
    reply); ``value`` and ``cached`` are the packet's ``value`` and
    ``served_by_cache`` on delivery.
    """

    t: Sequence[float]
    src: Sequence[int]
    dst: Sequence[int]
    op: Sequence[int]
    seq: Sequence[int]
    client: Sequence[int]
    server: Sequence[int]
    key: Sequence[bytes]
    value: Sequence[Optional[bytes]]
    cached: Sequence[bool]


_REPLIES = frozenset((Op.GET_REPLY, Op.PUT_REPLY, Op.DELETE_REPLY))


def delivery_row(time: float, src: int, dst: int, pkt: Packet) -> tuple:
    """One delivery of *pkt* as a row of :class:`DeliveryRows` columns."""
    op = pkt.op
    if op in _REPLIES:
        return (time, src, dst, op, pkt.seq, pkt.dst, pkt.src, pkt.key,
                pkt.value, pkt.served_by_cache)
    return (time, src, dst, op, pkt.seq, pkt.src, pkt.dst, pkt.key,
            pkt.value, pkt.served_by_cache)


class DeliveryObserver:
    """A batch-capable delivery hook: subclasses write :meth:`observe`,
    the per-row body both feeds run."""

    def observe(self, time: float, src: int, dst: int, op: int, seq: int,
                client: int, server: int, key: bytes,
                value: Optional[bytes], cached: bool) -> None:
        raise NotImplementedError

    def __call__(self, time: float, src: int, dst: int, pkt: Packet) -> None:
        self.observe(*delivery_row(time, src, dst, pkt))

    def on_delivery_batch(self, rows: DeliveryRows) -> None:
        observe = self.observe
        for row in zip(*rows):
            observe(*row)


class Node:
    """Base class for simulated endpoints and switches."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.sim: Optional["Simulator"] = None

    def attach(self, sim: "Simulator") -> None:
        """Called by the simulator when the node is added."""
        self.sim = sim

    def start(self) -> None:
        """Hook called when the simulation starts (schedule initial events)."""

    def handle_packet(self, pkt: Packet) -> None:  # pragma: no cover - abstract
        """Receive a delivered packet."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(id={self.node_id})"


class Simulator:
    """Owns the clock, the nodes, and the links between them."""

    def __init__(self):
        self.events = EventQueue()
        self.nodes: Dict[int, Node] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        self.delivered = 0
        self.lost = 0
        #: subset of ``lost`` dropped because an endpoint was down.
        self.node_drops = 0
        self._started = False
        self._down_nodes: Set[int] = set()
        #: observers called as fn(time, src_id, dst_id, pkt) on delivery
        #: (the delivery digest, see repro.net.trace; batch-capable ones,
        #: see DeliveryObserver, also take the batched engine's rows).
        self.delivery_hooks: List[Callable] = []
        #: observers called as fn(time, link) on every link drop
        #: (fault accounting; see repro.faults).
        self.drop_hooks: List[Callable] = []
        #: the batched engine driving this simulator, once one has taken
        #: over its clients (see repro.net.fastpath); None = event loop.
        self.driver = None

    # -- construction -------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.node_id in self.nodes:
            raise ConfigurationError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        node.attach(self)
        return node

    def add_link(self, link: Link) -> Link:
        key = self._link_key(link.a, link.b)
        if key in self._links:
            raise ConfigurationError(f"duplicate link {link.a}<->{link.b}")
        for end in (link.a, link.b):
            if end not in self.nodes:
                raise ConfigurationError(f"link endpoint {end} is not a node")
        self._links[key] = link
        # Per-link drops must also reach the simulator-wide counters, no
        # matter which code path attempted the transmission.
        link.on_drop = self._on_link_drop
        return link

    def connect(self, a: int, b: int, **link_kwargs) -> Link:
        """Convenience: create and register a link between nodes a and b."""
        return self.add_link(Link(a, b, **link_kwargs))

    @staticmethod
    def _link_key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def link_between(self, a: int, b: int) -> Link:
        link = self._links.get(self._link_key(a, b))
        if link is None:
            raise SimulationError(f"no link between {a} and {b}")
        return link

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.events.now

    def schedule(self, delay: float, callback: Callable, *args,
                 priority: int = 0) -> Event:
        return self.events.schedule(delay, callback, *args, priority=priority)

    # -- node failures (see repro.faults) ------------------------------------

    def set_node_down(self, node_id: int, down: bool = True) -> None:
        """Mark a node crashed: packets to or from it are dropped until it
        is marked up again.  Its scheduled timers keep firing (a restarted
        process resumes its retry loops)."""
        if node_id not in self.nodes:
            raise ConfigurationError(f"unknown node {node_id}")
        if down:
            self._down_nodes.add(node_id)
        else:
            self._down_nodes.discard(node_id)

    def node_is_down(self, node_id: int) -> bool:
        return node_id in self._down_nodes

    def _on_link_drop(self, link: Link, now: float) -> None:
        self.lost += 1
        obs = _obs.ACTIVE
        if obs is not None:
            obs.net_dropped.inc()
        for hook in self.drop_hooks:
            hook(now, link)

    def _drop_at_node(self, n: int = 1) -> None:
        """Count *n* packets dropped at a crashed endpoint."""
        self.lost += n
        self.node_drops += n
        obs = _obs.ACTIVE
        if obs is not None:
            obs.net_dropped.inc(n)

    def _count_delivered(self, n: int = 1) -> None:
        """Count *n* deliveries (the batched fast path counts a lane's at
        once)."""
        self.delivered += n
        obs = _obs.ACTIVE
        if obs is not None:
            obs.net_delivered.inc(n)

    # -- transmission ---------------------------------------------------------

    def transmit(self, src_id: int, dst_id: int, pkt: Packet) -> bool:
        """Send *pkt* from node *src_id* to directly-connected *dst_id*.

        Returns False if the packet was dropped (link loss/partition, or a
        crashed endpoint).  Duplicating links may schedule several copies.
        """
        if src_id in self._down_nodes or dst_id in self._down_nodes:
            self._drop_at_node()
            return False
        link = self.link_between(src_id, dst_id)
        delays = link.delivery_plan(src_id, self.now)
        if not delays:
            return False  # the link's drop hook already counted it
        for delay in delays:
            self.events.schedule(delay, self._deliver, src_id, dst_id, pkt)
        return True

    def deliver_at(self, when: float, src_id: int, dst_id: int,
                   pkt: Packet) -> Event:
        """Schedule a delivery of *pkt* at absolute time *when*.

        Used by the batched fast path to materialize in-flight lane entries
        back into ordinary delivery events when a fault window opens; the
        transmission-side accounting (link counters, loss) has already
        happened, so this enters the pipeline at the delivery stage.
        """
        return self.events.schedule_abs(when, self._deliver, src_id, dst_id,
                                        pkt)

    def _deliver(self, src_id: int, dst_id: int, pkt: Packet) -> None:
        node = self.nodes.get(dst_id)
        if node is None:
            raise SimulationError(f"delivery to unknown node {dst_id}")
        if dst_id in self._down_nodes:
            self._drop_at_node()
            return
        self._count_delivered()
        pkt.last_hop = src_id
        for hook in self.delivery_hooks:
            hook(self.now, src_id, dst_id, pkt)
        node.handle_packet(pkt)

    # -- running ----------------------------------------------------------------

    def start(self) -> None:
        """Invoke every node's start hook (idempotent)."""
        if self._started:
            return
        self._started = True
        for node in list(self.nodes.values()):
            node.start()

    def run_until(self, t_end: float) -> None:
        """Run everything due by *t_end*, then advance the clock to it
        (through the driver when one is attached)."""
        if self.driver is not None:
            self.driver.run_until(t_end)
            return
        self.start()
        self.events.run_until(t_end)

    def step(self) -> bool:
        """Run the next pending event, with a driver's traffic up to it
        first; False when no event is pending."""
        if self.driver is None:
            return self.events.step()
        t = self.events.peek_time()
        if t is None:
            return False
        self.driver.run_until(t)
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        self.start()
        return self.events.run(max_events=max_events)
