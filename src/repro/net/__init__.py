"""Network substrate: protocol, packets, wire format, links, routing, and a
discrete-event simulator."""

from repro.net.events import Event, EventQueue
from repro.net.links import Link
from repro.net.packet import (
    Packet,
    make_cache_update,
    make_delete,
    make_get,
    make_put,
)
from repro.net.protocol import Op
from repro.net.routing import RoutingTable
from repro.net.simulator import Node, Simulator
from repro.net.topology import (
    LeafSpinePlan,
    NodeIdAllocator,
    RackPlan,
    make_leaf_spine_plan,
    make_rack_plan,
)

__all__ = [
    "Event",
    "EventQueue",
    "LeafSpinePlan",
    "Link",
    "Node",
    "NodeIdAllocator",
    "Op",
    "Packet",
    "RackPlan",
    "RoutingTable",
    "Simulator",
    "make_cache_update",
    "make_delete",
    "make_get",
    "make_leaf_spine_plan",
    "make_put",
    "make_rack_plan",
]
