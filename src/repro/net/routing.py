"""L2/L3 routing substrate.

NetCache deliberately reuses standard routing (§4.1): switches forward on the
destination address; the NetCache modules only *redirect* cache-hit replies
by matching on the source address and mirroring to the upstream port
(§4.4.4).  This module provides the routing table abstraction both the plain
switches and the NetCache switch use.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import RoutingError


class RoutingTable:
    """Destination-address -> egress-port map with an optional default.

    Ports are small integers local to one switch.  This models the L3 table
    of Fig 5(d) (we route on exact node addresses rather than prefixes; the
    simulator's address space is flat).
    """

    def __init__(self, default_port: Optional[int] = None):
        self._routes: Dict[int, int] = {}
        self.default_port = default_port

    def add_route(self, dst: int, port: int) -> None:
        """Install a route for destination node *dst* via *port*."""
        if port < 0:
            raise RoutingError(f"invalid port {port}")
        self._routes[dst] = port

    def lookup(self, dst: int) -> int:
        """Return the egress port for *dst*.

        Falls back to the default port (an "up-link" in a real deployment);
        raises :class:`RoutingError` if there is neither, mirroring the
        drop-by-default rule in Fig 5(d).
        """
        port = self._routes.get(dst)
        if port is not None:
            return port
        if self.default_port is not None:
            return self.default_port
        raise RoutingError(f"no route to node {dst}")

    def __len__(self) -> int:
        return len(self._routes)
