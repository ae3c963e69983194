"""Tests for the routing table."""

import pytest

from repro.errors import RoutingError
from repro.net.routing import RoutingTable


class TestRoutes:
    def test_lookup_installed_route(self):
        table = RoutingTable()
        table.add_route(7, 3)
        assert table.lookup(7) == 3

    def test_missing_route_raises(self):
        with pytest.raises(RoutingError):
            RoutingTable().lookup(9)

    def test_default_port_fallback(self):
        table = RoutingTable(default_port=0)
        assert table.lookup(1234) == 0

    def test_specific_beats_default(self):
        table = RoutingTable(default_port=0)
        table.add_route(5, 2)
        assert table.lookup(5) == 2

    def test_negative_port_rejected(self):
        with pytest.raises(RoutingError):
            RoutingTable().add_route(1, -1)

    def test_overwrite_route(self):
        table = RoutingTable()
        table.add_route(1, 1)
        table.add_route(1, 2)
        assert table.lookup(1) == 2
