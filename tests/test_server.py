"""Tests for the storage-server node (queueing + shim integration)."""

import pytest

from repro.errors import ConfigurationError
from repro.kvstore.partition import HashPartitioner
from repro.kvstore.server import StorageServer, load_stores
from repro.net.packet import make_get, make_put
from repro.net.protocol import Op
from repro.net.simulator import Node, Simulator

KEY = b"0123456789abcdef"


class Collector(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.got = []

    def handle_packet(self, pkt):
        self.got.append((self.sim.now, pkt))


def rig(service_rate=1000.0, queue_limit=None):
    sim = Simulator()
    tor = Collector(1)
    server = StorageServer(5, gateway=1, service_rate=service_rate,
                           queue_limit=queue_limit)
    sim.add_node(tor)
    sim.add_node(server)
    sim.connect(1, 5, latency=1e-6)
    return sim, tor, server


class TestService:
    def test_get_served_after_service_time(self):
        sim, tor, server = rig(service_rate=1000.0)
        server.store.put(KEY, b"v")
        sim.transmit(1, 5, make_get(2, 5, KEY))
        sim.run()
        t, reply = tor.got[0]
        assert reply.op == Op.GET_REPLY and reply.value == b"v"
        # link + service + link
        assert t == pytest.approx(1e-6 + 1e-3 + 1e-6)

    def test_queueing_serializes(self):
        sim, tor, server = rig(service_rate=1000.0)
        server.store.put(KEY, b"v")
        for _ in range(3):
            sim.transmit(1, 5, make_get(2, 5, KEY))
        sim.run()
        times = [t for t, _ in tor.got]
        assert times[1] - times[0] == pytest.approx(1e-3)
        assert times[2] - times[1] == pytest.approx(1e-3)

    def test_utilization(self):
        sim, tor, server = rig(service_rate=1000.0)
        server.store.put(KEY, b"v")
        for _ in range(5):
            sim.transmit(1, 5, make_get(2, 5, KEY))
        sim.run()
        assert server.processed == 5
        assert 0 < server.utilization(elapsed=0.01) <= 1.0


class TestDropQueue:
    def test_drops_when_full(self):
        sim, tor, server = rig(service_rate=1000.0, queue_limit=2)
        server.store.put(KEY, b"v")
        for _ in range(10):
            sim.transmit(1, 5, make_get(2, 5, KEY))
        sim.run()
        assert server.drops == 8
        assert len(tor.got) == 2

    def test_queue_drains_over_time(self):
        sim, tor, server = rig(service_rate=1000.0, queue_limit=1)
        server.store.put(KEY, b"v")
        sim.transmit(1, 5, make_get(2, 5, KEY))
        sim.run()
        sim.transmit(1, 5, make_get(2, 5, KEY))
        sim.run()
        assert server.drops == 0 and len(tor.got) == 2


class TestWrites:
    def test_put_updates_store(self):
        sim, tor, server = rig()
        sim.transmit(1, 5, make_put(2, 5, KEY, b"new"))
        sim.run()
        assert server.store.get(KEY) == b"new"
        assert tor.got[0][1].op == Op.PUT_REPLY

    def test_cached_put_emits_update_then_reply(self):
        sim, tor, server = rig()
        pkt = make_put(2, 5, KEY, b"new")
        pkt.op = Op.PUT_CACHED
        sim.transmit(1, 5, pkt)
        sim.run_until(0.002)
        ops = [p.op for _, p in tor.got]
        assert Op.PUT_REPLY in ops and Op.CACHE_UPDATE in ops


class TestConfig:
    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            StorageServer(5, gateway=1, service_rate=0)
        with pytest.raises(ConfigurationError):
            StorageServer(5, gateway=1, service_rate=float("nan"))

    def test_invalid_queue(self):
        with pytest.raises(ConfigurationError):
            StorageServer(5, gateway=1, queue_limit=0)

    def test_bulk_load(self):
        servers = {5: StorageServer(5, gateway=1),
                   6: StorageServer(6, gateway=1)}
        keys = [KEY, b"fedcba9876543210", b"0000000000000000"]
        load_stores(servers, HashPartitioner([5, 6]), keys,
                    lambda ids: [b"v%d" % i for i in ids.tolist()])
        assert sum(len(s.store) for s in servers.values()) == 3
        for i, key in enumerate(keys):
            owner = servers[HashPartitioner([5, 6]).server_for(key)]
            assert owner.store.get(key) == b"v%d" % i
