"""Smoke runs of the core data structures' hot operations.

Not a paper figure: each runs one op of the Python substrate — data-plane
packet processing, a sketch update, allocator churn, hash-table ops — and
checks its result.  Host timing is ``benchmarks/e2e``'s job.
"""

from repro.core.dataplane import NetCacheDataplane
from repro.core.memory import SwitchMemoryManager
from repro.kvstore.hashtable import HashTable
from repro.net.packet import make_get
from repro.net.routing import RoutingTable
from repro.sketch.countmin import CountMinSketch

KEY = b"0123456789abcdef"


def _dataplane():
    routing = RoutingTable(default_port=0)
    routing.add_route(1, 1)
    routing.add_route(2, 2)
    dp = NetCacheDataplane(routing, num_pipes=1, ports_per_pipe=8,
                           entries=1024, value_slots=1024)
    dp.install(KEY, b"v" * 128, 1)
    return dp


def test_dataplane_cache_hit():
    pkt = make_get(2, 1, KEY)
    _dataplane().process(pkt, 2)
    assert pkt.served_by_cache


def test_dataplane_cache_miss():
    result = _dataplane().process(make_get(2, 1, b"fedcba9876543210"), 2)
    assert result.egress_port == 1


def test_countmin_update():
    sketch = CountMinSketch(width=64 * 1024, depth=4)
    sketch.update(KEY)
    assert sketch.estimate(KEY) > 0


def test_allocator_insert_evict():
    mm = SwitchMemoryManager(num_arrays=8, slots_per_array=4096)
    mm.insert(KEY, 128)
    mm.evict(KEY)
    assert len(mm) == 0


def test_hashtable_put_get():
    table = HashTable(initial_capacity=1024)
    for i in range(512):
        table.put(f"warm{i}".encode(), b"v")
    table.put(KEY, b"value")
    assert table.get(KEY) == b"value"
