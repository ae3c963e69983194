#!/usr/bin/env python3
"""Switch anatomy: follow one query through the NetCache pipeline.

Walks a Get, a Put, and a cache update through the data-plane model step by
step, printing the state each module touches (lookup table, cache status,
value register arrays, statistics), then prints the §6 resource report.

Run:  python examples/switch_anatomy.py
"""

from repro.core.dataplane import NetCacheDataplane
from repro.core.resources import paper_prototype_report, report_for
from repro.net.packet import make_cache_update, make_get, make_put
from repro.net.routing import RoutingTable

CLIENT, SERVER = 100, 1
KEY = b"user:184467:cart"  # exactly 16 bytes


def build():
    routing = RoutingTable()
    routing.add_route(CLIENT, 10)
    routing.add_route(SERVER, 0)
    dp = NetCacheDataplane(routing, num_pipes=1, ports_per_pipe=16,
                           entries=256, value_slots=256)
    dp.stats.set_sample_rate(1.0)
    dp.stats.set_hot_threshold(3)
    return dp


def show_entry(dp, key):
    res = dp.layout.lookup.lookup(key)
    if res is None:
        print("    lookup: MISS")
        return
    pipe = dp.pipe_of_port(res.egress_port)
    valid = dp.layout.status[pipe].is_valid(res.key_index)
    print(f"    lookup: HIT  bitmap={res.bitmap:#010b} "
          f"index={res.value_index} key_index={res.key_index} "
          f"egress_port={res.egress_port} valid={valid}")


def main():
    dp = build()
    print("== 1. misses drive the heavy-hitter detector ==")
    for i in range(4):
        pkt = make_get(CLIENT, SERVER, KEY, seq=i)
        result = dp.process(pkt, ingress_port=10)
        est = dp.stats.sketch.estimate(KEY)
        flag = f" -> REPORT to controller" if result.hot_key else ""
        print(f"  GET #{i}: forwarded to port {result.egress_port}, "
              f"count-min estimate now {est}{flag}")

    print("\n== 2. the controller installs the item ==")
    dp.install(KEY, b"3 items, $42.17", egress_port=0)
    show_entry(dp, KEY)

    print("\n== 3. reads are served by the switch ==")
    pkt = make_get(CLIENT, SERVER, KEY, seq=10)
    result = dp.process(pkt, ingress_port=10)
    print(f"  GET: op={pkt.op.name} value={pkt.value!r} "
          f"mirrored to upstream port {result.egress_port}")
    print(f"  per-key counter: {dp.counter_of(KEY)}")

    print("\n== 4. a write invalidates and is rewritten for the server ==")
    wpkt = make_put(CLIENT, SERVER, KEY, b"4 items, $55.09", seq=11)
    dp.process(wpkt, ingress_port=10)
    print(f"  PUT rewritten to {wpkt.op.name} (server will run the "
          f"coherence path)")
    show_entry(dp, KEY)

    print("\n== 5. the server's CACHE_UPDATE revalidates the entry ==")
    upd = make_cache_update(SERVER, SERVER, KEY, b"4 items, $55.09", seq=1)
    result = dp.process(upd, ingress_port=0)
    print(f"  update applied; ack {result.generated[0].packet.op.name} "
          f"sent back out port {result.generated[0].port}")
    show_entry(dp, KEY)
    pkt = make_get(CLIENT, SERVER, KEY, seq=12)
    dp.process(pkt, ingress_port=10)
    print(f"  GET now returns {pkt.value!r}")

    print("\n== 6. what this costs on the chip (paper geometry) ==")
    print(paper_prototype_report().render())


if __name__ == "__main__":
    main()
