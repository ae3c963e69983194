"""Extension bench: packet-level leaf-spine cache tiers (§5 mechanism).

Fig 10(f) simulates multi-rack caching analytically; this bench runs the
*mechanism* — a spine NetCache switch above NetCache ToRs — at packet level
and reports where queries are served: the spine absorbs the global head,
the leaves absorb each rack's warm middle, and only the tail reaches
servers.
"""

from repro.sim.cluster import default_workload
from repro.sim.experiments import format_table
from repro.sim.fabric import Fabric, FabricConfig


def run():
    workload = default_workload(num_keys=5_000, skew=0.99, seed=5)
    fabric = Fabric(FabricConfig(
        num_racks=4, servers_per_rack=4, leaf_cache_items=64,
        spine_cache_items=64, server_rate=50_000.0, seed=5,
    ))
    fabric.load_workload_data(workload)
    fabric.warm_caches(workload)

    client = fabric.clients[0]
    queries = 4_000
    for _ in range(queries):
        _, key = workload.next_query()
        client.get(key)
    fabric.run(0.5)

    hits = fabric.tier_hits()
    served = client.received
    rows = [
        ["spine cache", hits["spine"], hits["spine"] / served],
        ["leaf caches", hits["leaf"], hits["leaf"] / served],
        ["servers", served - hits["spine"] - hits["leaf"],
         (served - hits["spine"] - hits["leaf"]) / served],
    ]
    return rows, served, queries


def test_fabric_tiers(report):
    rows, served, queries = run()
    report("Extension - leaf-spine tier breakdown (Zipf 0.99)", format_table(
        ["tier", "queries", "fraction"], rows))
    assert served > 0.99 * queries          # nothing lost
    fractions = {r[0]: r[2] for r in rows}
    # The spine (global top-64) outserves the leaves (next 256 spread over
    # racks), and both together absorb the majority of a Zipf 0.99 stream.
    assert fractions["spine cache"] > fractions["leaf caches"] > 0
    assert fractions["spine cache"] + fractions["leaf caches"] > 0.5
