"""Figure 1 / §2 quantified: where should the cache live?

Compares, for an in-memory storage rack under Zipf 0.99:

* NoCache;
* selective replication of the hot items (3 replicas);
* a server-based caching layer (SwitchKV-style) with 1 and 8 cache nodes;
* the in-network switch cache.

The paper's argument is that a caching layer must be orders of magnitude
faster than the storage layer (T' >> T); an in-memory cache *node* in front
of an in-memory store saturates first, while the switch absorbs the head of
the distribution at line rate.
"""

from repro.baselines.consistent import ConsistentHashRing, ring_load_vector
from repro.baselines.replication import ReplicationConfig, simulate_replication
from repro.baselines.servercache import ServerCacheConfig, simulate_server_cache
from repro.client.zipf import KeySpace, ZipfDistribution
from repro.sim.experiments import format_table
from repro.sim.ratesim import RateSimConfig, simulate, top_k_mask

NUM_KEYS = 1_000_000
CACHE_ITEMS = 10_000


def _consistent_hashing_throughput(probs, storage) -> float:
    """§8's first alternative: a ring with virtual nodes.  Balances key
    placement, not query skew — computed on a subsampled key space (the
    pure-Python ring lookup is the slow part)."""
    sub_keys = 50_000
    sub = ZipfDistribution(sub_keys, 0.99).probs
    ring = ConsistentHashRing(list(range(storage.num_servers)),
                              virtual_nodes=128)
    loads = ring_load_vector(sub, KeySpace(sub_keys), ring)
    return storage.server_rate / loads.max()


def run():
    probs = ZipfDistribution(NUM_KEYS, 0.99).probs
    storage = RateSimConfig(num_servers=128)
    mask = top_k_mask(probs, CACHE_ITEMS)
    rows = []
    rows.append(["NoCache", simulate(probs, None, storage).throughput / 1e9])
    rows.append(["consistent-hash(128vn)",
                 _consistent_hashing_throughput(probs, storage) / 1e9])
    rows.append(["selective-replication(x3)",
                 simulate_replication(probs, storage,
                                      ReplicationConfig(CACHE_ITEMS, 3))
                 / 1e9])
    for nodes in (1, 8):
        result = simulate_server_cache(
            probs, storage,
            ServerCacheConfig(num_cache_nodes=nodes, cache_node_rate=10e6,
                              cache_items=CACHE_ITEMS))
        rows.append([f"server-cache(x{nodes})", result.throughput / 1e9])
    rows.append(["netcache-switch",
                 simulate(probs, mask, storage).throughput / 1e9])
    return rows


def test_baseline_layers(report):
    rows = run()
    report("§2 - caching-layer placement comparison (Zipf 0.99)",
           format_table(["design", "BQPS"], rows))
    tput = dict(rows)
    assert tput["netcache-switch"] > 2 * tput["server-cache(x8)"]
    assert tput["server-cache(x1)"] < 2 * tput["NoCache"]
    assert tput["selective-replication(x3)"] < tput["netcache-switch"]
    assert tput["NoCache"] < tput["selective-replication(x3)"]
    # Consistent hashing rearranges keys but cannot split a hot key's
    # load: same order of magnitude as plain hash partitioning (§8).
    assert tput["consistent-hash(128vn)"] < 3 * tput["NoCache"]
