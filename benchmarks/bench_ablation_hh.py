"""Ablation A1: heavy-hitter detector designs (§4.4.3).

Compares three ways to find the keys worth caching, on the same Zipf 0.99
stream:

* the NetCache data-plane design (sampler -> Count-Min sketch -> Bloom
  dedup), measured for recall of the true top-K and for report volume;
* SpaceSaving, the classic software summary a server-side monitor would run;
* exact counting (dict), the infeasible-on-switch upper bound.

The point: the sketch pipeline finds nearly all true heavy hitters with a
few KB of register memory and reports each at most once per interval.
"""

from collections import Counter

from repro.core.stats import QueryStatistics
from repro.client.zipf import ZipfGenerator
from repro.sim.experiments import format_table
from repro.sketch.spacesaving import SpaceSaving

NUM_KEYS = 50_000
QUERIES = 200_000
TOP_K = 100


def stream():
    gen = ZipfGenerator(NUM_KEYS, 0.99, seed=13)
    for _ in range(QUERIES):
        yield str(gen.next_rank()).encode()


def run():
    truth = Counter()
    # Threshold tuned to the sampled count of the rank-100 key: p_100 ~
    # 9e-4, 200K queries at 1/4 sampling -> ~46 expected observations.
    stats = QueryStatistics(entries=1024, hot_threshold=24, sample_rate=0.25,
                            seed=13)
    space = SpaceSaving(capacity=4 * TOP_K)
    netcache_reports = []
    for key in stream():
        truth[key] += 1
        hot = stats.heavy_hitter_count(key)
        if hot is not None:
            netcache_reports.append(hot)
        space.update(key)

    true_top = {k for k, _ in truth.most_common(TOP_K)}
    nc_set = set(netcache_reports)
    ss_set = {k for k, _ in space.top(len(nc_set))}
    exact_set = {k for k, _ in truth.most_common(len(nc_set))}

    def recall(found):
        return len(found & true_top) / TOP_K

    rows = [
        ["netcache-cm+bloom", recall(nc_set), len(netcache_reports),
         stats.sram_bytes],
        ["spacesaving", recall(ss_set), len(ss_set), 4 * TOP_K * 40],
        ["exact-count", recall(exact_set), len(exact_set),
         NUM_KEYS * 40],
    ]
    return rows, len(netcache_reports), len(nc_set)


def test_ablation_hh(report):
    rows, reports, unique = run()
    report("Ablation A1 - heavy-hitter detector designs", format_table(
        ["detector", "recall@100", "reports", "approx_bytes"], rows))
    by_name = {r[0]: r for r in rows}
    # The data-plane pipeline finds the hot keys...
    assert by_name["netcache-cm+bloom"][1] > 0.9
    # ...and the Bloom filter keeps reports unique.
    assert reports == unique
    # State is far smaller than exact counting.
    assert by_name["netcache-cm+bloom"][3] < by_name["exact-count"][3]
