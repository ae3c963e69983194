"""Fig 10(a): system throughput, NoCache vs NetCache, by skew.

Paper (128 servers, 10K cached items, read-only): NoCache collapses to
15-25% of its uniform throughput under Zipf 0.9-0.99; NetCache improves
throughput 3.6x / 6.5x / 10x at Zipf 0.9 / 0.95 / 0.99 and lands around
2 BQPS, split between the switch cache and the (now balanced) servers.
"""

from repro.sim.experiments import fig10a_throughput, format_table


def run():
    return fig10a_throughput()


def test_fig10a(report):
    rows = run()
    report("Fig 10(a) - throughput under skew (128 servers)", format_table(
        ["workload", "NoCache_BQPS", "NetCache_BQPS", "cache_BQPS",
         "servers_BQPS", "improvement"],
        [[r.workload, r.nocache_bqps, r.netcache_bqps, r.cache_portion_bqps,
          r.server_portion_bqps, r.improvement] for r in rows],
    ))
    by_name = {r.workload: r for r in rows}
    # Shape checks: skew kills NoCache, NetCache restores throughput, and
    # the improvement factor grows with skew.
    assert by_name["zipf-0.99"].nocache_bqps < \
        0.25 * by_name["uniform"].nocache_bqps
    imps = [by_name[k].improvement
            for k in ("zipf-0.9", "zipf-0.95", "zipf-0.99")]
    assert imps == sorted(imps) and imps[0] > 3.0
    assert 1.0 < by_name["zipf-0.99"].netcache_bqps < 3.0  # ~2 BQPS
