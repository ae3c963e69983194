"""Fig 10(e): impact of cache size on system throughput.

Paper: with only ~1 000 cached items the 128 servers are balanced (matching
the uniform-workload throughput); beyond that the cache adds throughput with
diminishing returns (log-scale x-axis); larger caches help Zipf 0.99 more
than Zipf 0.9.
"""

from repro.sim.experiments import fig10e_cache_size, format_table


def run():
    return fig10e_cache_size(
        cache_sizes=(10, 100, 1_000, 10_000, 65_536))


def test_fig10e(report):
    rows = run()
    report("Fig 10(e) - throughput vs cache size", format_table(
        ["zipf", "cache_items", "total_BQPS", "cache_BQPS"],
        [[r.skew, r.cache_items, r.throughput_bqps, r.cache_portion_bqps]
         for r in rows],
    ))
    for skew in (0.9, 0.99):
        series = [r for r in rows if r.skew == skew]
        tputs = [r.throughput_bqps for r in series]
        # Growth with diminishing returns, never a collapse.
        assert tputs[2] > 1.5 * tputs[0]          # 1 000 >> 10
        assert tputs[-1] <= tputs[2] * 1.3        # little past 1 000
        portions = [r.cache_portion_bqps for r in series]
        assert portions == sorted(portions)       # cache share monotone
    # At ~1 000 items the rack is balanced: within 10% of peak.
    for skew in (0.9, 0.99):
        series = {r.cache_items: r for r in rows if r.skew == skew}
        peak = max(r.throughput_bqps for r in rows if r.skew == skew)
        assert series[1_000].throughput_bqps > 0.85 * peak
