"""Fig 10(d): impact of write ratio.

Paper: with *uniform* writes NetCache's benefit erodes gradually and the two
systems meet at write ratio 1.0; with writes as skewed as the reads
(Zipf 0.99) the caching benefit disappears by write ratio ~0.2 and NetCache
pays the coherence overhead, landing at or slightly below NoCache.
"""

from repro.sim.experiments import fig10d_write_ratio, format_table


def run():
    return fig10d_write_ratio()


def test_fig10d(report):
    rows = run()
    report("Fig 10(d) - throughput vs write ratio (Zipf 0.99 reads)",
           format_table(
               ["write_dist", "write_ratio", "NoCache_BQPS",
                "NetCache_BQPS"],
               [[r.write_dist, r.write_ratio, r.nocache_bqps,
                 r.netcache_bqps] for r in rows],
           ))
    uniform = {r.write_ratio: r for r in rows if r.write_dist == "uniform"}
    skewed = {r.write_ratio: r for r in rows if r.write_dist == "zipf-0.99"}
    # Uniform writes: systems converge at w=1.0.
    assert abs(uniform[1.0].netcache_bqps - uniform[1.0].nocache_bqps) < \
        0.1 * uniform[1.0].nocache_bqps
    # Skewed writes: big win at w=0, gone by w=0.2.
    assert skewed[0.0].netcache_bqps > 5 * skewed[0.0].nocache_bqps
    assert skewed[0.2].netcache_bqps < 1.1 * skewed[0.2].nocache_bqps
    # Past the crossover, coherence overhead puts NetCache below NoCache.
    assert skewed[0.8].netcache_bqps < skewed[0.8].nocache_bqps
