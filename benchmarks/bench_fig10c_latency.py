"""Fig 10(c): average latency vs throughput (discrete-event, scaled rack).

Paper: NoCache serves at ~15 us but saturates at ~0.2 BQPS (10% of the
rack); NetCache holds 11-12 us average (7 us for cache hits) all the way to
2 BQPS.  The scaled DES rack reproduces the relative saturation points: the
NoCache curve blows up at a small fraction of rack capacity while NetCache
stays flat to full load.
"""

from repro.sim.experiments import fig10c_latency, format_table


def run():
    return fig10c_latency(
        offered_fractions=(0.1, 0.3, 0.5, 0.7, 0.9, 1.0),
        sim_seconds=0.2,
    )


def test_fig10c(report):
    rows = run()
    report("Fig 10(c) - latency vs throughput (scaled rack, 8 servers)",
           format_table(
               ["system", "offered/capacity", "tput_qps", "mean_us",
                "p99_us"],
               [[r.system, r.offered_fraction, r.throughput_qps,
                 r.mean_latency_us, r.p99_latency_us] for r in rows],
           ))
    nocache = [r for r in rows if r.system == "NoCache"]
    netcache = [r for r in rows if r.system == "NetCache"]
    # NoCache latency explodes well below rack capacity.
    assert nocache[-1].mean_latency_us > 20 * nocache[0].mean_latency_us
    # NetCache stays flat (within 3x of its unloaded latency) at full load.
    assert netcache[-1].mean_latency_us < 3 * netcache[0].mean_latency_us
    # At matched load, NetCache is faster.
    assert netcache[-1].mean_latency_us < nocache[-1].mean_latency_us
