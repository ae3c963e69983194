"""Fig 10(b): per-server throughput breakdown.

Paper: without the cache, per-server load is wildly skewed (one server at
capacity, most idle); with the cache enabled the remaining load is nearly
flat across all 128 servers.  We print the load of representative servers
(sorted) and the max/mean imbalance.
"""

import numpy as np

from repro.sim.experiments import fig10b_breakdown, format_table


def run():
    return fig10b_breakdown()


def test_fig10b(report):
    rows = run()
    table_rows = []
    for r in rows:
        loads = r.per_server_normalized
        picks = [loads[i] for i in (0, 1, 7, 31, 63, 127)]
        table_rows.append(
            [r.workload, "NetCache" if r.cached else "NoCache",
             r.imbalance] + [float(p) for p in picks])
    report("Fig 10(b) - per-server load (normalized, sorted desc)",
           format_table(
               ["workload", "system", "max/mean", "s0", "s1", "s7",
                "s31", "s63", "s127"],
               table_rows,
           ))
    by_key = {(r.workload, r.cached): r for r in rows}
    for skew in ("zipf-0.9", "zipf-0.95", "zipf-0.99"):
        assert by_key[(skew, False)].imbalance > \
            3 * by_key[(skew, True)].imbalance
        # With the cache, the median server runs near the peak.
        cached_loads = by_key[(skew, True)].per_server_normalized
        assert np.median(cached_loads) > 0.8
