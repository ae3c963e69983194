"""Fig 11(c): dynamic workload, hot-out churn.

Paper: every second the 200 hottest keys go cold and everything else moves
up — mostly a reordering of already-cached keys, so throughput is nearly
constant over time.
"""

import numpy as np

from repro.sim.experiments import fig11_dynamics, format_table


def run():
    return fig11_dynamics("hot-out", duration=30.0)


def test_fig11c(report):
    result = run()
    per_second = result.rebinned(1.0)
    report("Fig 11(c) - hot-out churn (200 hottest per second)",
           format_table(
               ["second", "tput_MQPS(1s)"],
               [[i, v / 1e6] for i, v in enumerate(per_second)],
           ))
    steady = np.asarray(per_second[10:])
    # "Very steady throughput over time".
    assert steady.min() > 0.6 * steady.max()
