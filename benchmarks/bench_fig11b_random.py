"""Fig 11(b): dynamic workload, random churn.

Paper: every second 200 random keys of the top-10 000 are swapped with cold
keys — a moderate change (the hottest keys rarely rotate out).  Per-second
dips are shallow and the 10-second average is essentially flat.
"""

import numpy as np

from repro.sim.experiments import fig11_dynamics, format_table


def run():
    return fig11_dynamics("random", duration=30.0)


def test_fig11b(report):
    result = run()
    per_second = result.rebinned(1.0)
    report("Fig 11(b) - random churn (200 of top-10000 per second)",
           format_table(
               ["second", "tput_MQPS(1s)"],
               [[i, v / 1e6] for i, v in enumerate(per_second)],
           ))
    # Skip the AIMD ramp; after that the per-second average holds.
    steady = np.asarray(per_second[10:])
    assert steady.min() > 0.5 * steady.max()
    # 10-second average nearly unaffected (paper: "almost unaffected").
    ten = np.asarray(result.rebinned(10.0)[1:])
    assert ten.min() > 0.75 * ten.max()
