"""Fig 11(a): dynamic workload, hot-in churn.

Paper: every 10 s the 200 coldest keys jump to the top of the popularity
ranks — the most radical change.  Per-second throughput dips sharply at each
change and recovers within about a second as the heavy-hitter detector
reports the new keys and the controller installs them; the 10-second
average stays high.
"""

import numpy as np

from repro.sim.experiments import dynamics_summary, fig11_dynamics, format_table


def run():
    return fig11_dynamics("hot-in", duration=40.0)


def test_fig11a(report):
    result = run()
    per_second = result.rebinned(1.0)
    per_ten = result.rebinned(10.0)
    report("Fig 11(a) - hot-in churn (200 keys every 10 s)", format_table(
        ["second", "tput_MQPS(1s)", "tput_MQPS(10s avg)"],
        [[i, per_second[i] / 1e6, per_ten[i // 10] / 1e6]
         for i in range(len(per_second))],
    ))
    summary = dynamics_summary(result)
    rates = np.asarray(result.throughput)
    # Dips at churn, recovery within ~2 s (20 steps of 100 ms).
    for t in result.churn_times[:-1]:
        idx = int(t / 0.1)
        before = rates[idx - 10 : idx].mean()
        dip = rates[idx : idx + 5].min()
        recovered = rates[idx + 20 : idx + 60].max()
        assert dip < 0.8 * before
        assert recovered > 0.7 * before
    assert summary["steady"] > 0
