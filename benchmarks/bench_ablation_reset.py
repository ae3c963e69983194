"""Ablation A5: statistics clearing cycle vs reaction speed (§4.4.3).

"All statistics data are cleared periodically by the controller.  The
clearing cycle has direct impact on how quickly the cache can react to
workload changes."  This ablation runs the same hot-in churn with three
clearing cycles and measures the depth and duration of the throughput dip
after each change: a long cycle keeps stale heavy-hitter state (Bloom bits
already set suppress fresh reports; old counts distort comparisons) and
slows recovery.
"""

import numpy as np

from repro.sim.emulation import DynamicsEmulator, EmulationConfig
from repro.sim.experiments import format_table


def one_run(stats_interval):
    config = EmulationConfig(
        num_keys=20_000, cache_items=1_000, num_servers=32,
        server_rate=50_000.0, churn_kind="hot-in", churn_n=150,
        churn_interval=8.0, duration=24.0, samples_per_step=3_000,
        hot_threshold=5, stats_interval=stats_interval, seed=9,
    )
    result = DynamicsEmulator(config).run()
    rates = np.asarray(result.throughput)
    dips, recovery_steps = [], []
    for t in result.churn_times:
        idx = int(t / 0.1)
        if idx + 40 > len(rates):
            continue
        before = rates[max(0, idx - 20) : idx].mean()
        window = rates[idx : idx + 40]
        dips.append(window.min() / before)
        above = np.flatnonzero(window > 0.9 * before)
        recovery_steps.append(int(above[0]) if above.size else 40)
    return (float(np.mean(dips)), float(np.mean(recovery_steps)) * 0.1,
            result.insertions[-1])


def run():
    rows = []
    for interval in (0.5, 1.0, 4.0):
        dip, recovery_s, insertions = one_run(interval)
        rows.append([interval, dip, recovery_s, insertions])
    return rows


def test_ablation_reset(report):
    rows = run()
    report("Ablation A5 - statistics clearing cycle vs reaction speed",
           format_table(
               ["reset_interval_s", "mean_dip_fraction",
                "mean_recovery_s", "insertions"], rows))
    # Recovery time grows with the clearing cycle (the §4.4.3 claim).
    recoveries = [r[2] for r in rows]
    assert recoveries == sorted(recoveries)
    assert recoveries[-1] > 2 * recoveries[0]
    # Hot-in always dips hard (the cache misses the new head entirely) and
    # every configuration performs insertions to recover.
    assert all(0.0 < r[1] < 0.5 for r in rows)
    assert all(r[3] > 0 for r in rows)
