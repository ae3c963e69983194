"""Extension bench: switch reboot and cache refill (§3).

"If the switch fails, operators can simply reboot the switch with an empty
cache ... Because NetCache caches are small, they will refill rapidly."

Runs the hybrid emulation with a mid-run reboot: throughput collapses to
roughly the NoCache level the instant the cache empties, then climbs back
as the heavy-hitter detector re-reports the head of the distribution and
the controller reinstalls it.
"""

import numpy as np

from repro.sim.emulation import DynamicsEmulator, EmulationConfig
from repro.sim.experiments import format_table


def run():
    # Sampling/threshold sized so even the coldest cached key (rank ~1000)
    # crosses the threshold within one statistics interval after a reboot.
    config = EmulationConfig(
        num_keys=20_000, cache_items=1_000, num_servers=64,
        server_rate=100_000.0, churn_kind="hot-out", churn_n=1,
        churn_interval=1_000.0,          # effectively static workload
        duration=24.0, samples_per_step=8_000, hot_threshold=4,
        reboot_times=(10.0,), seed=4,
    )
    emulator = DynamicsEmulator(config)
    result = emulator.run()
    return result


def test_recovery(report):
    result = run()
    per_second = result.rebinned(1.0)
    cache_per_second = result.cache_size[::10]
    report("§3 - switch reboot: throughput and cache refill", format_table(
        ["second", "tput_MQPS", "cache_items"],
        [[i, per_second[i] / 1e6, cache_per_second[i]]
         for i in range(len(per_second))],
    ))
    rates = np.asarray(result.throughput)
    reboot_idx = int(result.reboot_times[0] / 0.1)
    before = rates[reboot_idx - 20 : reboot_idx].mean()
    crash = rates[reboot_idx : reboot_idx + 3].min()
    recovered = rates[reboot_idx + 10 : reboot_idx + 30].max()
    # The reboot hurts (cache gone; servers take the skew)...
    assert result.cache_size[reboot_idx] < 1_000
    assert crash < 0.85 * before
    # ...the cache refills rapidly from heavy-hitter reports (§3)...
    assert result.cache_size[reboot_idx + 15] == 1_000
    # ...and throughput recovers within a couple of seconds.
    assert recovered > 0.9 * before
