"""Tests for reboot handling inside the hybrid emulation (§3)."""

import numpy as np

from repro.sim.emulation import DynamicsEmulator, EmulationConfig


def config(**overrides):
    defaults = dict(
        num_keys=4_000, cache_items=200, num_servers=16,
        server_rate=10_000.0, churn_kind="hot-out", churn_n=1,
        churn_interval=1_000.0, duration=8.0, samples_per_step=1_500,
        hot_threshold=3, reboot_times=(4.0,), seed=7,
    )
    defaults.update(overrides)
    return EmulationConfig(**defaults)


class TestRebootInEmulation:
    def test_reboot_recorded(self):
        result = DynamicsEmulator(config()).run()
        assert result.reboot_times == [4.0]

    def test_cache_empties_then_refills(self):
        result = DynamicsEmulator(config()).run()
        idx = int(4.0 / 0.1)
        assert result.cache_size[idx] < 200
        assert result.cache_size[-1] > 0.5 * 200

    def test_throughput_dips_then_recovers(self):
        result = DynamicsEmulator(config()).run()
        rates = np.asarray(result.throughput)
        idx = int(4.0 / 0.1)
        before = rates[idx - 10 : idx].mean()
        assert rates[idx] < before
        assert rates[-10:].mean() > 0.8 * before

    def test_multiple_reboots(self):
        result = DynamicsEmulator(config(reboot_times=(2.0, 6.0))).run()
        assert result.reboot_times == [2.0, 6.0]

    def test_no_reboot_by_default(self):
        result = DynamicsEmulator(config(reboot_times=())).run()
        assert result.reboot_times == []
        assert min(result.cache_size) == 200
