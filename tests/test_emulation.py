"""Tests for the hybrid dynamics emulation."""

import numpy as np
import pytest

from repro.sim import emulation, ratesim
from repro.sim.emulation import DynamicsEmulator, EmulationConfig


def small_config(**overrides):
    defaults = dict(
        num_keys=5_000, cache_items=200, num_servers=16,
        server_rate=5_000.0, churn_kind="hot-in", churn_n=50,
        churn_interval=3.0, duration=8.0, step=0.1,
        samples_per_step=500, hot_threshold=4, seed=2,
    )
    defaults.update(overrides)
    return EmulationConfig(**defaults)


class TestMechanics:
    def test_stores_preloaded(self):
        emulator = DynamicsEmulator(small_config())
        total = sum(len(s.store) for s in emulator.servers.values())
        assert total == 5_000

    def test_warm_start_fills_cache(self):
        emulator = DynamicsEmulator(small_config())
        result = emulator.run(warm=True)
        assert result.cache_size[0] == 200

    def test_trace_lengths_consistent(self):
        result = DynamicsEmulator(small_config(duration=2.0)).run()
        n = len(result.times)
        assert n == 20
        assert len(result.throughput) == n == len(result.offered)
        assert len(result.cache_size) == n == len(result.insertions)


class TestHotIn:
    def test_dip_and_recovery(self):
        result = DynamicsEmulator(small_config()).run()
        rates = np.asarray(result.throughput)
        churn_idx = int(result.churn_times[0] / 0.1)
        before = rates[churn_idx - 5 : churn_idx].mean()
        dip = rates[churn_idx : churn_idx + 3].min()
        recovered = rates[churn_idx + 15 : churn_idx + 25].mean()
        assert dip < 0.8 * before          # churn visibly hurts
        assert recovered > 1.5 * dip       # and the cache catches up

    def test_controller_inserts_after_churn(self):
        result = DynamicsEmulator(small_config()).run()
        churn_idx = int(result.churn_times[0] / 0.1)
        assert result.insertions[-1] > result.insertions[churn_idx]


class TestHotOut:
    def test_steady_throughput(self):
        result = DynamicsEmulator(small_config(
            churn_kind="hot-out", churn_interval=1.0, duration=6.0)).run()
        rates = np.asarray(result.throughput[20:])  # skip AIMD ramp
        assert rates.min() > 0.5 * rates.max()


class TestRebinning:
    def test_rebinned_averages(self):
        result = DynamicsEmulator(small_config(duration=2.0)).run()
        coarse = result.rebinned(1.0)
        assert len(coarse) == 2
        assert coarse[0] == pytest.approx(np.mean(result.throughput[:10]))


class TestCapacityMemo:
    def test_memo_is_the_equilibrium_solved_afresh_every_step(
            self, monkeypatch):
        """Churn, a reboot and a stall window: at every step the memoised
        capacity equals a from-scratch solve, and each distinct
        (popularity generation, contents version) is solved exactly once."""
        emulator = DynamicsEmulator(small_config(
            duration=6.0, reboot_times=(2.5,),
            controller_stall_windows=((4.0, 4.6),)))

        def state():
            return (emulator.popularity.changes,
                    emulator.switch.dataplane.contents_version)

        solved = []

        def counting_simulate(*args, **kwargs):
            solved.append(state())
            return ratesim.simulate(*args, **kwargs)

        monkeypatch.setattr(emulation, "simulate", counting_simulate)
        memoised = emulator._saturated_throughput
        steps = []

        def checked():
            capacity = memoised()
            fresh = ratesim.simulate(
                emulator.workload.read_item_probs(),
                ratesim.mask_from_keys(emulator.switch.cached_keys(),
                                       emulator.workload.keyspace),
                emulator.rate_config).throughput
            assert capacity.hex() == fresh.hex()
            steps.append(state())
            return capacity

        monkeypatch.setattr(emulator, "_saturated_throughput", checked)
        result = emulator.run()

        assert result.churn_times and result.reboot_times
        assert result.stall_times
        assert len(steps) == len(result.times)
        assert len(solved) == len(set(solved)) == len(set(steps))
        assert len(solved) < len(steps)
