"""Integration: cache updates track workload churn end to end (the §7.4
machinery: statistics -> heavy-hitter reports -> controller -> cache)."""

from repro.sim.emulation import DynamicsEmulator, EmulationConfig


def emulator(kind, **overrides):
    defaults = dict(
        num_keys=3_000, cache_items=150, num_servers=8,
        server_rate=4_000.0, churn_kind=kind, churn_n=40,
        churn_interval=2.0, duration=6.0, step=0.1,
        samples_per_step=400, hot_threshold=4, seed=1,
    )
    defaults.update(overrides)
    return DynamicsEmulator(EmulationConfig(**defaults))


class TestCacheTracksWorkload:
    def test_hot_in_keys_get_cached(self):
        emu = emulator("hot-in")
        emu.run()
        # After the run, most of the current top items should be cached.
        current_hot = emu.workload.hottest_keys(40)
        cached = sum(1 for k in current_hot
                     if emu.switch.dataplane.is_cached(k))
        assert cached > 20

    def test_cache_size_stays_at_capacity(self):
        emu = emulator("random")
        result = emu.run()
        assert all(size <= 150 for size in result.cache_size)
        assert result.cache_size[-1] == 150

    def test_hot_out_leaves_cache_mostly_right(self):
        # One hot-out churn only reorders ranks: a warm cache of M items
        # still covers the top M-n without any controller action (why
        # Fig 11c is flat).
        emu = emulator("hot-out")
        emu.controller.preload(emu.workload.hottest_keys(150))
        emu.churn.apply_once()
        still_hot = emu.workload.hottest_keys(150 - 40)
        covered = sum(1 for k in still_hot
                      if emu.switch.dataplane.is_cached(k))
        assert covered == 150 - 40

    def test_hot_in_invalidates_much_of_cache_coverage(self):
        # The contrast: hot-in pushes n brand-new keys to the very top,
        # which the warm cache cannot cover until the controller acts.
        emu = emulator("hot-in")
        emu.controller.preload(emu.workload.hottest_keys(150))
        emu.churn.apply_once()
        new_top = emu.workload.hottest_keys(40)
        covered = sum(1 for k in new_top
                      if emu.switch.dataplane.is_cached(k))
        assert covered == 0

    def test_statistics_reset_periodically(self):
        emu = emulator("random")
        emu.run()
        assert emu.switch.dataplane.stats.resets >= 5


class TestThroughputShapes:
    def test_hot_in_dips_deeper_than_hot_out(self):
        import numpy as np

        hot_in = emulator("hot-in").run()
        hot_out = emulator("hot-out", churn_interval=1.0).run()

        def worst_dip(result):
            rates = np.asarray(result.throughput[15:])  # skip AIMD ramp
            return rates.min() / max(rates.max(), 1.0)

        assert worst_dip(hot_in) < worst_dip(hot_out)

    def test_ten_second_average_smoother_than_per_step(self):
        import numpy as np

        result = emulator("hot-in").run()
        fine = np.asarray(result.throughput)
        coarse = np.asarray(result.rebinned(2.0))
        assert coarse.std() <= fine.std()
