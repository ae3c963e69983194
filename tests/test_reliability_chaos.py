"""Chaos integration for the reliability layer's three seeded scenarios.

Fast versions run each scenario once at its default length and assert the
machinery it targets actually engaged (retries + dedup, lease aborts,
degraded-mode recovery) with zero invariant violations.  The ``slow``-marked
matrix replays every scenario across seeds and asserts byte-identical event
logs — the same grid CI runs.
"""

import pytest

from repro.faults import run_chaos
from repro.faults.runner import SCENARIO_OVERRIDES, SCENARIOS

RELIABILITY_SCENARIOS = ("loss-retry", "crash-insert", "partition-budget")


@pytest.fixture(scope="module")
def reports():
    """One seed-0 run of each reliability scenario, shared by the fast
    assertions below (each run is a pure function of its config)."""
    return {name: run_chaos(name, seed=0) for name in RELIABILITY_SCENARIOS}


class TestScenarioWiring:
    def test_scenarios_registered(self):
        for name in RELIABILITY_SCENARIOS:
            assert name in SCENARIOS
            assert SCENARIO_OVERRIDES[name]["retries"] is True

    def test_overrides_lose_to_explicit_kwargs(self):
        report = run_chaos("loss-retry", seed=0, duration=0.05, drain=0.05,
                           write_ratio=0.0, rate=5_000.0)
        assert report.clean
        assert report.duration == 0.05


class TestLossRetry:
    def test_clean_with_retries_and_dedup(self, reports):
        report = reports["loss-retry"]
        assert report.clean, report.violations
        assert report.recovery_time is not None
        assert report.link_drops > 0
        assert report.client_retries > 0
        assert report.dedup_hits > 0          # retried writes deduplicated
        assert report.degraded_entries == 0   # budget of 5000 never exhausts


class TestCrashInsert:
    def test_lease_aborts_recover_wedged_insertions(self, reports):
        report = reports["crash-insert"]
        assert report.clean, report.violations
        assert report.recovery_time is not None
        assert report.servers_detected_dead >= 1
        assert report.failovers >= 1
        # The crash landed inside async-insertion windows; every wedged
        # insertion was rolled back by the lease reaper.
        assert report.insertion_aborts > 0
        assert "switch-reboot" in report.event_log_text()
        assert "server-crash" in report.event_log_text()


class TestPartitionBudget:
    def test_degraded_mode_entered_and_recovered(self, reports):
        report = reports["partition-budget"]
        assert report.clean, report.violations
        assert report.recovery_time is not None
        assert report.servers_detected_dead >= 1
        # The gray outage exhausted the shrunken retry budget; every
        # degraded key recovered via controller eviction + ack.
        assert report.degraded_entries > 0
        assert report.degraded_recovered == report.degraded_entries


@pytest.mark.slow
@pytest.mark.parametrize("scenario", RELIABILITY_SCENARIOS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matrix_replays_byte_identical(scenario, seed):
    first = run_chaos(scenario, seed=seed)
    second = run_chaos(scenario, seed=seed)
    assert first.event_log_text() == second.event_log_text()
    assert first.clean, first.violations
    assert first.recovery_time is not None
