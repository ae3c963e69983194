"""Tests for the snake-test microbenchmark model and functional check."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.microbench import (
    OFFERED_RATE,
    pipeline_passes,
    snake_throughput,
    verify_pipeline,
)


class TestCapacityModel:
    def test_paper_headline_number(self):
        # 2 generators x 35 MQPS x 32 snake replication = 2.24 BQPS.
        assert snake_throughput(128, 64 * 1024) == pytest.approx(2.24e9)

    def test_flat_across_value_sizes_to_128(self):
        values = [snake_throughput(s, 1024) for s in (16, 64, 128)]
        assert min(values) == max(values) == pytest.approx(2.24e9)

    def test_flat_across_cache_sizes(self):
        values = {snake_throughput(128, c) for c in (1024, 65536)}
        assert len(values) == 1

    def test_recirculation_halves_large_values(self):
        small = snake_throughput(128, 1024)
        big = snake_throughput(200, 1024)
        assert big == pytest.approx(4e9 / 2)
        assert big < small

    def test_pipeline_passes(self):
        assert pipeline_passes(1) == 1
        assert pipeline_passes(128) == 1
        assert pipeline_passes(129) == 2
        assert pipeline_passes(300) == 3

    def test_cache_size_bounds(self):
        with pytest.raises(ConfigurationError):
            snake_throughput(128, 0)
        with pytest.raises(ConfigurationError):
            snake_throughput(128, 64 * 1024 + 1)

    def test_offered_rate(self):
        assert OFFERED_RATE == pytest.approx(2.24e9)


class TestFunctionalCheck:
    @pytest.mark.parametrize("value_size", [16, 48, 128])
    def test_pipeline_serves_correct_values(self, value_size):
        check = verify_pipeline(value_size, cache_size=32, num_queries=64)
        assert check.all_correct
        assert check.updates > 0

    def test_odd_value_size(self):
        check = verify_pipeline(100, cache_size=16, num_queries=32)
        assert check.all_correct

    def test_oversized_value_rejected(self):
        with pytest.raises(ConfigurationError):
            verify_pipeline(129)
