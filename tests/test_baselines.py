"""Tests for baselines: server cache layer, replication, policies."""

import pytest

from repro.baselines.policies import (
    LfuPolicy,
    LruPolicy,
    ThresholdPolicy,
    UpdateBudget,
    run_policy,
)
from repro.baselines.replication import ReplicationConfig, simulate_replication
from repro.baselines.servercache import ServerCacheConfig, simulate_server_cache
from repro.client.zipf import ZipfDistribution, ZipfGenerator
from repro.errors import ConfigurationError
from repro.sim.ratesim import RateSimConfig, simulate, top_k_mask


def probs(skew=0.99, n=10_000):
    return ZipfDistribution(n, skew).probs


STORAGE = RateSimConfig(num_servers=16, server_rate=1000.0,
                        switch_rate=1e12, pipe_rate=1e12)


class TestServerCacheLayer:
    def test_in_memory_cache_layer_is_the_bottleneck(self):
        # The §2 argument: with T' ~= T, one cache node saturates first.
        p = probs()
        result = simulate_server_cache(
            p, STORAGE, ServerCacheConfig(num_cache_nodes=1,
                                          cache_node_rate=1000.0,
                                          cache_items=100))
        assert result.binding == "cache-layer"
        switch = simulate(p, top_k_mask(p, 100), STORAGE)
        assert switch.throughput > 3 * result.throughput

    def test_many_cache_nodes_recover_throughput(self):
        p = probs()
        small = simulate_server_cache(
            p, STORAGE, ServerCacheConfig(1, 1000.0, 100))
        big = simulate_server_cache(
            p, STORAGE, ServerCacheConfig(16, 1000.0, 100))
        assert big.throughput > 4 * small.throughput

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ServerCacheConfig(num_cache_nodes=0)


class TestReplication:
    def test_replication_helps_but_less_than_caching(self):
        p = probs()
        nocache = simulate(p, None, STORAGE).throughput
        replicated = simulate_replication(
            p, STORAGE, ReplicationConfig(replicated_items=100, replicas=4))
        cached = simulate(p, top_k_mask(p, 100), STORAGE).throughput
        assert replicated > nocache
        assert cached > replicated

    def test_more_replicas_more_throughput(self):
        p = probs()
        r2 = simulate_replication(p, STORAGE,
                                  ReplicationConfig(100, replicas=2))
        r8 = simulate_replication(p, STORAGE,
                                  ReplicationConfig(100, replicas=8))
        assert r8 > r2

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(replicas=0)


class TestUpdateBudget:
    def test_budget_depletes_and_refills(self):
        budget = UpdateBudget(2)
        assert budget.take() and budget.take()
        assert not budget.take()
        budget.refill()
        assert budget.take()
        assert budget.spent == 3 and budget.denied == 1


def zipf_stream(n_queries=20_000, n_keys=5_000, skew=0.99, seed=0):
    gen = ZipfGenerator(n_keys, skew, seed=seed)

    def factory():
        local = ZipfGenerator(n_keys, skew, seed=seed)
        return (str(local.next_rank()).encode() for _ in range(n_queries))

    return factory


class TestPolicies:
    def test_lru_unbudgeted_hit_ratio(self):
        factory = zipf_stream()
        hit_ratio, _ = run_policy(LruPolicy(500), factory(),
                                  queries_per_interval=1000,
                                  updates_per_interval=10**9)
        assert hit_ratio > 0.4

    def test_budget_starves_lru(self):
        factory = zipf_stream()
        rich, _ = run_policy(LruPolicy(500), factory(), 1000, 10**9)
        poor, _ = run_policy(LruPolicy(500), factory(), 1000, 10)
        assert poor < rich

    def test_threshold_matches_lru_with_tiny_update_cost(self):
        # The §4.3 argument, part 1: HH-threshold insertion reaches a hit
        # ratio comparable to unbudgeted LRU using orders of magnitude
        # fewer table updates (the scarce switch resource).
        factory = zipf_stream()
        lru_hr, lru_updates = run_policy(LruPolicy(500), factory(),
                                         1000, 10**9)
        thr_hr, thr_updates = run_policy(ThresholdPolicy(500, threshold=3),
                                         factory(), 1000, 10**9)
        assert thr_hr > 0.8 * lru_hr
        assert thr_updates < 0.05 * lru_updates

    def test_threshold_wins_under_tight_budget(self):
        # Part 2: when the update budget is realistic (a switch driver can
        # apply ~10K entries/s against ~10^9 queries/s), per-query LRU
        # churn burns the budget and falls behind.
        factory = zipf_stream()
        lru, _ = run_policy(LruPolicy(500), factory(), 1000, 20)
        threshold, _ = run_policy(ThresholdPolicy(500, threshold=3),
                                  factory(), 1000, 20)
        assert threshold > lru

    def test_lfu_respects_capacity(self):
        factory = zipf_stream(n_queries=5000)
        policy = LfuPolicy(100)
        run_policy(policy, factory(), 1000, 10**9)
        assert len(policy._cache) <= 100

    def test_threshold_interval_batching(self):
        policy = ThresholdPolicy(10, threshold=2)
        budget = UpdateBudget(100)
        for _ in range(5):
            policy.access(b"hot", budget)
        assert policy.updates_applied == 0  # nothing inserted mid-interval
        policy.end_interval(budget)
        assert policy.access(b"hot", budget) is True

    def test_invalid_policy_config(self):
        with pytest.raises(ConfigurationError):
            LruPolicy(0)
        with pytest.raises(ConfigurationError):
            ThresholdPolicy(10, threshold=0)
