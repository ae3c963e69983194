"""Tests for the rate-equilibrium simulator."""

import numpy as np
import pytest

from repro.client.zipf import KeySpace, ZipfDistribution
from repro.errors import ConfigurationError
from repro.kvstore.partition import HashPartitioner
from repro.sim.ratesim import (
    CacheContentsMask,
    RateSimConfig,
    fast_partition_vector,
    mask_from_keys,
    partition_vector,
    pipe_vector,
    simulate,
    top_k_mask,
)


def config(**overrides):
    defaults = dict(num_servers=16, server_rate=1000.0,
                    switch_rate=1e9, pipe_rate=1e9)
    defaults.update(overrides)
    return RateSimConfig(**defaults)


def probs(n=1000, skew=0.99):
    return ZipfDistribution(n, skew).probs


class TestPartitionVectors:
    def test_exact_matches_hash_partitioner(self):
        vec = partition_vector(100, 4)
        ks = KeySpace(100)
        hp = HashPartitioner(list(range(4)))
        for i in range(100):
            assert vec[i] == hp.partition_of(ks.key(i))

    def test_fast_vector_uniform(self):
        vec = fast_partition_vector(100_000, 16)
        counts = np.bincount(vec, minlength=16)
        assert counts.min() > 5000  # expected 6250

    def test_fast_vector_deterministic(self):
        a = fast_partition_vector(1000, 8, seed=1)
        b = fast_partition_vector(1000, 8, seed=1)
        assert np.array_equal(a, b)

    def test_pipe_vector_is_a_byte_an_item(self):
        # Cached for the life of the process next to the partition vector,
        # so it holds a pipe index in the narrowest dtype, read-only.
        for exact, part in ((False, fast_partition_vector(1000, 8, seed=3)),
                            (True, partition_vector(1000, 8, seed=3))):
            pipes = pipe_vector(1000, 8, 3, seed=3, exact=exact)
            assert pipes.dtype == np.uint8 and not pipes.flags.writeable
            assert np.array_equal(pipes, part % 3)


class TestReadOnly:
    def test_uniform_near_full_capacity(self):
        result = simulate(probs(skew=0.0), None, config())
        assert result.throughput == pytest.approx(16 * 1000.0, rel=0.15)
        assert result.binding == "server"

    def test_skew_collapses_nocache(self):
        uniform = simulate(probs(skew=0.0), None, config()).throughput
        skewed = simulate(probs(skew=0.99), None, config()).throughput
        assert skewed < 0.5 * uniform

    def test_cache_restores_throughput(self):
        p = probs(skew=0.99)
        nocache = simulate(p, None, config()).throughput
        cached = simulate(p, top_k_mask(p, 100), config()).throughput
        assert cached > 2 * nocache

    def test_cache_hit_accounting(self):
        p = probs(skew=0.99)
        result = simulate(p, top_k_mask(p, 100), config())
        assert result.cache_throughput + result.server_throughput == \
            pytest.approx(result.throughput)
        expected_hit = p[top_k_mask(p, 100)].sum()
        assert result.hit_ratio == pytest.approx(expected_hit, rel=1e-6)

    def test_per_server_load_at_most_capacity(self):
        p = probs(skew=0.99)
        result = simulate(p, top_k_mask(p, 50), config())
        assert result.per_server_load.max() <= 1000.0 * (1 + 1e-9)

    def test_bottleneck_is_argmax(self):
        p = probs(skew=0.99)
        result = simulate(p, None, config())
        assert result.bottleneck == int(result.per_server_load.argmax())


class TestSwitchBounds:
    def test_pipe_bound_binds_when_servers_fast(self):
        cfg = config(server_rate=1e12, pipe_rate=1e6, num_upstream_pipes=100)
        p = probs(skew=0.99)
        result = simulate(p, top_k_mask(p, 100), cfg)
        assert result.binding == "pipe"

    def test_upstream_bound_caps_total(self):
        cfg = config(server_rate=1e12, pipe_rate=1e6, num_pipes=100,
                     num_upstream_pipes=2)
        p = probs(skew=0.0)
        result = simulate(p, top_k_mask(p, 1000), cfg)
        assert result.throughput == pytest.approx(2e6, rel=0.01)
        assert result.binding == "upstream"


class TestWrites:
    def test_write_probs_required(self):
        with pytest.raises(ConfigurationError):
            simulate(probs(), None, config(write_ratio=0.5))

    def test_uniform_writes_reduce_netcache(self):
        p = probs(skew=0.99)
        u = probs(skew=0.0)
        mask = top_k_mask(p, 100)
        base = simulate(p, mask, config()).throughput
        wr = simulate(p, mask, config(write_ratio=0.5), write_probs=u)
        assert wr.throughput < base

    def test_skewed_writes_kill_caching(self):
        p = probs(skew=0.99)
        mask = top_k_mask(p, 100)
        cfg = config(write_ratio=0.3)
        netcache = simulate(p, mask, cfg, write_probs=p)
        nocache = simulate(p, None, cfg, write_probs=p)
        # "Similar to or even slightly worse" (§7.3): within ~10%.
        assert netcache.throughput <= nocache.throughput * 1.1

    def test_validity_reduces_hit_ratio(self):
        p = probs(skew=0.99)
        mask = top_k_mask(p, 100)
        read_only = simulate(p, mask, config())
        written = simulate(p, mask, config(write_ratio=0.3), write_probs=p)
        assert written.hit_ratio < read_only.hit_ratio


class TestMaskHelpers:
    def test_top_k_mask(self):
        p = probs(100, 0.99)
        mask = top_k_mask(p, 10)
        assert mask.sum() == 10
        assert mask[:10].all()  # zipf probs are rank-ordered

    def test_top_k_zero(self):
        assert top_k_mask(probs(100), 0).sum() == 0

    def test_mask_from_keys(self):
        ks = KeySpace(50)
        mask = mask_from_keys([ks.key(3), ks.key(7)], ks)
        assert mask.sum() == 2 and mask[3] and mask[7]

    def test_mask_from_keys_refuses_foreign_keys(self):
        with pytest.raises(ConfigurationError):
            mask_from_keys([KeySpace(50).key(3), b"x" * 16], KeySpace(50))
        with pytest.raises(ConfigurationError):
            mask_from_keys([KeySpace(100).key(50)], KeySpace(50))


class TestCacheContentsMask:
    def test_tracks_switch_contents(self, small_cluster, small_workload):
        mask = CacheContentsMask(small_cluster.switch,
                                 small_workload.keyspace)
        expected = mask_from_keys(small_cluster.switch.cached_keys(),
                                  small_workload.keyspace)
        assert np.array_equal(mask.mask(), expected)
        assert mask.mask().sum() == 32  # warm cache

    def test_mask_cached_until_version_bumps(self, small_cluster,
                                             small_workload):
        mask = CacheContentsMask(small_cluster.switch,
                                 small_workload.keyspace)
        first = mask.mask()
        assert mask.mask() is first  # same version -> same array object
        victim = small_cluster.switch.cached_keys()[0]
        assert small_cluster.switch.dataplane.evict(victim)
        second = mask.mask()
        assert second is not first
        assert second.sum() == first.sum() - 1
        assert not second[small_workload.keyspace.item(victim)]


class TestValidation:
    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            RateSimConfig(num_servers=0)
        with pytest.raises(ConfigurationError):
            RateSimConfig(write_ratio=1.5)

    def test_mask_of_another_length_is_refused(self):
        # A short mask used to be accepted silently once only the cached
        # items' indexes are taken from it.
        for length in (99, 101):
            with pytest.raises(ConfigurationError, match="cached_mask"):
                simulate(probs(100), np.zeros(length, dtype=bool), config())

    def test_write_probs_of_another_length_are_refused(self):
        for ratio in (0.0, 0.2):
            with pytest.raises(ConfigurationError, match="write_probs"):
                simulate(probs(100), None, config(write_ratio=ratio),
                         write_probs=probs(99))
