"""Tests for Zipf distributions and the key space."""

import numpy as np
import pytest

from repro.client.zipf import KeySpace, ZipfDistribution, ZipfGenerator
from repro.errors import ConfigurationError


class TestDistribution:
    def test_probs_sum_to_one(self):
        dist = ZipfDistribution(1000, 0.99)
        assert dist.probs.sum() == pytest.approx(1.0)

    def test_uniform_when_skew_zero(self):
        dist = ZipfDistribution(100, 0.0)
        assert np.allclose(dist.probs, 0.01)

    def test_monotone_decreasing(self):
        dist = ZipfDistribution(1000, 0.9)
        assert np.all(np.diff(dist.probs) <= 0)

    def test_skew_concentrates_head(self):
        mild = ZipfDistribution(10_000, 0.9).probs[:100].sum()
        strong = ZipfDistribution(10_000, 0.99).probs[:100].sum()
        assert strong > mild

    def test_head_mass_bounds(self):
        dist = ZipfDistribution(100, 0.99)
        assert dist.probs[:0].sum() == 0.0
        assert dist.probs[:100].sum() == pytest.approx(1.0)
        assert dist.probs[:1000].sum() == pytest.approx(1.0)

    def test_facebook_style_skew(self):
        # The motivating stat: ~10% of items draw 60-90% of queries (§1).
        dist = ZipfDistribution(100_000, 0.99)
        mass = dist.probs[:10_000].sum()
        assert 0.6 <= mass <= 0.95

    def test_rank_probability(self):
        dist = ZipfDistribution(10, 1.0)
        assert dist.probs[0] == pytest.approx(2 * dist.probs[1])

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            ZipfDistribution(0, 0.9)
        with pytest.raises(ConfigurationError):
            ZipfDistribution(10, -1.0)


class TestGenerator:
    def test_ranks_in_range(self):
        gen = ZipfGenerator(100, 0.99, seed=1)
        for _ in range(500):
            assert 0 <= gen.next_rank() < 100

    def test_deterministic_given_seed(self):
        a = ZipfGenerator(1000, 0.9, seed=7)
        b = ZipfGenerator(1000, 0.9, seed=7)
        assert [a.next_rank() for _ in range(100)] == \
               [b.next_rank() for _ in range(100)]

    def test_empirical_matches_distribution(self):
        gen = ZipfGenerator(100, 0.99, seed=3)
        samples = gen.sample(50_000)
        top10 = (samples < 10).mean()
        expected = gen.dist.probs[:10].sum()
        assert abs(top10 - expected) < 0.02

    def test_sample_batch_shape(self):
        gen = ZipfGenerator(50, 0.9, seed=1)
        assert gen.sample(17).shape == (17,)


class TestKeySpace:
    def test_keys_are_16_bytes(self):
        ks = KeySpace(1000)
        assert all(len(ks.key(i)) == 16 for i in (0, 1, 999))

    def test_roundtrip(self):
        ks = KeySpace(5000)
        for i in (0, 1, 4999):
            assert ks.item(ks.key(i)) == i

    def test_out_of_range(self):
        ks = KeySpace(10)
        with pytest.raises(ConfigurationError):
            ks.key(10)

    def test_foreign_key_rejected(self):
        with pytest.raises(ConfigurationError):
            KeySpace(10).item(b"x" * 16)

    def test_keys_bulk(self):
        ks = KeySpace(10)
        assert ks.keys([1, 2]) == [ks.key(1), ks.key(2)]

    def test_keys_is_key_over_the_whole_space(self):
        ks = KeySpace(1234)
        assert ks.keys(range(1234)) == [ks.key(i) for i in range(1234)]

    def test_keys_take_any_iterable(self):
        ks = KeySpace(10)
        want = [ks.key(2), ks.key(3), ks.key(9)]
        assert ks.keys(range(2, 4)) == want[:2]
        assert ks.keys(i for i in (2, 3, 9)) == want
        assert ks.keys(np.array([2, 3, 9])) == want
        assert ks.keys([]) == []

    def test_keys_refuse_ids_outside_the_space(self):
        # Indexing the key table would wrap a negative id silently.
        ks = KeySpace(10)
        for bad in ([-1], [3, 10], np.array([0, -2]), iter([11])):
            with pytest.raises(ConfigurationError):
                ks.keys(bad)

    def test_items_parse_keys_in_bulk(self):
        ks = KeySpace(5000)
        ids = [0, 1, 4999, 17, 17]
        got = ks.items(ks.keys(ids))
        assert got.dtype == np.int64 and got.tolist() == ids
        assert ks.items(ks.key(i) for i in ids).tolist() == ids
        assert ks.items([]).tolist() == []

    def test_items_refuse_malformed_keys(self):
        ks = KeySpace(10)
        good = ks.key(1)
        for bad in (b"x" * 16, good[:-1], good + b"0", b"k00000000000000x",
                    b"k0000000000000-1", b" " + good[1:],
                    KeySpace(100).key(10)):
            with pytest.raises(ConfigurationError):
                ks.items([good, bad])
