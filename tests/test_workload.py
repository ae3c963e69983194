"""Tests for workload generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.client.workload import Workload, WorkloadSpec
from repro.errors import ConfigurationError
from repro.net.protocol import Op


def workload(**overrides):
    defaults = dict(num_keys=1000, read_skew=0.99, write_ratio=0.0, seed=4)
    defaults.update(overrides)
    return Workload(WorkloadSpec(**defaults))


class TestStream:
    def test_read_only_stream(self):
        wl = workload()
        ops = {op for op, _ in wl.queries(200)}
        assert ops == {Op.GET}

    def test_write_ratio_respected(self):
        wl = workload(write_ratio=0.3)
        writes = sum(op == Op.PUT for op, _ in wl.queries(5000))
        assert 1200 <= writes <= 1800

    def test_all_writes(self):
        wl = workload(write_ratio=1.0)
        assert all(op == Op.PUT for op, _ in wl.queries(50))

    def test_keys_are_valid(self):
        wl = workload()
        for _, key in wl.queries(100):
            assert 0 <= wl.keyspace.item(key) < 1000

    def test_deterministic(self):
        a = list(workload(seed=9).queries(100))
        b = list(workload(seed=9).queries(100))
        assert a == b

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(write_ratio=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(value_size=0)


class TestValues:
    def test_value_size(self):
        wl = workload(value_size=64)
        assert len(wl.value_for(wl.keyspace.key(3))) == 64

    def test_values_deterministic_and_distinct(self):
        wl = workload()
        k1, k2 = wl.keyspace.key(1), wl.keyspace.key(2)
        assert wl.value_for(k1) == wl.value_for(k1)
        assert wl.value_for(k1) != wl.value_for(k2)


def _key(item):
    """The keyspace key of *item*, past any key space's size too."""
    return b"k" + str(item).zfill(15).encode()


#: ids around the widths where a value's seedling grows a digit.
item_ids = st.one_of(
    st.integers(0, 10 ** 4),
    st.integers(10 ** 10 - 40, 10 ** 10 + 40),
    st.sampled_from([10 ** w + d for w in range(10, 15) for d in (-1, 0)]),
    st.integers(0, 10 ** 15 - 1))


@settings(max_examples=100, deadline=None)
@given(items=st.lists(item_ids, max_size=60),
       size=st.one_of(st.sampled_from([1, 11, 12, 128, 1000]),
                      st.integers(1, 300)))
def test_values_for_is_value_for_of_each_id(items, size):
    """The bulk builder is the scalar value of each id byte for byte,
    ids of eleven digits and more (a wider seedling) included."""
    wl = workload(value_size=size)
    got = wl.values_for(np.array(items, dtype=np.int64))
    assert got == [wl.value_for(_key(item)) for item in items]


class TestProbabilities:
    def test_read_probs_sum_to_one(self):
        probs = workload().read_item_probs()
        assert probs.sum() == pytest.approx(1.0)

    def test_probs_follow_popularity_map(self):
        wl = workload()
        wl.popularity.hot_in(5)  # items 995..999 become hottest
        probs = wl.read_item_probs()
        top5 = set(np.argsort(probs)[::-1][:5])
        assert top5 == {995, 996, 997, 998, 999}

    def test_hottest_keys_match_probs(self):
        wl = workload()
        probs = wl.read_item_probs()
        hottest = wl.hottest_keys(3)
        items = [wl.keyspace.item(k) for k in hottest]
        assert items == list(np.argsort(probs)[::-1][:3])

    def test_empirical_stream_matches_probs(self):
        wl = workload(num_keys=100)
        probs = wl.read_item_probs()
        counts = np.zeros(100)
        for _, key in wl.queries(20_000):
            counts[wl.keyspace.item(key)] += 1
        top = int(np.argmax(probs))
        assert abs(counts[top] / 20_000 - probs[top]) < 0.02
