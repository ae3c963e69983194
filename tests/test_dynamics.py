"""Tests for popularity churn (hot-in / random / hot-out)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.client.dynamics import ChurnSchedule, PopularityMap
from repro.errors import ConfigurationError


class ListPopularityMap:
    """The rank -> item permutation as a Python list, one swap at a
    time: the executable spec of :class:`PopularityMap`'s array form."""

    def __init__(self, num_items, seed=0):
        self.num_items = num_items
        self._rng = random.Random(seed)
        self._item_of_rank = list(range(num_items))
        self.changes = 0

    def hot_in(self, n):
        n = min(n, self.num_items)
        newly_hot = self._item_of_rank[-n:]
        self._item_of_rank = newly_hot + self._item_of_rank[:-n]
        self.changes += 1
        return list(newly_hot)

    def hot_out(self, n):
        n = min(n, self.num_items)
        demoted = self._item_of_rank[:n]
        self._item_of_rank = self._item_of_rank[n:] + demoted
        self.changes += 1
        return list(demoted)

    def random_replace(self, n, top_m):
        n = min(n, self.num_items, top_m, self.num_items - top_m)
        if n <= 0:
            return []
        hot_positions = self._rng.sample(range(top_m), n)
        cold_positions = self._rng.sample(range(top_m, self.num_items), n)
        table = self._item_of_rank
        promoted = []
        for hp, cp in zip(hot_positions, cold_positions):
            table[hp], table[cp] = table[cp], table[hp]
            promoted.append(table[hp])
        self.changes += 1
        return promoted


@settings(max_examples=80, deadline=None)
@given(num_items=st.integers(1, 60), seed=st.integers(0, 3),
       ops=st.lists(st.tuples(
           st.sampled_from(["hot-in", "hot-out", "random"]),
           st.integers(1, 70), st.integers(0, 60)), max_size=12))
def test_array_map_is_the_list_map(num_items, seed, ops):
    """Same returns, same permutation and the same RNG state after every
    churn: both forms draw ``random.sample`` identically."""
    fast = PopularityMap(num_items, seed=seed)
    spec = ListPopularityMap(num_items, seed=seed)
    for kind, n, top_m in ops:
        if kind == "hot-in":
            assert fast.hot_in(n) == spec.hot_in(n)
        elif kind == "hot-out":
            assert fast.hot_out(n) == spec.hot_out(n)
        else:
            top_m = min(top_m, num_items)
            assert fast.random_replace(n, top_m) == \
                spec.random_replace(n, top_m)
        table = spec._item_of_rank
        assert fast.items_array().tolist() == table
        assert fast.top_items(3) == table[:3]
        assert fast.item_at(num_items - 1) == table[-1]
        assert fast.changes == spec.changes
        assert fast._rng.getstate() == spec._rng.getstate()


class TestPopularityMap:
    def test_identity_at_start(self):
        pm = PopularityMap(10)
        assert pm.items_array().tolist() == list(range(10))

    def test_hot_in_promotes_coldest(self):
        pm = PopularityMap(10)
        promoted = pm.hot_in(3)
        assert promoted == [7, 8, 9]
        assert pm.top_items(3) == [7, 8, 9]
        # Everyone else shifted down, order preserved.
        assert pm.items_array()[3:].tolist() == [0, 1, 2, 3, 4, 5, 6]

    def test_hot_out_demotes_hottest(self):
        pm = PopularityMap(10)
        demoted = pm.hot_out(2)
        assert demoted == [0, 1]
        assert pm.item_at(0) == 2
        assert pm.items_array()[8:].tolist() == [0, 1]

    def test_random_replace_swaps_hot_and_cold(self):
        pm = PopularityMap(100, seed=5)
        promoted = pm.random_replace(10, top_m=20)
        assert len(promoted) == 10
        # Promoted items came from outside the old top-20.
        assert all(p >= 20 for p in promoted)
        # Permutation is preserved.
        assert sorted(pm.items_array().tolist()) == list(range(100))

    def test_permutation_invariant_under_all_ops(self):
        pm = PopularityMap(50, seed=2)
        pm.hot_in(7)
        pm.hot_out(3)
        pm.random_replace(5, top_m=10)
        assert sorted(pm.items_array().tolist()) == list(range(50))

    def test_change_size_clamped(self):
        pm = PopularityMap(5)
        pm.hot_in(100)  # clamps to 5, a rotation
        assert sorted(pm.items_array().tolist()) == list(range(5))

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            PopularityMap(0)
        with pytest.raises(ConfigurationError):
            PopularityMap(10).hot_in(0)
        with pytest.raises(ConfigurationError):
            PopularityMap(10).random_replace(2, top_m=50)


class TestChurnSchedule:
    def test_hot_in_schedule(self):
        pm = PopularityMap(1000)
        sched = ChurnSchedule(pm, "hot-in", n=10, interval=10.0)
        promoted = sched.apply_once()
        assert len(promoted) == 10
        assert sched.applied == 1

    def test_hot_out_returns_no_promotions(self):
        pm = PopularityMap(1000)
        sched = ChurnSchedule(pm, "hot-out", n=10)
        assert sched.apply_once() == []

    def test_random_schedule(self):
        pm = PopularityMap(1000, seed=1)
        sched = ChurnSchedule(pm, "random", n=10, top_m=100)
        assert len(sched.apply_once()) == 10

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ChurnSchedule(PopularityMap(10), "tsunami")

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            ChurnSchedule(PopularityMap(10), "hot-in", interval=0)
