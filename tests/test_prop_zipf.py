"""Property-based tests for distributions and popularity churn."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.client.dynamics import PopularityMap
from repro.client.zipf import ZipfDistribution


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5000), st.floats(0.0, 1.2))
def test_zipf_probs_are_a_distribution(n, skew):
    dist = ZipfDistribution(n, skew)
    assert np.all(dist.probs >= 0)
    assert dist.probs.sum() == 1.0 or abs(dist.probs.sum() - 1.0) < 1e-9
    assert np.all(np.diff(dist.probs) <= 1e-15)  # monotone non-increasing


@settings(max_examples=60, deadline=None)
@given(st.integers(10, 2000), st.floats(0.1, 1.1),
       st.integers(1, 100))
def test_head_mass_monotone_in_k(n, skew, k):
    dist = ZipfDistribution(n, skew)
    k = min(k, n - 1)
    assert dist.probs[:k].sum() <= dist.probs[:k + 1].sum() + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 500),
       st.lists(st.tuples(st.sampled_from(["hot_in", "hot_out", "random"]),
                          st.integers(1, 20)), max_size=20),
       st.integers(0, 1000))
def test_churn_preserves_permutation(n, churn_ops, seed):
    pm = PopularityMap(n, seed=seed)
    for kind, size in churn_ops:
        size = min(size, n)
        if kind == "hot_in":
            pm.hot_in(size)
        elif kind == "hot_out":
            pm.hot_out(size)
        else:
            top_m = max(1, n // 2)
            pm.random_replace(min(size, top_m), top_m=top_m)
    assert sorted(pm.items_array().tolist()) == list(range(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(10, 500), st.integers(1, 9))
def test_hot_in_then_hot_out_is_identity_on_sets(n, size):
    pm = PopularityMap(n)
    size = min(size, n)
    promoted = pm.hot_in(size)
    demoted = pm.hot_out(size)
    assert promoted == demoted
