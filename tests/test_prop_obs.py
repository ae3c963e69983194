"""Property tests for the streaming histogram (Hypothesis).

The headline property: on random inputs, the histogram's quantile
estimates stay within bucket-width error of :func:`statistics.quantiles`.
The estimator returns the upper edge of the bucket holding the order
statistic at rank ``ceil(q*n)`` (clamped to [min, max]), so it is within
one bucket width of that order statistic; ``statistics.quantiles`` with
``method="inclusive"`` interpolates between the two order statistics
bracketing ``q``, so the total allowed error is one bucket width plus the
gap between those bracketing order statistics.
"""

import json
import math
import statistics

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.export import registry_from_jsonl, registry_to_jsonl
from repro.obs.metrics import Histogram, exponential_edges
from repro.obs.registry import Registry

#: fixed-width buckets covering the sampled domain with width 1.
WIDTH = 1.0
EDGES = [float(i) for i in range(1001)]

values = st.lists(
    st.floats(min_value=0.0, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
    min_size=2, max_size=300)

quantile_points = st.floats(min_value=0.01, max_value=0.999)


@given(data=values, q=quantile_points)
@example(data=[0.0, 501.0, 500.5, 500.5], q=1 / 3)
@settings(max_examples=200)
def test_quantile_within_bucket_width_of_statistics(data, q):
    hist = Histogram("h", edges=EDGES)
    for v in data:
        hist.observe(v)
    est = hist.quantile(q)

    srt = sorted(data)
    n = len(srt)
    # statistics.quantiles(method="inclusive") interpolates between the
    # order statistics bracketing position q*(n-1) — but it is read at q
    # rounded to 1/1000, which can move that bracket by one order
    # statistic, so the allowance spans both roundings of q*1000.
    exact = statistics.quantiles(srt, n=1000, method="inclusive")[
        max(0, min(998, round(q * 1000) - 1))]
    lo = math.floor(math.floor(q * 1000) / 1000 * (n - 1))
    hi = math.floor(math.ceil(q * 1000) / 1000 * (n - 1))
    bracket_gap = srt[min(hi + 1, n - 1)] - srt[lo]
    # Every bucket over (0, 1000] is WIDTH wide; 0.0 lands in the open
    # first bucket, which is held to WIDTH as well.
    tolerance = WIDTH + bracket_gap + 1e-9
    assert abs(est - exact) <= tolerance


@given(data=values, q=quantile_points)
@settings(max_examples=200)
def test_quantile_within_one_bucket_of_order_statistic(data, q):
    """The core guarantee, stated against the exact empirical quantile."""
    hist = Histogram("h", edges=EDGES)
    for v in data:
        hist.observe(v)
    rank = max(1, math.ceil(q * len(data)))
    order_stat = sorted(data)[rank - 1]
    est = hist.quantile(q)
    assert abs(est - order_stat) <= WIDTH + 1e-9


@given(data=values)
@settings(max_examples=100)
def test_histogram_accounting_invariants(data):
    hist = Histogram("h", edges=EDGES)
    for v in data:
        hist.observe(v)
    assert hist.count == len(data)
    assert sum(hist.counts) == len(data)
    assert hist.min == min(data)
    assert hist.max == max(data)
    assert hist.sum == sum(data)  # same float addition order
    # Estimates never leave the observed range.
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert hist.min <= hist.quantile(q) <= hist.max


#: values that land exactly on an edge, past the overflow edge, or in
#: between, split into batches (possibly empty ones).
batched_values = st.lists(
    st.lists(st.one_of(
        st.sampled_from(EDGES),
        st.floats(min_value=-5.0, max_value=1500.0,
                  allow_nan=False, allow_infinity=False)),
        max_size=40),
    max_size=6)


@given(batches=batched_values)
@example(batches=[[]])
@example(batches=[[0.0, 1000.0, 1000.5], [], [1.0, 1.0]])
@settings(max_examples=200)
def test_observe_batch_matches_a_loop_of_observe(batches):
    """The lanes engine feeds ``client.request`` one batch per flush;
    the scalar path observes one reply at a time.  The two must leave
    the same histogram, down to the last bit of ``sum``."""
    looped = Histogram("h", edges=EDGES)
    batched = Histogram("h", edges=EDGES)
    for batch in batches:
        for v in batch:
            looped.observe(v)
        batched.observe_batch(batch)
    assert batched.counts == looped.counts
    assert batched.count == looped.count
    assert batched.min == looped.min
    assert batched.max == looped.max
    assert batched.sum.hex() == looped.sum.hex()


@given(data=values, qa=quantile_points, qb=quantile_points)
@settings(max_examples=100)
def test_quantiles_monotone(data, qa, qb):
    hist = Histogram("h", edges=exponential_edges(1e-3, 2000.0))
    for v in data:
        hist.observe(v)
    lo, hi = sorted((qa, qb))
    assert hist.quantile(lo) <= hist.quantile(hi)


@given(data=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                               allow_nan=False, allow_infinity=False),
                     min_size=0, max_size=100),
       count=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_jsonl_export_round_trips_random_registries(data, count):
    registry = Registry()
    registry.counter("c").inc(count)
    registry.gauge("g").set(count / 3.0)
    hist = registry.histogram("h", edges=[-1e6 + i * 1e5 for i in range(21)])
    for v in data:
        hist.observe(v)
    text = registry_to_jsonl(registry)
    rebuilt = registry_from_jsonl(text)
    assert registry_to_jsonl(rebuilt) == text
    assert rebuilt.collect() == registry.collect()
    # And the text really is line-delimited JSON.
    for line in text.strip().splitlines():
        json.loads(line)
