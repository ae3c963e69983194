"""Equivalence properties of the vectorized hot path.

The numpy-backed sketch structures, the batch statistics APIs, and the
data plane's ``observe_reads`` all promise *bit-for-bit* the behaviour of
the retained scalar reference implementations
(:mod:`repro.sketch.reference`).  These tests drive random operation
sequences — including saturation, duplicate slots inside one batch, and
epoch resets — through both sides and require identical observable state.
The committed BENCH baselines and chaos replay logs are only stable as
long as every property here holds.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.primitives import RegisterArray
from repro.core.stats import QueryStatistics
from repro.net.routing import RoutingTable
from repro.sketch.bloom import BloomFilter
from repro.sketch.countmin import CountMinSketch
from repro.sketch.reference import (
    ScalarBloomFilter,
    ScalarCountMinSketch,
    ScalarQueryStatistics,
)

KEYS = st.binary(min_size=1, max_size=12)

# -- Count-Min sketch --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.tuples(KEYS, st.integers(1, 7)),  # update(key, count)
        st.just("reset"),
    ), max_size=60),
    counter_bits=st.sampled_from([4, 16]))
def test_countmin_matches_scalar_reference(ops, counter_bits):
    """Scalar updates, saturation, and epoch resets replay identically.

    counter_bits=4 saturates at 15, so random sequences regularly exercise
    the saturating-add clamp on both sides.
    """
    fast = CountMinSketch(width=64, depth=3, counter_bits=counter_bits,
                          seed=5)
    ref = ScalarCountMinSketch(width=64, depth=3, counter_bits=counter_bits,
                               seed=5)
    seen = set()
    for op in ops:
        if op == "reset":
            fast.reset()
            ref.reset()
            continue
        key, count = op
        seen.add(key)
        assert fast.update(key, count) == ref.update(key, count)
        assert fast.total_updates == ref.total_updates
    for key in seen:
        assert fast.estimate(key) == ref.estimate(key)
    live = fast._stamps == fast._epoch
    assert np.where(live, fast._counts, 0).tolist() == ref._rows


@settings(max_examples=60, deadline=None)
@given(batches=st.lists(st.lists(KEYS, min_size=1, max_size=20),
                        min_size=1, max_size=5),
       counter_bits=st.sampled_from([4, 16]),
       count=st.integers(1, 3))
def test_update_batch_is_sequential_equivalent(batches, counter_bits, count):
    """A batch update returns the running per-key estimates a scalar loop
    would have produced — including duplicate keys colliding on the same
    cells inside one batch — and leaves identical counters behind.  Rows
    up to 1 << 16 cells wide sort as uint16, wider ones as int64: every
    width below runs both sides."""
    for width in (32, 1 << 16, (1 << 16) + 1):
        fast = CountMinSketch(width=width, depth=3, counter_bits=counter_bits,
                              seed=9)
        ref = ScalarCountMinSketch(width=width, depth=3,
                                   counter_bits=counter_bits, seed=9)
        for keys in batches:
            idx_matrix = np.array(
                [fast.hash_family.indexes(k, fast.width) for k in keys],
                dtype=np.int64)
            got = fast.update_batch(idx_matrix, count=count)
            expected = [ref.update(k, count) for k in keys]
            assert list(got) == expected
            for k in keys:
                assert fast.estimate(k) == ref.estimate(k)
            assert fast.total_updates == ref.total_updates


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.one_of(
        # update(key, count); 2**63 saturates every counter width
        st.tuples(KEYS, st.integers(1, 7) | st.just(2**63)),
        st.just("reset"),
    ), max_size=40),
    probes=st.lists(st.binary(max_size=20), max_size=20),
    counter_bits=st.sampled_from([4, 16, 64]))
def test_estimate_batch_is_the_estimate_loop(ops, probes, counter_bits):
    """One hash kernel and one epoch-gated gather read every key's
    estimate exactly as :meth:`CountMinSketch.estimate` does, across
    resets (cells stamped in an old epoch read 0), key lengths and
    saturated 64-bit counters."""
    sketch = CountMinSketch(width=64, depth=3, counter_bits=counter_bits,
                            seed=5)
    updated = []
    for op in ops:
        if op == "reset":
            sketch.reset()
            continue
        key, count = op
        sketch.update(key, count)
        updated.append(key)
    keys = updated + probes
    assert (sketch.estimate_batch(keys).tolist()
            == [sketch.estimate(k) for k in keys])


# -- Bloom filter ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("add"), KEYS),
        st.tuples(st.just("contains"), KEYS),
        st.tuples(st.just("reset"), st.just(b"")),
    ), max_size=80))
def test_bloom_matches_scalar_reference(ops):
    fast = BloomFilter(bits=128, num_hashes=3, seed=11)
    ref = ScalarBloomFilter(bits=128, num_hashes=3, seed=11)
    for op, key in ops:
        if op == "add":
            assert fast.add(key) == ref.add(key)
            assert fast.inserted == ref.inserted
        elif op == "contains":
            assert fast.contains(key) == ref.contains(key)
        else:
            fast.reset()
            ref.reset()


@settings(max_examples=100, deadline=None)
@given(batches=st.lists(
    st.one_of(st.lists(st.binary(min_size=1, max_size=1), max_size=30),
              st.just("reset")), max_size=6))
def test_bloom_add_at_batch_is_the_add_at_loop(batches):
    """The vectorised pre-test plus the sequential test-and-set over the
    rest, against ``add_at`` per row: same verdicts, same ``inserted``,
    same bits — with the same key several times in one batch, and keys
    that only look present because other keys of the batch set their
    bits (32 bits for up to 256 keys)."""
    batch = BloomFilter(bits=32, num_hashes=3, seed=11)
    loop = BloomFilter(bits=32, num_hashes=3, seed=11)
    for keys in batches:
        if keys == "reset":
            batch.reset()
            loop.reset()
            continue
        positions = np.array([batch._positions(k) for k in keys],
                             dtype=np.int64).reshape(len(keys), 3)
        assert batch.add_at_batch(positions).tolist() == \
            [loop.add_at(row) for row in positions.tolist()]
        assert batch.inserted == loop.inserted
        assert ((batch._stamps == batch._epoch)
                == (loop._stamps == loop._epoch)).all()


# -- the full statistics engine ----------------------------------------------------


def drain_scalar(stats, stream):
    """Scalar miss counting, as the batch's ``(position, key)`` reports."""
    hot = []
    for pos, key in enumerate(stream):
        reported = stats.heavy_hitter_count(key)
        if reported is not None:
            hot.append((pos, reported))
    return hot


@settings(max_examples=30, deadline=None)
@given(stream=st.lists(KEYS, max_size=120),
       rate=st.sampled_from([1.0, 0.5]),
       seed=st.integers(0, 3))
def test_scalar_statistics_engine_matches_vectorized_scalar_path(
        stream, rate, seed):
    """The reference engine the hotpath microbench races against really is
    the same machine: per-key calls through both engines produce identical
    reports, counters, and sampler decisions."""
    fast = QueryStatistics(entries=16, hot_threshold=3, sample_rate=rate,
                           seed=seed)
    ref = ScalarQueryStatistics(entries=16, hot_threshold=3,
                                sample_rate=rate, seed=seed)
    for j, key in enumerate(stream):
        if j % 5 == 4:
            fast.reset()
            ref.reset()
        if j % 3 == 0:  # interleave some cached-key counting
            fast.cache_count(key, j % 16)
            ref.cache_count(key, j % 16)
        assert fast.heavy_hitter_count(key) == ref.heavy_hitter_count(key)
    assert fast.reports == ref.reports
    assert fast.sampler.observed == ref.sampler.observed
    assert fast.sampler.sampled == ref.sampler.sampled
    for i in range(16):
        assert fast.read_counter(i) == ref.read_counter(i)


@settings(max_examples=30, deadline=None)
@given(batches=st.lists(st.lists(KEYS, max_size=30), min_size=1, max_size=4),
       rate=st.sampled_from([1.0, 0.5, 0.0]),
       seed=st.integers(0, 3))
def test_heavy_hitter_batch_matches_scalar_loop(batches, rate, seed):
    """Batched miss counting = scalar miss counting, across resets, at
    full, fractional, and zero sample rates."""
    batch_stats = QueryStatistics(entries=16, hot_threshold=2,
                                  sample_rate=rate, seed=seed)
    loop_stats = QueryStatistics(entries=16, hot_threshold=2,
                                 sample_rate=rate, seed=seed)
    for i, stream in enumerate(batches):
        assert batch_stats.heavy_hitter_count_batch(stream) == \
            drain_scalar(loop_stats, stream)
        assert batch_stats.reports == loop_stats.reports
        assert batch_stats.sampler.sampled == loop_stats.sampler.sampled
        for key in stream:
            assert batch_stats.sketch.estimate(key) == \
                loop_stats.sketch.estimate(key)
            assert batch_stats.bloom.contains(key) == \
                loop_stats.bloom.contains(key)
        if i % 2 == 1:
            batch_stats.reset()
            loop_stats.reset()


@settings(max_examples=20, deadline=None)
@given(picks=st.lists(st.integers(0, 39), min_size=1, max_size=150),
       rate=st.sampled_from([1.0, 0.5]),
       seed=st.integers(0, 2))
def test_observe_reads_matches_observe_read_loop(picks, rate, seed):
    """The data plane's batch entry point splits hits from misses yet
    replays exactly like the per-packet path: same reports in order, same
    hit/miss accounting, same counters, straddling a statistics reset."""
    from repro.client.zipf import KeySpace
    from repro.core.dataplane import NetCacheDataplane

    keyspace = KeySpace(40)
    universe = keyspace.keys(range(40))
    cached = universe[:10]

    def build():
        dp = NetCacheDataplane(
            RoutingTable(default_port=0), entries=64, value_slots=64,
            stats=QueryStatistics(entries=64, hot_threshold=2,
                                  sample_rate=rate, seed=seed))
        dp.layout.bind_keyspace(keyspace)
        for i, key in enumerate(cached):
            assert dp.install(key, b"v" * 8, i % 128)
        return dp

    stream = [universe[p] for p in picks]
    items = np.array(picks, dtype=np.int64)
    half = len(stream) // 2
    batched, scalar = build(), build()

    hot_batched = list(batched.observe_reads(items[:half]))
    batched.reset_statistics()
    hot_batched += batched.observe_reads(items[half:])

    hot_scalar = []
    for key in stream[:half]:
        reported = scalar.observe_read(key)
        if reported is not None:
            hot_scalar.append(reported)
    scalar.reset_statistics()
    for key in stream[half:]:
        reported = scalar.observe_read(key)
        if reported is not None:
            hot_scalar.append(reported)

    assert hot_batched == hot_scalar
    assert batched.cache_hits == scalar.cache_hits
    assert batched.cache_misses == scalar.cache_misses
    assert batched.stats.reports == scalar.stats.reports
    assert batched.stats.sampler.observed == scalar.stats.sampler.observed
    assert batched.stats.sampler.sampled == scalar.stats.sampler.sampled
    for key in universe:
        assert batched.counter_of(key) == scalar.counter_of(key)
        assert batched.stats.sketch.estimate(key) == \
            scalar.stats.sketch.estimate(key)


# -- register batch kernels ----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(st.one_of(
    st.tuples(st.just("add"), st.lists(st.integers(0, 7), max_size=40),
              st.integers(1, 100)),
    st.tuples(st.just("read"), st.lists(st.integers(0, 7), max_size=10),
              st.just(0)),
    st.tuples(st.just("clear"), st.just([]), st.just(0))), max_size=30),
    slot_bytes=st.sampled_from([1, 2, 8]))
def test_add_batch_is_the_add_loop(ops, slot_bytes):
    """``add_batch`` and ``read_int_batch`` against one ``add`` /
    ``read_int`` per index: saturation at the slot width (one byte
    saturates within a batch), repeats inside a batch, and slots left
    stale by an epoch-bump clear."""
    batch = RegisterArray("batch", 8, slot_bytes)
    loop = RegisterArray("loop", 8, slot_bytes)
    for kind, indexes, delta in ops:
        if kind == "add":
            batch.add_batch(np.array(indexes, dtype=np.int64), delta)
            for i in indexes:
                loop.add(i, delta)
        elif kind == "read":
            assert batch.read_int_batch(indexes).tolist() == \
                [loop.read_int(i) for i in indexes]
        else:
            batch.clear()
            loop.clear()
        assert [batch.peek_int(i) for i in range(8)] == \
            [loop.peek_int(i) for i in range(8)]
        assert (batch.reads, batch.writes) == (loop.reads, loop.writes)
