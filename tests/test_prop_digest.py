"""Property tests for the key-digest intern table.

The digest cache is an optimization that must be invisible: a digest served
from the table, a digest recomputed after FIFO eviction, and a digest built
by the uncached reference path must be field-for-field identical, for any
key stream and any capacity.  The batch path is held to the scalar one as
its twin: same rows' contents, same counters, same FIFO order, with
capacities smaller than a batch.  The last part checks the reset contract —
``QueryStatistics.reset()`` clears counters/sketch/Bloom but must not
invalidate a single interned digest.
"""

from hypothesis import given, settings, strategies as st

from repro.core.stats import QueryStatistics
from repro.sketch.digest import DigestTable
from repro.sketch.hashing import HashFamily

KEYS = st.binary(min_size=0, max_size=24)


def make_table(capacity: int, cm_seed: int = 0,
               bloom_seed: int = 1) -> DigestTable:
    return DigestTable(HashFamily(4, seed=cm_seed), 1 << 10,
                       HashFamily(3, seed=bloom_seed), 1 << 12,
                       capacity=capacity)


def assert_digest_matches_reference(table: DigestTable, digest) -> None:
    key = digest.key
    cm_fam = HashFamily(4, seed=0)
    bloom_fam = HashFamily(3, seed=1)
    assert list(digest.cm_indexes) == cm_fam.indexes(key, 1 << 10)
    assert list(digest.bloom_bits) == bloom_fam.indexes(key, 1 << 12)


@settings(max_examples=100, deadline=None)
@given(stream=st.lists(KEYS, max_size=60), capacity=st.integers(1, 8))
def test_cached_digests_equal_reference_under_churn(stream, capacity):
    """Any hit/miss/eviction interleaving serves reference-exact digests."""
    table = make_table(capacity)
    for key in stream:
        served = table.get(key)
        ref = table.compute(key)
        assert served.key == ref.key == key
        assert served.cm_indexes == ref.cm_indexes
        assert served.bloom_bits == ref.bloom_bits
        assert_digest_matches_reference(table, served)
        assert len(table) <= capacity
    stats = table.stats()
    assert stats["hits"] + stats["misses"] == len(stream)
    assert stats["misses"] - stats["evictions"] == len(table)


@settings(max_examples=60, deadline=None)
@given(stream=st.lists(KEYS, min_size=1, max_size=40),
       capacity=st.integers(1, 4))
def test_eviction_is_fifo_and_recomputation_identical(stream, capacity):
    """The table evicts oldest-first, and a re-interned digest is
    indistinguishable from the evicted one."""
    table = make_table(capacity)
    fifo = []  # model: insertion-ordered interned keys
    for key in stream:
        if key in fifo:
            table.get(key)
            continue
        first = table.get(key)
        if len(fifo) >= capacity:
            fifo.pop(0)
        fifo.append(key)
        assert list(table._row_of) == fifo
        # Whatever later eviction does to this entry, recomputation (the
        # post-eviction path) yields the identical digest.
        snapshot = (first.cm_indexes, first.bloom_bits)
        again = table.compute(key)
        assert (again.cm_indexes, again.bloom_bits) == snapshot


@settings(max_examples=150, deadline=None)
@given(batches=st.lists(st.lists(st.binary(min_size=0, max_size=2),
                                 max_size=24), min_size=1, max_size=5),
       capacity=st.integers(1, 8))
def test_get_batch_is_sequential_get(batches, capacity):
    """``get_batch`` against looping ``get`` on a twin table: every
    returned row holds its own key's digest (also where a later miss of
    the same batch recycled the row), and the counters and the FIFO order
    agree after every batch — with fewer rows than keys in a batch, and
    keys evicted and asked for again inside one batch."""
    batch, scalar = make_table(capacity), make_table(capacity)
    for keys in batches:
        rows = batch.get_batch(keys)
        served = [scalar.get(k) for k in keys]
        assert rows.shape == (len(keys),)
        assert batch.cm[rows].tolist() == \
            [list(d.cm_indexes) for d in served]
        assert batch.bloom[rows].tolist() == \
            [list(d.bloom_bits) for d in served]
        assert batch.stats() == scalar.stats()
        assert list(batch._row_of.items()) == list(scalar._row_of.items())
        # Scalar reads of the batch-filled table see the same digests.
        for key in dict.fromkeys(keys):
            if key in batch._row_of:
                d = batch.get(key)
                batch.hits -= 1
                ref = batch.compute(key)
                assert (d.cm_indexes, d.bloom_bits) == \
                    (ref.cm_indexes, ref.bloom_bits)


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(KEYS, min_size=1, max_size=30, unique=True),
       resets=st.integers(1, 4))
def test_stats_reset_invalidates_nothing_it_should_not(keys, resets):
    """reset() clears the counting state and nothing else: interned keys
    keep their rows and their fields are untouched."""
    stats = QueryStatistics(entries=64, hot_threshold=2, sample_rate=0.5,
                            seed=3)
    for key in keys:
        stats.heavy_hitter_count(key)
    table = stats.digests

    def fields_of(key):
        digest = table.get(key)
        return digest.cm_indexes, digest.bloom_bits

    rows = dict(table._row_of)
    fields = {k: fields_of(k) for k in keys}
    for _ in range(resets):
        size_before = len(table)
        stats.reset()
        # Digest table untouched: same size, same rows, same fields.
        assert len(table) == size_before
        assert table._row_of == rows
        assert {k: fields_of(k) for k in keys} == fields
        # Counting state is gone.
        assert all(stats.read_counter(i) == 0 for i in range(64))
        assert all(stats.sketch.estimate(k) == 0 for k in keys)
        assert not any(stats.bloom.contains(k) for k in keys)
