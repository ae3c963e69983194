"""Property: every layout's vectorized batch probe IS the scalar lookup.

For each shipped :class:`~repro.core.geometry.CacheLayout`, drive two
identically-constructed twins with the same random operation stream —
installs (of keyspace keys and of a key outside the key space), evicts,
write invalidations, sequenced cache updates, defragmentation, reboots —
and, at random points, classify a random batch of item ids.  One twin
answers through the vectorized :meth:`classify_reads` kernel, the other
through N sequential scalar ``lookup_hit`` / ``read_value`` calls on the
items' keys.  The hit mask, the hit indexes (way / segment-pool choice)
in hit-stream order, the per-hit recirculation delays, and every counter
the differential harness gates (``snapshot_fields`` plus the raw register
read/write totals) must match exactly, and after every operation each
twin's item column must be its key map restricted to the key space.
This is what licenses the lanes engine to classify every layout's reads
in bulk.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.client.zipf import KeySpace
from repro.core.geometry import (
    RECIRCULATION_DELAY,
    OrbitLayout,
    PaperLayout,
    SetAssocLayout,
)
from repro.errors import ConfigurationError

NUM_KEYS = 12
KEYSPACE = KeySpace(NUM_KEYS + 1)
#: a cacheable key that is not a key of KEYSPACE: it lives in the key map
#: only, never in the item column.
FOREIGN = b"f" * 16


def make_twin(name, bind=True):
    """One freshly-built layout instance of the named geometry."""
    if name == "paper":
        layout = PaperLayout(num_pipes=1, ports_per_pipe=4, entries=64,
                             num_value_stages=4, value_slots=8,
                             slot_bytes=16)
    elif name == "setassoc":
        layout = SetAssocLayout(num_pipes=1, entries=8, ways=2,
                                num_value_stages=2, value_slots=8,
                                slot_bytes=16)
    else:
        layout = OrbitLayout(num_pipes=1, entries=8, num_value_stages=2,
                             value_slots=8, slot_bytes=16, max_passes=4)
    if bind:
        layout.bind_keyspace(KEYSPACE)
    return layout


def key_of(num):
    return KEYSPACE.key(num)


def value_of(num, size):
    return bytes([num % 251]) * size


def scalar_classify(layout, items, read_values):
    """N sequential scalar lookups of the items' keys, shaped like
    ``classify_reads``."""
    hit_mask, hit_indexes, delays = [], [], []
    for item in items:
        hit = layout.lookup_hit(KEYSPACE.key(item))
        if hit is None:
            hit_mask.append(False)
            continue
        hit_mask.append(True)
        hit_indexes.append(hit.key_index)
        delays.append(hit.extra_passes * RECIRCULATION_DELAY)
        if read_values:
            layout.read_value(hit)
    return hit_mask, hit_indexes, delays


def expected_column(layout):
    """``{keyspace.item(k): key_index_of(k)}`` over the cached keys of
    the key space, as a column."""
    column = np.full(KEYSPACE.num_keys, -1)
    for key in layout.cached_keys():
        if key != FOREIGN:
            column[KEYSPACE.item(key)] = layout.key_index_of(key)
    return column


def register_totals(layout):
    """(reads, writes) over every register array the layout declares."""
    if isinstance(layout, PaperLayout):
        statuses = layout.status
        arrays = [a for store in layout.values for a in store.arrays]
    else:
        statuses = [layout.status]
        arrays = [layout.value if isinstance(layout, SetAssocLayout)
                  else layout.segments]
    for status in statuses:
        arrays += [status.valid, status.version]
    totals = {a.name: (a.reads, a.writes) for a in arrays}
    assert len(totals) == len(arrays) > 0
    return totals


def operations():
    install = st.tuples(st.just("install"), st.integers(0, NUM_KEYS),
                        st.integers(1, 64))
    evict = st.tuples(st.just("evict"), st.integers(0, NUM_KEYS),
                      st.just(0))
    write = st.tuples(st.just("write"), st.integers(0, NUM_KEYS),
                      st.just(0))
    update = st.tuples(st.just("update"), st.integers(0, NUM_KEYS),
                       st.integers(1, 64))
    probe = st.tuples(st.just("probe"),
                      st.lists(st.integers(0, NUM_KEYS), max_size=12),
                      st.booleans())
    control = st.tuples(st.sampled_from(["defragment", "reboot",
                                         "foreign", "unforeign"]),
                        st.just(0), st.integers(1, 64))
    return st.lists(st.one_of(install, evict, write, update, probe,
                              control), max_size=30)


def apply_op(layout, kind, arg, extra, seq):
    """One control- or data-plane operation; returns its result."""
    size = 1 + (extra - 1) % layout.max_value_size if extra else 0
    if kind == "defragment":
        return layout.defragment_pipe(0)
    if kind == "reboot":
        return [layout.evict(key) for key in layout.cached_keys()]
    if kind == "foreign":
        return layout.install(FOREIGN, value_of(7, size), egress_port=0)
    if kind == "unforeign":
        return layout.evict(FOREIGN)
    key = key_of(arg)
    if kind == "install":
        return layout.install(key, value_of(arg, size), egress_port=0)
    if kind == "evict":
        return layout.evict(key)
    if kind == "write":
        return layout.handle_write(key)
    return layout.apply_update(key, value_of(arg, size), seq)


@pytest.mark.parametrize("name", ["paper", "setassoc", "orbit"])
@settings(max_examples=60, deadline=None)
@given(ops=operations())
def test_batch_probe_equals_sequential_scalar_lookups(name, ops):
    batch = make_twin(name)
    scalar = make_twin(name)
    seq = 0
    for kind, arg, extra in ops:
        if kind == "probe":
            items = np.array(arg, dtype=np.int64)
            read_values = extra
            hit_mask, hit_indexes, hit_delays = \
                batch.classify_reads(items, read_values)
            want = scalar_classify(scalar, arg, read_values)
            assert list(hit_mask) == want[0]
            assert hit_indexes.tolist() == want[1]
            if hit_delays is None:
                assert all(d == 0.0 for d in want[2])
            else:
                assert hit_delays.dtype == np.float64
                assert list(hit_delays) == want[2]
        else:
            seq += kind == "update"
            assert (apply_op(batch, kind, arg, extra, seq)
                    == apply_op(scalar, kind, arg, extra, seq))
        for layout in (batch, scalar):
            assert np.array_equal(layout.item_column,
                                  expected_column(layout))
    assert batch.snapshot_fields() == scalar.snapshot_fields()
    assert register_totals(batch) == register_totals(scalar)
    assert batch.cache_size() == scalar.cache_size()
    assert sorted(batch.cached_keys()) == sorted(scalar.cached_keys())


@pytest.mark.parametrize("name", ["setassoc", "orbit"])
def test_probe_of_empty_batch_is_a_noop(name):
    layout = make_twin(name)
    before = register_totals(layout)
    hit_mask, hit_indexes, hit_delays = \
        layout.classify_reads(np.zeros(0, dtype=np.int64), read_values=True)
    assert len(hit_mask) == 0 and len(hit_indexes) == 0
    if hit_delays is not None:
        assert len(hit_delays) == 0
    assert register_totals(layout) == before


@pytest.mark.parametrize("name", ["paper", "setassoc", "orbit"])
def test_probe_of_an_unbound_layout_raises(name):
    layout = make_twin(name, bind=False)
    assert layout.install(key_of(3), b"v", egress_port=0)
    with pytest.raises(ConfigurationError):
        layout.classify_reads(np.array([3]), read_values=False)
    # Binding later builds the column from what is already cached.
    layout.bind_keyspace(KEYSPACE)
    assert np.array_equal(layout.item_column, expected_column(layout))
    hit_mask, _, _ = layout.classify_reads(np.array([3, 4]), False)
    assert hit_mask.tolist() == [True, False]


# -- the paper layout's vectorised kernel, register by register -------------------


def make_paper_twin():
    """Two egress pipes, four value stages: keys land in either pipe and
    1..64-byte values give every bitmap width."""
    layout = PaperLayout(num_pipes=2, ports_per_pipe=2, entries=64,
                         num_value_stages=4, value_slots=8, slot_bytes=16)
    layout.bind_keyspace(KEYSPACE)
    return layout


def paper_registers(layout):
    """Per-pipe valid-bit reads and per-array value reads."""
    return [(status.valid.reads, [array.reads for array in values.arrays])
            for status, values in zip(layout.status, layout.values)]


def paper_operations():
    keyed = [st.tuples(st.just(kind), st.integers(0, NUM_KEYS),
                       st.integers(1, 64))
             for kind in ("install", "evict", "write", "update")]
    # Batches from empty to 48 keys, with repeats.
    probe = st.tuples(st.just("probe"),
                      st.lists(st.integers(0, NUM_KEYS), max_size=48),
                      st.booleans())
    # Repacking a pipe moves values to other arrays: their bitmaps change.
    defragment = st.tuples(st.just("defragment"), st.integers(0, 1),
                           st.just(0))
    return st.lists(st.one_of(probe, defragment, *keyed), max_size=40)


@settings(max_examples=150, deadline=None)
@given(ops=paper_operations())
# Key 5's three slots sit in arrays 1-3 behind key 1's one; after key 1
# leaves, repacking moves key 5 to arrays 0-2 (a new bitmap).
@example(ops=[("install", 1, 16), ("install", 5, 48), ("evict", 1, 0),
              ("defragment", 0, 0), ("probe", [5], True)])
def test_paper_batch_probe_matches_scalar_registers(ops):
    """``PaperLayout.classify_reads`` against ``lookup_hit`` +
    ``read_value`` per key: same split, same lookup hits/misses, same
    ``valid.reads`` per pipe and ``reads`` per value array, with
    invalidations, updates, installs, evictions and defragmentation
    between batches."""
    batch, scalar = make_paper_twin(), make_paper_twin()
    seq = 0
    for kind, arg, extra in ops:
        if kind == "probe":
            hit_mask, hit_indexes, hit_delays = \
                batch.classify_reads(np.array(arg, dtype=np.int64), extra)
            want = scalar_classify(scalar, arg, extra)
            assert hit_mask.dtype == bool
            assert (list(hit_mask), hit_indexes.tolist()) == want[:2]
            assert hit_delays is None
        else:
            key, value = key_of(arg), value_of(arg, extra)
            seq += 1
            for layout in (batch, scalar):
                if kind == "defragment":
                    layout.defragment_pipe(arg)
                elif kind == "install":
                    layout.install(key, value, egress_port=arg % 4)
                elif kind == "evict":
                    layout.evict(key)
                elif kind == "write":
                    layout.handle_write(key)
                else:
                    layout.apply_update(key, value, seq)
        assert paper_registers(batch) == paper_registers(scalar)
        assert batch.snapshot_fields() == scalar.snapshot_fields()
