"""Property: every layout's vectorized batch probe IS the scalar lookup.

For each shipped :class:`~repro.core.geometry.CacheLayout`, drive two
identically-constructed twins with the same random operation stream —
installs, evicts, write invalidations, sequenced cache updates — and, at
random points, classify a random key batch.  One twin answers through the
vectorized :meth:`classify_reads` kernel, the other through N sequential
scalar ``lookup_hit`` / ``read_value`` calls.  The hit mask, the hit
indexes (way / segment-pool choice) in hit-stream order, the per-hit
recirculation delays, and every counter the differential harness gates
(``snapshot_fields`` plus the raw register read/write totals) must match
exactly.  This is what licenses the lanes engine to classify every
layout's reads in bulk.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import (
    RECIRCULATION_DELAY,
    OrbitLayout,
    PaperLayout,
    SetAssocLayout,
)

NUM_KEYS = 12


def make_twin(name):
    """One freshly-built layout instance of the named geometry."""
    if name == "paper":
        return PaperLayout(num_pipes=1, ports_per_pipe=4, entries=64,
                           num_value_stages=4, value_slots=8, slot_bytes=16)
    if name == "setassoc":
        return SetAssocLayout(num_pipes=1, entries=8, ways=2,
                              num_value_stages=2, value_slots=8,
                              slot_bytes=16)
    return OrbitLayout(num_pipes=1, entries=8, num_value_stages=2,
                       value_slots=8, slot_bytes=16, max_passes=4)


def key_of(num):
    return b"key%d" % num


def value_of(num, size):
    return bytes([num % 251]) * size


def scalar_classify(layout, keys, read_values):
    """N sequential scalar lookups, shaped like ``classify_reads``."""
    hit_mask, hit_indexes, delays = [], [], []
    miss_keys, miss_pos = [], []
    for j, key in enumerate(keys):
        hit = layout.lookup_hit(key)
        if hit is None:
            hit_mask.append(False)
            miss_keys.append(key)
            miss_pos.append(j)
            continue
        hit_mask.append(True)
        hit_indexes.append(hit.key_index)
        delays.append(hit.extra_passes * RECIRCULATION_DELAY)
        if read_values:
            layout.read_value(hit)
    return hit_mask, hit_indexes, miss_keys, miss_pos, delays


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
    return st.lists(st.one_of(install, evict, write, update, probe),
                    max_size=30)


@pytest.mark.parametrize("name", ["paper", "setassoc", "orbit"])
@settings(max_examples=60, deadline=None)
@given(ops=operations())
def test_batch_probe_equals_sequential_scalar_lookups(name, ops):
    batch = make_twin(name)
    scalar = make_twin(name)
    seq = 0
    for kind, arg, extra in ops:
        if kind == "probe":
            keys = [key_of(n) for n in arg]
            read_values = extra
            got = batch.classify_reads(keys, read_values)
            hit_mask, hit_indexes, miss_keys, miss_pos, hit_delays = got
            want = scalar_classify(scalar, keys, read_values)
            assert list(hit_mask) == want[0]
            assert list(hit_indexes) == want[1]
            assert list(miss_keys) == want[2]
            assert list(miss_pos) == want[3]
            if hit_delays is None:
                assert all(d == 0.0 for d in want[4])
            else:
                assert hit_delays.dtype == np.float64
                assert list(hit_delays) == want[4]
            continue
        key = key_of(arg)
        size = 1 + (extra - 1) % batch.max_value_size if extra else 0
        if kind == "install":
            assert (batch.install(key, value_of(arg, size), egress_port=0)
                    == scalar.install(key, value_of(arg, size),
                                      egress_port=0))
        elif kind == "evict":
            assert batch.evict(key) == scalar.evict(key)
        elif kind == "write":
            assert batch.handle_write(key) == scalar.handle_write(key)
        else:  # update
            seq += 1
            value = value_of(arg, size)
            assert (batch.apply_update(key, value, seq)
                    == scalar.apply_update(key, value, seq))
    assert batch.snapshot_fields() == scalar.snapshot_fields()
    assert register_totals(batch) == register_totals(scalar)
    assert batch.cache_size() == scalar.cache_size()
    assert sorted(batch.cached_keys()) == sorted(scalar.cached_keys())


@pytest.mark.parametrize("name", ["setassoc", "orbit"])
def test_probe_of_empty_batch_is_a_noop(name):
    layout = make_twin(name)
    before = register_totals(layout)
    hit_mask, hit_indexes, miss_keys, miss_pos, hit_delays = \
        layout.classify_reads([], read_values=True)
    assert len(hit_mask) == 0
    assert hit_indexes == [] and miss_keys == [] and miss_pos == []
    if hit_delays is not None:
        assert len(hit_delays) == 0
    assert register_totals(layout) == before


# -- the paper layout's vectorised kernel, register by register -------------------


def make_paper_twin():
    """Two egress pipes, four value stages: keys land in either pipe and
    1..64-byte values give every bitmap width."""
    return PaperLayout(num_pipes=2, ports_per_pipe=2, entries=64,
                       num_value_stages=4, value_slots=8, slot_bytes=16)


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
    return st.lists(st.one_of(probe, *keyed), max_size=40)


@settings(max_examples=150, deadline=None)
@given(ops=paper_operations())
def test_paper_batch_probe_matches_scalar_registers(ops):
    """``PaperLayout.classify_reads`` against ``lookup_hit`` +
    ``read_value`` per key: same split, same lookup hits/misses, same
    ``valid.reads`` per pipe and ``reads`` per value array, with
    invalidations, updates, installs and evictions between batches."""
    batch, scalar = make_paper_twin(), make_paper_twin()
    seq = 0
    for kind, arg, extra in ops:
        if kind == "probe":
            keys = [key_of(n) for n in arg]
            hit_mask, hit_indexes, miss_keys, miss_pos, hit_delays = \
                batch.classify_reads(keys, extra)
            want = scalar_classify(scalar, keys, extra)
            assert hit_mask.dtype == bool
            assert (list(hit_mask), list(hit_indexes), list(miss_keys),
                    list(miss_pos)) == want[:4]
            assert hit_delays is None
        else:
            key, value = key_of(arg), value_of(arg, extra)
            seq += 1
            for layout in (batch, scalar):
                if kind == "install":
                    layout.install(key, value, egress_port=arg % 4)
                elif kind == "evict":
                    layout.evict(key)
                elif kind == "write":
                    layout.handle_write(key)
                else:
                    layout.apply_update(key, value, seq)
        assert paper_registers(batch) == paper_registers(scalar)
        assert batch.snapshot_fields() == scalar.snapshot_fields()
