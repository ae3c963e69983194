"""Property-based tests: the hash table behaves exactly like a dict under
arbitrary operation sequences, and the store's batch read is the scalar
``get`` loop."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.kvstore.hashtable import _FULL, HashTable
from repro.kvstore.store import KVStore, ReadColumns

keys = st.binary(min_size=1, max_size=12)
values = st.binary(max_size=16)

def ops():
    return st.lists(
        st.one_of(
            st.tuples(st.just("put"), keys, values),
            st.tuples(st.just("delete"), keys, st.just(b"")),
            st.tuples(st.just("get"), keys, st.just(b"")),
        ),
        max_size=200,
    )


@settings(max_examples=150, deadline=None)
@given(op_list=ops())
def test_matches_dict_semantics(op_list):
    table = HashTable(initial_capacity=8)
    model = {}
    for kind, key, value in op_list:
        if kind == "put":
            assert table.put(key, value) == (key not in model)
            model[key] = value
        elif kind == "delete":
            assert table.delete(key) == (key in model)
            model.pop(key, None)
        else:
            assert table.get(key) == model.get(key)
    assert len(table) == len(model)
    assert dict(table.items()) == model


@settings(max_examples=75, deadline=None)
@given(key_set=st.sets(keys, max_size=100))
def test_all_inserted_keys_retrievable(key_set):
    table = HashTable(initial_capacity=8)
    for i, key in enumerate(sorted(key_set)):
        table.put(key, str(i).encode())
    for i, key in enumerate(sorted(key_set)):
        assert table.get(key) == str(i).encode()


@settings(max_examples=100, deadline=None)
@given(st.lists(keys, max_size=100))
def test_load_factor_invariant(key_list):
    table = HashTable(initial_capacity=8, max_load=0.7)
    for key in key_list:
        table.put(key, b"v")
        assert table.load_factor <= 0.7 + 1e-9


# -- HashTable.put_batch is the scalar put loop ------------------------------------

#: enough keys to grow an 8-slot table through five doublings.
BULK_KEYS = [b"bulk%03d" % i for i in range(160)]
BULK_HASHES = [HashTable()._hash(key) for key in BULK_KEYS]
bulk_ids = st.integers(0, len(BULK_KEYS) - 1)


def table_diff(bulk, scalar):
    """Names of the fields in which two tables differ: slot arrays,
    capacity, size, occupancy and probe counters."""
    fields = {
        "capacity": lambda t: t.capacity,
        "size": lambda t: len(t),
        "occupied": lambda t: t._occupied,
        "states": lambda t: t._states,
        "keys": lambda t: t._keys,
        "values": lambda t: t._values,
        "hashes": lambda t: list(t._hashes),
        "total_probes": lambda t: t.total_probes,
        "total_lookups": lambda t: t.total_lookups,
    }
    return [name for name, read in fields.items()
            if read(bulk) != read(scalar)]


def scalar_puts(table, keys, values, hashes):
    return sum(table.put(k, v, h) for k, v, h in zip(keys, values, hashes))


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.one_of(
           st.tuples(st.just("batch"), st.lists(bulk_ids, max_size=70)),
           st.tuples(st.just("delete"), st.lists(bulk_ids, max_size=70))),
           max_size=12),
       clumped=st.booleans())
# Inserts into a table that deletes left mostly tombstones: a same-size
# rebuild inside the batch.
@example(steps=[("batch", list(range(80))), ("delete", list(range(70))),
                ("batch", list(range(80, 160)))], clumped=False)
def test_bulk_put_equals_the_scalar_put_loop(steps, clumped):
    """Batches with repeats, overwrites of keys already present and
    inserts into tombstones left by deletes leave the bulk-loaded table
    slot for slot and counter for counter where ``put`` one row at a time
    leaves its twin, across every grow and same-size rebuild.  Clumped
    hashes (eight home slots) make long probe runs."""
    bulk, scalar = HashTable(initial_capacity=8), HashTable(initial_capacity=8)
    for n, (kind, ids) in enumerate(steps):
        keys = [BULK_KEYS[i] for i in ids]
        if kind == "delete":
            for key in keys:
                assert bulk.delete(key) == scalar.delete(key)
            continue
        values = [b"%d.%d" % (n, j) for j in range(len(ids))]
        hashes = [i % 8 * 0x9E37 if clumped else BULK_HASHES[i]
                  for i in ids]
        assert (bulk.put_batch(keys, values, hashes)
                == scalar_puts(scalar, keys, values, hashes))
        assert table_diff(bulk, scalar) == []


@settings(max_examples=100, deadline=None)
@given(op_list=ops(), double=st.booleans())
def test_rebuild_is_put_of_each_full_slot_into_a_fresh_table(op_list,
                                                             double):
    """``_resize`` leaves the layout that ``put`` of every FULL slot, in
    slot order, leaves in an empty table of the new capacity, and charges
    the statistics that fresh table's probes and lookups."""
    table = HashTable(initial_capacity=8)
    for kind, key, value in op_list:
        if kind == "put":
            table.put(key, value)
        elif kind == "delete":
            table.delete(key)
    capacity = table.capacity * (2 if double else 1)
    fresh = HashTable(initial_capacity=capacity)
    for i, state in enumerate(table._states):
        if state == _FULL:
            fresh.put(table._keys[i], table._values[i], table._hashes[i])
    before = table.total_probes, table.total_lookups
    table._resize(capacity)
    fresh.total_probes += before[0]
    fresh.total_lookups += before[1]
    assert table_diff(table, fresh) == []


def test_presizing_the_bulk_insert_is_caught_by_the_twin():
    """Sabotage: a bulk insert that presizes the table to the capacity
    the scalar loop ends at skips the grow cascade, whose re-insertions
    the probe statistics charge; the twin names the probe totals."""
    values = [b"v"] * len(BULK_KEYS)
    scalar = HashTable(initial_capacity=8)
    scalar_puts(scalar, BULK_KEYS, values, BULK_HASHES)
    honest = HashTable(initial_capacity=8)
    honest.put_batch(BULK_KEYS, values, BULK_HASHES)
    assert table_diff(honest, scalar) == []
    presized = HashTable(initial_capacity=8)
    presized._resize(scalar.capacity)
    presized.put_batch(BULK_KEYS, values, BULK_HASHES)
    diff = table_diff(presized, scalar)
    assert {"total_probes", "total_lookups"} <= set(diff)
    assert "capacity" not in diff


# -- KVStore.get_batch is the scalar get loop ---------------------------------------

#: small enough that puts collide, delete-then-reinsert recurs, and the
#: 8-slot shards resize several times inside one example.
UNIVERSE = [b"key%03d" % i for i in range(48)]
key_ids = st.integers(0, len(UNIVERSE) - 1)


def store_ops():
    return st.lists(
        st.one_of(
            st.tuples(st.just("put"), key_ids, values),
            st.tuples(st.just("delete"), key_ids, st.just(b"")),
            # Runs from empty to 40 ids, with repeats.
            st.tuples(st.just("read"),
                      st.lists(key_ids, max_size=40), st.just(b"")),
            # Bulk loads, with repeats (the later value wins).
            st.tuples(st.just("load"),
                      st.lists(key_ids, max_size=40), values),
            # A mixed slice: reads around writes, the writes being puts
            # (overwrites, or inserts when the key is absent) and
            # delete-then-reinserts of one key.
            st.tuples(st.just("slice"),
                      st.lists(st.tuples(
                          st.sampled_from(["get", "get", "get", "put",
                                           "reinsert"]), key_ids),
                          max_size=40), values),
        ),
        max_size=60,
    )


def store_counters(store):
    return (store.gets, store.puts, list(store.core_ops),
            [s.total_probes for s in store._shards],
            [s.total_lookups for s in store._shards])


@settings(max_examples=150, deadline=None)
@given(op_list=store_ops())
def test_store_batch_read_equals_the_scalar_get_loop(op_list):
    """Twin stores take the same put/overwrite/delete stream; one reads
    through ``get_batch`` and loads through ``put_batch``, the other
    through ``get`` and ``put`` per key.  Values and all five counters
    must agree after every op, including across a resize and a
    delete-then-reinsert of the same key — also when those happen inside
    a slice whose reads ``get_batch`` charges around its writes."""
    batch = KVStore(num_cores=3)
    scalar = KVStore(num_cores=3)
    for store in (batch, scalar):
        for shard in store._shards:
            shard.clear()               # down to the 8-slot minimum
    columns = ReadColumns(UNIVERSE, 3)
    for kind, arg, value in op_list:
        if kind == "put":
            batch.put(UNIVERSE[arg], value)
            scalar.put(UNIVERSE[arg], value)
        elif kind == "load":
            loaded = [value + b"%d" % j for j in range(len(arg))]
            batch.put_batch([UNIVERSE[i] for i in arg], loaded)
            for i, v in zip(arg, loaded):
                scalar.put(UNIVERSE[i], v)
        elif kind == "delete":
            assert (batch.delete(UNIVERSE[arg])
                    == scalar.delete(UNIVERSE[arg]))
        elif kind == "slice":
            def write(store, how, i):
                if how == "reinsert":
                    store.delete(UNIVERSE[i])
                store.put(UNIVERSE[i], value)

            reads = [i for how, i in arg if how == "get"]
            writes = [(how, i) for how, i in arg if how != "get"]
            reads_before, seen = [], 0
            for how, _ in arg:
                if how == "get":
                    seen += 1
                else:
                    reads_before.append(seen)
            batch.get_batch(np.asarray(reads, dtype=np.int64), columns,
                            reads_before,
                            lambda j: write(batch, *writes[j]))
            for how, i in arg:
                if how == "get":
                    scalar.get(UNIVERSE[i])
                else:
                    write(scalar, how, i)
            assert batch.deletes == scalar.deletes
            assert batch.probe_totals() == scalar.probe_totals()
        else:
            batch.get_batch(np.asarray(arg, dtype=np.int64), columns)
            for i in arg:
                scalar.get(UNIVERSE[i])
            assert store_counters(batch) == store_counters(scalar)
            # The batch read returns nothing; the values it passed over
            # are read back with the scalar get, charged to both stores.
            assert ([batch.get(UNIVERSE[i]) for i in arg]
                    == [scalar.get(UNIVERSE[i]) for i in arg])
        assert store_counters(batch) == store_counters(scalar)


def test_overwrites_keep_the_read_columns():
    store = KVStore(num_cores=2)
    for key in UNIVERSE:
        store.put(key, b"old")
    columns = ReadColumns(UNIVERSE, 2)
    ids = np.arange(len(UNIVERSE))
    store.get_batch(ids, columns)
    stamps = columns.stamp.copy()
    for key in UNIVERSE:
        store.put(key, b"new")
    store.get_batch(ids, columns)
    assert (columns.stamp == stamps).all()
    store.delete(UNIVERSE[0])
    store.get_batch(ids, columns)
    assert (columns.stamp != stamps).any()


def test_hash_columns_are_the_scalar_hashes_across_a_resize():
    """``ReadColumns.core``/``slot_hash`` are what ``_core_of`` and the
    owning shard's ``_hash`` compute key by key, and a lookup from the
    stored hash walks the same probes as one that hashes — before and
    after every shard has rebuilt."""
    universe = [b"key%03d" % i for i in range(150)]
    store = KVStore(num_cores=3)
    columns = ReadColumns(universe, 3)
    assert columns.core.tolist() == [store._core_of(k) for k in universe]
    assert columns.slot_hash.tolist() == [
        store._shards[store._core_of(k)]._hash(k) for k in universe]
    for shard in store._shards:
        shard.clear()
    capacities = [shard.capacity for shard in store._shards]
    for phase in range(2):
        for key, core, h in zip(universe, columns.core.tolist(),
                                columns.slot_hash.tolist()):
            shard = store._shards[core]
            before = shard.total_probes
            found = shard.contains(key, h)
            from_hash = shard.total_probes - before
            assert found == shard.contains(key) == (phase == 1)
            assert shard.total_probes - before == 2 * from_hash
        store.put_batch(universe, [b"v"] * len(universe))
    assert all(shard.capacity > cap
               for shard, cap in zip(store._shards, capacities))


def test_columns_of_another_core_count_are_refused():
    store = KVStore(num_cores=4)
    with pytest.raises(ConfigurationError):
        store.get_batch(np.arange(3), ReadColumns(UNIVERSE, 3))
