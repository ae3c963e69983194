"""Ablation A2: value-memory layouts (§4.4.2, Fig 6).

Compares the SRAM cost of indexing N cached items with mixed value sizes
under the three designs the paper discusses:

* replicated tables — one full match table per register array;
* index-list — one table whose action data carries a separate index per
  array;
* NetCache's bitmap+index — one table, one index, one bitmap (Fig 6b),

plus the packing efficiency of the Algorithm 2 allocator (slots wasted to
fragmentation before and after reorganization).
"""

import random

from repro.constants import KEY_SIZE
from repro.core.memory import SwitchMemoryManager
from repro.sim.experiments import format_table

ITEMS = 8_192
ARRAYS = 8
INDEX_BYTES = 2
BITMAP_BYTES = 1


def table_costs(num_items):
    replicated = ARRAYS * num_items * (KEY_SIZE + INDEX_BYTES)
    index_list = num_items * (KEY_SIZE + ARRAYS * INDEX_BYTES)
    bitmap = num_items * (KEY_SIZE + INDEX_BYTES + BITMAP_BYTES)
    return replicated, index_list, bitmap


def packing_experiment(seed=1):
    rng = random.Random(seed)
    mm = SwitchMemoryManager(num_arrays=ARRAYS, slots_per_array=ITEMS)
    sizes = [rng.choice((16, 32, 48, 64, 96, 128)) for _ in range(ITEMS)]
    inserted = []
    for i, size in enumerate(sizes):
        if mm.insert(f"k{i}".encode(), size) is not None:
            inserted.append((f"k{i}".encode(), size))
    # Churn: evict a third at random, insert large values.
    for key, _ in rng.sample(inserted, len(inserted) // 3):
        mm.evict(key)
    failures_before = 0
    for i in range(500):
        if mm.insert(f"big{i}".encode(), 128) is None:
            failures_before += 1
    frag_before = mm.fragmentation()
    mm.defragment()
    failures_after = 0
    for i in range(500):
        if mm.insert(f"BIG{i}".encode(), 128) is None:
            failures_after += 1
    return frag_before, failures_before, failures_after, mm.utilization()


def run():
    rep, idx, bmp = table_costs(ITEMS)
    frag, fail_before, fail_after, util = packing_experiment()
    return rep, idx, bmp, frag, fail_before, fail_after, util


def test_ablation_alloc(report):
    rep, idx, bmp, frag, fail_before, fail_after, util = \
        run()
    report("Ablation A2 - lookup layouts and Algorithm 2 packing",
           format_table(
               ["metric", "value"],
               [
                   ["replicated-tables SRAM (KB)", rep / 1024],
                   ["index-list SRAM (KB)", idx / 1024],
                   ["bitmap+index SRAM (KB)", bmp / 1024],
                   ["fragmentation before defrag", frag],
                   ["128B insert failures before defrag", fail_before],
                   ["128B insert failures after defrag", fail_after],
                   ["final memory utilization", util],
               ],
           ))
    # Fig 6(b)'s design is the cheapest by a wide margin.
    assert bmp < idx < rep
    assert bmp < 0.2 * rep
    # Reorganization recovers capacity lost to fragmentation.
    assert fail_after <= fail_before
