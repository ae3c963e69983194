"""Cache-geometry tournament: {paper, setassoc, orbit} × skew × value size
× write ratio.

The geometry seam (:mod:`repro.core.geometry`) makes competing cache
designs swappable; this lab makes them comparable.  Every grid cell runs
the same seeded Zipf query stream (reads, writes, and interval-batched
admission under a table-update budget) against one
:class:`~repro.core.geometry.CacheLayout`, driven through the shared
:class:`~repro.core.geometry.AdmissionPolicy` stream contract that the
policy ablation uses.  Layouts in the same (skew, value size, write ratio)
cell see byte-identical streams, so hit-ratio differences are pure
geometry:

* **paper** — exact-match table + per-pipe value arrays.  Caches anything
  up to ``num_value_stages × slot_bytes`` (128B default); larger values
  are simply uncacheable.
* **setassoc** — fixed sets of 4 ways.  Install is O(1) and there is no
  fragmentation, but hot keys that collide in one set exceed its ways and
  the colder ones stay uncacheable (the in-set displacement can only keep
  the ways' hottest occupants).
* **orbit** — variable-length values over a segment pool with bounded
  recirculation.  Caches values the other two cannot (up to
  ``max_passes`` segments) at the price of extra recirculation passes per
  serve.

The aggregate snapshot is gated by ``perf --compare BENCH_geometry.json``
with exact equality: the whole grid is a pure function of the seed.
"""

from __future__ import annotations

import zlib
from collections import Counter
from typing import Dict, List, Optional

import random

from repro.client.workload import Workload, WorkloadSpec
from repro.core.dataplane import NetCacheDataplane
from repro.core.geometry import (
    LAYOUTS,
    AdmissionPolicy,
    SampleEvictPolicy,
    SetAssocLayout,
    UpdateBudget,
)
from repro.core.stats import QueryStatistics
from repro.net.protocol import Op
from repro.net.routing import RoutingTable

#: the sweep axes (kept small: the grid is a CI smoke gate, 24 cells).
LAYOUT_NAMES = ("paper", "setassoc", "orbit")
SKEWS = (0.90, 0.99)
VALUE_SIZES = (64, 512)
WRITE_RATIOS = (0.0, 0.1)

#: stream-surface interval geometry (mirrors the policy ablation).
QUERIES_PER_INTERVAL = 2_000
UPDATES_PER_INTERVAL = 64
HOT_THRESHOLD = 8
SAMPLE_SIZE = 16

#: the CSV column spec: (name, format) pairs, in emission order.  Header
#: and rows are both derived from this one tuple so the column order
#: cannot drift between them, and cells are emitted in sorted-key order
#: (see :func:`sort_cells`) so the artifact is fully deterministic.
CSV_COLUMNS = (
    ("layout", "{}"),
    ("skew", "{:g}"),
    ("value_size", "{}"),
    ("write_ratio", "{:g}"),
    ("hit_ratio", "{:.6f}"),
    ("cache_size", "{}"),
    ("installs_failed", "{}"),
    ("updates_applied", "{}"),
    ("writes", "{}"),
    ("invalidations", "{}"),
    ("auto_evictions", "{}"),
    ("recirculations", "{}"),
    ("sram_used", "{}"),
    ("sram_declared", "{}"),
)

CSV_HEADER = ",".join(name for name, _fmt in CSV_COLUMNS)


class LayoutLabPolicy(AdmissionPolicy):
    """Stream-surface bridge between a query stream and a live layout.

    Reads go through the data plane's control-plane read (valid-aware, so
    write invalidations cost real misses until the update lands); misses
    accumulate per-interval counts and :meth:`end_interval` batch-admits
    keys past the hot threshold, NetCache style, under the caller's
    :class:`UpdateBudget`.  Victim selection at capacity reuses the
    paper's :class:`SampleEvictPolicy` over policy-local counters — except
    for the set-associative layout, whose displacement is necessarily
    in-set (a globally-sampled victim cannot free a slot in the
    candidate's set), so the layout is handed the candidate's count and
    picks its own way.
    """

    name = "layout-lab"

    def __init__(self, dp: NetCacheDataplane, workload: Workload,
                 capacity: int, seed: int,
                 threshold: int = HOT_THRESHOLD,
                 sample_size: int = SAMPLE_SIZE):
        super().__init__(capacity)
        self.dp = dp
        self.workload = workload
        self.threshold = threshold
        self.sample_size = sample_size
        self._rng = random.Random(seed)
        self._victim_policy = SampleEvictPolicy()
        self._hit_counts: Counter = Counter()
        self._miss_counts: Counter = Counter()
        self.installs_failed = 0

    def _port_of(self, key: bytes) -> int:
        ports = self.dp.num_pipes * self.dp.ports_per_pipe
        return zlib.crc32(key) % ports

    def install(self, key: bytes, count: Optional[int] = None) -> bool:
        value = self.workload.value_for(key)
        if self.dp.install(key, value, self._port_of(key),
                           candidate_count=count):
            return True
        self.installs_failed += 1
        return False

    # -- stream surface -----------------------------------------------------------

    def access(self, key: bytes, budget: UpdateBudget) -> bool:
        if self.dp.read_cached_value(key) is not None:
            self.hits += 1
            self._hit_counts[key] += 1
            return True
        self.misses += 1
        self._miss_counts[key] += 1
        return False

    def end_interval(self, budget: UpdateBudget) -> None:
        hot = [(c, k) for k, c in self._miss_counts.items()
               if c >= self.threshold]
        hot.sort(reverse=True)
        for count, key in hot:
            if self.dp.is_cached(key):
                continue
            if isinstance(self.dp.layout, SetAssocLayout):
                # The set either has a free way (1 update) or displaces
                # its coldest way (2 updates) — decided inside the layout.
                cost = 1 if self.dp.cache_size() < self.capacity else 2
                self.updates_attempted += cost
                if budget.take(cost) and self.install(key, count):
                    self.updates_applied += cost
                continue
            if self.dp.cache_size() < self.capacity:
                self.updates_attempted += 1
                if budget.take(1) and self.install(key, count):
                    self.updates_applied += 1
                continue
            cached = self.dp.cached_keys()
            sample = (cached if len(cached) <= self.sample_size
                      else self._rng.sample(cached, self.sample_size))
            victim = self._victim_policy.pick_victim(
                key, sample,
                lambda k: self._hit_counts.get(k, 0),
                lambda k: self._miss_counts.get(k, 0))
            if victim is None:
                continue
            self.updates_attempted += 2
            if budget.take(2):
                self.dp.evict(victim)
                if self.install(key, count):
                    self.updates_applied += 2
        # Counters reset each interval, like the statistics module.
        self._miss_counts.clear()
        self._hit_counts.clear()


def run_cell(layout_name: str, skew: float, value_size: int,
             write_ratio: float, *, num_keys: int, cache_items: int,
             lookup_entries: int, value_slots: int, packets: int,
             seed: int) -> Dict:
    """One (layout, skew, value size, write ratio) cell; returns metrics."""
    workload = Workload(WorkloadSpec(
        num_keys=num_keys, read_skew=skew, write_ratio=write_ratio,
        seed=seed, value_size=value_size))
    # The set-associative table IS the cache (no indirection), so its
    # entry count is the cache capacity, not the lookup-table size.
    entries = cache_items if layout_name == "setassoc" else lookup_entries
    dp = NetCacheDataplane(
        RoutingTable(default_port=0), entries=entries,
        value_slots=value_slots, layout=layout_name,
        stats=QueryStatistics(entries=entries, hot_threshold=HOT_THRESHOLD,
                              sample_rate=1.0, seed=seed))
    policy = LayoutLabPolicy(dp, workload, capacity=cache_items, seed=seed)

    # Warm hottest-first (§7.4): plain installs, so each set-associative
    # set keeps its hottest colliding members and oversized values fail
    # honestly instead of raising.
    for key in workload.hottest_keys(cache_items):
        policy.install(key)

    budget = UpdateBudget(UPDATES_PER_INTERVAL)
    writes = invalidations = seq = in_interval = 0
    for op, key in workload.queries(packets):
        if op is Op.PUT:
            writes += 1
            if dp.layout.handle_write(key):
                invalidations += 1
            seq += 1
            # The owning server's cache-update follows the write (§4.3).
            dp.layout.apply_update(key, workload.value_for(key), seq)
        else:
            policy.access(key, budget)
        in_interval += 1
        if in_interval >= QUERIES_PER_INTERVAL:
            policy.end_interval(budget)
            budget.refill()
            in_interval = 0
    policy.end_interval(budget)

    layout = dp.layout
    used = layout.value_bytes_used()
    declared = layout.value_capacity_bytes()
    return {
        "layout": layout_name,
        "skew": skew,
        "value_size": value_size,
        "write_ratio": write_ratio,
        "hit_ratio": policy.hit_ratio,
        "hits": policy.hits,
        "misses": policy.misses,
        "cache_size": dp.cache_size(),
        "installs_failed": policy.installs_failed,
        "updates_applied": policy.updates_applied,
        "writes": writes,
        "invalidations": invalidations,
        "auto_evictions": getattr(layout, "auto_evictions", 0),
        "recirculations": getattr(layout, "recirculations", 0),
        "budget_spent": budget.spent,
        "budget_denied": budget.denied,
        "sram_used": used,
        "sram_declared": declared,
        "sram_ok": used <= declared,
    }


def sort_cells(cells: List[Dict]) -> List[Dict]:
    """Cells in sorted-key order: (layout, skew, value_size, write_ratio).

    Every consumer — the JSON snapshot, the CSV artifact, the rendered
    table — sees the same fully deterministic row order regardless of the
    sweep's loop nesting.  The gated summary aggregates are
    order-independent, so sorting never perturbs the bench gate.
    """
    return sorted(cells, key=lambda c: (c["layout"], c["skew"],
                                        c["value_size"], c["write_ratio"]))


def run_tournament(*, num_keys: int, cache_items: int, lookup_entries: int,
                   value_slots: int, packets: int, seed: int) -> Dict:
    """The full grid; returns ``{"cells": [...], "summary": {...}}``."""
    cells: List[Dict] = []
    for layout_name in LAYOUT_NAMES:
        assert layout_name in LAYOUTS
        for skew in SKEWS:
            for value_size in VALUE_SIZES:
                for write_ratio in WRITE_RATIOS:
                    cells.append(run_cell(
                        layout_name, skew, value_size, write_ratio,
                        num_keys=num_keys, cache_items=cache_items,
                        lookup_entries=lookup_entries,
                        value_slots=value_slots, packets=packets,
                        seed=seed))
    cells = sort_cells(cells)
    return {"cells": cells, "summary": summarize(cells)}


def summarize(cells: List[Dict]) -> Dict:
    """Grid-level aggregates (the gated metric surface)."""
    by_layout: Dict[str, List[Dict]] = {name: [] for name in LAYOUT_NAMES}
    for cell in cells:
        by_layout[cell["layout"]].append(cell)
    paper = {(c["skew"], c["value_size"], c["write_ratio"]): c
             for c in by_layout["paper"]}

    def divergent(name: str) -> int:
        n = 0
        for c in by_layout[name]:
            ref = paper[(c["skew"], c["value_size"], c["write_ratio"])]
            if c["hit_ratio"] != ref["hit_ratio"]:
                n += 1
        return n

    summary: Dict = {
        "grid_cells": len(cells),
        "layouts_completed": sum(1 for name in LAYOUT_NAMES
                                 if len(by_layout[name]) == len(paper)),
        "setassoc_divergent_cells": divergent("setassoc"),
        "orbit_divergent_cells": divergent("orbit"),
        "sram_all_ok": all(c["sram_ok"] for c in cells),
    }
    for name in LAYOUT_NAMES:
        group = by_layout[name]
        summary[f"{name}_mean_hit_ratio"] = (
            sum(c["hit_ratio"] for c in group) / len(group) if group else 0.0)
    return summary


def cells_to_csv(cells: List[Dict]) -> str:
    """The per-cell grid as CSV (the ``--metrics-out`` artifact).

    ``BENCH_geometry.csv`` is regenerated through this exact function, so
    the committed artifact and a fresh ``--metrics-out`` file can only
    differ if a cell metric really changed.
    """
    rows = [CSV_HEADER]
    for c in sort_cells(cells):
        rows.append(",".join(fmt.format(c[name])
                             for name, fmt in CSV_COLUMNS))
    return "\n".join(rows) + "\n"


def render(cells: List[Dict], summary: Dict) -> str:
    """Human-readable tournament table."""
    lines = [
        f"{'layout':<10}{'skew':>6}{'vsize':>7}{'wr':>6}"
        f"{'hit_ratio':>11}{'cached':>8}{'failed':>8}"
        f"{'evict':>7}{'recirc':>8}"
    ]
    for c in cells:
        lines.append(
            f"{c['layout']:<10}{c['skew']:>6g}{c['value_size']:>7}"
            f"{c['write_ratio']:>6g}{c['hit_ratio']:>10.1%}"
            f"{c['cache_size']:>8}{c['installs_failed']:>8}"
            f"{c['auto_evictions']:>7}{c['recirculations']:>8}")
    lines.append(
        f"mean hit ratio: " + ", ".join(
            f"{name} {summary[f'{name}_mean_hit_ratio']:.1%}"
            for name in LAYOUT_NAMES))
    lines.append(
        f"divergence vs paper: setassoc in "
        f"{summary['setassoc_divergent_cells']} cells, orbit in "
        f"{summary['orbit_divergent_cells']} cells "
        f"(grid {summary['grid_cells']}, sram "
        f"{'ok' if summary['sram_all_ok'] else 'OVER-COMMITTED'})")
    return "\n".join(lines)
