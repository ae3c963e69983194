"""Pluggable cache geometry: layouts and admission policies.

NetCache's evaluation fixes one data-plane design — an exact-match lookup
table plus values spread across per-stage register arrays, with
controller-driven sample-and-compare eviction (§4.2–4.3).  This module
carves that design out behind two seams so competing geometries can be
swapped in instead of forked:

* :class:`CacheLayout` is the *where-do-bytes-live* contract: lookup,
  install, evict, value placement, batch probes for the lanes engine, and
  honest SRAM accounting.  The base class owns what every geometry shares:
  the key map (key -> key index, in install order), the key-index free
  list, and the snapshot fields of a :class:`CacheStatusModule` (valid
  bit + update version per key index, §4.3/§4.4.4).  A layout supplies
  only its probe, its value placement, and its accounting.  The paper's
  design is :class:`PaperLayout`; :class:`SetAssocLayout` models
  limited-associativity set-based caching (fixed-width sets, fingerprint
  match, in-set victim choice), and :class:`OrbitLayout` models
  OrbitCache-style variable-length values via bounded recirculation
  passes, surfaced as extra pipeline latency.

* :class:`AdmissionPolicy` is the *who-deserves-a-slot* contract.  It has
  two complementary surfaces sharing one object: the **control surface**
  (:meth:`~AdmissionPolicy.pick_victim`) used by the live controller's
  sample-and-compare eviction, and the **stream surface**
  (:meth:`~AdmissionPolicy.access` / :meth:`~AdmissionPolicy.end_interval`)
  used by the budgeted policy ablation (:func:`run_policy`) and the
  geometry tournament.  The paper's eviction is :class:`SampleEvictPolicy`;
  the classical LRU/LFU/threshold baselines in
  :mod:`repro.baselines.policies` subclass the same base as degenerate
  cases (stream surface only).

Layouts never touch the statistics engine: sampling, sketches, and per-key
counters stay with :class:`~repro.core.dataplane.NetCacheDataplane`, which
asks its layout only for geometry decisions.
"""

from __future__ import annotations

import itertools
import operator
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import (
    KEY_SIZE,
    LOOKUP_TABLE_ENTRIES,
    NUM_PIPES,
    NUM_VALUE_STAGES,
    RECIRCULATION_DELAY,
    VALUE_ARRAY_SLOTS,
    VALUE_SLOT_SIZE,
)
from repro.core.lookup import CacheLookupTable
from repro.core.memory import SwitchMemoryManager
from repro.core.primitives import RegisterArray
from repro.core.status import CacheStatusModule
from repro.core.values import ValueStore
from repro.errors import ConfigurationError

__all__ = [
    "RECIRCULATION_DELAY",
    "CacheLayout",
    "LayoutHit",
    "PaperLayout",
    "SetAssocLayout",
    "OrbitLayout",
    "LAYOUTS",
    "make_layout",
    "AdmissionPolicy",
    "SampleEvictPolicy",
    "UpdateBudget",
    "run_policy",
]


#: the lookup table's action data a read needs, in column order.
_ACTION_DATA = operator.itemgetter("key_index", "egress_port", "bitmap")


class LayoutHit:
    """A valid cache hit as seen by the data plane.

    ``key_index`` indexes the per-key statistics counters; ``extra_passes``
    is how many recirculation passes beyond the first the serve needs
    (always 0 for single-pass layouts); ``handle`` is layout-private.
    """

    __slots__ = ("key_index", "extra_passes", "handle")

    def __init__(self, key_index: int, handle, extra_passes: int = 0):
        self.key_index = key_index
        self.extra_passes = extra_passes
        self.handle = handle


class CacheLayout:
    """Contract between the data plane and one cache geometry.

    The data plane owns the statistics and the per-packet counters; the
    layout owns where keys and value bytes live.  All methods are scalar
    except :meth:`classify_reads`, which is the batch probe the lanes
    engine and the statistics fast path drive.

    The base owns the key map ``_index`` (key -> key index, in install
    order) behind :meth:`key_index_of`, :meth:`cached_keys`,
    :meth:`is_cached` and :meth:`cache_size`; the key-index free list
    behind :meth:`_claim_index`/:meth:`_release_index` (layouts whose key
    index is their slot never claim); and :meth:`_status_fields`, the
    snapshot of a single :class:`CacheStatusModule` held as ``status``.
    A layout supplies its probe (:meth:`lookup_hit`,
    :meth:`classify_reads`), its placement (:meth:`install`,
    :meth:`evict`, value reads and updates) and its accounting.
    """

    #: registry name ("paper", "setassoc", "orbit").
    name = "abstract"

    def __init__(self, free_indexes: int = 0):
        #: key -> key index, in install order.
        self._index: Dict[bytes, int] = {}
        #: unclaimed key indexes, popped LIFO (lowest first when fresh).
        self._free_indexes: List[int] = list(range(free_indexes - 1, -1, -1))

    # -- the key map ----------------------------------------------------------------

    def _claim_index(self, key: bytes) -> int:
        """Map *key* to a free key index (caller checked one is free)."""
        key_index = self._index[key] = self._free_indexes.pop()
        return key_index

    def _release_index(self, key: bytes) -> Optional[int]:
        """Unmap *key* and free its key index; None if it was not mapped."""
        key_index = self._index.pop(key, None)
        if key_index is not None:
            self._free_indexes.append(key_index)
        return key_index

    def key_index_of(self, key: bytes) -> Optional[int]:
        return self._index.get(key)

    def cached_keys(self) -> List[bytes]:
        return list(self._index)

    def is_cached(self, key: bytes) -> bool:
        return key in self._index

    def cache_size(self) -> int:
        return len(self._index)

    # -- data plane ---------------------------------------------------------------

    def lookup_hit(self, key: bytes) -> Optional[LayoutHit]:
        """Lookup + validity check; a :class:`LayoutHit` or None."""
        raise NotImplementedError

    def read_value(self, hit: LayoutHit) -> bytes:
        """Read the value registers of a valid hit."""
        raise NotImplementedError

    def handle_write(self, key: bytes) -> bool:
        """Write-query path: invalidate if cached; True when invalidated."""
        raise NotImplementedError

    def apply_update(self, key: bytes, value: Optional[bytes],
                     seq: int) -> bool:
        """CACHE_UPDATE path; True when the update was applicable."""
        raise NotImplementedError

    def classify_reads(self, keys: Sequence[bytes], read_values: bool):
        """Classify a read stream; the vectorized batch-probe contract.

        Returns ``(hit_mask, hit_indexes, miss_keys, miss_pos,
        hit_delays)`` exactly as N sequential :meth:`lookup_hit` calls
        would produce them — same hit/miss split, same way/segment
        choice, same per-register accounting totals.  ``hit_delays`` is
        None for single-pass layouts, or a float64 array (one entry per
        hit, in hit-stream order) of extra reply latency
        (``extra_passes * RECIRCULATION_DELAY``) for multi-pass layouts;
        the lanes engine carries it as a per-record reply-delay lane
        instead of a scalar ``sim.schedule`` per hit."""
        raise NotImplementedError

    # -- control plane ------------------------------------------------------------

    def install(self, key: bytes, value: bytes, egress_port: int,
                candidate_count: Optional[int] = None) -> bool:
        """Cache *key*; False when the geometry has no room for it.

        *candidate_count* is the caller's frequency estimate for the key;
        only a layout that picks its own victim (SetAssoc's in-set
        displacement) reads it."""
        raise NotImplementedError

    def evict(self, key: bytes) -> bool:
        raise NotImplementedError

    def read_cached_value(self, key: bytes) -> Optional[bytes]:
        raise NotImplementedError

    @property
    def max_value_size(self) -> int:
        """Largest value this geometry can cache at all."""
        raise NotImplementedError

    # -- memory reorganization ------------------------------------------------------

    def fragmentation_by_pipe(self) -> List[float]:
        """Per-pipe fragmentation; empty for fragmentation-free layouts."""
        return []

    def defragment_pipe(self, pipe: int) -> int:
        """Repack one pipe's value memory; returns items moved."""
        return 0

    def try_defragment(self, egress_port: int) -> None:
        """Best-effort defragmentation before an install retry."""

    # -- accounting ----------------------------------------------------------------

    def resource_lines(self) -> List[Tuple[str, int, str]]:
        """``(component, sram_bytes, detail)`` rows for the resource report
        (statistics components are appended by the caller)."""
        raise NotImplementedError

    def value_capacity_bytes(self) -> int:
        """Declared SRAM capacity of the value storage."""
        raise NotImplementedError

    def value_bytes_used(self) -> int:
        """Value bytes currently committed to cached items."""
        raise NotImplementedError

    def sram_audit(self) -> str:
        """Self-check pinned by the differential harness: committed value
        bytes against declared capacity.  A layout that admits more bytes
        than its declared SRAM holds reads ``OVER`` here and diverges from
        the truthful reference in a named snapshot field."""
        used = self.value_bytes_used()
        declared = self.value_capacity_bytes()
        verdict = "ok" if used <= declared else "OVER"
        return f"{used}/{declared}:{verdict}"

    def snapshot_fields(self) -> Dict:
        """Layout-level gated counters for ``counters_snapshot``."""
        raise NotImplementedError

    def _status_fields(self) -> Dict:
        """The ``layout.*`` snapshot fields of the single ``status``."""
        status = self.status
        return {
            "layout.valid.reads": status.valid.reads,
            "layout.valid.writes": status.valid.writes,
            "layout.invalidations": status.invalidations,
            "layout.updates_applied": status.updates_applied,
            "layout.updates_rejected": status.updates_rejected,
        }


# -- the paper's geometry -----------------------------------------------------------


class PaperLayout(CacheLayout):
    """NetCache's own design (§4.4): one exact-match lookup table (action
    data = value bitmap + index, key index, egress port), per-egress-pipe
    value register arrays addressed by :class:`Allocation`, a cache-status
    module per pipe, and Algorithm-2 first-fit memory management.  Key
    indexes come from the base class's free list.
    """

    name = "paper"

    def __init__(self,
                 num_pipes: int = NUM_PIPES,
                 ports_per_pipe: int = 64,
                 entries: int = LOOKUP_TABLE_ENTRIES,
                 num_value_stages: int = NUM_VALUE_STAGES,
                 value_slots: int = VALUE_ARRAY_SLOTS,
                 slot_bytes: int = VALUE_SLOT_SIZE):
        if num_pipes <= 0:
            raise ConfigurationError("num_pipes must be positive")
        super().__init__(free_indexes=entries)
        self.num_pipes = num_pipes
        self.ports_per_pipe = ports_per_pipe
        self.lookup = CacheLookupTable(entries=entries,
                                       ingress_pipes=num_pipes)
        # Per-egress-pipe state: values live only in the pipe that connects
        # to the owning server (§4.4.4); each pipe gets its own allocator.
        self.values: List[ValueStore] = [
            ValueStore(p, num_arrays=num_value_stages, slots=value_slots,
                       slot_bytes=slot_bytes)
            for p in range(num_pipes)
        ]
        self.status: List[CacheStatusModule] = [
            CacheStatusModule(p, entries=entries) for p in range(num_pipes)
        ]
        self.memory: List[SwitchMemoryManager] = [
            SwitchMemoryManager(num_arrays=num_value_stages,
                                slots_per_array=value_slots,
                                slot_bytes=slot_bytes)
            for p in range(num_pipes)
        ]

    def pipe_of_port(self, port: int) -> int:
        from repro.core.primitives import port_to_pipe

        return port_to_pipe(port, self.ports_per_pipe) % self.num_pipes

    # -- data plane ---------------------------------------------------------------

    def lookup_hit(self, key: bytes) -> Optional[LayoutHit]:
        res = self.lookup.lookup(key)
        if res is not None:
            pipe = self.pipe_of_port(res.egress_port)
            if self.status[pipe].is_valid(res.key_index):
                return LayoutHit(res.key_index, (res, pipe))
        return None

    def read_value(self, hit: LayoutHit) -> bytes:
        res, pipe = hit.handle
        return self.values[pipe].read(res.allocation)

    def handle_write(self, key: bytes) -> bool:
        res = self.lookup.lookup(key)
        if res is None:
            return False
        pipe = self.pipe_of_port(res.egress_port)
        self.status[pipe].invalidate(res.key_index)
        return True

    def apply_update(self, key: bytes, value: Optional[bytes],
                     seq: int) -> bool:
        res = self.lookup.lookup(key)
        applied = False
        if res is not None and value is not None:
            pipe = self.pipe_of_port(res.egress_port)
            store = self.values[pipe]
            if store.fits(res.allocation, value):
                if self.status[pipe].try_update(res.key_index, seq):
                    store.write(res.allocation, value)
                applied = True
            # A larger value cannot be updated by the data plane (§4.3);
            # the entry stays invalid until the controller reinstalls it.
        return applied

    def classify_reads(self, keys: Sequence[bytes], read_values: bool):
        """Batch probe of the match-action table.

        Equivalent to looping :meth:`lookup_hit` (plus :meth:`read_value`
        per valid hit when *read_values*).  One dict probe per key — the
        table is its own memo, nothing to invalidate — then one live
        validity gather per egress pipe (writes flip the bits between
        batches, never inside one) and, from the hits' bitmaps, one read
        total per value register array.
        """
        hit_mask = np.zeros(len(keys), dtype=bool)
        hit_indexes: List[int] = []
        entries = self.lookup.probe_batch(keys)
        found_pos = [j for j, entry in enumerate(entries)
                     if entry is not None]
        if found_pos:
            nf = len(found_pos)
            key_index, ports, bitmaps = np.fromiter(
                itertools.chain.from_iterable(
                    _ACTION_DATA(entries[j]) for j in found_pos),
                dtype=np.int64, count=3 * nf).reshape(nf, 3).T
            pipes = (ports // self.ports_per_pipe) % self.num_pipes
            valid = np.zeros(nf, dtype=bool)
            for pipe in np.flatnonzero(np.bincount(pipes)).tolist():
                sel = np.flatnonzero(pipes == pipe)
                ok = self.status[pipe].valid.read_int_batch(
                    key_index[sel]) != 0
                valid[sel] = ok
                if read_values:
                    # The scalar path reads (and discards) each valid
                    # hit's chunks; only the register accounting is
                    # observable.
                    arrays = self.values[pipe].arrays
                    reads = ((bitmaps[sel[ok], None]
                              >> np.arange(len(arrays))) & 1).sum(axis=0)
                    for array, count in zip(arrays, reads.tolist()):
                        array.note_batch_reads(count)
            hit_mask[np.asarray(found_pos)[valid]] = True
            hit_indexes = key_index[valid].tolist()
        miss_pos = np.flatnonzero(~hit_mask).tolist()
        miss_keys = [keys[p] for p in miss_pos]
        return hit_mask, hit_indexes, miss_keys, miss_pos, None

    # -- control plane ------------------------------------------------------------

    def install(self, key: bytes, value: bytes, egress_port: int,
                candidate_count: Optional[int] = None) -> bool:
        if (not value or len(value) > self.max_value_size
                or key in self._index or not self._free_indexes):
            return False
        pipe = self.pipe_of_port(egress_port)
        alloc = self.memory[pipe].insert(key, len(value))
        if alloc is None:
            return False
        key_index = self._claim_index(key)
        self.lookup.insert(key, alloc, egress_port, key_index)
        self.values[pipe].write(alloc, value)
        self.status[pipe].reset_entry(key_index)
        self.status[pipe].set_valid(key_index)
        return True

    def evict(self, key: bytes) -> bool:
        res = self.lookup.lookup(key)
        if res is None:
            return False
        pipe = self.pipe_of_port(res.egress_port)
        self.lookup.remove(key)
        self.status[pipe].reset_entry(self._release_index(key))
        self.values[pipe].clear(res.allocation)
        self.memory[pipe].evict(key)
        return True

    def read_cached_value(self, key: bytes) -> Optional[bytes]:
        res = self.lookup.lookup(key)
        if res is None:
            return None
        pipe = self.pipe_of_port(res.egress_port)
        if not self.status[pipe].is_valid(res.key_index):
            return None
        return self.values[pipe].read(res.allocation)

    @property
    def max_value_size(self) -> int:
        return self.values[0].max_value_size

    # -- memory reorganization ------------------------------------------------------

    def fragmentation_by_pipe(self) -> List[float]:
        return [mm.fragmentation() for mm in self.memory]

    def defragment_pipe(self, pipe: int) -> int:
        """Reorganize one pipe's value memory (paper §4.4.2: "periodic
        memory reorganization").  Moved items are rewritten through the
        control plane; each is invalid only between clear and rewrite, and
        we do both atomically here."""
        values = self.values[pipe]
        moves = self.memory[pipe].defragment()
        # Moves can overlap (one key's new slots are another's old slots),
        # so stage all reads before any clear, and all clears before any
        # write.
        staged = [(key, old, new, values.read(old))
                  for key, old, new in moves]
        for _key, old, _new, _value in staged:
            values.clear(old)
        for key, _old, new, value in staged:
            values.write(new, value)
            entry = self.lookup.table.lookup(key)
            entry["bitmap"] = new.bitmap
            entry["value_index"] = new.index
        return len(staged)

    def try_defragment(self, egress_port: int) -> None:
        self.defragment_pipe(self.pipe_of_port(egress_port))

    # -- accounting ----------------------------------------------------------------

    def resource_lines(self) -> List[Tuple[str, int, str]]:
        lookup = self.lookup
        lines = [(
            "cache_lookup",
            lookup.sram_bytes,
            f"{lookup.table.max_entries} entries x "
            f"{lookup.table.key_bytes + lookup.ACTION_DATA_BYTES}B, "
            f"replicated over {lookup.ingress_pipes} ingress pipes",
        )]
        value_bytes = sum(store.sram_bytes for store in self.values)
        per_pipe = self.values[0]
        lines.append((
            "value_arrays",
            value_bytes,
            f"{len(self.values)} pipes x {per_pipe.num_arrays} stages x "
            f"{per_pipe.arrays[0].slots} x {per_pipe.slot_bytes}B",
        ))
        status_bytes = sum(st.sram_bytes for st in self.status)
        lines.append((
            "cache_status",
            status_bytes,
            f"{len(self.status)} pipes x valid bit + 32-bit version",
        ))
        return lines

    def value_capacity_bytes(self) -> int:
        return sum(store.sram_bytes for store in self.values)

    def value_bytes_used(self) -> int:
        return sum(mm.used_slots * mm.slot_bytes for mm in self.memory)

    def snapshot_fields(self) -> Dict:
        snap: Dict = {
            "lookup.hits": self.lookup.table.hits,
            "lookup.misses": self.lookup.table.misses,
        }
        for pipe, (status, values) in enumerate(zip(self.status,
                                                    self.values)):
            snap[f"pipe{pipe}.valid.reads"] = status.valid.reads
            snap[f"pipe{pipe}.valid.writes"] = status.valid.writes
            snap[f"pipe{pipe}.invalidations"] = status.invalidations
            snap[f"pipe{pipe}.updates_applied"] = status.updates_applied
            snap[f"pipe{pipe}.updates_rejected"] = status.updates_rejected
            snap[f"pipe{pipe}.value.reads"] = sum(a.reads
                                                  for a in values.arrays)
            snap[f"pipe{pipe}.value.writes"] = sum(a.writes
                                                   for a in values.arrays)
        return snap


# -- limited-associativity set-based caching ----------------------------------------


def _set_hash(key: bytes) -> int:
    """Deterministic (hash-seed independent) set/fingerprint hash."""
    return zlib.crc32(key)


class SetAssocLayout(CacheLayout):
    """Fixed-width set-associative cache (Friedman et al. style).

    Keys hash into ``num_sets`` sets of ``ways`` entries.  Each entry
    stores a 16-bit fingerprint (matched first, as the hardware would),
    the full key (verification; counted in SRAM), a fixed-width value
    slot of ``way_bytes``, and a valid bit plus update version in the
    shared :class:`CacheStatusModule`.  There is no indirection table and
    no allocator: the table *is* the cache, and an entry's key index is
    its slot (``set * ways + way``), so installs into a full set either
    fail or displace the set's coldest way (in-set victim choice, driven
    by per-way hit counters) when the caller supplies the candidate's
    frequency estimate.

    Trade-offs this layout makes measurable: no fragmentation and O(1)
    install, but hot keys colliding in one set exceed its ways and become
    uncacheable, and every value pays the fixed way width.

    The batch probe (:meth:`classify_reads`) memoizes the set-index +
    16-bit-fingerprint walk per distinct key and applies counter totals
    with numpy kernels; in-set displacement stays a control-plane event
    (``install``/``evict`` invalidate the memo and bump the dataplane's
    ``contents_version``, which flushes lanes), so the steady-state read
    stream runs inside the lanes engine.
    """

    name = "setassoc"

    def __init__(self,
                 num_pipes: int = NUM_PIPES,
                 ports_per_pipe: int = 64,
                 entries: int = LOOKUP_TABLE_ENTRIES,
                 num_value_stages: int = NUM_VALUE_STAGES,
                 value_slots: int = VALUE_ARRAY_SLOTS,
                 slot_bytes: int = VALUE_SLOT_SIZE,
                 ways: int = 4):
        if ways <= 0:
            raise ConfigurationError("ways must be positive")
        if entries < ways:
            raise ConfigurationError("need at least one full set")
        super().__init__()
        self.ways = ways
        self.num_sets = entries // ways
        self.way_bytes = num_value_stages * slot_bytes
        n = self.num_sets * self.ways
        #: per-entry state, indexed by key_index = set * ways + way.
        self._fp = np.full(n, -1, dtype=np.int64)
        self._keys: List[Optional[bytes]] = [None] * n
        self._way_hits = np.zeros(n, dtype=np.int64)
        self.status = CacheStatusModule(0, entries=n)
        self.value = RegisterArray("setassoc/value", n, self.way_bytes)
        #: key -> (slot or -1, fingerprint mismatches): memoized probe
        #: results for the batch kernel; a pure function of the tag state,
        #: cleared whenever install/evict mutates fingerprints or keys.
        self._probe_cache: Dict[bytes, Tuple[int, int]] = {}
        # Telemetry.
        self.lookup_hits = 0
        self.lookup_misses = 0
        self.fingerprint_mismatches = 0
        self.auto_evictions = 0

    def _set_of(self, key: bytes) -> Tuple[int, int]:
        """``(first slot of the key's set, 16-bit fingerprint)``."""
        h = _set_hash(key)
        return (h % self.num_sets) * self.ways, (h >> 16) & 0xFFFF

    def _probe(self, key: bytes) -> Tuple[int, int]:
        """Fingerprint-then-key match within the key's set, without
        counter side effects: ``(slot or -1, fingerprint mismatches the
        walk counts)``."""
        base, fp = self._set_of(key)
        mismatches = 0
        for idx in range(base, base + self.ways):
            if self._fp[idx] != fp:
                continue
            if self._keys[idx] == key:
                return idx, mismatches
            mismatches += 1
        return -1, mismatches

    def _slot_of(self, key: bytes) -> Optional[int]:
        """:meth:`_probe`, counting its fingerprint mismatches."""
        slot, mismatches = self._probe(key)
        self.fingerprint_mismatches += mismatches
        return slot if slot >= 0 else None

    # -- data plane ---------------------------------------------------------------

    def lookup_hit(self, key: bytes) -> Optional[LayoutHit]:
        idx = self._slot_of(key)
        if idx is None:
            self.lookup_misses += 1
            return None
        self.lookup_hits += 1
        if not self.status.is_valid(idx):
            return None
        self._way_hits[idx] += 1
        return LayoutHit(idx, idx)

    def read_value(self, hit: LayoutHit) -> bytes:
        return self.value.read(hit.handle)

    def handle_write(self, key: bytes) -> bool:
        idx = self._slot_of(key)
        if idx is None:
            self.lookup_misses += 1
            return False
        self.lookup_hits += 1
        self.status.invalidate(idx)
        return True

    def apply_update(self, key: bytes, value: Optional[bytes],
                     seq: int) -> bool:
        idx = self._slot_of(key)
        if idx is None or value is None or len(value) > self.way_bytes:
            return False
        if self.status.try_update(idx, seq):
            self.value.write(idx, value)
        return True  # a stale duplicate is acked but not applied

    def classify_reads(self, keys: Sequence[bytes], read_values: bool):
        """Vectorized set-index + fingerprint batch probe.

        Equivalent to looping :meth:`lookup_hit` (plus one way-value read
        per valid hit when *read_values*): the per-key walk is memoized in
        ``_probe_cache`` and every counter — lookup hits/misses,
        fingerprint mismatches, valid-bit reads, per-way hit counters,
        value-register reads — receives the same totals numpy-side.
        """
        n = len(keys)
        hit_mask = np.zeros(n, dtype=bool)
        slots = np.empty(n, dtype=np.int64)
        mismatches = np.empty(n, dtype=np.int64)
        cache = self._probe_cache
        probe = self._probe
        for j, key in enumerate(keys):
            cached = cache.get(key)
            if cached is None:
                cached = cache[key] = probe(key)
            slots[j] = cached[0]
            mismatches[j] = cached[1]
        self.fingerprint_mismatches += int(mismatches.sum())
        found_pos = np.flatnonzero(slots >= 0)
        nf = len(found_pos)
        self.lookup_hits += nf
        self.lookup_misses += n - nf
        found_slots = slots[found_pos]
        valid_vals = self.status.valid.read_int_batch(found_slots)
        valid_sel = valid_vals != 0
        hit_pos = found_pos[valid_sel]
        hit_slots = found_slots[valid_sel]
        hit_mask[hit_pos] = True
        np.add.at(self._way_hits, hit_slots, 1)
        if read_values:
            # The scalar path reads (and discards) each valid hit's way
            # value; only the register accounting is observable here.
            self.value.note_batch_reads(len(hit_slots))
        hit_indexes = hit_slots.tolist()
        miss_pos = np.flatnonzero(~hit_mask).tolist()
        miss_keys = [keys[p] for p in miss_pos]
        return hit_mask, hit_indexes, miss_keys, miss_pos, None

    # -- control plane ------------------------------------------------------------

    def install(self, key: bytes, value: bytes, egress_port: int,
                candidate_count: Optional[int] = None) -> bool:
        """Install into the key's set.

        A full set fails the install unless *candidate_count* (the
        caller's frequency estimate for the key) beats the coldest way's
        hit counter, in which case that way is displaced (in-set victim
        choice — the controller's globally-sampled victim cannot free a
        slot in this set).
        """
        if not value or len(value) > self.way_bytes or key in self._index:
            return False
        base, fp = self._set_of(key)
        free = next((idx for idx in range(base, base + self.ways)
                     if self._keys[idx] is None), None)
        if free is None:
            if candidate_count is None:
                return False
            coldest = min(range(base, base + self.ways),
                          key=lambda i: (int(self._way_hits[i]), i))
            if candidate_count <= int(self._way_hits[coldest]):
                return False
            self._evict_index(coldest)
            self.auto_evictions += 1
            free = coldest
        self._fp[free] = fp
        self._keys[free] = key
        self._way_hits[free] = 0
        self._index[key] = free
        self._probe_cache.clear()
        self.status.version.write_int(free, 0)
        self.value.write(free, value)
        self.status.set_valid(free)
        return True

    def _evict_index(self, idx: int) -> None:
        key = self._keys[idx]
        self._fp[idx] = -1
        self._keys[idx] = None
        self._way_hits[idx] = 0
        self._probe_cache.clear()
        self.status.reset_entry(idx)
        self.value.write(idx, b"")
        self._index.pop(key, None)

    def evict(self, key: bytes) -> bool:
        idx = self._index.get(key)
        if idx is None:
            return False
        self._evict_index(idx)
        return True

    def read_cached_value(self, key: bytes) -> Optional[bytes]:
        idx = self._index.get(key)
        if idx is None or not self.status.is_valid(idx):
            return None
        return self.value.read(idx)

    @property
    def max_value_size(self) -> int:
        return self.way_bytes

    # -- accounting ----------------------------------------------------------------

    def resource_lines(self) -> List[Tuple[str, int, str]]:
        n = self.num_sets * self.ways
        tag_bytes = n * (KEY_SIZE + 2)  # full key + 16-bit fingerprint
        return [
            ("set_tags", tag_bytes,
             f"{self.num_sets} sets x {self.ways} ways x "
             f"({KEY_SIZE}B key + 2B fingerprint)"),
            ("way_values", self.value.sram_bytes,
             f"{n} ways x {self.way_bytes}B fixed-width value"),
            ("cache_status", self.status.sram_bytes,
             "valid bit + 32-bit version per way"),
        ]

    def value_capacity_bytes(self) -> int:
        return self.value.sram_bytes

    def value_bytes_used(self) -> int:
        # Fixed-width ways: every live entry commits a full way.
        return len(self._index) * self.way_bytes

    def snapshot_fields(self) -> Dict:
        return {
            "lookup.hits": self.lookup_hits,
            "lookup.misses": self.lookup_misses,
            "layout.fingerprint_mismatches": self.fingerprint_mismatches,
            "layout.value.reads": self.value.reads,
            "layout.value.writes": self.value.writes,
            **self._status_fields(),
            "layout.auto_evictions": self.auto_evictions,
        }


# -- variable-length values via bounded recirculation -------------------------------


class OrbitLayout(CacheLayout):
    """OrbitCache-style variable-length value caching.

    Values live in a global pool of ``segment_bytes``-byte segments; a
    value of *n* segments is served in *n* pipeline passes (each pass
    reads one segment and recirculates), bounded by ``max_passes``.
    Segments need not be contiguous — the per-key segment list removes
    fragmentation entirely — but every extra pass costs recirculation
    latency (:data:`RECIRCULATION_DELAY`), surfaced by the data plane as
    reply delay.  Key indexes come from the base class's free list.

    The batch probe (:meth:`classify_reads`) resolves the segment-pool
    entries in one pass and returns the per-hit recirculation delays as
    a float64 lane (``extra_passes * RECIRCULATION_DELAY``) that the
    lanes engine folds into each reply's delivery time — the scalar
    path's ``sim.schedule(delay, ...)`` per multi-pass hit, without the
    per-packet event.  Segment churn (install/evict) stays a
    control-plane event that flushes lanes via ``contents_version``.
    """

    name = "orbit"

    def __init__(self,
                 num_pipes: int = NUM_PIPES,
                 ports_per_pipe: int = 64,
                 entries: int = LOOKUP_TABLE_ENTRIES,
                 num_value_stages: int = NUM_VALUE_STAGES,
                 value_slots: int = VALUE_ARRAY_SLOTS,
                 slot_bytes: int = VALUE_SLOT_SIZE,
                 max_passes: int = 8):
        if max_passes <= 0:
            raise ConfigurationError("max_passes must be positive")
        super().__init__(free_indexes=entries)
        self.max_passes = max_passes
        #: one pass reads what the paper layout reads in its whole
        #: pipeline: num_value_stages slots of slot_bytes.
        self.segment_bytes = num_value_stages * slot_bytes
        # Same raw value SRAM budget as the paper layout's per-pipe
        # arrays, pooled globally.
        total_bytes = num_pipes * num_value_stages * value_slots * slot_bytes
        self.num_segments = max(1, total_bytes // self.segment_bytes)
        self.segments = RegisterArray("orbit/segments", self.num_segments,
                                      self.segment_bytes)
        self._free: List[int] = list(range(self.num_segments - 1, -1, -1))
        #: per key index: (segment index tuple, value length), or None.
        self._extents: List[Optional[Tuple[Tuple[int, ...], int]]] = \
            [None] * entries
        self.status = CacheStatusModule(0, entries=entries)
        # Telemetry.
        self.lookup_hits = 0
        self.lookup_misses = 0
        self.recirculations = 0

    def _passes_for(self, size: int) -> int:
        return -(-size // self.segment_bytes)

    # -- data plane ---------------------------------------------------------------

    def lookup_hit(self, key: bytes) -> Optional[LayoutHit]:
        key_index = self._index.get(key)
        if key_index is None:
            self.lookup_misses += 1
            return None
        self.lookup_hits += 1
        if not self.status.is_valid(key_index):
            return None
        extent = self._extents[key_index]
        return LayoutHit(key_index, extent, extra_passes=len(extent[0]) - 1)

    def read_value(self, hit: LayoutHit) -> bytes:
        segs, length = hit.handle
        self.recirculations += len(segs) - 1
        raw = b"".join(self.segments.read(s) for s in segs)
        return raw[:length]

    def handle_write(self, key: bytes) -> bool:
        key_index = self._index.get(key)
        if key_index is None:
            self.lookup_misses += 1
            return False
        self.lookup_hits += 1
        self.status.invalidate(key_index)
        return True

    def apply_update(self, key: bytes, value: Optional[bytes],
                     seq: int) -> bool:
        key_index = self._index.get(key)
        if key_index is None or value is None:
            return False
        segs, _length = self._extents[key_index]
        if self._passes_for(len(value)) > len(segs):
            # Larger than the allocated segments: control-plane reinstall.
            return False
        if self.status.try_update(key_index, seq):
            self._write_segments(segs, value)
            self._extents[key_index] = (segs, len(value))
        return True  # a stale duplicate is acked but not applied

    def _write_segments(self, segs: Tuple[int, ...], value: bytes) -> None:
        sb = self.segment_bytes
        for i, seg in enumerate(segs):
            self.segments.write(seg, value[i * sb:(i + 1) * sb])

    def classify_reads(self, keys: Sequence[bytes], read_values: bool):
        """Vectorized segment-pool batch probe.

        Equivalent to looping :meth:`lookup_hit` (plus one
        :meth:`read_value` per valid hit when *read_values*): same
        hit/miss split, same valid-bit reads, same recirculation and
        segment-read totals.  ``hit_delays[i]`` is the i-th hit's extra
        reply latency, ``(segments - 1) * RECIRCULATION_DELAY`` — the
        exact float the scalar serve would pass to ``sim.schedule``.
        """
        n = len(keys)
        hit_mask = np.zeros(n, dtype=bool)
        index = self._index
        extents = self._extents
        found_pos: List[int] = []
        found_idx: List[int] = []
        found_segs: List[int] = []
        for j, key in enumerate(keys):
            key_index = index.get(key)
            if key_index is not None:
                found_pos.append(j)
                found_idx.append(key_index)
                found_segs.append(len(extents[key_index][0]))
        nf = len(found_pos)
        self.lookup_hits += nf
        self.lookup_misses += n - nf
        idx_arr = np.asarray(found_idx, dtype=np.int64)
        valid_vals = self.status.valid.read_int_batch(idx_arr)
        valid_sel = valid_vals != 0
        pos_arr = np.asarray(found_pos, dtype=np.int64)
        hit_mask[pos_arr[valid_sel]] = True
        passes = np.asarray(found_segs, dtype=np.int64)[valid_sel] - 1
        if read_values:
            # The scalar path joins (and discards) every segment of each
            # valid hit; only the pool accounting is observable here.
            self.recirculations += int(passes.sum())
            self.segments.note_batch_reads(int((passes + 1).sum()))
        hit_indexes = idx_arr[valid_sel].tolist()
        miss_pos = np.flatnonzero(~hit_mask).tolist()
        miss_keys = [keys[p] for p in miss_pos]
        hit_delays = passes.astype(np.float64) * RECIRCULATION_DELAY
        return hit_mask, hit_indexes, miss_keys, miss_pos, hit_delays

    # -- control plane ------------------------------------------------------------

    def install(self, key: bytes, value: bytes, egress_port: int,
                candidate_count: Optional[int] = None) -> bool:
        if not value or key in self._index:
            return False
        n = self._passes_for(len(value))
        if (n > self.max_passes or n > len(self._free)
                or not self._free_indexes):
            return False
        key_index = self._claim_index(key)
        segs = tuple(self._free.pop() for _ in range(n))
        self._write_segments(segs, value)
        self._extents[key_index] = (segs, len(value))
        self.status.version.write_int(key_index, 0)
        self.status.set_valid(key_index)
        return True

    def evict(self, key: bytes) -> bool:
        key_index = self._release_index(key)
        if key_index is None:
            return False
        segs, _length = self._extents[key_index]
        self._extents[key_index] = None
        for seg in segs:
            self.segments.write(seg, b"")
            self._free.append(seg)
        self.status.reset_entry(key_index)
        return True

    def read_cached_value(self, key: bytes) -> Optional[bytes]:
        key_index = self._index.get(key)
        if key_index is None or not self.status.is_valid(key_index):
            return None
        return self.read_value(LayoutHit(key_index, self._extents[key_index]))

    @property
    def max_value_size(self) -> int:
        return self.max_passes * self.segment_bytes

    # -- accounting ----------------------------------------------------------------

    def resource_lines(self) -> List[Tuple[str, int, str]]:
        entries = self.status.valid.slots
        return [
            ("orbit_lookup", entries * (KEY_SIZE + 8),
             f"{entries} entries x ({KEY_SIZE}B key + 8B "
             f"segment-list head)"),
            ("segment_pool", self.segments.sram_bytes,
             f"{self.num_segments} segments x {self.segment_bytes}B, "
             f"<= {self.max_passes} recirculation passes per value"),
            ("cache_status", self.status.sram_bytes,
             "valid bit + 32-bit version per entry"),
        ]

    def value_capacity_bytes(self) -> int:
        return self.segments.sram_bytes

    def value_bytes_used(self) -> int:
        return sum(len(self._extents[i][0])
                   for i in self._index.values()) * self.segment_bytes

    def snapshot_fields(self) -> Dict:
        return {
            "lookup.hits": self.lookup_hits,
            "lookup.misses": self.lookup_misses,
            "layout.segment.reads": self.segments.reads,
            "layout.segment.writes": self.segments.writes,
            **self._status_fields(),
            "layout.recirculations": self.recirculations,
        }


# -- registry ----------------------------------------------------------------------

LAYOUTS = {
    PaperLayout.name: PaperLayout,
    SetAssocLayout.name: SetAssocLayout,
    OrbitLayout.name: OrbitLayout,
}


def make_layout(spec, **geometry) -> CacheLayout:
    """Resolve *spec* (a name, a layout instance, or None) to a layout.

    ``geometry`` carries the switch dimensions (num_pipes, ports_per_pipe,
    entries, num_value_stages, value_slots, slot_bytes); layout-specific
    knobs use their defaults and can be customized by passing an instance.
    """
    if spec is None:
        spec = PaperLayout.name
    if isinstance(spec, CacheLayout):
        return spec
    cls = LAYOUTS.get(spec)
    if cls is None:
        raise ConfigurationError(
            f"unknown cache layout {spec!r}; choose from "
            f"{', '.join(sorted(LAYOUTS))}")
    return cls(**geometry)


# -- admission policies -------------------------------------------------------------


class UpdateBudget:
    """Table-entry updates available per interval (switch driver limit)."""

    def __init__(self, per_interval: int):
        if per_interval < 0:
            raise ConfigurationError("budget must be non-negative")
        self.per_interval = per_interval
        self.remaining = per_interval
        self.spent = 0
        self.denied = 0

    def take(self, n: int = 1) -> bool:
        if self.remaining >= n:
            self.remaining -= n
            self.spent += n
            return True
        self.denied += n
        return False

    def refill(self) -> None:
        self.remaining = self.per_interval


class AdmissionPolicy:
    """Who deserves a cache slot — one contract, two surfaces.

    *Control surface*: the live controller calls :meth:`pick_victim` with
    a sampled set of cached keys, their counter reader, and the hot
    candidate's frequency estimator; the policy decides whether (and whom)
    to displace.  *Stream surface*: the budgeted policy ablation
    (:func:`run_policy`) and the geometry tournament feed a query stream
    through :meth:`access`/:meth:`end_interval` under an
    :class:`UpdateBudget`.  Degenerate policies implement only one
    surface; the defaults keep the other inert (never evict / no stream
    model).
    """

    name = "abstract"

    def __init__(self, capacity: int = 0):
        if capacity < 0:
            raise ConfigurationError("capacity must be non-negative")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.updates_attempted = 0
        self.updates_applied = 0

    # -- control surface ----------------------------------------------------------

    def pick_victim(self, candidate: bytes, sample: Sequence[bytes],
                    counter_of: Callable[[bytes], int],
                    estimate: Callable[[bytes], int]) -> Optional[bytes]:
        """Victim among *sample* to evict for *candidate*; None = reject."""
        return None

    # -- stream surface -----------------------------------------------------------

    def access(self, key: bytes, budget: "UpdateBudget") -> bool:
        raise NotImplementedError

    def end_interval(self, budget: "UpdateBudget") -> None:
        """Hook for policies that batch updates per interval."""

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SampleEvictPolicy(AdmissionPolicy):
    """The paper's sample-and-compare eviction (§4.3).

    The coldest of the sampled cached keys is displaced only when the
    candidate's estimated frequency (Count-Min sketch in the live
    controller) exceeds the coldest counter.  Counters and sketch are
    reset together, so the comparison is between same-interval (sampled)
    frequencies.
    """

    name = "sample-evict"

    def pick_victim(self, candidate: bytes, sample: Sequence[bytes],
                    counter_of: Callable[[bytes], int],
                    estimate: Callable[[bytes], int]) -> Optional[bytes]:
        if not sample:
            return None
        coldest = min(sample, key=counter_of)
        candidate_count = estimate(candidate)
        if candidate_count <= counter_of(coldest):
            return None
        return coldest


def run_policy(policy: AdmissionPolicy, stream: Iterable[bytes],
               queries_per_interval: int,
               updates_per_interval: int) -> Tuple[float, int]:
    """Feed *stream* through *policy* with interval-based update budgets.

    Returns (hit_ratio, updates_applied).
    """
    if queries_per_interval <= 0:
        raise ConfigurationError("queries_per_interval must be positive")
    budget = UpdateBudget(updates_per_interval)
    in_interval = 0
    for key in stream:
        policy.access(key, budget)
        in_interval += 1
        if in_interval >= queries_per_interval:
            policy.end_interval(budget)
            budget.refill()
            in_interval = 0
    policy.end_interval(budget)
    return policy.hit_ratio, policy.updates_applied
