"""Programmable-switch primitives (§4.4.1, Fig 5).

Functional models of the data-plane building blocks a P4 program composes:

* :class:`RegisterArray` — per-stage stateful memory with a fixed slot count
  and slot width, supporting read/write/add at line rate;
* :class:`MatchActionTable` — an exact-match table with bounded entries that
  yields action data for a matched key;
* :class:`Stage` — one physical pipeline stage with an SRAM budget that its
  tables and register arrays draw from.

The models enforce the ASIC's structural constraints (slot width, entry
limits, per-stage memory) so that a NetCache program that "compiles" against
them is one that would fit the real chip.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ResourceExhaustedError


class RegisterArray:
    """Stateful memory in one stage: ``slots`` entries of ``slot_bytes``.

    Values are stored as ``bytes`` of length <= slot_bytes (short values are
    significant; the slot is padded conceptually).  Integer counters use the
    add/read_int interface with saturation at the width limit, matching the
    switch ALU's saturating arithmetic.

    Integer state is numpy-backed with an epoch-stamped O(1) ``clear()``:
    a slot's value is live only while its generation stamp matches the
    current epoch, so the controller's periodic counter clear is a counter
    bump instead of an O(slots) loop.  ``add_batch`` applies a whole
    increment batch (hot-path statistics) with a few numpy calls, with the
    same saturating semantics as sequential ``add`` calls.
    """

    def __init__(self, name: str, slots: int, slot_bytes: int):
        if slots <= 0 or slot_bytes <= 0:
            raise ConfigurationError("slots and slot_bytes must be positive")
        self.name = name
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._data: List[bytes] = [b""] * slots
        self._bytes_dirty = False
        self._ints = np.zeros(slots, dtype=np.uint64)
        self._stamps = np.full(slots, -1, dtype=np.int64)
        self._epoch = 0
        self.max_int = (1 << (8 * slot_bytes)) - 1
        self.reads = 0
        self.writes = 0

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.slots:
            raise IndexError(f"{self.name}: index {index} out of [0, {self.slots})")

    # -- byte-value interface (value tables) ---------------------------------

    def read(self, index: int) -> bytes:
        self._check_index(index)
        self.reads += 1
        return self._data[index]

    def peek(self, index: int) -> bytes:
        """:meth:`read` without the access count (for observers)."""
        self._check_index(index)
        return self._data[index]

    def write(self, index: int, value: bytes) -> None:
        self._check_index(index)
        if len(value) > self.slot_bytes:
            raise ConfigurationError(
                f"{self.name}: value of {len(value)} bytes exceeds slot width "
                f"{self.slot_bytes}"
            )
        self.writes += 1
        self._bytes_dirty = True
        self._data[index] = value

    # -- integer interface (counters, valid bits) -------------------------------

    def read_int(self, index: int) -> int:
        self._check_index(index)
        self.reads += 1
        if self._stamps[index] != self._epoch:
            return 0
        return int(self._ints[index])

    def peek_int(self, index: int) -> int:
        """:meth:`read_int` without the access count (for observers)."""
        self._check_index(index)
        if self._stamps[index] != self._epoch:
            return 0
        return int(self._ints[index])

    def read_int_batch(self, indexes) -> np.ndarray:
        """Read the integer slots at *indexes* (with repeats).

        Equivalent to calling :meth:`read_int` once per index — same
        epoch gating, same ``reads`` accounting — as one numpy gather.
        """
        idx = self._batch_indexes(indexes)
        self.reads += idx.size
        values = self._ints[idx].astype(np.int64)
        values[self._stamps[idx] != self._epoch] = 0
        return values

    def _batch_indexes(self, indexes) -> np.ndarray:
        """*indexes* as int64, bounds-checked with one reduction: a
        negative index reads as a huge unsigned one."""
        idx = np.asarray(indexes, dtype=np.int64)
        if idx.size and idx.view(np.uint64).max() >= self.slots:
            raise IndexError(f"{self.name}: batch index out of [0, {self.slots})")
        return idx

    def note_batch_reads(self, count: int) -> None:
        """Account *count* reads without materializing them.

        Batch kernels that classify a stream read each hit's value slot
        only for the register accounting (the scalar loop discards the
        bytes too), and the controller's victim comparison re-reads a
        counter it already gathered; this keeps the ``reads`` counter
        byte-identical without the per-slot gather.
        """
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        self.reads += count

    def write_int(self, index: int, value: int) -> None:
        self._check_index(index)
        if not 0 <= value <= self.max_int:
            raise ConfigurationError(
                f"{self.name}: {value} does not fit in {self.slot_bytes} bytes"
            )
        self.writes += 1
        self._ints[index] = value
        self._stamps[index] = self._epoch

    def add(self, index: int, delta: int = 1) -> int:
        """Saturating add; returns the new value."""
        self._check_index(index)
        self.writes += 1
        base = int(self._ints[index]) if self._stamps[index] == self._epoch else 0
        new = min(self.max_int, base + delta)
        self._ints[index] = new
        self._stamps[index] = self._epoch
        return new

    def add_batch(self, indexes, delta: int = 1) -> None:
        """Saturating add of *delta* at each of *indexes* (with repeats).

        Equivalent to calling :meth:`add` once per index: positive
        increments make saturation commute with summation, so adding each
        touched slot's total once, clipped at the width limit, reproduces
        the sequential result.
        """
        idx = self._batch_indexes(indexes)
        if idx.size == 0:
            return
        if delta <= 0:
            raise ConfigurationError("delta must be positive")
        self.writes += idx.size
        touched, counts = np.unique(idx, return_counts=True)
        base = self._ints[touched]
        base[self._stamps[touched] != self._epoch] = 0
        room = np.uint64(self.max_int) - base
        self._ints[touched] = base + np.minimum(
            counts.astype(np.uint64) * np.uint64(delta), room)
        self._stamps[touched] = self._epoch

    def clear(self) -> None:
        """Zero the array (control-plane reset).  O(1) for integer slots:
        bumps the generation stamp; byte slots are rebuilt only if any
        byte write happened since the last clear."""
        if self._bytes_dirty:
            self._data = [b""] * self.slots
            self._bytes_dirty = False
        self._epoch += 1

    @property
    def sram_bytes(self) -> int:
        return self.slots * self.slot_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RegisterArray({self.name}, {self.slots}x{self.slot_bytes}B)"


class MatchActionTable:
    """Exact-match table: key bytes -> action data dict.

    ``max_entries`` models the table's allocated SRAM; inserts beyond it
    raise :class:`ResourceExhaustedError`, which is exactly the constraint
    that forces NetCache's single-lookup-table design (§4.4.2).
    """

    def __init__(self, name: str, max_entries: int, key_bytes: int,
                 action_data_bytes: int = 8):
        if max_entries <= 0:
            raise ConfigurationError("max_entries must be positive")
        self.name = name
        self.max_entries = max_entries
        self.key_bytes = key_bytes
        self.action_data_bytes = action_data_bytes
        self._entries: Dict[bytes, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.updates = 0

    def insert(self, match: bytes, action_data: Dict[str, Any]) -> None:
        if match not in self._entries and len(self._entries) >= self.max_entries:
            raise ResourceExhaustedError(
                f"{self.name}: table full ({self.max_entries} entries)"
            )
        self._entries[match] = dict(action_data)
        self.updates += 1

    def remove(self, match: bytes) -> bool:
        self.updates += 1
        return self._entries.pop(match, None) is not None

    def peek(self, match: bytes) -> Optional[Dict[str, Any]]:
        """:meth:`lookup` without the hit/miss count (for observers)."""
        return self._entries.get(match)

    def lookup(self, match: bytes) -> Optional[Dict[str, Any]]:
        entry = self._entries.get(match)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def entries(self) -> Dict[bytes, Dict[str, Any]]:
        """Copy of the current entries (control-plane read)."""
        return {k: dict(v) for k, v in self._entries.items()}

    def __contains__(self, match: bytes) -> bool:
        return match in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def sram_bytes(self) -> int:
        """SRAM footprint: every entry stores its key plus action data."""
        return self.max_entries * (self.key_bytes + self.action_data_bytes)


class Stage:
    """One pipeline stage: dedicated tables and register arrays with a
    shared SRAM budget (§4.4.1)."""

    def __init__(self, name: str, sram_budget: int = 1536 * 1024):
        self.name = name
        self.sram_budget = sram_budget
        self.tables: List[MatchActionTable] = []
        self.arrays: List[RegisterArray] = []

    def _check_budget(self, extra: int) -> None:
        if self.sram_used + extra > self.sram_budget:
            raise ResourceExhaustedError(
                f"stage {self.name}: {extra} bytes over the "
                f"{self.sram_budget}-byte SRAM budget "
                f"({self.sram_used} already used)"
            )

    def add_table(self, table: MatchActionTable) -> MatchActionTable:
        self._check_budget(table.sram_bytes)
        self.tables.append(table)
        return table

    def add_array(self, array: RegisterArray) -> RegisterArray:
        self._check_budget(array.sram_bytes)
        self.arrays.append(array)
        return array

    @property
    def sram_used(self) -> int:
        return sum(t.sram_bytes for t in self.tables) + sum(
            a.sram_bytes for a in self.arrays
        )

    def utilization(self) -> float:
        return self.sram_used / self.sram_budget


def port_to_pipe(port: int, ports_per_pipe: int = 64) -> int:
    """Map a physical port to its pipe (Tofino groups 64 ports per pipe)."""
    if port < 0:
        raise ConfigurationError(f"invalid port {port}")
    return port // ports_per_pipe


def popcount(x: int) -> int:
    """Number of set bits (bitmaps select value register arrays)."""
    return bin(x).count("1")


def lowest_set_bits(bitmap: int, n: int) -> int:
    """Return a mask of the *n* lowest set bits of *bitmap*.

    Algorithm 2 allocates "the last n 1 bits" of an index's availability
    bitmap; with arrays numbered from bit 0 this is the n lowest set bits.
    Raises if the bitmap has fewer than n set bits.
    """
    out = 0
    remaining = n
    bit = 0
    b = bitmap
    while b and remaining:
        if b & 1:
            out |= 1 << bit
            remaining -= 1
        b >>= 1
        bit += 1
    if remaining:
        raise ConfigurationError(
            f"bitmap {bitmap:#x} has fewer than {n} set bits"
        )
    return out


def bits_of(bitmap: int) -> Tuple[int, ...]:
    """Indices of set bits, ascending (which register arrays hold a value)."""
    out = []
    bit = 0
    while bitmap:
        if bitmap & 1:
            out.append(bit)
        bitmap >>= 1
        bit += 1
    return tuple(out)
