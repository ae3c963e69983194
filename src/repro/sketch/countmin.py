"""Count-Min sketch (Cormode & Muthukrishnan 2005).

The NetCache data plane uses a Count-Min sketch with 4 register arrays of
64K 16-bit slots to estimate query frequencies of *uncached* keys (§4.4.3).
Counters saturate at the 16-bit maximum rather than wrapping, mirroring the
switch's saturating-add ALU behaviour.

Counter state is numpy-backed with an **epoch-stamped O(1) reset**: instead
of zeroing ``depth x width`` cells every controller round, ``reset()``
bumps a generation counter and a cell is live only while its stamp matches
the current generation.  Observable behaviour — hash placement, saturation,
estimates — is bit-for-bit identical to the scalar reference
(:class:`repro.sketch.reference.ScalarCountMinSketch`); the equivalence is
property-tested.  ``update_batch`` applies a whole index batch with a
handful of numpy calls while returning exactly the estimates a sequential
scalar loop would have produced (duplicate slots within a batch see their
running, not final, counts); ``estimate_batch`` reads many keys' estimates
with one hash kernel and one gather.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sketch.hashing import HashFamily, hash_bytes_batch


def _counter_dtype(counter_bits: int):
    if counter_bits <= 16:
        return np.uint16
    if counter_bits <= 32:
        return np.uint32
    return np.uint64


class CountMinSketch:
    """A Count-Min sketch with saturating fixed-width counters.

    Parameters
    ----------
    width:
        Number of slots per row (register array length).
    depth:
        Number of rows (independent hash functions / register arrays).
    counter_bits:
        Counter width in bits; counts saturate at ``2**counter_bits - 1``.
    seed:
        Base seed for the hash family.
    """

    def __init__(
        self,
        width: int = 64 * 1024,
        depth: int = 4,
        counter_bits: int = 16,
        seed: int = 0,
    ):
        if width <= 0 or depth <= 0:
            raise ConfigurationError("width and depth must be positive")
        if not 1 <= counter_bits <= 64:
            raise ConfigurationError("counter_bits must be in [1, 64]")
        self.width = width
        self.depth = depth
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self._hashes = HashFamily(depth, seed=seed)
        self._counts = np.zeros((depth, width), dtype=_counter_dtype(counter_bits))
        #: generation stamp per cell; a cell is live iff its stamp equals
        #: the current epoch, so reset() is O(1) in the sketch width.
        self._stamps = np.full((depth, width), -1, dtype=np.int64)
        self._epoch = 0
        self.total_updates = 0

    @property
    def hash_family(self) -> HashFamily:
        """The row hash family (the digest layer precomputes against it)."""
        return self._hashes

    # -- updates ---------------------------------------------------------

    def update(self, key: bytes, count: int = 1) -> int:
        """Add *count* to the key's counters; return the new estimate.

        This matches the data-plane behaviour where the increment and the
        hot-key comparison happen in the same pipeline pass.
        """
        return self.update_at(self._hashes.indexes(key, self.width), count)

    def update_at(self, indexes: Sequence[int], count: int = 1) -> int:
        """Update by precomputed per-row slot indexes (digest fast path)."""
        epoch = self._epoch
        counts = self._counts
        stamps = self._stamps
        max_count = self.max_count
        estimate = max_count
        for row, idx in enumerate(indexes):
            base = int(counts[row, idx]) if stamps[row, idx] == epoch else 0
            cell = base + count
            if cell > max_count:
                cell = max_count
            counts[row, idx] = cell
            stamps[row, idx] = epoch
            if cell < estimate:
                estimate = cell
        self.total_updates += count
        return estimate

    def update_batch(self, idx_matrix: np.ndarray, count: int = 1) -> np.ndarray:
        """Apply one update per row of ``idx_matrix`` (shape ``n x depth``).

        Returns the ``n`` estimates a sequential scalar loop would produce:
        when a batch hits the same cell repeatedly, each occurrence sees the
        counter *as of its own position* (computed from per-slot occurrence
        ranks), not the batch's final value.  Saturation commutes with
        positive increments, so clipping the running totals reproduces the
        sequential saturating adds exactly.
        """
        idx_matrix = np.asarray(idx_matrix)
        n = idx_matrix.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if count <= 0:
            raise ConfigurationError("count must be positive")
        if self.counter_bits > 62 or count > (1 << 62) // n:
            # Not enough int64 headroom for the vector math: fall back to
            # the (identical) scalar path.
            return np.array([self.update_at(idx_matrix[j], count)
                             for j in range(n)], dtype=np.int64)
        epoch = self._epoch
        max_count = self.max_count
        estimates = np.full(n, max_count, dtype=np.int64)
        positions = np.arange(n, dtype=np.int64)
        scratch = np.empty(n, dtype=np.int64)
        # A stable order is unique, so sorting the cells as uint16 (numpy's
        # stable sort is a radix sort there) gives the int64 sort's order.
        sort_dtype = np.uint16 if self.width <= 1 << 16 else np.int64
        for row in range(self.depth):
            cells = idx_matrix[:, row]
            order = np.argsort(cells.astype(sort_dtype), kind="stable")
            sorted_cells = cells[order]
            counts_row = self._counts[row]
            stamps_row = self._stamps[row]
            base = np.where(stamps_row[sorted_cells] == epoch,
                            counts_row[sorted_cells].astype(np.int64), 0)
            new_group = np.empty(n, dtype=bool)
            new_group[0] = True
            np.not_equal(sorted_cells[1:], sorted_cells[:-1],
                         out=new_group[1:])
            starts = np.flatnonzero(new_group)
            sizes = np.diff(np.append(starts, n))
            # occurrence rank within each slot group, 1-based
            rank = positions - np.repeat(starts, sizes) + 1
            running = np.minimum(max_count, base + rank * count)
            scratch[order] = running
            np.minimum(estimates, scratch, out=estimates)
            last = starts + sizes - 1
            counts_row[sorted_cells[last]] = running[last]
            stamps_row[sorted_cells[last]] = epoch
        self.total_updates += n * count
        return estimates

    def estimate(self, key: bytes) -> int:
        """Return the (over-)estimate of the key's count without updating."""
        return self.estimate_at(self._hashes.indexes(key, self.width))

    def estimate_batch(self, keys: Sequence[bytes]) -> np.ndarray:
        """:meth:`estimate` of every key in *keys*, in the counters' dtype:
        one hash kernel over the row seeds, one epoch-gated gather, the
        minimum over rows."""
        if not len(keys):
            return np.zeros(0, dtype=self._counts.dtype)
        cells = (hash_bytes_batch(keys, self._hashes.seeds)
                 % np.uint64(self.width)).astype(np.int64)
        rows = np.arange(self.depth)[:, None]
        live = self._stamps[rows, cells] == self._epoch
        return np.where(live, self._counts[rows, cells], 0).min(axis=0)

    def estimate_at(self, indexes: Sequence[int]) -> int:
        """Estimate by precomputed per-row slot indexes (digest fast path)."""
        epoch = self._epoch
        counts = self._counts
        stamps = self._stamps
        return min(
            int(counts[row, idx]) if stamps[row, idx] == epoch else 0
            for row, idx in enumerate(indexes)
        )

    def reset(self) -> None:
        """Clear all counters (controller does this every second, §4.4.3).

        O(1): bumps the generation stamp instead of zeroing the arrays.
        """
        self._epoch += 1
        self.total_updates = 0

    # -- introspection ----------------------------------------------------

    @property
    def sram_bytes(self) -> int:
        """SRAM consumed by the sketch's register arrays."""
        return self.depth * self.width * self.counter_bits // 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CountMinSketch(width={self.width}, depth={self.depth}, "
            f"counter_bits={self.counter_bits})"
        )
