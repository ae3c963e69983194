"""Bloom filter (Broder & Mitzenmacher 2004).

NetCache places a Bloom filter after the Count-Min sketch so each uncached
hot key is reported to the controller only once per statistics interval
(§4.4.3).  The prototype uses 3 register arrays of 256K 1-bit slots.

Bit state is numpy-backed with an epoch-stamped O(1) reset: a bit is set
iff its generation stamp equals the current epoch, so the per-interval
clear (previously three 256K-iteration Python loops) is a single counter
bump.  Membership behaviour is bit-for-bit identical to the scalar
reference (:class:`repro.sketch.reference.ScalarBloomFilter`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sketch.hashing import HashFamily


class BloomFilter:
    """A classic Bloom filter over byte-string keys.

    Parameters
    ----------
    bits:
        Slots per register array (each array holds one hash function's bits,
        as on the switch where each array is in its own stage).
    num_hashes:
        Number of hash functions / register arrays.
    seed:
        Base seed for the hash family.
    """

    def __init__(self, bits: int = 256 * 1024, num_hashes: int = 3, seed: int = 1):
        if bits <= 0:
            raise ConfigurationError("bits must be positive")
        if num_hashes <= 0:
            raise ConfigurationError("num_hashes must be positive")
        self.bits = bits
        self.num_hashes = num_hashes
        self._hashes = HashFamily(num_hashes, seed=seed)
        #: a bit is set iff its stamp equals the current epoch.
        self._stamps = np.full((num_hashes, bits), -1, dtype=np.int32)
        self._epoch = 0
        self.inserted = 0

    @property
    def hash_family(self) -> HashFamily:
        """The per-array hash family (the digest layer precomputes bits)."""
        return self._hashes

    def _positions(self, key: bytes) -> Sequence[int]:
        return self._hashes.indexes(key, self.bits)

    def add(self, key: bytes) -> bool:
        """Insert *key*; return True if it was (probably) already present.

        The switch performs test-and-set in one pass: each register array
        reads the old bit and writes 1.  The key was present iff every old
        bit was already set.
        """
        return self.add_at(self._positions(key))

    def add_at(self, positions: Sequence[int]) -> bool:
        """Test-and-set by precomputed bit positions (digest fast path)."""
        epoch = self._epoch
        stamps = self._stamps
        present = True
        for row, idx in enumerate(positions):
            if stamps[row, idx] != epoch:
                present = False
                stamps[row, idx] = epoch
        if not present:
            self.inserted += 1
        return present

    def add_at_batch(self, positions: np.ndarray) -> np.ndarray:
        """:meth:`add_at` for each row of an ``(n, num_hashes)`` position
        matrix, in order; returns the ``n`` "already present" verdicts.

        Bits are only ever set between resets, so a row whose bits are all
        set when the batch starts is present whatever precedes it, and
        :meth:`add_at` would leave the filter as it is: one vectorised
        read settles those rows, and the sequential test-and-set runs
        over the rest.
        """
        present = (self._stamps[np.arange(self.num_hashes), positions]
                   == self._epoch).all(axis=1)
        for j in np.flatnonzero(~present).tolist():
            present[j] = self.add_at(positions[j].tolist())
        return present

    def contains(self, key: bytes) -> bool:
        """Membership test without inserting."""
        return self.contains_at(self._positions(key))

    def contains_at(self, positions: Sequence[int]) -> bool:
        """Membership test by precomputed bit positions."""
        epoch = self._epoch
        stamps = self._stamps
        return all(stamps[row, idx] == epoch
                   for row, idx in enumerate(positions))

    def reset(self) -> None:
        """Clear all bits (done at every statistics reset).  O(1): bumps
        the generation stamp instead of zeroing the arrays."""
        self._epoch += 1
        self.inserted = 0

    @property
    def sram_bytes(self) -> int:
        """SRAM consumed by the filter (1 bit per slot)."""
        return self.num_hashes * self.bits // 8
