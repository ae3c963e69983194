"""Zipf workload generation (§7.1 "Workloads").

The paper's clients generate Zipf-distributed queries with "approximation
techniques to quickly generate queries" (Gray et al. 1994).  We precompute
the normalized rank probabilities once and then draw batches by inverse-CDF
lookup (binary search over the cumulative distribution), which is both exact
and fast with numpy.

Skewness parameters follow the paper: 0.9, 0.95, 0.99; ``uniform`` is the
degenerate case.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


class ZipfDistribution:
    """Probabilities of ranks 1..n under Zipf with exponent *s*.

    ``s == 0`` gives the uniform distribution.
    """

    def __init__(self, num_items: int, skew: float):
        if num_items <= 0:
            raise ConfigurationError("num_items must be positive")
        if skew < 0:
            raise ConfigurationError("skew must be non-negative")
        self.num_items = num_items
        self.skew = skew
        ranks = np.arange(1, num_items + 1, dtype=np.float64)
        weights = ranks ** (-skew) if skew > 0 else np.ones_like(ranks)
        self.probs = weights / weights.sum()
        self._cdf = np.cumsum(self.probs)
        # Guard against floating-point drift in searchsorted.
        self._cdf[-1] = 1.0

    def sample_ranks(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw *count* ranks (0-based) by inverse-CDF lookup."""
        u = rng.random(count)
        return np.searchsorted(self._cdf, u, side="left")


class ZipfGenerator:
    """Seeded stream of 0-based ranks under a Zipf distribution."""

    def __init__(self, num_items: int, skew: float, seed: int = 0,
                 batch: int = 4096):
        self.dist = ZipfDistribution(num_items, skew)
        self._rng = np.random.default_rng(seed)
        self._batch_size = batch
        self._buffer: Optional[np.ndarray] = None
        self._pos = 0

    def next_rank(self) -> int:
        """Return the next sampled rank."""
        if self._buffer is None or self._pos >= len(self._buffer):
            self._buffer = self.dist.sample_ranks(self._batch_size, self._rng)
            self._pos = 0
        rank = int(self._buffer[self._pos])
        self._pos += 1
        return rank

    def next_ranks(self, count: int) -> np.ndarray:
        """Return the next *count* ranks as an array.

        Consumes the refill buffer exactly like *count* calls to
        :meth:`next_rank` — same values, same RNG draws, same buffer state
        afterwards — so the batched fast path and the scalar loop stay on
        one stream.
        """
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._buffer is None or self._pos >= len(self._buffer):
                self._buffer = self.dist.sample_ranks(self._batch_size,
                                                      self._rng)
                self._pos = 0
            take = min(count - filled, len(self._buffer) - self._pos)
            out[filled:filled + take] = \
                self._buffer[self._pos:self._pos + take]
            self._pos += take
            filled += take
        return out

    def sample(self, count: int) -> np.ndarray:
        """Return *count* ranks as an array (bypasses the buffer)."""
        return self.dist.sample_ranks(count, self._rng)


class KeySpace:
    """Deterministic mapping between item ids and 16-byte keys.

    Keys are ``b'k' + 15-digit decimal id`` so they are printable in traces
    and trivially invertible in tests.  The bulk forms work on arrays:
    :meth:`keys` gathers from one key table (16 bytes a key, built on first
    use) and :meth:`items` parses keys back; both refuse ids outside the
    key space.
    """

    PREFIX = b"k"
    #: place value of each of a key's 15 digits, most significant first.
    _PLACES = 10 ** np.arange(14, -1, -1, dtype=np.int64)

    def __init__(self, num_keys: int):
        if num_keys <= 0:
            raise ConfigurationError("num_keys must be positive")
        if num_keys >= 10 ** 15:
            raise ConfigurationError("key space too large for the encoding")
        self.num_keys = num_keys
        self._table: Optional[np.ndarray] = None

    def key(self, item: int) -> bytes:
        if not 0 <= item < self.num_keys:
            raise ConfigurationError(f"item {item} outside key space")
        return self.PREFIX + str(item).zfill(15).encode()

    def item(self, key: bytes) -> int:
        if len(key) != 16 or not key.startswith(self.PREFIX):
            raise ConfigurationError(f"not a keyspace key: {key!r}")
        return int(key[1:])

    def find(self, key: bytes) -> Optional[int]:
        """The id of *key*, or None when it is not a key of this space
        (:meth:`item` without the error)."""
        body = key[1:]
        if len(key) != 16 or key[:1] != self.PREFIX or not body.isdigit():
            return None
        item = int(body)
        return item if item < self.num_keys else None

    def keys(self, items) -> list:
        """:meth:`key` of every id in *items* (an array or any iterable)."""
        ids = (items if isinstance(items, np.ndarray)
               else np.fromiter(items, dtype=np.int64))
        self._check(ids)
        return self._key_table()[ids].tolist()

    def items(self, keys) -> np.ndarray:
        """:meth:`item` of every key in *keys* (any iterable), parsed in
        bulk.  Refuses what :meth:`item` refuses, a body that is not 15
        decimal digits, and an id outside the key space."""
        keys = list(keys)
        if not keys:
            return np.empty(0, dtype=np.int64)
        if set(map(len, keys)) != {16}:
            bad = next(key for key in keys if len(key) != 16)
            raise ConfigurationError(f"not a keyspace key: {bad!r}")
        rows = np.array(keys, dtype="S16").view(np.uint8).reshape(-1, 16)
        digits = rows[:, 1:] - np.uint8(ord("0"))     # wraps below "0"
        ok = (rows[:, 0] == self.PREFIX[0]) & (digits <= 9).all(axis=1)
        if not ok.all():
            raise ConfigurationError(
                f"not a keyspace key: {keys[int(ok.argmin())]!r}")
        ids = digits.astype(np.int64) @ self._PLACES
        self._check(ids)
        return ids

    def _check(self, ids: np.ndarray) -> None:
        outside = (ids < 0) | (ids >= self.num_keys)
        if outside.any():
            raise ConfigurationError(
                f"item {ids[outside][0]} outside key space")

    def _key_table(self) -> np.ndarray:
        """Every key of the space, as one ``S16`` array indexed by id."""
        if self._table is None:
            table = np.empty((self.num_keys, 16), dtype=np.uint8)
            table[:, 0] = self.PREFIX[0]
            rest = np.arange(self.num_keys, dtype=np.int64)
            for column in range(15, 0, -1):
                table[:, column] = rest % 10 + ord("0")
                rest //= 10
            self._table = table.view("S16").ravel()
        return self._table
