"""Deterministic seeded hash functions.

The Tofino ASIC provides hardware hash units that compute "random XORing of
bits of the key field" (§6).  We substitute a software mixer in the spirit of
xxHash/splitmix64: fast, deterministic, and with independent streams selected
by seed.  All sketch and partitioning code in the library routes through this
module so experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

_MASK64 = (1 << 64) - 1

# splitmix64 constants
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer."""
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def hash_bytes(data: bytes, seed: int = 0) -> int:
    """Hash *data* to a 64-bit integer using stream *seed*.

    Independent seeds give (empirically) independent hash functions, which is
    what the Count-Min sketch analysis requires.
    """
    h = _splitmix64(seed ^ (len(data) * _GAMMA & _MASK64))
    # Consume 8-byte words.
    n = len(data)
    i = 0
    while i + 8 <= n:
        word = int.from_bytes(data[i : i + 8], "little")
        h = _splitmix64(h ^ word)
        i += 8
    if i < n:
        tail = int.from_bytes(data[i:], "little")
        h = _splitmix64(h ^ tail)
    return h


def _splitmix64_inplace(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` over a ``uint64`` array, which wraps as the
    scalar masks; *x* is overwritten."""
    x += _GAMMA
    x ^= x >> 30
    x *= _MIX1
    x ^= x >> 27
    x *= _MIX2
    x ^= x >> 31
    return x


def _word_matrix(keys: Sequence[bytes], length: int) -> np.ndarray:
    """Keys of one *length* as an ``(n, ceil(length / 8))`` matrix of
    little-endian ``uint64`` words, the last one zero-padded — which is
    the integer :func:`hash_bytes` reads from a short tail."""
    words = -(-length // 8)
    # A fixed-width bytes array pads with zeros; "S0" would mean "any
    # width", so empty keys are laid out as one word and none is kept.
    raw = np.array(keys, dtype=f"S{8 * max(words, 1)}")
    return raw.view("<u8").reshape(len(keys), -1)[:, :words]


def _hash_same_length(keys: Sequence[bytes], length: int,
                      seeds: np.ndarray) -> np.ndarray:
    h = np.empty((seeds.shape[0], len(keys)), dtype=np.uint64)
    h[...] = _splitmix64_inplace(
        seeds ^ np.uint64(length * _GAMMA & _MASK64))
    for word in _word_matrix(keys, length).T:
        h ^= word
        _splitmix64_inplace(h)
    return h


def hash_bytes_batch(keys: Sequence[bytes], seeds) -> np.ndarray:
    """``hash_bytes(key, seed)`` for every (seed, key) pair at once.

    *seeds* is a sequence of S stream seeds shared by all keys, and the
    result is the ``(S, len(keys))`` ``uint64`` matrix of their hashes;
    or it is an ``(S, len(keys))`` ``uint64`` array that gives each key
    its own seed per stream (the per-shard slot hash is one such row).
    All streams advance together, one splitmix64 round per key word over
    the whole matrix, the way the switch evaluates its hash units in
    parallel on one packet (Fig 7); keys of different lengths are hashed
    one length at a time.
    """
    if not isinstance(seeds, np.ndarray):
        seeds = np.array([s & _MASK64 for s in seeds], dtype=np.uint64)
    if seeds.ndim == 1:
        seeds = seeds[:, None]
    if not len(keys):
        return np.empty((seeds.shape[0], 0), dtype=np.uint64)
    if len(set(map(len, keys))) == 1:
        return _hash_same_length(keys, len(keys[0]), seeds)
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
    out = np.empty((seeds.shape[0], len(keys)), dtype=np.uint64)
    for length in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == length)
        out[:, group] = _hash_same_length(
            [keys[i] for i in group.tolist()], length,
            seeds if seeds.shape[1] == 1 else seeds[:, group])
    return out


class HashFamily:
    """A family of independent hash functions indexed by row.

    Used by the Count-Min sketch (4 rows) and Bloom filter (3 hashes).  Each
    row *i* of a family with base seed ``s`` uses stream ``splitmix64(s + i)``
    so distinct families never share streams.
    """

    def __init__(self, num_hashes: int, seed: int = 0):
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_hashes = num_hashes
        self.seed = seed
        self._seeds: List[int] = [_splitmix64(seed + i) for i in range(num_hashes)]

    @property
    def seeds(self) -> Tuple[int, ...]:
        """Per-row stream seeds (the digest layer precomputes with these)."""
        return tuple(self._seeds)

    def indexes(self, key: bytes, modulus: int) -> List[int]:
        """Return one index in ``[0, modulus)`` per hash function."""
        return [hash_bytes(key, s) % modulus for s in self._seeds]

    def index(self, row: int, key: bytes, modulus: int) -> int:
        """Return the index for a single *row* of the family."""
        return hash_bytes(key, self._seeds[row]) % modulus

    def __len__(self) -> int:
        return self.num_hashes
