"""Query sampler.

NetCache places a sampling component in front of the statistics module
(§4.4.3): only sampled queries update the per-key counters and the Count-Min
sketch.  Sampling acts as a high-pass filter, letting small (16-bit) counters
survive high line rates, and its rate is configurable by the controller.

The switch implementation would sample by comparing a hardware RNG against a
threshold; we use a deterministic counter-based or seeded-pseudorandom
strategy so experiments are reproducible.

The hot path can pass a precomputed (digest-interned) key hash to
:meth:`PacketSampler.sample`, and :meth:`PacketSampler.sample_batch` decides
a whole key batch at once.  Both produce exactly the decisions the scalar
per-key path would: hash mode compares the same hashes against the same
threshold, and random mode draws the underlying RNG once per observed
query, in order.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sketch.hashing import hash_bytes, hash_bytes_batch

#: epoch-mixing constant of hash mode: the key hash at epoch ``e`` is
#: seeded with ``seed ^ (e * SAMPLER_EPOCH_GAMMA)``.
SAMPLER_EPOCH_GAMMA = 0x9E37


class PacketSampler:
    """Bernoulli sampler with a controller-configurable rate.

    Two modes are provided:

    * ``mode="random"`` — seeded pseudorandom Bernoulli trials, matching a
      hardware RNG.
    * ``mode="hash"`` — sample based on a hash of (key, epoch).  This is
      deterministic per key per epoch, which makes the statistics module's
      behaviour reproducible under test while remaining unbiased across keys.
    """

    def __init__(self, rate: float = 1.0, seed: int = 7, mode: str = "random"):
        if mode not in ("random", "hash"):
            raise ConfigurationError(f"unknown sampler mode: {mode!r}")
        self.mode = mode
        self._rng = random.Random(seed)
        self._seed = seed
        self._epoch = 0
        self.set_rate(rate)
        self.observed = 0
        self.sampled = 0

    @property
    def hash_seed(self) -> int:
        """Base seed of hash mode (the digest layer derives epoch seeds)."""
        return self._seed

    @property
    def epoch(self) -> int:
        """Current hash-mode epoch (advanced on statistics reset)."""
        return self._epoch

    def set_rate(self, rate: float) -> None:
        """Set the sampling probability (controller API)."""
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError("sample rate must be in [0, 1]")
        self.rate = rate
        # Precompute the 64-bit threshold for hash mode.
        self._threshold = int(rate * float(1 << 64))

    def advance_epoch(self) -> None:
        """Advance the hash-mode epoch (called on statistics reset)."""
        self._epoch += 1

    def _epoch_seed(self) -> int:
        return self._seed ^ (self._epoch * SAMPLER_EPOCH_GAMMA)

    def key_hash(self, key: bytes) -> int:
        """The hash-mode decision hash of *key* at the current epoch."""
        return hash_bytes(key, self._epoch_seed())

    def sample(self, key: bytes, h: Optional[int] = None) -> bool:
        """Return True if this query should be counted by the statistics.

        *h* may carry a precomputed :meth:`key_hash` (digest fast path);
        it is only consulted in hash mode at fractional rates.
        """
        self.observed += 1
        if self.rate >= 1.0:
            self.sampled += 1
            return True
        if self.rate <= 0.0:
            return False
        if self.mode == "random":
            hit = self._rng.random() < self.rate
        else:
            if h is None:
                h = self.key_hash(key)
            hit = h < self._threshold
        if hit:
            self.sampled += 1
        return hit

    def sample_batch(self, keys: Sequence[bytes],
                     hashes: Optional[np.ndarray] = None) -> np.ndarray:
        """Decide a whole batch; returns a boolean mask aligned with *keys*.

        Identical to calling :meth:`sample` per key in order: random mode
        draws the RNG sequentially, hash mode compares (optionally
        precomputed) per-key hashes against the threshold.
        """
        n = len(keys)
        self.observed += n
        if self.rate >= 1.0:
            self.sampled += n
            return np.ones(n, dtype=bool)
        if self.rate <= 0.0 or n == 0:
            return np.zeros(n, dtype=bool)
        if self.mode == "random":
            rng_random = self._rng.random
            rate = self.rate
            hits = np.fromiter((rng_random() < rate for _ in range(n)),
                               dtype=bool, count=n)
        else:
            if hashes is None:
                hashes = hash_bytes_batch(keys, (self._epoch_seed(),))[0]
            hits = hashes < np.uint64(self._threshold)
        self.sampled += int(np.count_nonzero(hits))
        return hits

    def reset_stats(self) -> None:
        """Zero the observed/sampled counters (not the rate)."""
        self.observed = 0
        self.sampled = 0
