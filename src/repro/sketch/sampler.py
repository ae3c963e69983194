"""Query sampler.

NetCache places a sampling component in front of the statistics module
(§4.4.3): only sampled queries update the per-key counters and the Count-Min
sketch.  Sampling acts as a high-pass filter, letting small (16-bit) counters
survive high line rates, and its rate is configurable by the controller.

The switch samples by comparing a hardware RNG against a threshold; we draw
from a seeded pseudorandom stream so experiments are reproducible.
:meth:`PacketSampler.sample_batch` decides a whole key batch at once and
draws the stream exactly as the per-key :meth:`PacketSampler.sample` would:
once per observed query, in order.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


class PacketSampler:
    """Seeded Bernoulli sampler with a controller-configurable rate."""

    def __init__(self, rate: float = 1.0, seed: int = 7):
        self._rng = random.Random(seed)
        self.set_rate(rate)
        self.observed = 0
        self.sampled = 0

    def set_rate(self, rate: float) -> None:
        """Set the sampling probability (controller API)."""
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError("sample rate must be in [0, 1]")
        self.rate = rate

    def sample(self, key: bytes) -> bool:
        """Return True if this query should be counted by the statistics."""
        self.observed += 1
        if self.rate >= 1.0:
            self.sampled += 1
            return True
        if self.rate <= 0.0:
            return False
        hit = self._rng.random() < self.rate
        if hit:
            self.sampled += 1
        return hit

    def sample_batch(self, keys: Sequence[bytes]) -> np.ndarray:
        """Decide a whole batch; returns a boolean mask aligned with *keys*.

        Identical to calling :meth:`sample` per key in order: the RNG is
        drawn sequentially, once per key.
        """
        n = len(keys)
        self.observed += n
        if self.rate >= 1.0:
            self.sampled += n
            return np.ones(n, dtype=bool)
        if self.rate <= 0.0 or n == 0:
            return np.zeros(n, dtype=bool)
        rng_random = self._rng.random
        rate = self.rate
        hits = np.fromiter((rng_random() < rate for _ in range(n)),
                           dtype=bool, count=n)
        self.sampled += int(np.count_nonzero(hits))
        return hits

    def reset_stats(self) -> None:
        """Zero the observed/sampled counters (not the rate)."""
        self.observed = 0
        self.sampled = 0
