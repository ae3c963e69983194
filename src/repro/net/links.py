"""Point-to-point links with latency, optional rate limits, and fault
injection.

A :class:`Link` connects exactly two endpoints.  Delivery applies propagation
latency plus (if a rate is configured) store-and-forward serialization with a
FIFO; a seeded loss process supports the paper's reliability mechanisms
(e.g. the retry loop for switch cache updates, §4.3).

Beyond the steady-state i.i.d. loss process, a link exposes the fault
surface used by :mod:`repro.faults`: it can be taken down entirely
(partition), given a bounded-time loss burst, or made to duplicate and
reorder deliveries.  All fault randomness comes from the link's own seeded
RNG, so a run replays identically for a given seed.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.errors import ConfigurationError


class Link:
    """A bidirectional link between two node ids.

    Parameters
    ----------
    a, b:
        Endpoint node ids.
    latency:
        One-way propagation delay in seconds.
    rate_pps:
        Optional packet-rate limit (packets/second).  When set, packets
        serialize: each transmission occupies ``1/rate_pps`` seconds per
        direction.
    loss_prob:
        Probability a transmission is silently dropped.
    seed:
        Seed for the loss/fault process (deterministic runs).
    """

    def __init__(self, a: int, b: int, latency: float = 2e-6,
                 rate_pps: Optional[float] = None, loss_prob: float = 0.0,
                 seed: int = 0):
        if a == b:
            raise ConfigurationError("link endpoints must differ")
        if not latency >= 0:   # NaN too
            raise ConfigurationError("latency must be non-negative")
        if rate_pps is not None and rate_pps <= 0:
            raise ConfigurationError("rate_pps must be positive")
        self.a = a
        self.b = b
        self.latency = latency
        self.rate_pps = rate_pps
        self.loss_prob = self._validate_loss_prob(loss_prob)
        self._rng = random.Random(seed ^ (a * 0x9E37 + b))
        # Next free transmission slot per direction, keyed by source id.
        self._next_free = {a: 0.0, b: 0.0}
        # -- fault-injection state (see repro.faults) ----------------------
        #: False while the link is partitioned; every transmission drops.
        self.up = True
        self._burst_prob = 0.0
        self._burst_until = 0.0
        #: probability a delivered packet is duplicated once.
        self.dup_prob = 0.0
        #: probability a delivery picks up extra (reordering) delay.
        self.reorder_prob = 0.0
        #: maximum extra delay a reordered delivery may pick up.
        self.reorder_window = 0.0
        #: observer called as fn(link, now) whenever a transmission drops;
        #: the owning simulator registers itself here so per-link drops
        #: also reach the global counters.
        self.on_drop: Optional[Callable[["Link", float], None]] = None
        self.transmitted = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0

    @staticmethod
    def _validate_loss_prob(prob: float) -> float:
        """Single validation point for every loss knob: [0, 1), exclusive of
        1.0 (total loss is a partition, expressed via :meth:`take_down`)."""
        if not 0.0 <= prob < 1.0:
            raise ConfigurationError("loss_prob must be in [0, 1)")
        return prob

    def other(self, node: int) -> int:
        """Return the endpoint opposite *node*."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ConfigurationError(f"node {node} is not on this link")

    # -- fault-injection controls (driven by repro.faults) --------------------

    def take_down(self) -> None:
        """Partition the link: every transmission drops until healed."""
        self.up = False

    def bring_up(self) -> None:
        """Heal a partitioned link."""
        self.up = True

    def start_loss_burst(self, prob: float, until: float) -> None:
        """Add a correlated loss burst of probability *prob* lasting until
        simulated time *until* (combined with the steady-state loss)."""
        self._validate_loss_prob(prob)
        self._burst_prob = prob
        self._burst_until = until

    def set_duplication(self, prob: float) -> None:
        """Duplicate deliveries with probability *prob* (0 disables)."""
        self.dup_prob = self._validate_loss_prob(prob)

    def set_reordering(self, prob: float,
                       window: Optional[float] = None) -> None:
        """Give deliveries extra delay with probability *prob*; the delay is
        uniform in [0, *window*] (default: 8x the propagation latency)."""
        self.reorder_prob = self._validate_loss_prob(prob)
        if window is not None and window < 0:
            raise ConfigurationError("reorder window must be non-negative")
        self.reorder_window = (window if window is not None
                               else 8 * self.latency)

    def is_clean(self, now: float) -> bool:
        """True when every transmission at *now* is a deterministic single
        delivery after exactly ``latency`` seconds, consuming no RNG.

        The batched fast path may only carry traffic over clean links: any
        loss, duplication, reordering, serialization, or partition means
        per-packet RNG draws (or per-packet queueing state) whose order the
        scalar reference defines, so such windows fall back to the event
        loop.  Faults only change through scheduled events, so cleanliness
        can be checked once per flush window.
        """
        return (self.up
                and self.loss_prob == 0.0
                and (self._burst_prob == 0.0 or now >= self._burst_until)
                and self.dup_prob == 0.0
                and self.reorder_prob == 0.0
                and self.rate_pps is None)

    def effective_loss(self, now: float) -> float:
        """Loss probability in force at time *now* (base + active burst)."""
        burst = self._burst_prob if now < self._burst_until else 0.0
        return 1.0 - (1.0 - self.loss_prob) * (1.0 - burst)

    def _record_drop(self, now: float) -> None:
        self.dropped += 1
        if self.on_drop is not None:
            self.on_drop(self, now)

    # -- transmission ---------------------------------------------------------

    def delivery_plan(self, src: int, now: float) -> List[float]:
        """Delays (from *now*) of every copy to deliver; empty if dropped.

        Advances the per-direction serialization clock, so calling this is a
        transmission attempt, not a pure query.  Duplication yields a second
        entry; reordering inflates delays.
        """
        if not self.up:
            self._record_drop(now)
            return []
        loss = self.effective_loss(now)
        if loss and self._rng.random() < loss:
            self._record_drop(now)
            return []
        delay = self.latency
        if self.rate_pps is not None:
            slot = max(self._next_free[src], now)
            service = 1.0 / self.rate_pps
            self._next_free[src] = slot + service
            delay = (slot - now) + service + self.latency
        if self.reorder_prob and self._rng.random() < self.reorder_prob:
            delay += self._rng.uniform(0.0, self.reorder_window)
            self.reordered += 1
        self.transmitted += 1
        copies = [delay]
        if self.dup_prob and self._rng.random() < self.dup_prob:
            self.duplicated += 1
            copies.append(delay + max(self.latency, 1e-9))
        return copies

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "" if self.up else ", DOWN"
        return f"Link({self.a}<->{self.b}, {self.latency*1e6:.1f}us{state})"
