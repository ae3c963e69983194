"""Client-side retry policy: timeout, exponential backoff, jitter, budget.

The policy is pure configuration plus arithmetic — the client owns the
timers.  Jitter comes from a per-request ``random.Random`` seeded from
``(policy.seed, salt)`` so a given (seed, request) pair always draws the
same delays and chaos runs replay byte-identically.
"""

from __future__ import annotations

import dataclasses
import random

from repro.errors import ConfigurationError


class _TimedOut:
    """Singleton sentinel delivered to callbacks when the retry budget is
    exhausted (or the request is dropped as stale).  Falsy on purpose so
    ``if reply:`` keeps working for callers that only care about success."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "TIMED_OUT"


#: the sentinel passed to request callbacks in place of a reply packet.
TIMED_OUT = _TimedOut()


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Per-request reliability knobs.

    ``timeout`` is the base RTO for attempt 0; attempt *n* waits
    ``timeout * backoff**n``, scaled by a uniform ``1 ± jitter`` factor.
    ``max_retries`` bounds *re*-transmissions: a request is sent at most
    ``1 + max_retries`` times before the callback sees
    :data:`TIMED_OUT`.
    """

    timeout: float = 400e-6
    backoff: float = 2.0
    max_retries: int = 3
    jitter: float = 0.2
    seed: int = 0

    def __post_init__(self):
        # ``not x > 0`` rejects NaN too.
        if not self.timeout > 0:
            raise ConfigurationError("retry timeout must be positive")
        if not self.backoff >= 1.0:
            raise ConfigurationError("retry backoff must be >= 1")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")

    def make_rng(self, salt: int) -> random.Random:
        """Deterministic per-request jitter source."""
        return random.Random((self.seed << 32) ^ salt)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Wait before declaring attempt ``attempt`` (0-based) lost."""
        base = self.timeout * (self.backoff ** attempt)
        if self.jitter == 0.0:
            return base
        return base * (1.0 + rng.uniform(-self.jitter, self.jitter))

    def min_delay(self) -> float:
        """Lower bound on any attempt-0 delay this policy can draw.

        The batched fast path relies on it: no request can time out
        sooner than ``min_delay()`` after it was sent, so a request
        provably answered within that needs no timer, and otherwise lanes
        may run that far ahead before the exact per-request deadline
        (which needs the per-seq RNG) has to be evaluated.
        """
        return self.timeout * (1.0 - self.jitter)
