"""Server-side idempotency window for retried writes.

A client that retransmits a PUT/DELETE stamps every attempt with the same
idempotency token (the original sequence number).  The shim consults this
window before applying a tokened write:

* unseen            -> apply, remember the reply op (APPLIED)
* QUEUED            -> an earlier attempt is still blocked behind a cache
                       update or insertion; drop the retry (the queued
                       original will be drained and answered)
* APPLIED           -> re-send the remembered reply without re-applying

Entries are keyed ``(client_id, token)`` so tokens from different clients
never collide.  The window is bounded: when full, the oldest APPLIED entry
is evicted first (its effect is durable; forgetting it only risks a
duplicate apply after a pathologically late retry), and QUEUED entries are
only evicted when nothing else remains.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Optional, Tuple

from repro.errors import ConfigurationError


class DedupState(enum.Enum):
    QUEUED = "queued"
    APPLIED = "applied"


class DedupWindow:
    """Bounded exactly-once window over ``(client, token)`` write ids."""

    def __init__(self, capacity: int = 8192):
        if capacity <= 0:
            raise ConfigurationError("dedup window capacity must be positive")
        self.capacity = capacity
        # (client, token) -> (state, reply_op or None); insertion-ordered.
        self._entries: "OrderedDict[Tuple[int, int], Tuple[DedupState, Optional[int]]]" = OrderedDict()
        self.hits = 0          # retries suppressed (either state)
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, client: int, token: int):
        """Return (state, reply_op) or None, counting a hit when found."""
        entry = self._entries.get((client, token))
        if entry is not None:
            self.hits += 1
        return entry

    def note_queued(self, client: int, token: int) -> None:
        self._insert((client, token), DedupState.QUEUED, None)

    def note_applied(self, client: int, token: int, reply_op: int) -> None:
        key = (client, token)
        if key in self._entries:
            # QUEUED -> APPLIED transition keeps the original age.
            self._entries[key] = (DedupState.APPLIED, reply_op)
            return
        self._insert(key, DedupState.APPLIED, reply_op)

    def _insert(self, key, state: DedupState, reply_op) -> None:
        self._entries[key] = (state, reply_op)
        while len(self._entries) > self.capacity:
            self._evict_one()

    def _evict_one(self) -> None:
        victim = None
        for key, (state, _reply) in self._entries.items():
            if state is DedupState.APPLIED:
                victim = key
                break
        if victim is None:  # window entirely QUEUED: drop the oldest anyway
            victim = next(iter(self._entries))
        del self._entries[victim]
        self.evictions += 1
