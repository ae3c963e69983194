"""Heartbeat-based failure detector the controller runs over servers.

Each ``poll(now)`` is one heartbeat round: the controller probes every
server (in the simulation a probe is "is the node reachable", standing in
for an RPC ping) and counts consecutive misses.  ``threshold`` consecutive
misses declare the server dead; one successful probe revives it.  The
detector records declared-dead -> revived latency so failover time is
measurable, and keeps an append-only event log for reports and tests.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class HealthEvent:
    """One detector state transition."""

    at: float
    server: int
    alive: bool  # False = declared dead, True = declared recovered


class FailureDetector:
    """Consecutive-miss heartbeat detector over a fixed server set."""

    def __init__(self, server_ids: Sequence[int],
                 probe: Callable[[int], bool],
                 threshold: int = 3):
        if threshold <= 0:
            raise ConfigurationError("failure threshold must be positive")
        self._probe = probe
        self.threshold = threshold
        self._misses: Dict[int, int] = {sid: 0 for sid in server_ids}
        self._dead: Dict[int, float] = {}  # server -> declared-dead time
        self.events: List[HealthEvent] = []
        self.deaths = 0
        self.recoveries = 0
        self.failover_latencies: List[float] = []

    @property
    def servers(self) -> List[int]:
        return list(self._misses)

    def is_alive(self, server: int) -> bool:
        return server not in self._dead

    def poll(self, now: float) -> List[HealthEvent]:
        """Run one heartbeat round; returns the transitions it caused."""
        transitions: List[HealthEvent] = []
        for sid in self._misses:
            if self._probe(sid):
                self._misses[sid] = 0
                died_at = self._dead.pop(sid, None)
                if died_at is not None:
                    self.recoveries += 1
                    self.failover_latencies.append(now - died_at)
                    transitions.append(HealthEvent(now, sid, alive=True))
            else:
                self._misses[sid] += 1
                if (sid not in self._dead
                        and self._misses[sid] >= self.threshold):
                    self._dead[sid] = now
                    self.deaths += 1
                    transitions.append(HealthEvent(now, sid, alive=False))
        self.events.extend(transitions)
        return transitions
