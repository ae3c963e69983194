"""Runtime coherence monitor.

NetCache's correctness claim (§4.3) is that the switch never serves a stale
value: a write invalidates the cached copy before reaching the server, and
the copy only revalidates with the new value.  This monitor checks that
claim *from the outside*: it observes packet deliveries on a simulator and
verifies every read reply against the history of committed writes —
flagging any reply that returns a value older than what had already been
committed when the read was issued.

Allowed values for a read issued at t_req and answered at t_rep:

* the newest value committed at or before t_req (the linearization floor);
* any value committed in (t_req, t_rep] (the read may linearize anywhere
  in flight);
* any write in flight (issued, not yet acknowledged) during that window;
* for keys never written during the run, anything (the preload is unknown
  to the monitor).

Violations are collected, not raised, so tests can assert emptiness and
debugging sessions can inspect them.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.net.protocol import Op
from repro.net.simulator import DeliveryObserver, Simulator

#: sentinel distinguishing "key deleted" from "no value".
_DELETED = object()

_GET = int(Op.GET)
_GET_REPLY = int(Op.GET_REPLY)
_PUTS = (int(Op.PUT), int(Op.PUT_CACHED))
_DELETES = (int(Op.DELETE), int(Op.DELETE_CACHED))
_WRITE_REPLIES = (int(Op.PUT_REPLY), int(Op.DELETE_REPLY))


@dataclasses.dataclass
class Violation:
    """One observed staleness violation."""

    key: bytes
    seq: int
    time: float
    got: Optional[bytes]
    allowed: List
    served_by_cache: bool

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (f"stale read of {self.key!r} (seq {self.seq}) at "
                f"{self.time * 1e6:.1f}us: got {self.got!r}")


class _KeyHistory:
    __slots__ = ("commits", "commit_times", "in_flight", "written",
                 "committed", "applied_at")

    def __init__(self):
        #: (commit_time, value-or-_DELETED), ascending by time.
        self.commits: List[Tuple[float, object]] = []
        #: the commit times alone, in the same order (bisect keys).
        self.commit_times: List[float] = []
        #: client seq -> value of an unacknowledged write.
        self.in_flight: Dict[Tuple[int, int], object] = {}
        self.written = False
        #: tags whose write already committed — a late retransmission of
        #: the same write (client retry) must not re-enter in_flight, and
        #: its dedup-resent reply must not append a second, later commit
        #: that would mask newer values.
        self.committed = set()
        #: tag -> time of the first delivery to the packet's final
        #: destination: the server's apply moment.  Reply delivery time is
        #: a poor commit estimate under retries — a lost reply resurfaces
        #: much later as a dedup replay, misordering concurrent writes.
        self.applied_at: Dict[Tuple[int, int], float] = {}

    def committed_at(self, t: float):
        """Newest committed value at time *t* (None if none yet)."""
        i = bisect.bisect_right(self.commit_times, t)
        return self.commits[i - 1] if i else None

    def commit(self, t: float, value) -> None:
        """Record a commit at *t*, after any commit at the same time."""
        i = bisect.bisect_right(self.commit_times, t)
        self.commits.insert(i, (t, value))
        self.commit_times.insert(i, t)


class CoherenceMonitor(DeliveryObserver):
    """Attach to a simulator; inspect ``violations`` afterwards.

    The monitor is its own delivery hook, batch-capable: the batched
    engine feeds it rows without leaving its lanes.
    """

    def __init__(self, sim: Simulator):
        self._histories: Dict[bytes, _KeyHistory] = {}
        self._reads: Dict[Tuple[int, int], float] = {}
        self._reads_done: set = set()
        self.violations: List[Violation] = []
        self.reads_checked = 0
        self.writes_seen = 0
        sim.delivery_hooks.append(self)

    def _history(self, key: bytes) -> _KeyHistory:
        hist = self._histories.get(key)
        if hist is None:
            hist = self._histories[key] = _KeyHistory()
        return hist

    # -- observation -----------------------------------------------------------

    def observe(self, time, src, dst, op, seq, client, server, key, value,
                cached) -> None:
        if op == _GET:
            # First hop of a read: remember when it entered the network.
            # Checked reads stay checked — a late retransmission must not
            # re-arm the tag with a later issue time.
            tag = (client, seq)
            if tag not in self._reads_done:
                self._reads.setdefault(tag, time)
        elif op in _PUTS or op in _DELETES:
            tag = (client, seq)
            hist = self._history(key)
            if tag not in hist.in_flight and tag not in hist.committed:
                hist.in_flight[tag] = value if op in _PUTS else _DELETED
                hist.written = True
                self.writes_seen += 1
            self._note_apply(hist, tag, time, dst == server)
        elif op in _WRITE_REPLIES:
            # Replies are delivered hop by hop; popping the in-flight entry
            # makes later hops (and dedup-replayed replies) no-ops.
            tag = (client, seq)
            hist = self._history(key)
            value = hist.in_flight.pop(tag, None)
            if value is not None:
                hist.committed.add(tag)
                # Commit at the apply moment when we saw it; the reply only
                # confirms it happened.  (Apply-ordering matters: a retried
                # older write can legally land after a concurrent newer
                # one, and its replayed reply arrives later still.)
                hist.commit(hist.applied_at.pop(tag, time), value)
        elif op == _GET_REPLY:
            self._check_read(time, client, seq, key, value, cached)

    @staticmethod
    def _note_apply(hist: _KeyHistory, tag: Tuple[int, int], time: float,
                    at_server: bool) -> None:
        """Record when a write first reached its final destination — the
        server applies it then (retransmissions deduplicate, so later
        arrivals are no-ops)."""
        if at_server and tag not in hist.applied_at \
                and tag not in hist.committed:
            hist.applied_at[tag] = time

    # -- the invariant -----------------------------------------------------------

    def _check_read(self, t_rep: float, client: int, seq: int, key: bytes,
                    value: Optional[bytes], cached: bool) -> None:
        hist = self._histories.get(key)
        if hist is None or not hist.written:
            return  # never written during the run: preload values are fine
        t_req = self._reads.pop((client, seq), None)
        if t_req is None:
            return  # already checked on an earlier hop of this reply
        self._reads_done.add((client, seq))
        self.reads_checked += 1

        allowed: List = []
        floor = hist.committed_at(t_req)
        if floor is None:
            # No commit before the read was issued: the preload value (any
            # value) is still linearizable.
            return
        allowed.append(floor[1])
        # The read may linearize at any commit in (t_req, t_rep].
        times = hist.commit_times
        lo = bisect.bisect_right(times, t_req)
        hi = bisect.bisect_right(times, t_rep)
        allowed.extend(v for _, v in hist.commits[lo:hi])
        allowed.extend(hist.in_flight.values())

        got = _DELETED if value is None else value
        # A None value is also fine if an in-flight/windowed delete exists;
        # symmetric for values.
        if got in allowed or (got is _DELETED and _DELETED in allowed):
            return
        self.violations.append(Violation(
            key=key, seq=seq, time=t_rep,
            got=None if got is _DELETED else got,
            allowed=[v for v in allowed if v is not _DELETED],
            served_by_cache=cached,
        ))

    @property
    def clean(self) -> bool:
        return not self.violations
