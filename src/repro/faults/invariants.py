"""Continuous invariant checking for chaos runs.

The checkers watch a live rack and record (never raise) violations of
NetCache's core guarantees:

* :class:`StaleReadInvariant` — no read reply carries a value older than
  what was committed when the read was issued (§4.3 write-through
  coherence), via the packet-level
  :class:`~repro.analysis.coherence.CoherenceMonitor`;
* :class:`PendingWriteInvariant` — the shim's write blocking is
  structurally sound: blocked queries sit under the key that blocks them,
  are all writes, and retry budgets are respected; after quiesce nothing
  remains pending or blocked;
* :class:`AgreementInvariant` — once traffic has drained, every *valid*
  cached value equals the owning server's stored value;
* :class:`CounterMonotonicityInvariant` — a cached key's hit counter never
  decreases between statistics resets (§4.4.3);
* :class:`ExactlyOnceInvariant` — a retried (tokened) write applies to the
  store exactly once, however many times the client retransmits it;
* :class:`WriteDurabilityInvariant` — no acknowledged write is lost: after
  quiesce every stored value is explained by the key's write history.

A :class:`InvariantSuite` drives periodic ``on_tick`` checks from the
simulator clock and one final ``on_quiesce`` pass after the run settles.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.coherence import CoherenceMonitor
from repro.errors import ConfigurationError
from repro.net.protocol import Op
from repro.net.simulator import DeliveryObserver

#: ops legal in a shim blocking queue.
_WRITE_OPS = (Op.PUT, Op.PUT_CACHED, Op.DELETE, Op.DELETE_CACHED)
_PUTS = (Op.PUT, Op.PUT_CACHED)
_WRITE_REPLIES = (Op.PUT_REPLY, Op.DELETE_REPLY)


@dataclasses.dataclass
class InvariantViolation:
    """One recorded guarantee breach."""

    time: float
    invariant: str
    detail: str

    def describe(self) -> str:
        return f"t={self.time:.9f} {self.invariant}: {self.detail}"


Report = Callable[[float, str, str], None]


class InvariantChecker:
    """Base: bind to a cluster, then get ticked and finally quiesced."""

    name = "invariant"

    def bind(self, cluster) -> "InvariantChecker":
        self.cluster = cluster
        return self

    def on_tick(self, now: float, report: Report) -> None:
        """Periodic mid-run check (must tolerate in-flight traffic)."""

    def on_quiesce(self, now: float, report: Report) -> None:
        """Final check once traffic has drained and faults are healed."""


class StaleReadInvariant(InvariantChecker):
    """No stale cached value is ever served after a Put is acked."""

    name = "no-stale-read"

    def bind(self, cluster) -> "StaleReadInvariant":
        super().bind(cluster)
        self.monitor = CoherenceMonitor(cluster.sim)
        return self

    @property
    def reads_checked(self) -> int:
        return self.monitor.reads_checked

    def on_quiesce(self, now: float, report: Report) -> None:
        for violation in self.monitor.violations:
            report(violation.time, self.name,
                   f"key={violation.key!r} seq={violation.seq} "
                   f"got={violation.got!r} cache={violation.served_by_cache}")


class PendingWriteInvariant(InvariantChecker):
    """Writes to keys with in-flight switch updates stay blocked (§4.3)."""

    name = "pending-write-blocking"

    def on_tick(self, now: float, report: Report) -> None:
        for sid, server in self.cluster.servers.items():
            shim = server.shim
            for key, pending in shim._pending.items():
                if pending.key != key:
                    report(now, self.name,
                           f"server={sid} pending update keyed {key!r} "
                           f"carries {pending.key!r}")
                if pending.retries > shim.max_update_retries:
                    report(now, self.name,
                           f"server={sid} key={key!r} exceeded retry budget")
                self._check_queue(now, report, sid, key, pending.blocked)
            for key, blocked in shim._inserting.items():
                self._check_queue(now, report, sid, key, blocked)

    def _check_queue(self, now, report, sid, key, blocked) -> None:
        for pkt in blocked:
            if pkt.key != key:
                report(now, self.name,
                       f"server={sid} query for {pkt.key!r} blocked "
                       f"under {key!r}")
            if pkt.op not in _WRITE_OPS:
                report(now, self.name,
                       f"server={sid} non-write {pkt.op!r} blocked "
                       f"under {key!r}")

    def on_quiesce(self, now: float, report: Report) -> None:
        self.on_tick(now, report)
        for sid, server in self.cluster.servers.items():
            if server.shim.pending_updates:
                report(now, self.name,
                       f"server={sid} still has "
                       f"{server.shim.pending_updates} pending updates "
                       f"after quiesce")
            if server.shim.blocked_writes:
                report(now, self.name,
                       f"server={sid} still has "
                       f"{server.shim.blocked_writes} blocked writes "
                       f"after quiesce")
            if server.shim.degraded_keys:
                degraded = sorted(server.shim.degraded_keys)
                report(now, self.name,
                       f"server={sid} still degraded after quiesce: "
                       f"{[k.hex() for k in degraded]}")
        controller = getattr(self.cluster, "controller", None)
        if controller is not None and len(controller.leases):
            report(now, self.name,
                   f"{len(controller.leases)} insertion leases still "
                   f"active after quiesce")


class AgreementInvariant(InvariantChecker):
    """Every valid cached value matches the owning server after quiesce."""

    name = "switch-store-agreement"

    def on_quiesce(self, now: float, report: Report) -> None:
        dataplane = getattr(self.cluster.switch, "dataplane", None)
        if dataplane is None:
            return  # NoCache rack: nothing cached to disagree
        partitioner = self.cluster.partitioner
        for key in dataplane.cached_keys():
            cached = dataplane.read_cached_value(key)
            if cached is None:
                continue  # invalidated entry: served by the store, fine
            server = self.cluster.servers[partitioner.server_for(key)]
            stored = server.store.get(key)
            if cached != stored:
                report(now, self.name,
                       f"key={key!r} switch={cached!r} store={stored!r}")


class CounterMonotonicityInvariant(InvariantChecker):
    """Per-key hit counters only grow between statistics resets."""

    name = "counter-monotonicity"

    def bind(self, cluster) -> "CounterMonotonicityInvariant":
        super().bind(cluster)
        self._resets_seen = -1
        #: key -> (key_index, last count); rebaselined on reset/remap.
        self._last: Dict[bytes, Tuple[int, int]] = {}
        return self

    def on_tick(self, now: float, report: Report) -> None:
        dataplane = getattr(self.cluster.switch, "dataplane", None)
        if dataplane is None:
            return
        stats = dataplane.stats
        if stats.resets != self._resets_seen:
            self._resets_seen = stats.resets
            self._last.clear()
        current: Dict[bytes, Tuple[int, int]] = {}
        for key in dataplane.cached_keys():
            index = dataplane.layout.key_index_of(key)
            if index is None:
                continue
            count = stats.read_counter(index)
            previous = self._last.get(key)
            # An index remap (evict + reinsert) restarts the series.
            if previous is not None and previous[0] == index \
                    and count < previous[1]:
                report(now, self.name,
                       f"key={key!r} counter fell {previous[1]} -> {count} "
                       f"without a reset")
            current[key] = (index, count)
        self._last = current

    def on_quiesce(self, now: float, report: Report) -> None:
        self.on_tick(now, report)


class ExactlyOnceInvariant(InvariantChecker):
    """Each tokened (retried) write applies to the store exactly once.

    Binding enables the shims' per-token apply ledgers; any token seen
    applied more than once is a dedup-window failure.
    """

    name = "exactly-once-write"

    def bind(self, cluster) -> "ExactlyOnceInvariant":
        super().bind(cluster)
        for server in cluster.servers.values():
            server.shim.track_applies = True
        self._reported: set = set()
        return self

    def on_tick(self, now: float, report: Report) -> None:
        for sid, server in self.cluster.servers.items():
            for tid, count in server.shim.token_applies.items():
                if count > 1 and (sid, tid) not in self._reported:
                    self._reported.add((sid, tid))
                    report(now, self.name,
                           f"server={sid} client={tid[0]} token={tid[1]} "
                           f"applied {count} times")

    def on_quiesce(self, now: float, report: Report) -> None:
        self.on_tick(now, report)


class WriteDurabilityInvariant(InvariantChecker, DeliveryObserver):
    """No acked write is lost: after quiesce, every key's stored value is
    explained by its write history.

    The valid set for a key is the values of acked writes committed within
    ``SLACK`` of the key's *last* ack (ack order can trail apply order by
    up to the client's retry span when a reply is lost and the dedup
    window re-sends it) plus every sent-but-never-acked write (an in-flight
    write may or may not have applied).  A stored value outside that set
    means an acked write's effect vanished — the "acked but lost" failure.
    The checker is its own (batch-capable) delivery hook.
    """

    name = "acked-write-durability"

    #: ack-vs-apply reorder allowance (seconds); must exceed the client's
    #: maximum retry span plus control-plane drain delays.
    SLACK = 0.02

    def bind(self, cluster) -> "WriteDurabilityInvariant":
        super().bind(cluster)
        #: (client, seq) -> [key, value-or-None(delete), acked_at or None]
        self._writes: Dict[Tuple[int, int], list] = {}
        cluster.sim.delivery_hooks.append(self)
        return self

    def observe(self, time, src, dst, op, seq, client, server, key, value,
                cached) -> None:
        if op in _WRITE_OPS:
            wid = (client, seq)
            if wid not in self._writes:
                self._writes[wid] = [key, value if op in _PUTS else None,
                                     None]
        elif op in _WRITE_REPLIES:
            entry = self._writes.get((client, seq))
            if entry is not None and entry[2] is None:
                entry[2] = time

    def on_quiesce(self, now: float, report: Report) -> None:
        per_key: Dict[bytes, list] = {}
        for (client, seq), (key, value, acked_at) in self._writes.items():
            per_key.setdefault(key, []).append((acked_at, value))
        partitioner = self.cluster.partitioner
        for key, writes in per_key.items():
            acked = [w for w in writes if w[0] is not None]
            if not acked:
                continue  # nothing was promised for this key
            last_ack = max(w[0] for w in acked)
            valid = {w[1] for w in acked if w[0] >= last_ack - self.SLACK}
            valid |= {w[1] for w in writes if w[0] is None}
            server = self.cluster.servers[partitioner.server_for(key)]
            stored = server.store.get(key)
            if stored not in valid:
                report(now, self.name,
                       f"key={key!r} stores {stored!r}, not among the "
                       f"{len(valid)} value(s) acked/in-flight near the "
                       f"last ack (acked-but-lost write)")


def default_checkers() -> List[InvariantChecker]:
    return [StaleReadInvariant(), PendingWriteInvariant(),
            AgreementInvariant(), CounterMonotonicityInvariant(),
            ExactlyOnceInvariant(), WriteDurabilityInvariant()]


class InvariantSuite:
    """Runs checkers alongside a simulation on a fixed tick interval."""

    def __init__(self, cluster, interval: float = 0.01,
                 checkers: Optional[List[InvariantChecker]] = None):
        if interval <= 0:
            raise ConfigurationError("invariant interval must be positive")
        self.cluster = cluster
        self.interval = interval
        self.checkers = [c.bind(cluster)
                         for c in (checkers if checkers is not None
                                   else default_checkers())]
        self.violations: List[InvariantViolation] = []
        self.ticks = 0
        self._running = False
        self._finalized = False

    def _report(self, time: float, invariant: str, detail: str) -> None:
        self.violations.append(InvariantViolation(time, invariant, detail))

    # -- driving ---------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.cluster.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.cluster.sim.now
        self.ticks += 1
        for checker in self.checkers:
            checker.on_tick(now, self._report)
        self.cluster.sim.schedule(self.interval, self._tick)

    def check_now(self) -> None:
        """One immediate mid-run check (useful from tests)."""
        now = self.cluster.sim.now
        for checker in self.checkers:
            checker.on_tick(now, self._report)

    def finalize(self) -> List[InvariantViolation]:
        """Run the quiesce-time checks; idempotent."""
        self.stop()
        if not self._finalized:
            self._finalized = True
            now = self.cluster.sim.now
            for checker in self.checkers:
                checker.on_quiesce(now, self._report)
        return self.violations

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def reads_checked(self) -> int:
        return sum(getattr(c, "reads_checked", 0) for c in self.checkers)
