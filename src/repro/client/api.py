"""Client library (§3 "Clients").

Applications use :class:`NetCacheClient` the way they would use a Memcached
or Redis client: ``get`` / ``put`` / ``delete``.  The library translates API
calls into NetCache query packets, addresses the storage server that owns the
key's partition (the client needs no knowledge of the cache, §4.1), and
matches replies to requests by sequence number.

Two higher layers are provided:

* :class:`SyncClient` — a blocking facade that advances the simulator until
  the reply arrives (used by the examples and integration tests);
* :class:`WorkloadClient` — an open-loop load generator with Poisson or
  deterministic arrivals, loss accounting, and latency recording (used by
  the throughput/latency/dynamics experiments).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.client.ratecontrol import AimdRateController
from repro.client.workload import Workload
from repro.constants import CLIENT_OVERHEAD
from repro.errors import ConfigurationError, SimulationError
from repro.kvstore.partition import HashPartitioner
from repro.net.packet import Packet, make_delete, make_get, make_put
from repro.net.protocol import WRITE_OPS, Op
from repro.net.simulator import Node
from repro.obs import runtime as _obs
from repro.reliability.retry import TIMED_OUT, RetryPolicy

#: Callbacks receive the reply value (or :data:`TIMED_OUT` when the retry
#: budget is exhausted or the request is dropped as stale) and the latency.
ReplyCallback = Callable[[Optional[bytes], float], None]


class _Outstanding:
    __slots__ = ("op", "key", "sent_at", "callback",
                 "template", "retries", "timer", "rng")

    def __init__(self, op: Op, key: bytes, sent_at: float,
                 callback: Optional[ReplyCallback]):
        self.op = op
        self.key = key
        self.sent_at = sent_at
        self.callback = callback
        # Retry state (populated only when a RetryPolicy is active).
        self.template = None   # pristine copy to retransmit from
        self.retries = 0
        self.timer = None      # pending timeout Event
        self.rng = None        # per-request jitter source


class NetCacheClient(Node):
    """Asynchronous key-value client attached below/above a NetCache rack."""

    def __init__(self, node_id: int, gateway: int,
                 partitioner: HashPartitioner,
                 retry_policy: Optional[RetryPolicy] = None):
        super().__init__(node_id)
        self.gateway = gateway
        self.partitioner = partitioner
        self.retry_policy = retry_policy
        self._seq = itertools.count(1)
        self._outstanding: Dict[int, _Outstanding] = {}
        self.sent = 0
        self.received = 0
        self.cache_hits = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.stale_drops = 0
        self.latencies: List[float] = []
        #: cap on retained latency samples (reservoir-free truncation).
        self.max_latency_samples = 1_000_000

    # -- API -------------------------------------------------------------------

    def get(self, key: bytes, callback: Optional[ReplyCallback] = None) -> int:
        """Issue a Get; returns the sequence number."""
        seq = next(self._seq)
        pkt = make_get(self.node_id, self.partitioner.server_for(key), key,
                       seq=seq)
        self._send(pkt, callback)
        return seq

    def put(self, key: bytes, value: bytes,
            callback: Optional[ReplyCallback] = None) -> int:
        """Issue a Put; returns the sequence number."""
        seq = next(self._seq)
        pkt = make_put(self.node_id, self.partitioner.server_for(key), key,
                       value, seq=seq)
        self._send(pkt, callback)
        return seq

    def delete(self, key: bytes,
               callback: Optional[ReplyCallback] = None) -> int:
        """Issue a Delete; returns the sequence number."""
        seq = next(self._seq)
        pkt = make_delete(self.node_id, self.partitioner.server_for(key), key,
                          seq=seq)
        self._send(pkt, callback)
        return seq

    # -- plumbing -----------------------------------------------------------------

    def _send(self, pkt: Packet, callback: Optional[ReplyCallback]) -> None:
        pkt.created_at = self.sim.now
        entry = _Outstanding(pkt.op, pkt.key, self.sim.now, callback)
        policy = self.retry_policy
        if policy is not None:
            if pkt.op in WRITE_OPS:
                # Idempotency token: every retransmission carries the same
                # one so the server-side dedup window applies it once.
                pkt.token = pkt.seq
            # The switch mutates request packets in place (turn_around), so
            # keep a pristine copy to retransmit from.
            entry.template = pkt.copy()
            entry.rng = policy.make_rng(pkt.seq)
            entry.timer = self.sim.schedule(
                policy.delay(0, entry.rng), self._on_timeout, pkt.seq)
        self._outstanding[pkt.seq] = entry
        self.sent += 1
        self.sim.transmit(self.node_id, self.gateway, pkt)

    def _on_timeout(self, seq: int) -> None:
        entry = self._outstanding.get(seq)
        if entry is None:
            return  # answered between scheduling and firing
        policy = self.retry_policy
        if entry.retries >= policy.max_retries:
            self._expire(seq, entry)
            return
        entry.retries += 1
        self.retransmissions += 1
        obs = _obs.ACTIVE
        if obs is not None:
            obs.client_retries.inc()
        self.sim.transmit(self.node_id, self.gateway, entry.template.copy())
        entry.timer = self.sim.schedule(
            policy.delay(entry.retries, entry.rng), self._on_timeout, seq)

    def _expire(self, seq: int, entry: _Outstanding,
                stale: bool = False) -> None:
        """Give up on *seq*: deliver the TIMED_OUT sentinel to its callback."""
        del self._outstanding[seq]
        if entry.timer is not None:
            entry.timer.cancel()
        if stale:
            self.stale_drops += 1
        else:
            self.timeouts += 1
        obs = _obs.ACTIVE
        if obs is not None:
            (obs.client_stale_drops if stale else obs.client_timeouts).inc()
        if entry.callback is not None:
            entry.callback(TIMED_OUT, self.sim.now - entry.sent_at)

    def handle_packet(self, pkt: Packet) -> None:
        entry = self._outstanding.pop(pkt.seq, None)
        if entry is None:
            return  # duplicate or late reply
        if entry.timer is not None:
            entry.timer.cancel()
        self.received += 1
        if pkt.served_by_cache:
            self.cache_hits += 1
        latency = (self.sim.now - entry.sent_at) + CLIENT_OVERHEAD
        if len(self.latencies) < self.max_latency_samples:
            self.latencies.append(latency)
        obs = _obs.ACTIVE
        if obs is not None:
            obs.client_latency.observe(latency)
            (obs.client_hits if pkt.served_by_cache
             else obs.client_misses).inc()
        if entry.callback is not None:
            entry.callback(pkt.value, latency)

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    def drop_stale(self, older_than: float) -> int:
        """Expire requests sent before *older_than* (treat as lost).

        Each dropped entry's callback is invoked with :data:`TIMED_OUT` and
        its retry timer cancelled, so callers waiting on a reply are
        released instead of silently forgotten.
        """
        stale = [(seq, e) for seq, e in self._outstanding.items()
                 if e.sent_at < older_than]
        for seq, entry in stale:
            self._expire(seq, entry, stale=True)
        return len(stale)


class SyncClient:
    """Blocking facade over :class:`NetCacheClient` for scripts and tests."""

    def __init__(self, client: NetCacheClient, timeout: float = 1.0):
        self.client = client
        self.timeout = timeout

    def _wait(self, seq_box: dict) -> Optional[bytes]:
        sim = self.client.sim
        deadline = sim.now + self.timeout
        while "reply" not in seq_box:
            if sim.now >= deadline or not sim.step():
                raise SimulationError("request timed out (packet lost?)")
        if seq_box["reply"] is TIMED_OUT:
            raise SimulationError("request exhausted its retry budget")
        return seq_box["reply"]

    def _call(self, issue) -> Tuple[Optional[bytes], float]:
        box: dict = {}

        def on_reply(value: Optional[bytes], latency: float) -> None:
            box["reply"] = value
            box["latency"] = latency

        issue(on_reply)
        value = self._wait(box)
        return value, box["latency"]

    def get(self, key: bytes) -> Optional[bytes]:
        """Blocking Get; returns the value or None."""
        value, _ = self._call(lambda cb: self.client.get(key, cb))
        return value

    def put(self, key: bytes, value: bytes) -> None:
        """Blocking Put."""
        self._call(lambda cb: self.client.put(key, value, cb))

    def delete(self, key: bytes) -> None:
        """Blocking Delete."""
        self._call(lambda cb: self.client.delete(key, cb))


class WorkloadClient(NetCacheClient):
    """Open-loop load generator driving a :class:`Workload`.

    Queries are issued at ``rate`` queries/second with deterministic
    spacing (the DPDK generator's behaviour); an optional
    :class:`AimdRateController` retunes the rate every ``control_interval``
    using loss feedback, reproducing the §7.4 measurement loop.
    """

    def __init__(self, node_id: int, gateway: int,
                 partitioner: HashPartitioner, workload: Workload,
                 rate: float, controller: Optional[AimdRateController] = None,
                 control_interval: float = 0.1,
                 retry_policy: Optional[RetryPolicy] = None,
                 versioned_writes: bool = False):
        super().__init__(node_id, gateway, partitioner,
                         retry_policy=retry_policy)
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        self.workload = workload
        self.rate = rate
        self.rate_controller = controller
        self.control_interval = control_interval
        #: When set, each PUT writes a distinct value (a write-counter stamp
        #: spliced into the workload value) so lost or doubly-applied writes
        #: are distinguishable by the chaos invariants.
        self.versioned_writes = versioned_writes
        self._write_counter = 0
        self._interval_sent = 0
        self._interval_received = 0
        self.running = False
        #: When True an external engine (the batched fast path) owns the
        #: send loop: start() only flips ``running`` and schedules nothing.
        self.external_driver = False
        #: (time, rate, loss) samples, one per control interval.
        self.rate_trace: List[Tuple[float, float, float]] = []

    def start(self) -> None:
        self.running = True
        if self.external_driver:
            return
        self.sim.schedule(0.0, self._send_tick)
        if self.rate_controller is not None:
            self.sim.schedule(self.control_interval, self._control_tick)

    def stop(self) -> None:
        self.running = False

    def _send_tick(self) -> None:
        if not self.running:
            return
        op, key = self.workload.next_query()
        if op == Op.GET:
            self.get(key)
        elif op == Op.PUT:
            self.put(key, self._next_value(key))
        else:
            self.delete(key)
        self._interval_sent += 1
        self.sim.schedule(1.0 / self.rate, self._send_tick)

    def _next_value(self, key: bytes) -> bytes:
        value = self.workload.value_for(key)
        if self.versioned_writes:
            stamp = b"#%010d" % self._write_counter
            self._write_counter += 1
            if len(value) > len(stamp):
                value = value[:-len(stamp)] + stamp  # length-preserving
            else:
                value = stamp
        return value

    def handle_packet(self, pkt: Packet) -> None:
        # Count only replies that match a live request, *after* the base
        # class decides — duplicates from retries must not inflate the
        # loss-feedback numerator.
        matched = pkt.seq in self._outstanding
        super().handle_packet(pkt)
        if matched:
            self._interval_received += 1

    def _control_tick(self) -> None:
        if not self.running:
            return
        sent, self._interval_sent = self._interval_sent, 0
        received, self._interval_received = self._interval_received, 0
        loss = max(0.0, 1.0 - received / sent) if sent else 0.0
        self.rate = self.rate_controller.observe(sent, received)
        self.rate_trace.append((self.sim.now, self.rate, loss))
        # Expired requests would otherwise accumulate forever.
        self.drop_stale(self.sim.now - 10 * self.control_interval)
        self.sim.schedule(self.control_interval, self._control_tick)
