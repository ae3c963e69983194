"""Server agent shim (§3 "Storage servers", §4.3, §6).

The shim sits between NetCache packets and the key-value store API and owns
the server side of the coherence protocol:

* uncached reads/writes: straight translation to store calls;
* writes to *cached* keys (the switch rewrote the op to ``PUT_CACHED`` /
  ``DELETE_CACHED`` after invalidating its copy): the store is updated
  atomically, the client reply is sent immediately, and a ``CACHE_UPDATE``
  carrying the new value is pushed to the switch with retry-until-ack
  reliability;
* subsequent writes to a key with an in-flight switch update are *blocked*
  (queued) until the ack confirms the switch holds the new value;
* controller-driven insertions also block writes to the key for their
  duration (§4.3 "Cache Update").

Two reliability mechanisms extend the paper's protocol:

* **write dedup** — retried client writes carry an idempotency token; a
  bounded :class:`~repro.reliability.dedup.DedupWindow` ensures each
  tokened write applies exactly once and late retries just get the reply
  re-sent;
* **degraded mode** — when a switch cache update exhausts its retry budget
  the shim no longer raises out of a timer callback; the key enters a
  per-key *write-around* mode (writes apply and reply without pushing
  updates), blocked writes drain, and the controller is asked to evict the
  key.  :meth:`clear_degraded` recovers the key once the eviction is
  acknowledged.

The shim is transport-agnostic: it talks to the network through the owning
:class:`~repro.kvstore.server.StorageServer`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import CoherenceError
from repro.kvstore.store import KVStore
from repro.net.packet import Packet, make_cache_update
from repro.net.protocol import Op, REPLY_FOR, WRITE_OPS
from repro.obs import runtime as _obs
from repro.reliability.dedup import DedupState, DedupWindow

#: Retransmission timeout for switch cache updates (seconds).  The paper's
#: mechanism is "light-weight high-performance reliable packet" (§6); a short
#: RTO fits intra-rack RTTs.
UPDATE_RTO = 100e-6

#: Give up after this many retransmissions and surface a coherence error;
#: in practice the ToR link would have failed long before.
MAX_UPDATE_RETRIES = 50


class _PendingUpdate:
    """State of one in-flight switch cache update."""

    __slots__ = ("key", "value", "version", "retries", "timer", "blocked",
                 "started_at")

    def __init__(self, key: bytes, value: Optional[bytes], version: int):
        self.key = key
        self.value = value
        self.version = version
        self.retries = 0
        self.timer = None
        self.blocked: List[Packet] = []
        #: observability clock reading at first transmission (None when no
        #: session is live); used for the update-RTT histogram.
        self.started_at: Optional[float] = None


class ServerShim:
    """Coherence + translation layer for one storage server."""

    def __init__(self, server: "StorageServerLike", store: KVStore):
        self.server = server
        self.store = store
        #: per-instance retry budget; chaos runs raise these so a partition
        #: longer than MAX_UPDATE_RETRIES * UPDATE_RTO is survivable.
        self.update_rto = UPDATE_RTO
        self.max_update_retries = MAX_UPDATE_RETRIES
        self._pending: Dict[bytes, _PendingUpdate] = {}
        self._inserting: Dict[bytes, List[Packet]] = {}
        self._versions: Dict[bytes, int] = {}
        self.updates_sent = 0
        self.updates_acked = 0
        self.retransmissions = 0
        self.writes_blocked = 0
        #: exactly-once window for tokened (retried) writes.
        self.dedup = DedupWindow()
        #: keys in write-around mode after cache-update retry exhaustion.
        self._degraded: Set[bytes] = set()
        self.degraded_entries = 0
        self.degraded_recovered = 0
        self.insertion_aborts = 0
        #: called as fn(server_node_id, key) when a key enters degraded
        #: mode (the cluster wires this to the controller, which evicts the
        #: key and acks recovery).
        self.degraded_handler: Optional[Callable[[int, bytes], None]] = None
        #: when True, record per-token apply counts (chaos invariants read
        #: this to assert exactly-once effect under retries).
        self.track_applies = False
        self.token_applies: Dict[Tuple[int, int], int] = {}

    # -- query entry point ---------------------------------------------------

    def process(self, pkt: Packet) -> None:
        """Handle one NetCache query delivered by the network.

        Tokened writes pass through the dedup window first: an already
        applied token gets its reply re-sent without touching the store, a
        still-queued token's retry is dropped (the queued original will be
        answered when it drains).
        """
        if pkt.token is not None and pkt.op in WRITE_OPS:
            entry = self.dedup.lookup(pkt.src, pkt.token)
            if entry is not None:
                obs = _obs.ACTIVE
                if obs is not None:
                    obs.shim_dedup_hits.inc()
                state, reply_op = entry
                if state is DedupState.APPLIED:
                    self.server.send_reply(pkt.make_reply(Op(reply_op)))
                return
        self._dispatch(pkt)

    def _dispatch(self, pkt: Packet) -> None:
        """Route one query to its handler (internal re-entry point: drained
        blocked writes come back through here, *not* ``process``, so they
        are not mistaken for duplicates of themselves)."""
        if pkt.op == Op.GET:
            self._handle_get(pkt)
        elif pkt.op in (Op.PUT, Op.DELETE):
            self._traced_write(self._handle_uncached_write, pkt)
        elif pkt.op in (Op.PUT_CACHED, Op.DELETE_CACHED):
            self._traced_write(self._handle_cached_write, pkt)
        elif pkt.op == Op.CACHE_UPDATE_ACK:
            self._handle_ack(pkt)
        else:
            raise CoherenceError(f"server got unexpected op {pkt.op!r}")

    @staticmethod
    def _traced_write(handler, pkt: Packet) -> None:
        obs = _obs.ACTIVE
        if obs is not None:
            with obs.tracer.span("shim.handle_write"):
                handler(pkt)
        else:
            handler(pkt)

    # -- reads -----------------------------------------------------------------

    def _handle_get(self, pkt: Packet) -> None:
        value = self.store.get(pkt.key)
        self.server.send_reply(pkt.make_reply(Op.GET_REPLY, value=value))

    # -- writes ------------------------------------------------------------------

    def _handle_uncached_write(self, pkt: Packet) -> None:
        # A write may still need blocking: the controller might be inserting
        # this key right now (§4.3), or an earlier cached write's update may
        # be in flight while the lookup entry was already invalidated.
        if self._must_block(pkt.key):
            self.writes_blocked += 1
            self._block(pkt)
            return
        self._apply_write(pkt)
        self.server.send_reply(pkt.make_reply(REPLY_FOR[pkt.op]))

    def _handle_cached_write(self, pkt: Packet) -> None:
        if self._must_block(pkt.key):
            self.writes_blocked += 1
            self._block(pkt)
            return
        self._apply_write(pkt)
        # Reply to the client immediately -- the paper's optimization over
        # standard write-through (§4.3).
        self.server.send_reply(pkt.make_reply(REPLY_FOR[pkt.op]))
        if pkt.key in self._degraded:
            # Write-around: the switch copy is already invalid and the
            # controller has been asked to evict the key; pushing another
            # update would just fail the same way.
            return
        if pkt.op == Op.PUT_CACHED:
            self._start_update(pkt.key, self.store.get(pkt.key))
        # For DELETE_CACHED the switch copy stays invalid until the
        # controller evicts the key; no data-plane update carries a value.

    def _apply_write(self, pkt: Packet) -> None:
        if pkt.op in (Op.PUT, Op.PUT_CACHED):
            self.store.put(pkt.key, pkt.value or b"")
        else:
            self.store.delete(pkt.key)
        if pkt.token is not None:
            self.dedup.note_applied(pkt.src, pkt.token,
                                    int(REPLY_FOR[pkt.op]))
            if self.track_applies:
                tid = (pkt.src, pkt.token)
                self.token_applies[tid] = self.token_applies.get(tid, 0) + 1

    def _must_block(self, key: bytes) -> bool:
        return key in self._pending or key in self._inserting

    def _block(self, pkt: Packet) -> None:
        if key_state := self._pending.get(pkt.key):
            key_state.blocked.append(pkt)
        else:
            self._inserting[pkt.key].append(pkt)
        if pkt.token is not None:
            self.dedup.note_queued(pkt.src, pkt.token)

    # -- switch cache updates -------------------------------------------------------

    def _next_version(self, key: bytes) -> int:
        v = self._versions.get(key, 0) + 1
        self._versions[key] = v
        return v

    def _start_update(self, key: bytes, value: Optional[bytes]) -> None:
        if value is None:
            raise CoherenceError("cache update requires the new value")
        pending = _PendingUpdate(key, value, self._next_version(key))
        obs = _obs.ACTIVE
        if obs is not None:
            pending.started_at = obs.tracer.clock()
        self._pending[key] = pending
        self._transmit_update(pending)

    def _transmit_update(self, pending: _PendingUpdate) -> None:
        pkt = make_cache_update(
            src=self.server.node_id,
            dst=self.server.gateway,
            key=pending.key,
            value=pending.value,
            seq=pending.version,
        )
        self.server.send_to_gateway(pkt)
        self.updates_sent += 1
        pending.timer = self.server.schedule(
            self.update_rto, self._on_update_timeout, pending
        )

    def _on_update_timeout(self, pending: _PendingUpdate) -> None:
        if self._pending.get(pending.key) is not pending:
            return  # already acked
        if pending.retries >= self.max_update_retries:
            # Terminal: raising here would escape into the simulator event
            # loop.  Degrade the key instead and let the controller evict.
            self._enter_degraded(pending)
            return
        pending.retries += 1
        self.retransmissions += 1
        self._transmit_update(pending)

    # -- degraded write-around mode -------------------------------------------------

    def _enter_degraded(self, pending: _PendingUpdate) -> None:
        """Retry budget exhausted: stop updating the switch for this key,
        drain its blocked writes as write-around, ask for eviction."""
        del self._pending[pending.key]
        self._degraded.add(pending.key)
        self.degraded_entries += 1
        obs = _obs.ACTIVE
        if obs is not None:
            obs.shim_degraded.inc()
        # Degraded keys never block on pending updates, so the queued
        # writes drain immediately (unless an insertion still holds them).
        self._drain_blocked(pending.key, pending.blocked)
        if self.degraded_handler is not None:
            self.degraded_handler(self.server.node_id, pending.key)

    def clear_degraded(self, key: bytes) -> None:
        """Controller ack: *key* was evicted from the switch; future writes
        arrive uncached and the key leaves write-around mode."""
        if key in self._degraded:
            self._degraded.discard(key)
            self.degraded_recovered += 1

    def _handle_ack(self, pkt: Packet) -> None:
        pending = self._pending.get(pkt.key)
        if pending is None or pkt.seq != pending.version:
            return  # stale ack
        if pending.timer is not None:
            pending.timer.cancel()
        del self._pending[pkt.key]
        self.updates_acked += 1
        obs = _obs.ACTIVE
        if obs is not None and pending.started_at is not None:
            obs.shim_update_rtt.observe(
                obs.tracer.clock() - pending.started_at)
        self._drain_blocked(pkt.key, pending.blocked)

    def _drain_blocked(self, key: bytes, blocked: List[Packet]) -> None:
        # Re-process queued writes in arrival order.  Each may start a new
        # update, which re-blocks the remainder.
        for i, queued in enumerate(blocked):
            if self._must_block(key):
                # Put the rest back onto whichever structure now blocks.
                for rest in blocked[i:]:
                    self._block(rest)
                return
            self._dispatch(queued)

    # -- controller-driven insertion (§4.3) -----------------------------------------

    def begin_insertion(self, key: bytes) -> Optional[bytes]:
        """Controller is inserting *key* into the switch: block writes and
        return the current value (None if the key does not exist here)."""
        self._inserting.setdefault(key, [])
        return self.store.get(key)

    def end_insertion(self, key: bytes) -> None:
        """Controller finished inserting *key*: release blocked writes."""
        blocked = self._inserting.pop(key, [])
        self._drain_blocked(key, blocked)

    def abort_insertion(self, key: bytes) -> None:
        """Controller lease expired: roll the insertion back, releasing its
        blocked writes exactly like a completed one."""
        if key in self._inserting:
            self.insertion_aborts += 1
        self.end_insertion(key)

    # -- introspection ----------------------------------------------------------------

    @property
    def pending_updates(self) -> int:
        return len(self._pending)

    @property
    def blocks_writes(self) -> bool:
        """Whether a write could block now: some key has a cache update
        or an insertion in flight."""
        return bool(self._pending or self._inserting)

    @property
    def blocked_writes(self) -> int:
        return sum(len(p.blocked) for p in self._pending.values()) + sum(
            len(q) for q in self._inserting.values()
        )

    @property
    def degraded_keys(self) -> frozenset:
        return frozenset(self._degraded)


class StorageServerLike:
    """Protocol the shim expects from its owning server (documented duck
    type; :class:`repro.kvstore.server.StorageServer` implements it)."""

    node_id: int
    gateway: int

    def send_reply(self, pkt: Packet) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def send_to_gateway(self, pkt: Packet) -> None:  # pragma: no cover
        raise NotImplementedError

    def schedule(self, delay: float, callback: Callable, *args):  # pragma: no cover
        raise NotImplementedError
