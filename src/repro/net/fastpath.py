"""Batched simulator-core fast path ("lanes" engine).

The discrete-event loop in :mod:`repro.net.simulator` pushes one Python
:class:`~repro.net.packet.Packet` through several callbacks per hop — an
event for every delivery, a sampler draw per packet, a heap operation per
event.  That caps every scale item in the ROADMAP: the paper's Fig 9-11
numbers come from billions of packets.

:class:`FastPathEngine` removes the per-packet event machinery for the
dominant traffic classes — read *and write* queries from any number of
open-loop clients over a healthy rack, NetCache or NoCache — while
keeping the scalar loop as the executable specification (the same
pattern as ``sketch/reference.py`` for the statistics path).
``Cluster.run`` builds one per rack on its first call (see
:meth:`repro.sim.cluster.Cluster.run`); ``run_scalar`` never does.  How
it works:

* **Lanes.** In-flight requests are carried as numpy record chunks
  (:class:`_Chunk`: time, item, seq, sent-at, op, and — only where they
  mean something — client index, write payload, cache-hit mark) in
  per-hop FIFOs: client→switch arrivals, per-server arrivals, per-server
  completions, server→switch replies, switch→client replies,
  switch→controller hot-key reports.
  Between two event-queue boundaries the engine bulk-generates every
  client's send times (the exact chained ``now + 1/rate`` float
  recurrence of ``WorkloadClient._send_tick``), k-way merges them into
  one time-ordered stream, then flushes the lanes stage by stage,
  applying the same counter increments the scalar path would, in the
  same stream order.
* **Stages.** The five request hops are rows of one table
  (``FastPathEngine._stages``, in pipeline order): the lanes of the hop
  by server id, ``flush(sid, chunks)`` for the rows a flush takes, and
  ``emit(sid, chunk, i)`` to turn one pending row back into the event
  the scalar loop would hold.  Flushing, the retry scan and the
  fallback all walk the table, so a new hop is a new row.
  A row that leaves the lanes for good (dropped at a crashed node,
  blocked behind a cache update, materialized) passes through one hook,
  ``_scalarize_rows``, which registers the ``_Outstanding`` the scalar
  client would hold.
* **Write lanes.** Writes ride the same lanes as reads.  At the switch
  they take the real write pipeline (:meth:`NetCacheSwitch.
  process_write_packet` → ``_process_write``: lookup, cache-hit
  invalidation, ``PUT``→``PUT_CACHED`` rewrite); at the server completion
  they run the *real* shim (dedup window, write blocking, cache-update
  coherence) with the server's transport shimmed so the immediate reply
  rides the lanes while cache updates become ordinary events — the whole
  update/ack/drain loop then executes through unmodified switch and shim
  code.  Blocked writes register a real ``_outstanding`` entry and are
  answered by the eventual drain event, exactly like the scalar path.
  A slice keeps one chunk per server and stage whatever its op mix: the
  reads of a completion slice are charged to the store as one batch
  around its writes (:meth:`KVStore.get_batch` stays sequential-exact
  across a put that adds a key), and trace notes go per op class.
* **Multiple clients.** Each client keeps its own pre-drawn query stream,
  seq counter, value counter, and analytic send clock; per-window send
  batches are merged by ``lexsort`` on (time, previous-send-time, client
  index), which reproduces the scalar heap's (time, event-seq) tie-break
  exactly (equal times with equal predecessors imply equal rates, which
  recurses to the ``sim.start()`` node-insertion order — the client
  index).
* **Retries.** A retry policy draws one RNG-backed timeout per attempt.
  The engine never pays per-send timers; instead it advances a *flag
  horizon* in steps of the policy's minimum timeout and, at each step —
  taken only once no event is left below it, so the window really is
  flushed — examines only the requests still in flight (the pipeline
  depth, not the window).  An entry whose exact attempt-0 deadline falls
  inside the next step is *scalarized*: its real ``_Outstanding``
  (template, per-seq RNG, timer at the exact scalar deadline) is
  registered and retransmissions run as ordinary events, while the
  original packet keeps riding the lanes and its reply is resolved
  per-entry.  Healthy traffic whose reply beats the conservative deadline
  never leaves the bulk path.
* **Geometry lanes.** All three cache layouts run natively: the switch
  classification consumes each layout's vectorized batch probe
  (``CacheLayout.classify_reads`` — set-index + fingerprint kernels for
  ``setassoc``, segment-pool probes for ``orbit``) instead of requiring
  ``PaperLayout``.  Orbit's multi-pass serves come back as a per-record
  reply-delay array (``extra_passes * RECIRCULATION_DELAY``) folded into
  the client-reply lane's delivery times — the scalar path's delayed
  ``_send_out`` event, without the event.  Layout churn (in-set
  displacement, segment churn) stays control-plane: installs/evicts are
  events, events bound every flush, and the ``contents_version``-keyed
  item mask invalidates alongside them — mirroring how cache-hit writes
  are ordering barriers.
* **Report lane.** A hot-key report only appends to controller-private
  state (``CacheController.report_hot_key``), so it commutes with every
  lane stage and bounds no flush: ``(arrival + report_latency, key)``
  rides a lane of its own and is handed over strictly below the flush
  limit — after every event at an earlier time, before every event at a
  later one, which is all an update round can observe.
* **Events stay authoritative.** Anything that is not lane traffic —
  cache-update coherence, controller RPCs, retransmissions — runs as
  ordinary events.  The engine only flushes lane entries strictly
  earlier than the next pending event, so scalar state transitions
  (invalidations, insertions, statistics resets) interleave with batched
  traffic exactly as they would with per-packet events.
* **Observability rides the lanes.** With an :mod:`repro.obs` session
  live, the lanes update the registry instruments the scalar path
  updates, with the same values in the same order: ``client.request``
  takes each flush's accepted replies as one :meth:`Histogram.
  observe_batch` in merged delivery order, the client hit/miss and the
  simulator's delivered/dropped counters take ``inc(n)``, and a write
  completion's cache-update RTT starts at the lane time.  Spans are per
  stage, not per packet: each flush pass opens one ``fastpath.<stage>``
  span around a stage that takes rows (``fastpath.reports`` for the
  report lane).
* **Fault windows fall back.** A window is *clean* when the rack links
  are deterministic (:meth:`Link.is_clean`) and the switch and clients
  are up.  When a fault opens,
  pending lane entries are materialized back into real delivery/
  completion events (with matching ``_outstanding`` and retry-timer
  bookkeeping) and the engine drives the clients with real per-packet
  send chains until the rack is clean again.  Down *servers* do not dirty
  a window: their drops are deterministic node drops, accounted at the
  same times as the scalar path.  Fallback reasons are tallied in
  :attr:`fallback_reasons` and mirrored to ``fastpath.fallback.*`` obs
  counters when a session is live.

Equivalence contract: after ``run_until(t)`` every gated counter — sim
delivered/lost/node_drops, client/server/switch/dataplane/statistics/
controller counters, per-link counters, the client latency lists, the
delivery-trace digest and, with a session live, every registry metric but
the ``span.*`` and ``fastpath.*`` ones — is byte-identical to the scalar
reference run.
The only accepted divergence is the relative order of *distinct* packets
whose float timestamps collide exactly (the scalar loop breaks such ties
by event sequence number, which the lanes do not reproduce).  It shows as
swapped neighbours in a client's latency list, and only where the engine
counted a tie (:attr:`FastPathEngine.reply_ties`): the differential
compares latency lists exactly when that count is zero and as multisets
otherwise.  With the default non-zero link latencies a tie needs an exact
float collision, which saturated server queues make reachable.
``tests/test_prop_simcore.py``, ``tests/test_sabotage_simcore.py`` and
the ``simcore``/``simcore_mixed`` perf scenarios gate the contract.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
from typing import Dict, List, Optional

import numpy as np

from repro.client.api import WorkloadClient, _Outstanding
from repro.constants import CLIENT_OVERHEAD
from repro.errors import ConfigurationError
from repro.kvstore.store import ReadColumns
from repro.net.packet import Packet, make_get
from repro.net.protocol import Op
from repro.obs import runtime as _obs

#: queries pre-drawn from the workload per refill (draw order per RNG
#: stream is what matters, not the batch size).
QUERY_BATCH = 8192

_FAST = "fast"
_SCALAR = "scalar"

_GET = int(Op.GET)
_PUT = int(Op.PUT)
_PUT_CACHED = int(Op.PUT_CACHED)
_GET_REPLY = int(Op.GET_REPLY)


class _Chunk:
    """Lane records, one numpy column per field, rows in time order.

    ``t`` is when the rows reach the next hop, ``sent`` when the client
    sent them; ``op`` is the request op up to the server completion and
    the reply op behind it.  ``idx`` (client index) stays ``None`` on a
    single-client rack, ``val`` (write payloads) is carried only while
    ``w`` (the chunk may hold a write), ``hit`` marks cache-hit replies.
    ``pos`` is the prefix a lane has already handed on.
    """

    __slots__ = ("t", "items", "seqs", "sent", "op", "idx", "val", "w",
                 "hit", "pos")

    def __init__(self, t, items, seqs, sent, op, idx=None, val=None,
                 w=False, hit=False):
        self.t, self.items, self.seqs, self.sent, self.op = \
            t, items, seqs, sent, op
        self.idx, self.val, self.w, self.hit = idx, val, w, hit
        self.pos = 0

    def __len__(self) -> int:
        return len(self.t)

    def rows(self, sel, t=None, op=None, w=None) -> "_Chunk":
        """The rows *sel* (slice, mask or positions) as a chunk of their
        own, optionally re-timed, with a new op column or a new ``w``.
        The only place the optional columns are propagated."""
        w = self.w if w is None else w
        return _Chunk(self.t[sel] if t is None else t, self.items[sel],
                      self.seqs[sel], self.sent[sel],
                      self.op[sel] if op is None else op,
                      None if self.idx is None else self.idx[sel],
                      self.val[sel] if w else None, w, self.hit)


class _Reports:
    """Hot-key reports on their lane: delivery times and keys, with the
    handler captured at send time like the scalar schedule."""

    __slots__ = ("t", "keys", "handler", "pos")

    def __init__(self, t, keys, handler):
        self.t, self.keys, self.handler, self.pos = t, keys, handler, 0

    def rows(self, sel: slice) -> "_Reports":
        return _Reports(self.t[sel], self.keys[sel], self.handler)


class _Lane:
    """FIFO of record chunks; a consumed prefix is tracked per chunk.

    Most lanes are globally time-ordered (chunks are appended in flush
    order and each chunk is internally monotone); the client-reply lane
    has several producers (cache hits and miss/write replies), is built
    ``monotone=False`` and is merged by a stable time sort at flush
    instead.
    """

    __slots__ = ("chunks", "monotone")

    def __init__(self, monotone: bool = True):
        self.chunks: list = []
        self.monotone = monotone

    def push(self, chunk) -> None:
        if len(chunk.t):
            self.chunks.append(chunk)

    def take(self, limit: float, inclusive: bool) -> list:
        """Consume and return the rows with ``t < limit`` (``<=`` when
        *inclusive*), one view per chunk; the consumer owns the views."""
        out = []
        side = "right" if inclusive else "left"
        for chunk in self.chunks:
            pos = chunk.pos
            stop = int(np.searchsorted(chunk.t, limit, side=side))
            if stop <= pos:
                if self.monotone:
                    break
                continue
            chunk.pos = stop
            out.append(chunk.rows(slice(pos, stop)))
        if out:
            self.chunks = [c for c in self.chunks if c.pos < len(c.t)]
        return out

    def rest(self) -> list:
        """The unconsumed rows of every chunk, as views."""
        return [c.rows(slice(c.pos, None)) for c in self.chunks]

    def pending(self) -> int:
        return sum(len(c.t) - c.pos for c in self.chunks)

    def clear(self) -> None:
        self.chunks = []


#: One hop of the request pipeline: its span name, its lanes by server id
#: (``None`` where the hop has one lane), ``flush(sid, chunks)`` for the
#: rows a flush takes and ``emit(sid, chunk, i)`` to turn pending row *i*
#: back into an event.
_Stage = collections.namedtuple("_Stage", "name lanes flush emit")


def _span(name: str):
    """A tracer span over *name* when a session is live, else nothing."""
    obs = _obs.ACTIVE
    return contextlib.nullcontext() if obs is None else obs.tracer.span(name)


class _ClientState:
    """Per-client send stream, seq/value counters and retry bookkeeping."""

    __slots__ = ("client", "idx", "link", "policy",
                 "q_flags", "q_items", "q_pos",
                 "next_send", "prev_send", "pending_send",
                 "scalarized", "lane_sends", "scalar_sends")

    def __init__(self, client: WorkloadClient, idx: int, link):
        self.client = client
        self.idx = idx
        self.link = link
        self.policy = client.retry_policy
        # Pre-drawn query buffer (shared by bulk and scalar-fallback sends).
        self.q_flags: Optional[np.ndarray] = None
        self.q_items: Optional[np.ndarray] = None
        self.q_pos = 0
        self.next_send = 0.0
        #: time of the last issued send; the merge tie-break key that
        #: stands in for the scalar heap's event sequence number.
        self.prev_send = -np.inf
        self.pending_send = None
        #: seqs whose lane reply must be resolved per-entry because a real
        #: ``_Outstanding`` (retry timer / blocked write) exists for them.
        self.scalarized = set()
        self.lane_sends = 0
        self.scalar_sends = 0


class FastPathEngine:
    """Batched driver for the WorkloadClients of one rack.

    Parameters
    ----------
    cluster:
        A :class:`repro.sim.cluster.Cluster`, NetCache or NoCache (a
        plain switch routes every read on), whose simulator has not
        started.  Every :class:`WorkloadClient` attached to it is taken
        over; none may have an AIMD controller (it would re-plan rates per
        interval, which only the scalar loop orders correctly).  From its
        first :meth:`run_until` the engine is the simulator's driver:
        ``Simulator.run_until`` and ``Simulator.step`` go through it.
    trace:
        Optional delivery-trace digest (:class:`repro.net.trace.
        DeliveryTrace`); it is registered as a delivery hook for scalar
        segments and fed directly by the lanes.
    """

    def __init__(self, cluster, trace=None):
        switch = cluster.switch
        if cluster.sim._started:
            raise ConfigurationError(
                "fast path must start the simulator itself")
        clients = [c for c in cluster.clients
                   if isinstance(c, WorkloadClient)]
        if not clients:
            raise ConfigurationError("fast path drives WorkloadClients")
        for cl in clients:
            if cl.rate_controller is not None:
                raise ConfigurationError(
                    "fast path does not support AIMD rate control")
            if not (hasattr(cl.workload, "keyspace")
                    and hasattr(cl.workload, "next_queries")):
                raise ConfigurationError(
                    f"fast path needs workloads that draw query batches "
                    f"over a keyspace, not {type(cl.workload).__name__}")
        for server in cluster.servers.values():
            if server.queue_limit is not None:
                raise ConfigurationError(
                    "fast path needs unbounded server queues")

        self.cluster = cluster
        self.sim = cluster.sim
        self.events = cluster.sim.events
        self.switch = switch
        self.tor_id = switch.node_id
        self._servers = dict(cluster.servers)
        self._trace = trace

        sim = self.sim
        self._states = [
            _ClientState(cl, i, sim.link_between(cl.node_id, self.tor_id))
            for i, cl in enumerate(clients)]
        self._multi = len(self._states) > 1
        if len({st.link.latency for st in self._states}) != 1:
            raise ConfigurationError(
                "fast path needs a uniform client link latency")
        self._client_latency = self._states[0].link.latency
        self._server_links = {
            sid: sim.link_between(self.tor_id, sid) for sid in self._servers}
        self._watched_links = [st.link for st in self._states] + \
            list(self._server_links.values())
        # Zero-queueing lower bounds on a write's switch->update delivery
        # lag, by server id, for the three stages ahead of the reply
        # (see _write_safe_limit).
        self._write_lags = (
            {None: min(2 * self._server_links[sid].latency + srv.service_time
                       for sid, srv in self._servers.items())},
            {sid: self._server_links[sid].latency + srv.service_time
             for sid, srv in self._servers.items()},
            {sid: link.latency for sid, link in self._server_links.items()})

        num_keys = {cl.workload.keyspace.num_keys for cl in clients}
        if len(num_keys) != 1:
            raise ConfigurationError(
                "fast path needs one shared keyspace across clients")
        keyspace = self._keyspace = clients[0].workload.keyspace
        self._key_of_item = keyspace.keys(range(keyspace.num_keys))
        partitioner = clients[0].partitioner
        self._server_of_item = np.asarray(
            partitioner.server_ids,
            dtype=np.int64)[partitioner.partitions_of(self._key_of_item)]
        # Store-side (core, slot hash, probes) of each item; the probes
        # are resolved lazily by the owner's KVStore.get_batch.
        num_cores = {srv.store.num_cores for srv in self._servers.values()}
        if len(num_cores) != 1:
            raise ConfigurationError(
                "fast path needs one core count across servers")
        self._store_columns = ReadColumns(self._key_of_item,
                                          num_cores.pop())

        # Lanes, and the request pipeline as a table of stages.
        self._sw_arr = _Lane()
        self._srv_arr: Dict[int, _Lane] = {s: _Lane() for s in self._servers}
        self._srv_done: Dict[int, _Lane] = {s: _Lane() for s in self._servers}
        self._sw_rep: Dict[int, _Lane] = {s: _Lane() for s in self._servers}
        self._cli_rep = _Lane(monotone=False)
        self._stages = [
            _Stage("fastpath.switch_arrivals", {None: self._sw_arr},
                   self._flush_switch_arrivals, self._emit_switch_arrival),
            _Stage("fastpath.server_arrivals", self._srv_arr,
                   self._flush_server_arrivals, self._emit_server_arrival),
            _Stage("fastpath.server_completions", self._srv_done,
                   self._flush_server_completions,
                   self._emit_server_completion),
            _Stage("fastpath.switch_replies", self._sw_rep,
                   self._flush_switch_replies, self._emit_switch_reply),
            _Stage("fastpath.client_replies", {None: self._cli_rep},
                   self._flush_client_replies, self._emit_client_reply)]
        #: switch -> controller hot-key reports (:class:`_Reports`).  Not
        #: a stage: a report is no request (no seq or client, nothing to
        #: scalarize or answer), and tests swap this lane on a built engine.
        self._reports = _Lane()

        # Cached-set membership by item id, for the write-safe bound
        # (recomputed whenever the controller installs or evicts).
        self._cached_mask: Optional[np.ndarray] = None
        self._cached_mask_version = -1

        # Retry support: the smallest possible attempt-0 timeout across
        # clients bounds how far lanes may run ahead of the flag horizon.
        tmins = [st.policy.min_delay() for st in self._states
                 if st.policy is not None]
        self._tmin: Optional[float] = min(tmins) if tmins else None
        self._flag_horizon = -np.inf
        self._deadlines: Dict[tuple, float] = {}

        self._mode = _FAST
        self._started = False
        self._own_hooks = set()
        if trace is not None:
            hook = trace.as_hook()
            sim.delivery_hooks.append(hook)
            self._own_hooks.add(hook)
        #: windows handed to the scalar loop (telemetry, not gated).
        self.scalar_fallbacks = 0
        #: lane entries materialized into events on fallback (telemetry).
        self.materialized = 0
        #: why windows fell back, by reason (telemetry, not gated).
        self.fallback_reasons: Dict[str, int] = {}
        #: lane entries handed a real _Outstanding for retry timing.
        self.retry_scalarized = 0
        #: write completions that registered a real entry (blocked/queued).
        self.write_scalarized = 0
        #: client replies delivered at exactly the time of the reply before
        #: them to the same client, within one flush: the lanes order such
        #: a pair by stream position, the scalar heap by event sequence,
        #: so the client's latency list may hold the pair swapped.
        self.reply_ties = 0

    # -- cleanliness --------------------------------------------------------------

    def _dirty_reason(self) -> Optional[str]:
        """Why the rack is ineligible for batched windows (None = clean)."""
        # Layout-level churn (in-set displacement, segment churn) needs no
        # reason here: installs and evicts are control-plane events, and
        # events bound every lane flush.
        sim = self.sim
        down = sim._down_nodes
        if self.tor_id in down:
            return "node_down"
        for st in self._states:
            if st.client.node_id in down:
                return "node_down"
        for hook in sim.delivery_hooks:
            if hook not in self._own_hooks:
                return "foreign_hook"
        if sim.drop_hooks:
            return "drop_hook"
        now = sim.now
        for link in self._watched_links:
            if not link.is_clean(now):
                return "link_fault"
        return None

    # -- run loop -----------------------------------------------------------------

    def run(self, duration: float) -> None:
        self.run_until(self.sim.now + duration)

    def run_until(self, t_end: float) -> None:
        events = self.events
        if not self._started:
            # Must precede sim.start(): the clients' start() would
            # otherwise schedule their own send chains.
            for st in self._states:
                st.client.external_driver = True
            self.sim.driver = self
            self.sim.start()
            self._started = True
            now = self.sim.now
            for st in self._states:
                st.next_send = now
            self._flag_horizon = now
        while True:
            if self._mode is _SCALAR:
                if self._dirty_reason() is None:
                    self._enter_fast()
                    continue
                nev = events.peek_time()
                if nev is None or nev > t_end:
                    break
                events.step()
                continue
            reason = self._dirty_reason()
            if reason is not None:
                self._enter_scalar(reason)
                continue
            nev = events.peek_time()
            tgt = t_end if nev is None else min(nev, t_end)
            inclusive = nev is None or nev > t_end
            capped = False
            if self._tmin is not None:
                safe = self._flag_horizon + self._tmin
                if tgt > safe:
                    # Lanes may not outrun the retry flag horizon: an
                    # unexamined entry could time out inside the window.
                    tgt, inclusive, capped = safe, False, True
            self._generate_sends(tgt, inclusive)
            self._flush_lanes(tgt, inclusive)
            # Flushing may have scheduled cache updates or retry timers
            # inside the window — and stopped at them — or cancelled the
            # timer that set this boundary.  Step only events at or below
            # the flushed boundary; anything later needs the boundary
            # recomputed first (lanes must never lag a stepped event).
            nev = events.peek_time()
            if nev is not None and nev <= tgt:
                events.step()
                continue
            if capped:
                # No event is left below `tgt`, so everything below it is
                # resolved; examine the survivors (the in-flight
                # pipeline) and move the horizon.
                self._advance_flag_horizon(tgt)
                continue
            if not inclusive:
                continue
            break
        if t_end > events.now:
            events.now = t_end

    def coverage(self) -> float:
        """Fraction of sends issued through the lanes (1.0 = no scalar
        windows)."""
        lane = sum(st.lane_sends for st in self._states)
        total = lane + sum(st.scalar_sends for st in self._states)
        return 1.0 if total == 0 else lane / total

    # -- send generation -----------------------------------------------------------

    def _ensure_queries(self, st: _ClientState) -> int:
        if st.q_flags is None or st.q_pos >= len(st.q_flags):
            st.q_flags, st.q_items = \
                st.client.workload.next_queries(QUERY_BATCH)
            st.q_pos = 0
        return len(st.q_flags) - st.q_pos

    def _send_times(self, st: _ClientState, start: float, n: int) -> np.ndarray:
        """``n + 1`` chained send times starting at *start*.

        ``times[i+1] = times[i] + 1/rate`` with the same left-fold float
        rounding as the scalar ``schedule(1.0 / self.rate, ...)`` chain
        (ufunc.accumulate is a strict sequential fold, unlike pairwise
        reductions).
        """
        arr = np.empty(n + 1)
        arr[0] = start
        arr[1:] = 1.0 / st.client.rate
        return np.add.accumulate(arr)

    def _generate_sends(self, boundary: float, inclusive: bool) -> None:
        """Issue every client send in ``[next_send, boundary)`` (closed at
        *boundary* when *inclusive*) into the client→switch lane."""
        batches = [batch for batch in (
            self._collect_sends(st, boundary, inclusive)
            for st in self._states if st.client.running)
            if batch is not None]
        if not batches:
            return
        idx = None
        if len(batches) == 1:
            st, times, _prev, flags, items, seqs, vals = batches[0]
            if self._multi:
                idx = np.full(len(times), st.idx, np.int64)
        else:
            times = np.concatenate([b[1] for b in batches])
            prev = np.concatenate([b[2] for b in batches])
            idx = np.concatenate([np.full(len(b[1]), b[0].idx, np.int64)
                                  for b in batches])
            # The scalar heap pops equal-time sends in event-seq order;
            # seqs are assigned when the *previous* tick ran, so
            # (t, prev, idx) reproduces the tie-break exactly (equal t and
            # prev force equal rates, hence identical histories down to
            # client start order).
            order = np.lexsort((idx, prev, times))
            times, idx = times[order], idx[order]
            flags = np.concatenate([b[3] for b in batches])[order]
            items = np.concatenate([b[4] for b in batches])[order]
            seqs = np.concatenate([b[5] for b in batches])[order]
            vals = None
            if any(b[6] is not None for b in batches):
                vals = np.concatenate([
                    b[6] if b[6] is not None
                    else np.empty(len(b[1]), dtype=object)
                    for b in batches])[order]
        self._sw_arr.push(_Chunk(
            times + self._client_latency, items, seqs, times,
            flags.astype(np.int16) + 1, idx, vals, vals is not None))

    def _collect_sends(self, st: _ClientState, boundary: float,
                       inclusive: bool):
        """One client's sends for the window, with per-client counters
        (seq range, sent, value stream) already applied."""
        ts, fs, its = [], [], []
        while True:
            t0 = st.next_send
            if t0 > boundary or (t0 == boundary and not inclusive):
                break
            avail = self._ensure_queries(st)
            est = int((boundary - t0) * st.client.rate) + 2
            n = min(avail, est)
            times = self._send_times(st, t0, n)
            side = "right" if inclusive else "left"
            count = int(np.searchsorted(times[:n], boundary, side=side))
            if count == 0:
                break
            ts.append(times[:count].copy())
            fs.append(st.q_flags[st.q_pos:st.q_pos + count].copy())
            its.append(st.q_items[st.q_pos:st.q_pos + count].copy())
            st.q_pos += count
            st.next_send = float(times[count])
            if count < n:
                break
        if not ts:
            return None
        times = ts[0] if len(ts) == 1 else np.concatenate(ts)
        flags = fs[0] if len(fs) == 1 else np.concatenate(fs)
        items = its[0] if len(its) == 1 else np.concatenate(its)
        m = len(times)
        prev = np.empty(m)
        prev[0] = st.prev_send
        prev[1:] = times[:-1]
        st.prev_send = float(times[-1])
        client = st.client
        start = next(client._seq)
        client._seq = itertools.count(start + m)
        seqs = np.arange(start, start + m, dtype=np.int64)
        client.sent += m
        client._interval_sent += m
        st.link.transmitted += m
        st.lane_sends += m
        vals = self._draw_values(st, flags, items)
        return (st, times, prev, flags, items, seqs, vals)

    def _draw_values(self, st: _ClientState, flags: np.ndarray,
                     items: np.ndarray) -> Optional[np.ndarray]:
        """Write payloads in per-client send order (the value counter of
        ``versioned_writes`` is order-sensitive)."""
        if not flags.any():
            return None
        vals = np.empty(len(flags), dtype=object)
        key_of = self._key_of_item
        client = st.client
        for j in np.flatnonzero(flags):
            vals[j] = client._next_value(key_of[int(items[j])])
        return vals

    def _next_query(self, st: _ClientState):
        self._ensure_queries(st)
        flag = bool(st.q_flags[st.q_pos])
        item = int(st.q_items[st.q_pos])
        st.q_pos += 1
        return flag, item

    def _scalar_send_tick(self, st: _ClientState) -> None:
        """Per-packet send chain used during fault windows; identical float
        recurrence and accounting to ``WorkloadClient._send_tick`` but
        drawing from the engine's pre-drawn query buffer."""
        st.pending_send = None
        client = st.client
        if not client.running:
            return
        is_write, item = self._next_query(st)
        key = self._key_of_item[item]
        if is_write:
            client.put(key, client._next_value(key))
        else:
            client.get(key)
        client._interval_sent += 1
        st.scalar_sends += 1
        delay = 1.0 / client.rate
        st.prev_send = self.events.now
        st.next_send = self.events.now + delay
        st.pending_send = self.events.schedule(
            delay, self._scalar_send_tick, st)

    # -- retry scalarization -------------------------------------------------------

    def _state_of(self, chunk: _Chunk, i: int) -> _ClientState:
        return self._states[0 if chunk.idx is None else int(chunk.idx[i])]

    def _per_client(self, idx: Optional[np.ndarray]):
        """``(state, selector)`` for every client with rows in *idx*, in
        client order (the whole column on a single-client rack)."""
        if idx is None:
            yield self._states[0], slice(None)
            return
        for st in self._states:
            sel = idx == st.idx
            if sel.any():
                yield st, sel

    def _request_packet(self, chunk: _Chunk, i: int,
                        op: Optional[int] = None) -> Packet:
        """Rebuild the concrete request packet row *i* stands for (with
        *op* in place of the row's own, for the client's original)."""
        st = self._state_of(chunk, i)
        item = int(chunk.items[i])
        key = self._key_of_item[item]
        owner = int(self._server_of_item[item])
        seq = int(chunk.seqs[i])
        op = int(chunk.op[i]) if op is None else op
        if op == _GET:
            pkt = make_get(st.client.node_id, owner, key, seq=seq)
        else:
            pkt = Packet(src=st.client.node_id, dst=owner, op=Op(op),
                         seq=seq, key=key, value=chunk.val[i], udp=False)
            if st.policy is not None:
                pkt.token = seq
        pkt.created_at = float(chunk.sent[i])
        return pkt

    def _scalarize_entry(self, st: _ClientState, chunk: _Chunk, i: int,
                         track: bool = False) -> None:
        """Register the real ``_Outstanding`` the scalar path would hold
        for row *i*.

        Replicates ``WorkloadClient._send`` exactly: same template fields,
        same per-seq RNG stream (one delay drawn for the attempt-0 timer),
        same timer time ``sent + delay(0)``.  Idempotent per seq.

        *track* marks the seq as expecting a lane reply (the original
        request keeps riding the lanes), switching the client's reply
        flush to per-entry resolution; entries whose answer comes as a
        real event (blocked writes, drops, materialized lanes) must NOT
        be tracked or the set would leak.
        """
        client = st.client
        seq = int(chunk.seqs[i])
        if seq in st.scalarized or seq in client._outstanding:
            return
        # The client's own op: a reply stands for its request, a
        # PUT_CACHED rewrite for the PUT that was sent.
        op = _GET if chunk.op[i] in (_GET, _GET_REPLY) else _PUT
        sent = float(chunk.sent[i])
        entry = _Outstanding(Op(op), self._key_of_item[int(chunk.items[i])],
                             sent, None)
        policy = st.policy
        if policy is not None:
            entry.template = self._request_packet(chunk, i, op)
            entry.rng = policy.make_rng(seq)
            deadline = sent + policy.delay(0, entry.rng)
            entry.timer = self.events.schedule_abs(
                max(deadline, self.events.now), client._on_timeout, seq)
            self.retry_scalarized += 1
        client._outstanding[seq] = entry
        if track:
            st.scalarized.add(seq)

    def _scalarize_rows(self, chunk: _Chunk, always: bool = False) -> None:
        """The one exit from the lanes: rows that were dropped at a
        crashed node, blocked behind a cache update or materialized keep
        their scalar retry state alive.

        The lane entry is gone, so a previously-tracked seq stops
        expecting a lane reply (whatever answers it is a real event).
        Without a retry policy the scalar client would still hold an
        ``_Outstanding``, but nothing could ever read it — unless the row
        itself becomes a real event whose reply looks its entry up:
        that, and only that, is *always*.  Rows are walked in stream
        order: equal-deadline retry timers tie-break by heap insertion.
        """
        if self._tmin is None and not always:
            return
        for i in range(len(chunk)):
            st = self._state_of(chunk, i)
            if always or st.policy is not None:
                self._scalarize_entry(st, chunk, i)
                st.scalarized.discard(int(chunk.seqs[i]))

    def _advance_flag_horizon(self, cursor: float) -> None:
        """Examine every in-flight entry; scalarize the ones whose exact
        attempt-0 deadline falls before the next horizon step.

        Runs once per ``tmin``-sized step, over the pipeline depth only —
        everything with a reply below *cursor* is already resolved and
        gone from the lanes.  An entry survives unscalarized only while
        its exact deadline lies beyond the next step, so its timer is
        always scheduled in the future (never clamped) and always before
        the lanes flush past it.
        """
        limit = cursor + self._tmin
        fresh: Dict[tuple, float] = {}
        for stage in self._stages:
            for lane in stage.lanes.values():
                for chunk in lane.rest():
                    for i in range(len(chunk)):
                        st = self._state_of(chunk, i)
                        policy = st.policy
                        if policy is None:
                            continue
                        seq = int(chunk.seqs[i])
                        if seq in st.scalarized \
                                or seq in st.client._outstanding:
                            continue
                        dkey = (st.idx, seq)
                        deadline = self._deadlines.get(dkey)
                        if deadline is None:
                            deadline = float(chunk.sent[i]) + policy.delay(
                                0, policy.make_rng(seq))
                        if deadline <= limit:
                            self._scalarize_entry(st, chunk, i, track=True)
                        else:
                            fresh[dkey] = deadline
        self._deadlines = fresh
        self._flag_horizon = cursor

    # -- lane flushing -------------------------------------------------------------

    def _cached_item_mask(self) -> np.ndarray:
        """Boolean cached-set membership by item id.

        Membership only changes through controller install/evict (real
        events, which always bound a flush), so within one flush pass the
        mask is frozen; ``contents_version`` invalidates it across passes.
        """
        switch = self.switch
        if self._cached_mask_version != switch.contents_version:
            mask = np.zeros(len(self._key_of_item), dtype=bool)
            mask[self._keyspace.items(switch.cached_keys())] = True
            self._cached_mask = mask
            self._cached_mask_version = switch.contents_version
        return self._cached_mask

    def _write_safe_limit(self) -> float:
        """Earliest time a pending write could mutate switch state again.

        A *cache-hit* write invalidates its key at the switch and its
        value update re-validates it at ``completion + link``; reads that
        arrive after that must see it.  Until the update exists as a real
        event, this lower bound (from the write's current pipeline stage,
        assuming zero queueing) caps how far the read lanes may flush
        ahead.  Writes to uncached keys feed nothing back — they are a
        plain store put plus a reply, both inside their own FIFO lane —
        so they impose no bound: ahead of the switch only writes whose
        item is currently cached count, and behind it only the
        ``PUT_CACHED`` rewrites.  Infinite when no such write is in
        flight before the reply stage.
        """
        bound = np.inf
        for stage, lags in zip(self._stages, self._write_lags):
            for sid, lane in stage.lanes.items():
                for chunk in lane.chunks:
                    if not chunk.w:
                        continue
                    op = chunk.op[chunk.pos:]
                    if lane is self._sw_arr:
                        w = (op != _GET) & self._cached_item_mask()[
                            chunk.items[chunk.pos:]]
                    else:
                        w = op == _PUT_CACHED
                    w = np.flatnonzero(w)
                    if len(w):
                        bound = min(bound,
                                    chunk.t[chunk.pos + w[0]] + lags[sid])
        return bound

    def _flush_lanes(self, limit: float, inclusive: bool) -> None:
        """Drain every lane below *limit*, never outrunning feedback.

        Each pass re-bounds the effective limit by (a) the next pending
        event — flushing a write completion creates update/timer events
        *inside* the window, and everything behind them must wait until
        the caller steps them — and (b) the earliest possible write
        update (:meth:`_write_safe_limit`).  The pass loop always
        progresses: the write that imposes a bound is itself strictly
        below it, so it advances a stage per pass until its update is a
        real event and (a) takes over.

        A stage's lanes are all taken before any is flushed (a flush only
        feeds later stages), so one span covers the stage's whole pass.
        """
        events = self.events
        while True:
            eff, inc = limit, inclusive
            nev = events.peek_time()
            if nev is not None and (nev < eff or (inc and nev == eff)):
                eff, inc = nev, False
            wsafe = self._write_safe_limit()
            if wsafe < eff or (inc and wsafe == eff):
                eff, inc = wsafe, False
            progressed = False
            for stage in self._stages:
                taken = [(sid, chunks) for sid, lane in stage.lanes.items()
                         if (chunks := lane.take(eff, inc))]
                if taken:
                    with _span(stage.name):
                        for sid, chunks in taken:
                            stage.flush(sid, chunks)
                    progressed = True
            reports = self._reports.take(eff, inc)
            if reports:
                with _span("fastpath.reports"):
                    for batch in reports:
                        for key in batch.keys:
                            batch.handler(key)
                progressed = True
            if not progressed:
                break

    def _note_ops(self, t, src: int, dst: int, ops, seqs,
                  uniform: bool = False) -> None:
        """Trace notes for rows with a mixed op column, one per op class
        (the digest is a multiset, so stream order is not noted);
        *uniform* says the column holds one op."""
        trace = self._trace
        if trace is None:
            return
        if uniform:
            trace.note_batch(t, src, dst, int(ops[0]), seqs)
            return
        for op in set(ops.tolist()):
            sel = ops == op
            trace.note_batch(t[sel], src, dst, op, seqs[sel])

    def _count_client_sends(self, chunk: _Chunk) -> None:
        """Link counters for replies leaving the switch, per client."""
        for st, sel in self._per_client(chunk.idx):
            st.link.transmitted += len(chunk.t[sel])

    # .. client -> switch ..........................................................

    def _flush_switch_arrivals(self, _sid, chunks: List[_Chunk]) -> None:
        down = self.sim._down_nodes
        for chunk in chunks:
            if not chunk.w:
                self._switch_segment(chunk)
                continue
            # Writes that go through the switch alone, cutting the slice
            # into segments.  With a crashed owner in the slice that is
            # every write: dropped entries must scalarize their retry
            # state in exact stream order — equal-deadline retry timers
            # tie-break by heap insertion, and a flipped GET/PUT pair
            # completes with swapped times at the restarted server — so
            # op runs are walked strictly, the order the contract was
            # first proven with.
            alone = chunk.op != _GET
            if not (down and bool(np.isin(
                    self._server_of_item[chunk.items], list(down)).any())):
                # Otherwise only cache-hit writes are ordering barriers:
                # they invalidate a key that later reads must observe as
                # invalid.  Writes to uncached keys commute with the
                # surrounding reads (no sampler RNG, no read-visible
                # switch state), so whole segments between barriers flush
                # as one merged batch instead of one batch per read run.
                alone &= self._cached_item_mask()[chunk.items]
            seg = 0
            for p in np.flatnonzero(alone).tolist():
                if p > seg:
                    self._switch_segment(chunk.rows(slice(seg, p)))
                self._switch_segment(chunk.rows(slice(p, p + 1)))
                seg = p + 1
            if seg < len(chunk):
                self._switch_segment(chunk.rows(slice(seg, None)))

    def _switch_segment(self, chunk: _Chunk) -> None:
        """A barrier-free segment (or one barrier write on its own):
        reads plus writes to uncached keys.

        The reads go through the statistics pipeline as one batch in
        stream order; each write runs the real write pipeline; the
        per-server lanes then receive the merged forward traffic in
        arrival order (so server queueing evolves exactly as scalar).
        Reordering reads ahead of the segment's writes is unobservable:
        the trace digest is a multiset, every touched counter commutes,
        and an uncached write mutates nothing a read classifies against.
        """
        ops = chunk.op
        writes = ops != _GET if chunk.w else None
        if writes is None or not writes.any():
            live = ~self._switch_read_batch(chunk)
        else:
            ops = ops.copy()
            live = writes.copy()
            if not writes.all():
                live[~writes] = ~self._switch_read_batch(chunk.rows(~writes))
            for p in np.flatnonzero(writes).tolist():
                fwd = self._switch_write(chunk, p)
                if fwd is None:
                    live[p] = False
                else:
                    ops[p] = fwd
        if live.any():
            self._forward(chunk.rows(live, op=ops[live]))

    def _forward(self, chunk: _Chunk) -> None:
        """Switch → owners: misses and forwarded writes onto their
        servers' lanes, one chunk per owner."""
        sim = self.sim
        owners = self._server_of_item[chunk.items]
        for sid in np.unique(owners).tolist():
            sel = owners == sid
            ops = chunk.op[sel]
            rows = chunk.rows(
                sel, op=ops, w=chunk.w and bool((ops != _GET).any()))
            if sid in sim._down_nodes:
                # transmit() drops at the node before touching the link:
                # no link counter, no delivery.  (Only reads reach here:
                # the write core already dropped a write to a down owner.)
                sim._drop_at_node(len(rows))
                self._scalarize_rows(rows)
                continue
            link = self._server_links[sid]
            link.transmitted += len(rows)
            rows.t = rows.t + link.latency
            self._srv_arr[sid].push(rows)

    def _push_reports(self, t: np.ndarray, hot: List) -> None:
        """Hot-key reports of a read batch arriving at *t*, onto their
        lane: ``report_hot_key`` only appends to controller-private state,
        so a report commutes with every lane stage and needs no event —
        only its place among the events, which the flush limit keeps."""
        if not hot:
            return
        handler = self.switch.hot_key_handler
        if handler is not None:
            pos, keys = zip(*hot)
            self._reports.push(_Reports(
                t[list(pos)] + self.switch.report_latency, keys, handler))

    def _switch_read_batch(self, chunk: _Chunk) -> np.ndarray:
        """Reads arriving at the switch, in stream order: delivery
        accounting, the read pipeline as one batch, hot-key reports and
        cache-hit replies.  Returns the hit mask; forwarding the misses
        stays with the caller."""
        t = chunk.t
        key_of = self._key_of_item
        self.sim._count_delivered(len(t))
        for st, sel in self._per_client(chunk.idx):
            self._note_ops(t[sel], st.client.node_id, self.tor_id,
                           chunk.op, chunk.seqs[sel], uniform=True)
        res = self.switch.process_read_batch(
            [key_of[i] for i in chunk.items.tolist()])
        self._push_reports(t, res.hot)
        hit = res.hit_mask
        nh = int(hit.sum())
        if nh:
            replies = chunk.rows(
                hit, op=np.full(nh, _GET_REPLY, np.int16), w=False)
            replies.hit = True
            self._count_client_sends(replies)
            latency = self._client_latency
            delays = res.hit_delays
            if delays is None or not delays.any():
                # All-zero delay arrays take the plain path: with positive
                # times ``(t + 0.0) + latency == t + latency`` bit-for-bit.
                replies.t = replies.t + latency
            else:
                # The scalar path schedules a delayed ``_send_out`` event
                # per multi-pass hit, so its reply lands at ``(t + delay)
                # + latency`` (left-associated floats); the vectorized
                # form reproduces that exactly.  Delays can reorder the
                # hit stream, and the lane's ``take`` binary-searches each
                # chunk, so a delayed chunk is stable-sorted by final
                # delivery time before the push (stable = hit-stream order
                # on exact float ties, matching the scalar heap's
                # scheduling order).
                rt = (replies.t + delays) + latency
                order = np.argsort(rt, kind="stable")
                replies = replies.rows(order, t=rt[order])
            self._cli_rep.push(replies)
        return hit

    def _switch_write(self, chunk: _Chunk, i: int) -> Optional[int]:
        """Run one write through the real switch pipeline (no forwarding).

        The lookup/invalidate/rewrite runs in :meth:`NetCacheSwitch.
        process_write_packet` (real dataplane state).  Returns the
        forwarded op (``PUT`` or ``PUT_CACHED``) when the owner is up,
        ``None`` when the packet died at a crashed owner (in which case
        the retry state has already been scalarized).
        """
        sim = self.sim
        pkt = self._request_packet(chunk, i)
        pkt.last_hop, owner = pkt.src, pkt.dst
        row = slice(i, i + 1)
        sim._count_delivered()
        self._note_ops(chunk.t[row], pkt.src, self.tor_id, chunk.op[row],
                       chunk.seqs[row], uniform=True)
        self.switch.process_write_packet(pkt)
        if owner in sim._down_nodes:
            sim._drop_at_node()
            self._scalarize_rows(chunk.rows(row))
            return None
        return int(pkt.op)

    # .. switch -> server ..........................................................

    def _server_completions(self, server, t: np.ndarray) -> np.ndarray:
        """Completion-event times for arrivals *t*, replicating the exact
        float expressions of ``StorageServer.handle_packet`` (note the
        scheduled event time is ``now + (busy_until - now)``, which is not
        the same float as ``busy_until``)."""
        service = server.service_time
        busy = server._busy_until
        n = len(t)
        if busy <= t[0] and (n == 1 or bool(np.all(t[:-1] + service <= t[1:]))):
            new_busy = t + service
            server._busy_until = float(new_busy[-1])
            return t + (new_busy - t)
        comp = np.empty(n)
        for i in range(n):
            now = float(t[i])
            queue_wait = busy - now
            if queue_wait < 0.0:
                queue_wait = 0.0
            start = now + queue_wait
            busy = start + service
            comp[i] = now + (busy - now)
        server._busy_until = busy
        return comp

    def _flush_server_arrivals(self, sid: int, chunks: List[_Chunk]) -> None:
        sim = self.sim
        server = self._servers[sid]
        for chunk in chunks:
            n = len(chunk)
            if sid in sim._down_nodes:
                # _deliver() drops at a crashed destination.
                sim._drop_at_node(n)
                self._scalarize_rows(chunk)
                continue
            sim._count_delivered(n)
            self._note_ops(chunk.t, self.tor_id, sid, chunk.op, chunk.seqs,
                           uniform=not chunk.w)
            server.received += n
            chunk.t = self._server_completions(server, chunk.t)
            server._queued += n
            self._srv_done[sid].push(chunk)

    # .. server completion .........................................................

    def _flush_server_completions(self, sid: int,
                                  chunks: List[_Chunk]) -> None:
        server = self._servers[sid]
        for chunk in chunks:
            n = len(chunk)
            # _complete() bookkeeping, order-independent per slice.
            server._queued -= n
            server.processed += n
            if chunk.w and sid in self.sim._down_nodes:
                # Dropped replies scalarize their retry state in strict
                # stream order (equal-deadline timers tie-break by heap
                # insertion): entry by entry.
                for i in range(n):
                    self._complete_slice(server, sid,
                                         chunk.rows(slice(i, i + 1)))
            else:
                self._complete_slice(server, sid, chunk)

    def _complete_slice(self, server, sid: int, chunk: _Chunk) -> None:
        """One server's completions below the limit, whatever the op mix:
        the reads charged to the store as one batch around the writes,
        which run through the real shim in stream order
        (:meth:`KVStore.get_batch` keeps the counters sequential-exact),
        then one reply chunk in completion order."""
        sim = self.sim
        rops = np.full(len(chunk), _GET_REPLY, np.int16)
        # The shim serves the value regardless of reachability; only the
        # reply transmission can drop.
        if chunk.w:
            reads = chunk.op == _GET
            wpos = np.flatnonzero(~reads)

            def apply(j: int) -> None:
                rops[wpos[j]] = self._complete_write(
                    server, sid, chunk, int(wpos[j]))

            server.store.get_batch(
                chunk.items[reads], self._store_columns,
                (wpos - np.arange(len(wpos))).tolist(), apply)
            # Blocked and dropped writes get no lane reply.
            live = rops >= 0
            replies = chunk.rows(live, op=rops[live])
        else:
            server.store.get_batch(chunk.items, self._store_columns)
            replies = chunk.rows(slice(None), op=rops)
        if sid in sim._down_nodes:
            # send_reply(): transmit from a crashed source drops (the
            # writes were accounted one by one; what is left are reads).
            sim._drop_at_node(len(replies))
            self._scalarize_rows(replies)
            return
        link = self._server_links[sid]
        link.transmitted += len(replies)
        replies.t = replies.t + link.latency
        self._sw_rep[sid].push(replies)

    def _complete_write(self, server, sid: int, chunk: _Chunk,
                        i: int) -> int:
        """One write completion through the *real* shim; returns the op of
        the reply that rides the lanes, ``-1`` when there is none.

        The server's transport is shimmed for the duration of the call:
        the immediate reply (applied or dedup'd) rides the lanes; a cache
        update becomes a real delivery event at the lane timestamp, so
        the whole coherence loop (update → ack → drain) runs through
        unmodified switch/shim code; the update RTO timer is scheduled at
        the exact lane-relative time.  A write that blocks (pending
        update or insertion in flight) registers the client's real
        ``_Outstanding`` and is answered later by the real drain event.
        A live session's clock reads the lane time too, since
        ``sim.now`` lags it here and the shim stamps an update's start
        with it.
        """
        sim = self.sim
        t = float(chunk.t[i])
        pkt = self._request_packet(chunk, i)
        down = sid in sim._down_nodes
        events = self.events
        captured: List[Packet] = []

        def lane_reply(reply: Packet) -> None:
            captured.append(reply)

        def lane_gateway(update: Packet) -> None:
            if down:
                # transmit() from a crashed source: node drop, no link
                # counter, no delivery (the RTO timer still retransmits).
                sim._drop_at_node()
                return
            link = self._server_links[sid]
            link.transmitted += 1
            sim.deliver_at(max(t + link.latency, events.now), sid,
                           self.tor_id, update)

        def lane_schedule(delay: float, cb, *args):
            return events.schedule_abs(max(t + delay, events.now), cb, *args)

        server.send_reply = lane_reply
        server.send_to_gateway = lane_gateway
        server.schedule = lane_schedule
        obs = _obs.ACTIVE
        if obs is not None:
            clock, obs.tracer.clock = obs.tracer.clock, lambda: t
        try:
            server.shim.process(pkt)
        finally:
            del server.send_reply
            del server.send_to_gateway
            del server.schedule
            if obs is not None:
                obs.tracer.clock = clock

        if not captured:
            # Blocked behind an update/insertion (or dedup-QUEUED): the
            # real drain event will answer through the real transport,
            # which looks the entry up whatever the retry policy.
            self._scalarize_rows(chunk.rows(slice(i, i + 1)), always=True)
            self.write_scalarized += 1
            return -1
        if down:
            sim._drop_at_node()
            self._scalarize_rows(chunk.rows(slice(i, i + 1)))
            return -1
        return int(captured[0].op)

    # .. server -> switch -> client ................................................

    def _flush_switch_replies(self, sid: int, chunks: List[_Chunk]) -> None:
        for chunk in chunks:
            n = len(chunk)
            self.sim._count_delivered(n)
            self._note_ops(chunk.t, sid, self.tor_id, chunk.op, chunk.seqs,
                           uniform=not chunk.w)
            self.switch.process_reply_batch(n)
            self._count_client_sends(chunk)
            chunk.t = chunk.t + self._client_latency
            self._cli_rep.push(chunk)

    def _flush_client_replies(self, _sid, chunks: List[_Chunk]) -> None:
        t = np.concatenate([c.t for c in chunks])
        order = np.argsort(t, kind="stable")
        t = t[order]
        seq = np.concatenate([c.seqs for c in chunks])[order]
        sent = np.concatenate([c.sent for c in chunks])[order]
        rop = np.concatenate([c.op for c in chunks])[order]
        hit = np.concatenate([np.full(len(c), c.hit, dtype=bool)
                              for c in chunks])[order]
        idx = None
        if self._multi:
            idx = np.concatenate([c.idx for c in chunks])[order]
        self.sim._count_delivered(len(t))
        obs = _obs.ACTIVE
        if obs is not None:
            self._observe_replies(obs, t, seq, sent, hit, idx)
        for st, sel in self._per_client(idx):
            tc, sc = t[sel], seq[sel]
            self.reply_ties += int(np.count_nonzero(tc[1:] == tc[:-1]))
            self._note_ops(tc, self.tor_id, st.client.node_id, rop[sel], sc)
            self._client_reply_batch(st, tc, sc, sent[sel], hit[sel])

    def _observe_replies(self, obs, t, seq, sent, hit, idx) -> None:
        """What ``NetCacheClient.handle_packet`` feeds the session, for a
        flush's replies in merged delivery order (the histogram's sum is
        order-sensitive): the latency and hit/miss of every reply that
        finds its request.  The late duplicates ``_client_reply_one``
        ignores are skipped here, before it consumes their entries."""
        keep = np.ones(len(t), dtype=bool)
        for st, sel in self._per_client(idx):
            if st.scalarized:
                live = st.client._outstanding
                keep[sel] = [s not in st.scalarized or s in live
                             for s in seq[sel].tolist()]
        if not keep.all():
            t, sent, hit = t[keep], sent[keep], hit[keep]
        obs.client_latency.observe_batch((t - sent) + CLIENT_OVERHEAD)
        hits = int(hit.sum())
        obs.client_hits.inc(hits)
        obs.client_misses.inc(len(t) - hits)

    def _client_reply_batch(self, st: _ClientState, t, seq, sent,
                            hit) -> None:
        client = st.client
        if st.scalarized:
            # Some seqs carry real outstanding entries (retry timers,
            # blocked writes); resolve the whole batch per-entry so the
            # latency list keeps delivery-time order.
            for i in range(len(t)):
                self._client_reply_one(st, int(seq[i]), float(t[i]),
                                       float(sent[i]), bool(hit[i]))
            return
        n = len(t)
        client.received += n
        client.cache_hits += int(hit.sum())
        client._interval_received += n
        latencies = (t - sent) + CLIENT_OVERHEAD
        room = client.max_latency_samples - len(client.latencies)
        if room > 0:
            client.latencies.extend(latencies[:room].tolist())

    def _client_reply_one(self, st: _ClientState, seq: int, t: float,
                          sent: float, hit: bool) -> None:
        """Scalar-exact reply handling for one lane entry
        (mirrors ``NetCacheClient.handle_packet``)."""
        client = st.client
        if seq in st.scalarized:
            st.scalarized.discard(seq)
            entry = client._outstanding.pop(seq, None)
            if entry is None:
                # Already answered by a retransmission (or expired):
                # the scalar path ignores the late duplicate.
                return
            if entry.timer is not None:
                entry.timer.cancel()
        client.received += 1
        if hit:
            client.cache_hits += 1
        client._interval_received += 1
        if len(client.latencies) < client.max_latency_samples:
            client.latencies.append((t - sent) + CLIENT_OVERHEAD)

    # -- fault-window fallback -------------------------------------------------------

    def _enter_fast(self) -> None:
        for st in self._states:
            if st.pending_send is not None:
                st.pending_send.cancel()
                st.pending_send = None
        self._flag_horizon = max(self._flag_horizon, self.events.now)
        self._mode = _FAST

    def _enter_scalar(self, reason: str = "fault") -> None:
        """Materialize every pending lane entry into real events and hand
        the window to the scalar loop."""
        self._materialize()
        self._mode = _SCALAR
        self.scalar_fallbacks += 1
        self.fallback_reasons[reason] = \
            self.fallback_reasons.get(reason, 0) + 1
        obs = _obs.ACTIVE
        if obs is not None:
            obs.registry.counter(f"fastpath.fallback.{reason}").inc()
        for st in self._states:
            if st.client.running and st.pending_send is None:
                st.pending_send = self.events.schedule_abs(
                    st.next_send, self._scalar_send_tick, st)

    def _reply_packet(self, chunk: _Chunk, i: int) -> Packet:
        """Rebuild the concrete reply packet row *i* stands for."""
        item = int(chunk.items[i])
        reply = Packet(src=int(self._server_of_item[item]),
                       dst=self._state_of(chunk, i).client.node_id,
                       op=Op(int(chunk.op[i])), seq=int(chunk.seqs[i]),
                       key=self._key_of_item[item])
        reply.served_by_cache = chunk.hit
        return reply

    def _emit_switch_arrival(self, _sid, chunk: _Chunk, i: int) -> None:
        pkt = self._request_packet(chunk, i)
        self.sim.deliver_at(float(chunk.t[i]), pkt.src, self.tor_id, pkt)

    def _emit_server_arrival(self, sid: int, chunk: _Chunk, i: int) -> None:
        self.sim.deliver_at(float(chunk.t[i]), self.tor_id, sid,
                            self._request_packet(chunk, i))

    def _emit_server_completion(self, sid: int, chunk: _Chunk,
                                i: int) -> None:
        # Arrival bookkeeping (received/_queued/_busy_until) already
        # happened; re-enter at the completion event.
        self.events.schedule_abs(float(chunk.t[i]),
                                 self._servers[sid]._complete,
                                 self._request_packet(chunk, i))

    def _emit_switch_reply(self, sid: int, chunk: _Chunk, i: int) -> None:
        self.sim.deliver_at(float(chunk.t[i]), sid, self.tor_id,
                            self._reply_packet(chunk, i))

    def _emit_client_reply(self, _sid, chunk: _Chunk, i: int) -> None:
        reply = self._reply_packet(chunk, i)
        self.sim.deliver_at(float(chunk.t[i]), self.tor_id, reply.dst, reply)

    def _materialize(self) -> None:
        """Every pending lane row becomes the event the scalar loop would
        hold for it, with the ``_Outstanding`` its reply will look up (a
        scalarized seq already has one); the lane entry and its reply
        are real from here on."""
        for stage in self._stages:
            for sid, lane in stage.lanes.items():
                for chunk in lane.rest():
                    self._scalarize_rows(chunk, always=True)
                    for i in range(len(chunk)):
                        stage.emit(sid, chunk, i)
                    self.materialized += len(chunk)
                lane.clear()
        for batch in self._reports.rest():
            for t, key in zip(batch.t.tolist(), batch.keys):
                self.events.schedule_abs(t, batch.handler, key)
        self._reports.clear()
        self._deadlines.clear()
