"""Batched simulator-core fast path ("lanes" engine).

The discrete-event loop in :mod:`repro.net.simulator` pushes one Python
:class:`~repro.net.packet.Packet` through several callbacks per hop — an
event for every delivery, a sampler draw per packet, a heap operation per
event.  That caps every scale item in the ROADMAP: the paper's Fig 9-11
numbers come from billions of packets.

:class:`FastPathEngine` removes the per-packet event machinery for the
dominant traffic classes — read *and write* queries from any number of
open-loop clients over a healthy rack — while keeping the scalar loop as
the executable specification (the same pattern as ``sketch/reference.py``
for the statistics path):

* **Lanes.** In-flight requests are carried as numpy record chunks (time,
  item, seq, op, sent-at, client index) in per-hop FIFOs: client→switch
  arrivals, per-server arrivals, per-server completions, server→switch
  replies, switch→client replies, switch→controller hot-key reports.
  Between two event-queue boundaries the engine bulk-generates every
  client's send times (the exact chained ``now + 1/rate`` float
  recurrence of ``WorkloadClient._send_tick``), k-way merges them into
  one time-ordered stream, then flushes the lanes stage by stage,
  applying the same counter increments the scalar path would, in the
  same stream order.
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
* **Fault windows fall back.** A window is *clean* when the rack links
  are deterministic (:meth:`Link.is_clean`), the switch and clients are
  up, and no observability session is active.  When a fault opens,
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
controller counters, per-link counters, the client latency lists, and the
delivery-trace digest — is byte-identical to the scalar reference run.
The only accepted divergence is the relative order of *distinct* packets
whose float timestamps collide exactly (the scalar loop breaks such ties
by event sequence number, which the lanes do not reproduce); with the
default non-zero link latencies this requires an exact float collision.
``tests/test_prop_simcore.py``, ``tests/test_sabotage_simcore.py`` and
the ``simcore``/``simcore_mixed`` perf scenarios gate the contract.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

import numpy as np

from repro.client.api import WorkloadClient, _Outstanding
from repro.constants import CLIENT_OVERHEAD
from repro.core.switch import NetCacheSwitch
from repro.errors import ConfigurationError
from repro.kvstore.store import ReadColumns
from repro.net.packet import Packet, make_get, make_put
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


class _Lane:
    """FIFO of record chunks; a consumed prefix is tracked per chunk.

    Most lanes are globally time-ordered (chunks are appended in flush
    order and each chunk is internally monotone); the client-reply lane
    has several producers (cache hits and miss/write replies) and is
    merged by a stable time sort at flush instead.
    """

    __slots__ = ("chunks",)

    def __init__(self):
        self.chunks: List[dict] = []

    def push(self, t: np.ndarray, **cols) -> None:
        if len(t) == 0:
            return
        chunk = {"t": t, "pos": 0}
        chunk.update(cols)
        self.chunks.append(chunk)

    def take(self, limit: float, inclusive: bool, monotone: bool = True):
        """Consume and return ``(chunk, start, stop)`` slices with
        ``t < limit`` (``<=`` when *inclusive*)."""
        out = []
        side = "right" if inclusive else "left"
        for chunk in self.chunks:
            pos = chunk["pos"]
            t = chunk["t"]
            if pos >= len(t):
                continue
            stop = int(np.searchsorted(t, limit, side=side))
            if stop <= pos:
                if monotone:
                    break
                continue
            chunk["pos"] = stop
            out.append((chunk, pos, stop))
        if out:
            self.chunks = [c for c in self.chunks if c["pos"] < len(c["t"])]
        return out

    def pending(self) -> int:
        return sum(len(c["t"]) - c["pos"] for c in self.chunks)

    def clear(self) -> None:
        self.chunks = []


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
    """Batched driver for the WorkloadClients of one NetCache rack.

    Parameters
    ----------
    cluster:
        A :class:`repro.sim.cluster.Cluster` (cache enabled).  Every
        :class:`WorkloadClient` attached to it is taken over; none may
        have an AIMD controller (it would re-plan rates per interval,
        which only the scalar loop orders correctly).
    client:
        Optional: the first workload client, accepted for backward
        compatibility with the single-client constructor; must be the
        rack's first WorkloadClient when given.
    trace:
        Optional delivery-trace digest (:class:`repro.net.trace.
        DeliveryTrace`); it is registered as a delivery hook for scalar
        segments and fed directly by the lanes.
    """

    def __init__(self, cluster, client: Optional[WorkloadClient] = None,
                 trace=None):
        switch = cluster.switch
        if not isinstance(switch, NetCacheSwitch):
            raise ConfigurationError("fast path needs a NetCacheSwitch rack")
        clients = [c for c in cluster.clients
                   if isinstance(c, WorkloadClient)]
        if not clients:
            raise ConfigurationError("fast path drives WorkloadClients")
        if client is not None and client is not clients[0]:
            raise ConfigurationError(
                "client must be the rack's first WorkloadClient")
        for cl in clients:
            if cl.rate_controller is not None:
                raise ConfigurationError(
                    "fast path does not support AIMD rate control")
        for server in cluster.servers.values():
            if server.queue_limit is not None:
                raise ConfigurationError(
                    "fast path needs unbounded server queues")

        self.cluster = cluster
        self.sim = cluster.sim
        self.events = cluster.sim.events
        self.client = clients[0]
        self.workload = clients[0].workload
        self.switch = switch
        self.tor_id = switch.node_id
        self.client_id = clients[0].node_id
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
        self._server_links = {
            sid: sim.link_between(self.tor_id, sid) for sid in self._servers}
        self._watched_links = [st.link for st in self._states] + \
            list(self._server_links.values())
        # Zero-queueing lower bounds on a write's switch->update delivery
        # lag, by pipeline stage (see _write_safe_limit).
        self._write_lag_server = {
            sid: self._server_links[sid].latency + srv.service_time
            for sid, srv in self._servers.items()}
        self._min_write_lag_switch = min(
            2 * self._server_links[sid].latency + srv.service_time
            for sid, srv in self._servers.items())

        num_keys = {cl.workload.keyspace.num_keys for cl in clients}
        if len(num_keys) != 1:
            raise ConfigurationError(
                "fast path needs one shared keyspace across clients")
        keyspace = self.workload.keyspace
        self._key_of_item = [keyspace.key(i)
                             for i in range(keyspace.num_keys)]
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

        # Lanes.
        self._sw_arr = _Lane()
        self._srv_arr: Dict[int, _Lane] = {s: _Lane() for s in self._servers}
        self._srv_done: Dict[int, _Lane] = {s: _Lane() for s in self._servers}
        self._sw_rep: Dict[int, _Lane] = {s: _Lane() for s in self._servers}
        self._cli_rep = _Lane()
        #: switch -> controller hot-key reports: (delivery time, key).
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

    # -- cleanliness --------------------------------------------------------------

    def fault_window_open(self) -> bool:
        """True while the rack is not eligible for batched windows."""
        return self._dirty_reason() is not None

    def _rack_clean(self) -> bool:
        return self._dirty_reason() is None

    def _dirty_reason(self) -> Optional[str]:
        """Why the rack is ineligible for batched windows (None = clean)."""
        if _obs.ACTIVE is not None:
            return "observer"
        # Static eligibility: per-layout opt-in.  A layout is eligible once
        # its batch probe (classify_reads) is proven byte-identical to the
        # scalar lookup loop — paper, setassoc, and orbit all are; a layout
        # that opts out scalarizes every window under the attributed
        # ``layout`` reason.  Layout-level churn (in-set displacement,
        # segment churn) needs no reason here: installs and evicts are
        # control-plane events, and events bound every lane flush.
        if not self.switch.dataplane.layout.fastpath_eligible:
            return "layout"
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
            self.sim.start()
            self._started = True
            now = self.sim.now
            for st in self._states:
                st.next_send = now
            self._flag_horizon = now
        while True:
            if self._mode is _SCALAR:
                if self._rack_clean():
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

    def in_flight(self) -> int:
        """Requests and hot-key reports currently on the wire (lanes +
        scalar outstanding)."""
        lanes = self._sw_arr.pending() + self._cli_rep.pending() \
            + self._reports.pending()
        for group in (self._srv_arr, self._srv_done, self._sw_rep):
            lanes += sum(lane.pending() for lane in group.values())
        outst = sum(len(st.client._outstanding) for st in self._states)
        return lanes + outst

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
        if not self._multi:
            st = self._states[0]
            if st.client.running:
                self._generate_single(st, boundary, inclusive)
            return
        batches = []
        for st in self._states:
            if not st.client.running:
                continue
            batch = self._collect_sends(st, boundary, inclusive)
            if batch is not None:
                batches.append(batch)
        if not batches:
            return
        if len(batches) == 1:
            st, times, _prev, flags, items, seqs, vals = batches[0]
            self._push_sends(times, items, seqs,
                             flags.astype(np.int16) + 1, bool(flags.any()),
                             vals, np.full(len(times), st.idx, np.int64))
            return
        times = np.concatenate([b[1] for b in batches])
        prev = np.concatenate([b[2] for b in batches])
        flags = np.concatenate([b[3] for b in batches])
        items = np.concatenate([b[4] for b in batches])
        seqs = np.concatenate([b[5] for b in batches])
        idx = np.concatenate([np.full(len(b[1]), b[0].idx, np.int64)
                              for b in batches])
        vals = None
        if any(b[6] is not None for b in batches):
            vals = np.concatenate([
                b[6] if b[6] is not None
                else np.empty(len(b[1]), dtype=object) for b in batches])
        # The scalar heap pops equal-time sends in event-seq order; seqs
        # are assigned when the *previous* tick ran, so (t, prev, idx)
        # reproduces the tie-break exactly (equal t and prev force equal
        # rates, hence identical histories down to client start order).
        order = np.lexsort((idx, prev, times))
        times, items, seqs, idx = (times[order], items[order],
                                   seqs[order], idx[order])
        flags = flags[order]
        if vals is not None:
            vals = vals[order]
        self._push_sends(times, items, seqs, flags.astype(np.int16) + 1,
                         bool(flags.any()), vals, idx)

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

    def _generate_single(self, st: _ClientState, boundary: float,
                         inclusive: bool) -> None:
        """Single-client fast path: push per segment, no merge."""
        client = st.client
        while True:
            t0 = st.next_send
            if t0 > boundary or (t0 == boundary and not inclusive):
                return
            avail = self._ensure_queries(st)
            est = int((boundary - t0) * client.rate) + 2
            n = min(avail, est)
            times = self._send_times(st, t0, n)
            side = "right" if inclusive else "left"
            count = int(np.searchsorted(times[:n], boundary, side=side))
            if count == 0:
                return
            flags = st.q_flags[st.q_pos:st.q_pos + count]
            items = st.q_items[st.q_pos:st.q_pos + count].copy()
            t = times[:count].copy()
            start = next(client._seq)
            client._seq = itertools.count(start + count)
            seqs = np.arange(start, start + count, dtype=np.int64)
            client.sent += count
            client._interval_sent += count
            st.link.transmitted += count
            st.lane_sends += count
            vals = self._draw_values(st, flags, items)
            self._push_sends(t, items, seqs, flags.astype(np.int16) + 1,
                             vals is not None, vals, None)
            st.q_pos += count
            st.prev_send = float(t[-1])
            st.next_send = float(times[count])
            if count < n:
                return  # boundary reached
            # pre-drawn buffer exhausted mid-window: refill and continue

    def _push_sends(self, times, items, seqs, op, has_write, vals, idx):
        cols = dict(items=items, seqs=seqs, sent=times, op=op, w=has_write)
        if vals is not None:
            cols["val"] = vals
        if idx is not None:
            cols["idx"] = idx
        self._sw_arr.push(times + self._states[0].link.latency, **cols)

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

    # -- fast-forward hooks (SimCoreRunner) ---------------------------------------

    def sends_in_window(self, t_to: float) -> int:
        """Analytic send count in ``[now, t_to)`` across all clients."""
        total = 0
        for st in self._states:
            if st.next_send < t_to:
                total += int(np.floor(
                    (t_to - st.next_send) * st.client.rate)) + 1
        return total

    def advance_send_clock(self, t_to: float) -> None:
        """Skip every client's send clock past ``t_to`` analytically."""
        for st in self._states:
            if st.next_send < t_to:
                n = int(np.floor(
                    (t_to - st.next_send) * st.client.rate)) + 1
                st.next_send += n * (1.0 / st.client.rate)

    def drain_lanes(self) -> None:
        """Flush every pending lane entry regardless of time.

        The fast-forward calls this before jumping the clock so no lane
        entry is left carrying a pre-jump timestamp; fast-forwarded
        windows are approximate by construction, so completing the
        in-flight tail "early" is within contract.
        """
        self._flush_lanes(np.inf, True)
        self._flag_horizon = max(self._flag_horizon, self.events.now)

    def note_time_jump(self) -> None:
        """Re-anchor retry bookkeeping after a fast-forward clock jump."""
        self._flag_horizon = max(self._flag_horizon, self.events.now)
        self._deadlines.clear()

    # -- retry scalarization -------------------------------------------------------

    def _state_of(self, chunk, i: int) -> _ClientState:
        idx = chunk.get("idx")
        return self._states[int(idx[i])] if idx is not None else \
            self._states[0]

    def _scalarize_entry(self, st: _ClientState, seq: int, item: int,
                         sent: float, op: int, value,
                         track: bool = False) -> None:
        """Register the real ``_Outstanding`` the scalar path would hold.

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
        seq = int(seq)
        if seq in st.scalarized or seq in client._outstanding:
            return
        item = int(item)
        key = self._key_of_item[item]
        owner = int(self._server_of_item[item])
        sent = float(sent)
        if op == _GET:
            pkt = make_get(client.node_id, owner, key, seq=seq)
            entry = _Outstanding(Op.GET, key, sent, None)
        else:
            pkt = make_put(client.node_id, owner, key, value, seq=seq)
            entry = _Outstanding(Op.PUT, key, sent, None)
        pkt.created_at = sent
        policy = st.policy
        if policy is not None:
            if op != _GET:
                pkt.token = seq
            entry.template = pkt
            entry.rng = policy.make_rng(seq)
            deadline = sent + policy.delay(0, entry.rng)
            entry.timer = self.events.schedule_abs(
                max(deadline, self.events.now), client._on_timeout, seq)
            self.retry_scalarized += 1
        client._outstanding[seq] = entry
        if track:
            st.scalarized.add(seq)

    def _iter_pending(self):
        """Every pending lane slice, with its op column name."""
        yield self._sw_arr, "op"
        for lane in self._srv_arr.values():
            yield lane, "op"
        for lane in self._srv_done.values():
            yield lane, "op"
        for lane in self._sw_rep.values():
            yield lane, "rop"
        yield self._cli_rep, "rop"

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
        for lane, op_col in self._iter_pending():
            for chunk in lane.chunks:
                pos, t = chunk["pos"], chunk["t"]
                if pos >= len(t):
                    continue
                seqs = chunk["seqs"]
                sent = chunk["sent"]
                items = chunk["items"]
                ops = chunk[op_col]
                vals = chunk.get("val")
                for i in range(pos, len(t)):
                    st = self._state_of(chunk, i)
                    policy = st.policy
                    if policy is None:
                        continue
                    seq = int(seqs[i])
                    if seq in st.scalarized or seq in st.client._outstanding:
                        continue
                    dkey = (st.idx, seq)
                    deadline = self._deadlines.get(dkey)
                    if deadline is None:
                        deadline = float(sent[i]) + policy.delay(
                            0, policy.make_rng(seq))
                    if deadline <= limit:
                        opv = int(ops[i])
                        orig = _GET if opv in (_GET, _GET_REPLY) else _PUT
                        value = vals[i] if vals is not None else None
                        self._scalarize_entry(st, seq, items[i], sent[i],
                                              orig, value, track=True)
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
        dp = self.switch.dataplane
        if self._cached_mask_version != dp.contents_version:
            mask = np.zeros(len(self._key_of_item), dtype=bool)
            item_of = self.workload.keyspace.item
            for key in dp.cached_keys():
                mask[item_of(key)] = True
            self._cached_mask = mask
            self._cached_mask_version = dp.contents_version
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
        mask = None
        for chunk in self._sw_arr.chunks:
            if not chunk["w"]:
                continue
            if mask is None:
                mask = self._cached_item_mask()
            pos, t, op = chunk["pos"], chunk["t"], chunk["op"]
            items = chunk["items"]
            w = np.flatnonzero((op[pos:] != _GET) & mask[items[pos:]])
            if len(w):
                bound = min(bound,
                            t[pos + w[0]] + self._min_write_lag_switch)
        for sid, lane in self._srv_arr.items():
            lag = self._write_lag_server[sid]
            for chunk in lane.chunks:
                if not chunk["w"]:
                    continue
                pos, t, op = chunk["pos"], chunk["t"], chunk["op"]
                w = np.flatnonzero(op[pos:] == _PUT_CACHED)
                if len(w):
                    bound = min(bound, t[pos + w[0]] + lag)
        for sid, lane in self._srv_done.items():
            lag = self._server_links[sid].latency
            for chunk in lane.chunks:
                if not chunk["w"]:
                    continue
                pos, t, op = chunk["pos"], chunk["t"], chunk["op"]
                w = np.flatnonzero(op[pos:] == _PUT_CACHED)
                if len(w):
                    bound = min(bound, t[pos + w[0]] + lag)
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
            progressed |= self._flush_switch_arrivals(eff, inc)
            progressed |= self._flush_server_arrivals(eff, inc)
            progressed |= self._flush_server_completions(eff, inc)
            progressed |= self._flush_switch_replies(eff, inc)
            progressed |= self._flush_client_replies(eff, inc)
            progressed |= self._flush_reports(eff, inc)
            if not progressed:
                break

    # .. client -> switch ..........................................................

    def _flush_switch_arrivals(self, limit: float, inclusive: bool) -> bool:
        slices = self._sw_arr.take(limit, inclusive)
        if not slices:
            return False
        down = self.sim._down_nodes
        for chunk, start, stop in slices:
            if not chunk["w"]:
                self._switch_arrival_reads(chunk, start, stop)
                continue
            osl = chunk["op"][start:stop]
            if down and bool(np.isin(
                    self._server_of_item[chunk["items"][start:stop]],
                    list(down)).any()):
                # A crashed owner in the slice: dropped entries must
                # scalarize their retry state in exact stream order —
                # equal-deadline retry timers tie-break by heap insertion,
                # and a flipped GET/PUT pair completes with swapped times
                # at the restarted server.  Walk op runs strictly, the
                # order the contract was first proven with.
                i = start
                while i < stop:
                    if osl[i - start] == _GET:
                        j = i
                        while j < stop and osl[j - start] == _GET:
                            j += 1
                        self._switch_arrival_reads(chunk, i, j)
                        i = j
                    else:
                        self._switch_arrival_write(chunk, i)
                        i += 1
                continue
            # Only cache-hit writes are ordering barriers at the switch:
            # they invalidate a key that later reads must observe as
            # invalid.  Writes to uncached keys commute with the
            # surrounding reads (no sampler RNG, no read-visible switch
            # state), so whole segments between barriers flush as one
            # merged batch instead of one batch per read run.
            mask = self._cached_item_mask()
            barriers = np.flatnonzero(
                (osl != _GET) & mask[chunk["items"][start:stop]])
            seg = start
            for b in barriers:
                p = start + int(b)
                if p > seg:
                    self._switch_arrival_mixed(chunk, seg, p)
                self._switch_arrival_write(chunk, p)
                seg = p + 1
            if stop > seg:
                self._switch_arrival_mixed(chunk, seg, stop)
        return True

    def _switch_arrival_mixed(self, chunk, start: int, stop: int) -> None:
        """A barrier-free segment: reads plus writes to uncached keys.

        The reads go through the statistics pipeline as one batch in
        stream order; each write runs the real write pipeline; the
        per-server lanes then receive the merged forward traffic in
        arrival order (so server queueing evolves exactly as scalar).
        Reordering reads ahead of the segment's writes is unobservable:
        the trace digest is a multiset, every touched counter commutes,
        and an uncached write mutates nothing a read classifies against.
        """
        osl = chunk["op"][start:stop]
        wsel = osl != _GET
        if not wsel.any():
            self._switch_arrival_reads(chunk, start, stop)
            return
        sim = self.sim
        t_all, items_all = chunk["t"], chunk["items"]
        seqs_all, sent_all = chunk["seqs"], chunk["sent"]
        idx_all = chunk.get("idx")
        rpos = start + np.flatnonzero(~wsel)
        wpos = start + np.flatnonzero(wsel)
        miss_pos = rpos
        if len(rpos):
            hit = self._switch_read_batch(
                t_all[rpos], items_all[rpos], seqs_all[rpos], sent_all[rpos],
                idx_all[rpos] if idx_all is not None else None)
            miss_pos = rpos[~hit]
        live_pos: List[int] = []
        live_op: List[int] = []
        for p in wpos:
            opv = self._switch_arrival_write_core(chunk, int(p))
            if opv is not None:
                live_pos.append(int(p))
                live_op.append(opv)
        if not len(miss_pos) and not live_pos:
            return
        pos = np.concatenate(
            [miss_pos, np.asarray(live_pos, dtype=np.int64)])
        ops = np.concatenate(
            [np.full(len(miss_pos), _GET, np.int16),
             np.asarray(live_op, dtype=np.int16)])
        order = np.argsort(pos, kind="stable")
        pos, ops = pos[order], ops[order]
        owners = self._server_of_item[items_all[pos]]
        for sid in np.unique(owners):
            sel = owners == sid
            sid = int(sid)
            ppos = pos[sel]
            k = len(ppos)
            if sid in sim._down_nodes:
                # Only reads reach here: a write to a down owner was
                # already dropped (and scalarized) by the write core.
                sim.lost += k
                sim.node_drops += k
                self._scalarize_dropped(
                    chunkless_items=items_all[ppos], seqs=seqs_all[ppos],
                    sent=sent_all[ppos],
                    idx=idx_all[ppos] if idx_all is not None else None,
                    op=_GET, vals=None)
                continue
            link = self._server_links[sid]
            link.transmitted += k
            opsel = ops[sel]
            anyw = bool((opsel != _GET).any())
            cols = dict(items=items_all[ppos], seqs=seqs_all[ppos],
                        sent=sent_all[ppos], op=opsel, w=anyw)
            if anyw:
                cols["val"] = chunk["val"][ppos]
            if idx_all is not None:
                cols["idx"] = idx_all[ppos]
            self._srv_arr[sid].push(t_all[ppos] + link.latency, **cols)

    def _push_reports(self, t: np.ndarray, hot: List) -> None:
        """Hot-key reports of a read batch arriving at *t*, onto their
        lane: ``report_hot_key`` only appends to controller-private state,
        so a report commutes with every lane stage and needs no event —
        only its place among the events, which the flush limit keeps."""
        handler = self.switch.hot_key_handler
        if hot and handler is not None:
            pos, keys = zip(*hot)
            self._reports.push(t[list(pos)] + self.switch.report_latency,
                               keys=keys, handler=handler)

    def _flush_reports(self, limit: float, inclusive: bool) -> bool:
        slices = self._reports.take(limit, inclusive)
        for chunk, start, stop in slices:
            for key in chunk["keys"][start:stop]:
                chunk["handler"](key)
        return bool(slices)

    def _push_hit_replies(self, t_hit: np.ndarray,
                          delays: Optional[np.ndarray],
                          latency: float, cols: dict) -> None:
        """Push cache-hit replies onto the client-reply lane, folding any
        per-record recirculation delay into the delivery times.

        The scalar path schedules a delayed ``_send_out`` event per
        multi-pass hit, so its reply lands at ``(t + delay) + latency``
        (left-associated floats); the vectorized form reproduces that
        exactly.  Delays can reorder the hit stream, and the lane's
        ``take`` binary-searches each chunk, so a delayed chunk is stable-
        sorted by final delivery time before the push (stable = hit-stream
        order on exact float ties, matching the scalar heap's scheduling
        order).  All-zero delay arrays use the plain path: with positive
        times ``(t + 0.0) + latency == t + latency`` bit-for-bit.
        """
        if delays is None or not delays.any():
            self._cli_rep.push(t_hit + latency, **cols)
            return
        rt = (t_hit + delays) + latency
        order = np.argsort(rt, kind="stable")
        self._cli_rep.push(
            rt[order],
            **{k: (v[order] if isinstance(v, np.ndarray) else v)
               for k, v in cols.items()})

    def _switch_read_batch(self, t, items, seqs, sent, idx) -> np.ndarray:
        """Reads arriving at the switch, in stream order: delivery
        accounting, the read pipeline as one batch, hot-key reports and
        cache-hit replies.  Returns the hit mask; forwarding the misses
        stays with the caller."""
        trace = self._trace
        key_of = self._key_of_item
        self.sim.delivered += len(t)
        if trace is not None:
            if idx is None:
                trace.note_batch(t, self.client_id, self.tor_id, _GET, seqs)
            else:
                for ci in np.unique(idx):
                    sel = idx == ci
                    trace.note_batch(t[sel],
                                     self._states[int(ci)].client.node_id,
                                     self.tor_id, _GET, seqs[sel])
        res = self.switch.process_read_batch(
            [key_of[i] for i in items.tolist()])
        self._push_reports(t, res.hot)
        hit = res.hit_mask
        nh = int(hit.sum())
        if nh:
            clink = self._states[0].link
            if idx is None:
                clink.transmitted += nh
            else:
                counts = np.bincount(idx[hit], minlength=len(self._states))
                for ci, k in enumerate(counts):
                    if k:
                        self._states[ci].link.transmitted += int(k)
            cols = dict(seqs=seqs[hit], sent=sent[hit], items=items[hit],
                        hit=True, w=False,
                        rop=np.full(nh, _GET_REPLY, np.int16))
            if idx is not None:
                cols["idx"] = idx[hit]
            self._push_hit_replies(t[hit], res.hit_delays,
                                   clink.latency, cols)
        return hit

    def _switch_arrival_reads(self, chunk, start: int, stop: int) -> None:
        sim = self.sim
        t = chunk["t"][start:stop]
        items = chunk["items"][start:stop]
        seqs = chunk["seqs"][start:stop]
        sent = chunk["sent"][start:stop]
        idx = chunk.get("idx")
        idx = idx[start:stop] if idx is not None else None
        hit = self._switch_read_batch(t, items, seqs, sent, idx)
        if not hit.all():
            miss = ~hit
            mt, mi = t[miss], items[miss]
            ms, msent = seqs[miss], sent[miss]
            midx = idx[miss] if idx is not None else None
            owners = self._server_of_item[mi]
            for sid in np.unique(owners):
                sel = owners == sid
                k = int(sel.sum())
                sid = int(sid)
                if sid in sim._down_nodes:
                    # transmit() drops at the node before touching the
                    # link: no link counter, no delivery.
                    sim.lost += k
                    sim.node_drops += k
                    self._scalarize_dropped(chunkless_items=mi[sel],
                                            seqs=ms[sel], sent=msent[sel],
                                            idx=(midx[sel] if midx is not None
                                                 else None),
                                            op=_GET, vals=None)
                    continue
                link = self._server_links[sid]
                link.transmitted += k
                cols = dict(items=mi[sel], seqs=ms[sel], sent=msent[sel],
                            op=np.full(k, _GET, np.int16), w=False)
                if midx is not None:
                    cols["idx"] = midx[sel]
                self._srv_arr[sid].push(mt[sel] + link.latency, **cols)

    def _scalarize_dropped(self, chunkless_items, seqs, sent, idx, op,
                           vals) -> None:
        """Node-dropped sends keep their scalar retry state alive.

        The lane entry is gone, so any previously-tracked seq stops
        expecting a lane reply (the retransmission chain is real events).
        """
        for i in range(len(seqs)):
            st = self._states[int(idx[i])] if idx is not None \
                else self._states[0]
            if st.policy is None:
                continue
            value = vals[i] if vals is not None else None
            self._scalarize_entry(st, seqs[i], chunkless_items[i],
                                  sent[i], op, value)
            st.scalarized.discard(int(seqs[i]))

    def _switch_arrival_write_core(self, chunk, i: int) -> Optional[int]:
        """Run one write through the real switch pipeline (no forwarding).

        The lookup/invalidate/rewrite runs in :meth:`NetCacheSwitch.
        process_write_packet` (real dataplane state).  Returns the
        forwarded op (``PUT`` or ``PUT_CACHED``) when the owner is up,
        ``None`` when the packet died at a crashed owner (in which case
        the retry state has already been scalarized).
        """
        sim = self.sim
        st = self._state_of(chunk, i)
        item = int(chunk["items"][i])
        seq = int(chunk["seqs"][i])
        sent = float(chunk["sent"][i])
        value = chunk["val"][i]
        client = st.client
        sim.delivered += 1
        if self._trace is not None:
            self._trace.note_batch(chunk["t"][i:i + 1], client.node_id,
                                   self.tor_id, _PUT, chunk["seqs"][i:i + 1])
        owner = int(self._server_of_item[item])
        pkt = make_put(client.node_id, owner, self._key_of_item[item],
                       value, seq=seq)
        pkt.created_at = sent
        pkt.last_hop = client.node_id
        if st.policy is not None:
            pkt.token = seq
        self.switch.process_write_packet(pkt)
        if owner in sim._down_nodes:
            sim.lost += 1
            sim.node_drops += 1
            if st.policy is not None:
                self._scalarize_entry(st, seq, item, sent, _PUT, value)
                st.scalarized.discard(seq)
            return None
        return int(pkt.op)

    def _switch_arrival_write(self, chunk, i: int) -> None:
        """One barrier write through the real switch pipeline + forward."""
        op = self._switch_arrival_write_core(chunk, i)
        if op is None:
            return
        owner = int(self._server_of_item[int(chunk["items"][i])])
        link = self._server_links[owner]
        link.transmitted += 1
        cols = dict(items=chunk["items"][i:i + 1],
                    seqs=chunk["seqs"][i:i + 1],
                    sent=chunk["sent"][i:i + 1],
                    op=np.array([op], np.int16), w=True,
                    val=chunk["val"][i:i + 1])
        if "idx" in chunk:
            cols["idx"] = chunk["idx"][i:i + 1]
        self._srv_arr[owner].push(chunk["t"][i:i + 1] + link.latency, **cols)

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

    def _note_ops(self, t, src: int, dst: int, ops, seqs) -> None:
        """Trace notes for a slice with a mixed op column, one per op
        class (the digest is a multiset, so stream order is not noted)."""
        for op in set(ops.tolist()):
            sel = ops == op
            self._trace.note_batch(t[sel], src, dst, op, seqs[sel])

    def _flush_server_arrivals(self, limit: float, inclusive: bool) -> bool:
        progressed = False
        sim = self.sim
        trace = self._trace
        for sid, lane in self._srv_arr.items():
            slices = lane.take(limit, inclusive)
            if not slices:
                continue
            progressed = True
            server = self._servers[sid]
            down = sid in sim._down_nodes
            for chunk, start, stop in slices:
                t = chunk["t"][start:stop]
                n = stop - start
                if down:
                    # _deliver() drops at a crashed destination.
                    sim.lost += n
                    sim.node_drops += n
                    if chunk["w"]:
                        self._scalarize_dropped_mixed(chunk, start, stop)
                    else:
                        idx = chunk.get("idx")
                        self._scalarize_dropped(
                            chunkless_items=chunk["items"][start:stop],
                            seqs=chunk["seqs"][start:stop],
                            sent=chunk["sent"][start:stop],
                            idx=idx[start:stop] if idx is not None
                            else None,
                            op=_GET, vals=None)
                    continue
                seqs = chunk["seqs"][start:stop]
                sim.delivered += n
                if trace is not None:
                    if not chunk["w"]:
                        trace.note_batch(t, self.tor_id, sid, _GET, seqs)
                    else:
                        self._note_ops(t, self.tor_id, sid,
                                       chunk["op"][start:stop], seqs)
                server.received += n
                comp = self._server_completions(server, t)
                server._queued += n
                cols = dict(items=chunk["items"][start:stop], seqs=seqs,
                            sent=chunk["sent"][start:stop],
                            op=chunk["op"][start:stop], w=chunk["w"])
                if "val" in chunk:
                    cols["val"] = chunk["val"][start:stop]
                if "idx" in chunk:
                    cols["idx"] = chunk["idx"][start:stop]
                self._srv_done[sid].push(comp, **cols)
        return progressed

    def _scalarize_dropped_mixed(self, chunk, start: int, stop: int) -> None:
        """Per-entry retry scalarization for a dropped mixed-op slice."""
        ops = chunk["op"]
        vals = chunk.get("val")
        for i in range(start, stop):
            st = self._state_of(chunk, i)
            if st.policy is None:
                continue
            opv = int(ops[i])
            orig = _GET if opv == _GET else _PUT
            value = vals[i] if vals is not None else None
            self._scalarize_entry(st, chunk["seqs"][i], chunk["items"][i],
                                  chunk["sent"][i], orig, value)
            st.scalarized.discard(int(chunk["seqs"][i]))

    # .. server completion .........................................................

    def _flush_server_completions(self, limit: float,
                                  inclusive: bool) -> bool:
        progressed = False
        for sid, lane in self._srv_done.items():
            slices = lane.take(limit, inclusive)
            if not slices:
                continue
            progressed = True
            server = self._servers[sid]
            for chunk, start, stop in slices:
                n = stop - start
                # _complete() bookkeeping, order-independent per slice.
                server._queued -= n
                server.processed += n
                if chunk["w"] and sid in self.sim._down_nodes:
                    # Dropped replies scalarize their retry state in
                    # strict stream order (equal-deadline timers
                    # tie-break by heap insertion): entry by entry.
                    for i in range(start, stop):
                        self._complete_slice(server, sid, chunk, i, i + 1)
                else:
                    self._complete_slice(server, sid, chunk, start, stop)
        return progressed

    def _complete_slice(self, server, sid: int, chunk, start: int,
                        stop: int) -> None:
        """One server's completions below the limit, whatever the op mix:
        the reads charged to the store as one batch around the writes,
        which run through the real shim in stream order
        (:meth:`KVStore.get_batch` keeps the counters sequential-exact),
        then one reply chunk in completion order."""
        sim = self.sim
        rows = slice(start, stop)
        rops = np.full(stop - start, _GET_REPLY, np.int16)
        # The shim serves the value regardless of reachability; only the
        # reply transmission can drop.
        if chunk["w"]:
            reads = chunk["op"][rows] == _GET
            wpos = np.flatnonzero(~reads)

            def apply(j: int) -> None:
                rops[wpos[j]] = self._complete_write(
                    server, sid, chunk, start + int(wpos[j]))

            server.store.get_batch(
                chunk["items"][rows][reads], self._store_columns,
                (wpos - np.arange(len(wpos))).tolist(), apply)
            # Blocked and dropped writes get no lane reply.
            live = rops >= 0
            rows, rops = start + np.flatnonzero(live), rops[live]
        else:
            server.store.get_batch(chunk["items"][rows], self._store_columns)
        idx = chunk.get("idx")
        if sid in sim._down_nodes:
            # send_reply(): transmit from a crashed source drops (the
            # writes were accounted one by one; what is left are reads).
            sim.lost += len(rops)
            sim.node_drops += len(rops)
            if self._tmin is not None:
                self._scalarize_dropped(
                    chunkless_items=chunk["items"][rows],
                    seqs=chunk["seqs"][rows], sent=chunk["sent"][rows],
                    idx=idx[rows] if idx is not None else None,
                    op=_GET, vals=None)
            return
        link = self._server_links[sid]
        link.transmitted += len(rops)
        cols = dict(items=chunk["items"][rows], seqs=chunk["seqs"][rows],
                    sent=chunk["sent"][rows], rop=rops, w=chunk["w"])
        if chunk["w"]:
            cols["val"] = chunk["val"][rows]
        if idx is not None:
            cols["idx"] = idx[rows]
        self._sw_rep[sid].push(chunk["t"][rows] + link.latency, **cols)

    def _complete_write(self, server, sid: int, chunk, i: int) -> int:
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
        """
        sim = self.sim
        st = self._state_of(chunk, i)
        t = float(chunk["t"][i])
        item = int(chunk["items"][i])
        seq = int(chunk["seqs"][i])
        sent = float(chunk["sent"][i])
        value = chunk["val"][i]
        op = int(chunk["op"][i])
        client = st.client
        key = self._key_of_item[item]
        pkt = Packet(src=client.node_id, dst=sid, op=Op(op), seq=seq,
                     key=key, value=value, udp=False)
        pkt.created_at = sent
        if st.policy is not None:
            pkt.token = seq
        down = sid in sim._down_nodes
        events = self.events
        captured: List[Packet] = []

        def lane_reply(reply: Packet) -> None:
            captured.append(reply)

        def lane_gateway(update: Packet) -> None:
            if down:
                # transmit() from a crashed source: node drop, no link
                # counter, no delivery (the RTO timer still retransmits).
                sim.lost += 1
                sim.node_drops += 1
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
        try:
            server.shim.process(pkt)
        finally:
            del server.send_reply
            del server.send_to_gateway
            del server.schedule

        if not captured:
            # Blocked behind an update/insertion (or dedup-QUEUED): the
            # real drain event will answer through the real transport.
            self._scalarize_entry(st, seq, item, sent, _PUT, value)
            self.write_scalarized += 1
            return -1
        if down:
            sim.lost += 1
            sim.node_drops += 1
            if st.policy is not None:
                self._scalarize_entry(st, seq, item, sent, _PUT, value)
                st.scalarized.discard(seq)
            return -1
        return int(captured[0].op)

    # .. server -> switch -> client ................................................

    def _flush_switch_replies(self, limit: float, inclusive: bool) -> bool:
        progressed = False
        sim = self.sim
        trace = self._trace
        for sid, lane in self._sw_rep.items():
            slices = lane.take(limit, inclusive)
            if not slices:
                continue
            progressed = True
            for chunk, start, stop in slices:
                t = chunk["t"][start:stop]
                seqs = chunk["seqs"][start:stop]
                n = stop - start
                sim.delivered += n
                if trace is not None:
                    if not chunk["w"]:
                        trace.note_batch(t, sid, self.tor_id,
                                         _GET_REPLY, seqs)
                    else:
                        self._note_ops(t, sid, self.tor_id,
                                       chunk["rop"][start:stop], seqs)
                self.switch.process_reply_batch(n)
                idx = chunk.get("idx")
                clink = self._states[0].link
                if idx is None:
                    clink.transmitted += n
                else:
                    counts = np.bincount(idx[start:stop],
                                         minlength=len(self._states))
                    for ci, k in enumerate(counts):
                        if k:
                            self._states[ci].link.transmitted += int(k)
                cols = dict(seqs=seqs, sent=chunk["sent"][start:stop],
                            items=chunk["items"][start:stop], hit=False,
                            rop=chunk["rop"][start:stop], w=chunk["w"])
                if "val" in chunk:
                    cols["val"] = chunk["val"][start:stop]
                if idx is not None:
                    cols["idx"] = idx[start:stop]
                self._cli_rep.push(t + clink.latency, **cols)
        return progressed

    def _flush_client_replies(self, limit: float, inclusive: bool) -> bool:
        slices = self._cli_rep.take(limit, inclusive, monotone=False)
        if not slices:
            return False
        ts, seqs, sents, hits, rops, idxs = [], [], [], [], [], []
        for chunk, start, stop in slices:
            n = stop - start
            ts.append(chunk["t"][start:stop])
            seqs.append(chunk["seqs"][start:stop])
            sents.append(chunk["sent"][start:stop])
            hits.append(np.full(n, chunk["hit"], dtype=bool))
            rops.append(chunk["rop"][start:stop])
            idx = chunk.get("idx")
            idxs.append(idx[start:stop] if idx is not None
                        else np.zeros(n, np.int64))
        t = np.concatenate(ts)
        order = np.argsort(t, kind="stable")
        t = t[order]
        seq = np.concatenate(seqs)[order]
        sent = np.concatenate(sents)[order]
        hit = np.concatenate(hits)[order]
        rop = np.concatenate(rops)[order]
        idx = np.concatenate(idxs)[order]
        n = len(t)
        sim = self.sim
        sim.delivered += n
        trace = self._trace
        if not self._multi:
            st = self._states[0]
            if trace is not None:
                self._note_ops(t, self.tor_id, st.client.node_id, rop, seq)
            self._client_reply_batch(st, t, seq, sent, hit)
            return True
        for ci in range(len(self._states)):
            mask = idx == ci
            if not mask.any():
                continue
            st = self._states[ci]
            tc, sc = t[mask], seq[mask]
            if trace is not None:
                self._note_ops(tc, self.tor_id, st.client.node_id,
                               rop[mask], sc)
            self._client_reply_batch(st, tc, sc, sent[mask], hit[mask])
        return True

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

    def _register_outstanding(self, chunk, start: int, stop: int,
                              op_col: str) -> None:
        """Real ``_Outstanding`` entries (+ retry timers) for every lane
        entry being materialized; scalarized seqs already have one."""
        ops = chunk[op_col]
        vals = chunk.get("val")
        for i in range(start, stop):
            st = self._state_of(chunk, i)
            opv = int(ops[i])
            orig = _GET if opv in (_GET, _GET_REPLY) else _PUT
            value = vals[i] if vals is not None else None
            self._scalarize_entry(st, chunk["seqs"][i], chunk["items"][i],
                                  chunk["sent"][i], orig, value)
            # The lane entry becomes a real event; its reply is real too.
            st.scalarized.discard(int(chunk["seqs"][i]))

    def _pending_slices(self, lane: _Lane):
        for chunk in lane.chunks:
            if chunk["pos"] < len(chunk["t"]):
                yield chunk, chunk["pos"], len(chunk["t"])

    def _request_packet(self, chunk, i: int, op: int) -> Packet:
        """Rebuild the concrete request packet a lane entry stands for."""
        st = self._state_of(chunk, i)
        item = int(chunk["items"][i])
        key = self._key_of_item[item]
        owner = int(self._server_of_item[item])
        seq = int(chunk["seqs"][i])
        if op == _GET:
            pkt = make_get(st.client.node_id, owner, key, seq=seq)
        else:
            vals = chunk.get("val")
            value = vals[i] if vals is not None else None
            pkt = Packet(src=st.client.node_id, dst=owner, op=Op(op),
                         seq=seq, key=key, value=value, udp=False)
            if st.policy is not None:
                pkt.token = seq
        pkt.created_at = float(chunk["sent"][i])
        return pkt

    def _materialize(self) -> None:
        sim = self.sim
        tor = self.tor_id

        for chunk, start, stop in self._pending_slices(self._sw_arr):
            self._register_outstanding(chunk, start, stop, "op")
            for i in range(start, stop):
                st = self._state_of(chunk, i)
                pkt = self._request_packet(chunk, i, int(chunk["op"][i]))
                self.materialized += 1
                sim.deliver_at(float(chunk["t"][i]), st.client.node_id,
                               tor, pkt)
        for sid, lane in self._srv_arr.items():
            for chunk, start, stop in self._pending_slices(lane):
                self._register_outstanding(chunk, start, stop, "op")
                for i in range(start, stop):
                    pkt = self._request_packet(chunk, i,
                                               int(chunk["op"][i]))
                    self.materialized += 1
                    sim.deliver_at(float(chunk["t"][i]), tor, sid, pkt)
        for sid, lane in self._srv_done.items():
            server = self._servers[sid]
            for chunk, start, stop in self._pending_slices(lane):
                self._register_outstanding(chunk, start, stop, "op")
                for i in range(start, stop):
                    pkt = self._request_packet(chunk, i,
                                               int(chunk["op"][i]))
                    self.materialized += 1
                    # Arrival bookkeeping (received/_queued/_busy_until)
                    # already happened; re-enter at the completion event.
                    self.events.schedule_abs(float(chunk["t"][i]),
                                             server._complete, pkt)
        for sid, lane in self._sw_rep.items():
            for chunk, start, stop in self._pending_slices(lane):
                self._register_outstanding(chunk, start, stop, "rop")
                for i in range(start, stop):
                    st = self._state_of(chunk, i)
                    item = int(chunk["items"][i])
                    reply = Packet(src=sid, dst=st.client.node_id,
                                   op=Op(int(chunk["rop"][i])),
                                   seq=int(chunk["seqs"][i]),
                                   key=self._key_of_item[item])
                    self.materialized += 1
                    sim.deliver_at(float(chunk["t"][i]), sid, tor, reply)
        for chunk, start, stop in self._pending_slices(self._cli_rep):
            self._register_outstanding(chunk, start, stop, "rop")
            hit = chunk["hit"]
            for i in range(start, stop):
                st = self._state_of(chunk, i)
                item = int(chunk["items"][i])
                reply = Packet(src=int(self._server_of_item[item]),
                               dst=st.client.node_id,
                               op=Op(int(chunk["rop"][i])),
                               seq=int(chunk["seqs"][i]),
                               key=self._key_of_item[item])
                reply.served_by_cache = hit
                self.materialized += 1
                sim.deliver_at(float(chunk["t"][i]), tor,
                               st.client.node_id, reply)

        for chunk, start, stop in self._pending_slices(self._reports):
            for i in range(start, stop):
                self.events.schedule_abs(float(chunk["t"][i]),
                                         chunk["handler"], chunk["keys"][i])

        self._sw_arr.clear()
        self._cli_rep.clear()
        self._reports.clear()
        for group in (self._srv_arr, self._srv_done, self._sw_rep):
            for lane in group.values():
                lane.clear()
        self._deadlines.clear()
