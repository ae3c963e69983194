"""The NetCache controller (§3 "Controller", §4.3 "Cache Update", Fig 4).

The controller is *not* an SDN controller: it manages only the NetCache
state — which keys are cached and the statistics configuration.  It receives
heavy-hitter reports from the data plane (via the switch driver; here a
callback registered on the switch), compares them against sampled counters
of already-cached items (the Redis-style sampling trick the paper cites),
evicts less-popular keys, fetches values from the owning storage servers
(blocking writes to the key for the duration, which preserves coherence
during insertion), and installs the new entries.  It also clears the
statistics module every ``stats_interval`` seconds.
"""

from __future__ import annotations

import random
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque

import numpy as np

from repro.constants import (
    COUNTER_SAMPLE_SIZE,
    DEFAULT_CACHE_ITEMS,
    STATS_RESET_INTERVAL,
)
from repro.core.switch import NetCacheSwitch
from repro.errors import ConfigurationError
from repro.kvstore.partition import HashPartitioner
from repro.kvstore.server import StorageServer
from repro.obs import runtime as _obs
from repro.reliability.failure import FailureDetector
from repro.reliability.lease import LeaseTable


def pick_victim(candidate_count: int,
                counts: Sequence[int]) -> Optional[int]:
    """The paper's sample-and-compare eviction rule (§4.3).

    Position in the sample (whose counters are *counts*) of the coldest
    key — the first minimum — when the candidate's frequency estimate
    *candidate_count* beats it; None = reject the candidate.
    """
    if not len(counts):
        return None
    coldest = int(np.argmin(counts))   # the first minimum
    if candidate_count <= counts[coldest]:
        return None
    return coldest


class CacheController:
    """Control loop for one NetCache switch.

    Parameters
    ----------
    switch:
        The NetCache ToR switch to manage.
    partitioner:
        Key -> owning-server mapping (shared with the clients).
    servers:
        Node-id -> server objects, for control-plane value fetches.
    cache_capacity:
        Maximum number of cached items (experiments default to 10 000; the
        hardware ceiling is the 64K lookup table).
    sample_size:
        Cached keys sampled per eviction decision (§4.3).
    stats_interval:
        Seconds between statistics resets.
    update_interval:
        Seconds between update rounds that drain pending hot reports.
    port_resolver:
        Maps a server id to this switch's egress port toward it.  Defaults
        to the switch's own neighbour table (a ToR); a spine cache passes a
        resolver that routes through the server's rack.
    async_insertions:
        When True (set by :class:`~repro.sim.cluster.Cluster`), the
        ``finish_insertion`` control RPC completes :attr:`INSERTION_LATENCY`
        seconds later under an insertion lease instead of synchronously —
        modelling the real fetch→finish window so a server crash inside it
        is survivable (the lease expires and the insertion is rolled
        back).  Off by default: harnesses that drive the controller
        without running the simulator rely on synchronous insertions.
    """

    #: seconds between memory-reorganization checks (§4.4.2).
    REORGANIZE_INTERVAL = 10.0
    #: free-slot fragmentation above which a check repacks the values.
    FRAGMENTATION_THRESHOLD = 0.5
    # Reliability layer (see docs/RELIABILITY.md).
    #: seconds between failure-detector heartbeat rounds.
    HEARTBEAT_INTERVAL = 0.005
    #: consecutive missed heartbeats that declare a server dead.
    FAILURE_THRESHOLD = 3
    #: seconds an insertion lease lives before the reaper aborts it; it
    #: must outlast INSERTION_LATENCY.
    LEASE_TIMEOUT = 0.005
    #: seconds from fetching a value to the ``finish_insertion`` RPC.
    INSERTION_LATENCY = 200e-6

    def __init__(self,
                 switch: NetCacheSwitch,
                 partitioner: HashPartitioner,
                 servers: Dict[int, StorageServer],
                 cache_capacity: int = DEFAULT_CACHE_ITEMS,
                 sample_size: int = COUNTER_SAMPLE_SIZE,
                 stats_interval: float = STATS_RESET_INTERVAL,
                 update_interval: float = 0.1,
                 seed: int = 42,
                 port_resolver=None,
                 async_insertions: bool = False,
                 server_probe: Optional[Callable[[int], bool]] = None):
        if cache_capacity <= 0:
            raise ConfigurationError("cache_capacity must be positive")
        if sample_size <= 0:
            raise ConfigurationError("sample_size must be positive")
        # ``not x > 0`` rejects NaN too.
        if not update_interval > 0:
            raise ConfigurationError("update_interval must be positive")
        if not stats_interval > 0:
            raise ConfigurationError("stats_interval must be positive")
        self.switch = switch
        self.partitioner = partitioner
        self.servers = servers
        self.cache_capacity = cache_capacity
        self.sample_size = sample_size
        self.stats_interval = stats_interval
        self.update_interval = update_interval
        self._port_of = port_resolver or switch.egress_port_of
        self.reorganize_interval = self.REORGANIZE_INTERVAL
        self.fragmentation_threshold = self.FRAGMENTATION_THRESHOLD
        self.reorganizations = 0
        self._rng = random.Random(seed)
        self._pending: List[bytes] = []
        self._pending_set = set()
        # The cached-key list victims are sampled from, kept until an
        # install or evict moves the dataplane's contents_version.
        self._cached: List[bytes] = []
        self._cached_version = -1
        switch.hot_key_handler = self.report_hot_key
        # Reliability: failure detector, insertion leases, degraded keys.
        self.async_insertions = async_insertions
        self._server_probe = server_probe
        self.detector: Optional[FailureDetector] = None
        self.leases = LeaseTable(self.LEASE_TIMEOUT)
        self._degraded_queue: Deque[Tuple[int, bytes]] = deque()
        # Telemetry.
        self.reports_received = 0
        self.insertions = 0
        self.evictions = 0
        self.rejections = 0
        self.rounds = 0
        self.skipped_dead = 0
        self.insertion_aborts = 0
        self.degraded_evictions = 0
        self._running = False

    # -- data-plane reports -------------------------------------------------------

    def report_hot_key(self, key: bytes) -> None:
        """Heavy-hitter report from the switch data plane."""
        self.reports_received += 1
        if key not in self._pending_set:
            self._pending.append(key)
            self._pending_set.add(key)

    # -- periodic driving ------------------------------------------------------------

    def start(self) -> None:
        """Schedule the periodic update and reset loops on the switch's
        simulator (call after the switch is attached)."""
        if self._running:
            return
        self._running = True
        sim = self.switch.sim
        if self.detector is None:
            self.detector = FailureDetector(
                list(self.servers), self._probe_server,
                threshold=self.FAILURE_THRESHOLD)
        sim.schedule(self.update_interval, self._update_tick)
        sim.schedule(self.stats_interval, self._reset_tick)
        sim.schedule(self.HEARTBEAT_INTERVAL, self._heartbeat_tick)
        if self.reorganize_interval > 0:
            sim.schedule(self.reorganize_interval, self._reorganize_tick)
        self._process_degraded()

    def stop(self) -> None:
        self._running = False

    def _update_tick(self) -> None:
        if not self._running:
            return
        self.update_round()
        self.switch.sim.schedule(self.update_interval, self._update_tick)

    def _reset_tick(self) -> None:
        if not self._running:
            return
        self.switch.reset_statistics()
        self.switch.sim.schedule(self.stats_interval, self._reset_tick)

    def _probe_server(self, server_id: int) -> bool:
        """Control-plane reachability of one server right now."""
        if self._server_probe is not None:
            return self._server_probe(server_id)
        sim = self.switch.sim
        return sim is None or not sim.node_is_down(server_id)

    def _heartbeat_tick(self) -> None:
        """One failure-detector round plus insertion-lease reaping."""
        if not self._running:
            return
        sim = self.switch.sim
        now = sim.now
        before = len(self.detector.failover_latencies)
        self.detector.poll(now)
        obs = _obs.ACTIVE
        if obs is not None:
            for latency in self.detector.failover_latencies[before:]:
                obs.failover_latency.observe(latency)
        self._reap_leases(now)
        sim.schedule(self.HEARTBEAT_INTERVAL, self._heartbeat_tick)

    def _reap_leases(self, now: float) -> None:
        for lease in self.leases.expired(now):
            if not self._probe_server(lease.server):
                # The abort RPC needs the server reachable to release its
                # blocked writes; keep the lease alive until then.
                self.leases.extend(lease.key, now)
                continue
            self.leases.abort(lease.key)
            self.insertion_aborts += 1
            # Roll the partial insertion back: the switch must not serve a
            # key whose owning shim thinks the insertion failed.
            if self.switch.dataplane.is_cached(lease.key):
                self.switch.evict(lease.key)
            server = self.servers.get(lease.server)
            if server is not None:
                server.abort_insertion(lease.key)

    def _reorganize_tick(self) -> None:
        """Periodic memory reorganization (§4.4.2): repack pipes whose
        value memory has fragmented past the threshold."""
        if not self._running:
            return
        self.reorganize()
        self.switch.sim.schedule(self.reorganize_interval,
                                 self._reorganize_tick)

    def reorganize(self) -> int:
        """Defragment fragmented pipes now; returns pipes repacked.

        Fragmentation-free layouts report an empty per-pipe list, so this
        is a no-op for them."""
        repacked = 0
        layout = self.switch.dataplane.layout
        for pipe, frag in enumerate(layout.fragmentation_by_pipe()):
            if frag > self.fragmentation_threshold:
                self._defragment_pipe(pipe)
                self.reorganizations += 1
                repacked += 1
        return repacked

    # -- the update algorithm (§4.3) ----------------------------------------------------

    def update_round(self) -> int:
        """Drain pending hot-key reports; returns insertions performed."""
        obs = _obs.ACTIVE
        if obs is not None:
            with obs.tracer.span("controller.update_cache"):
                return self._update_round()
        return self._update_round()

    def _update_round(self) -> int:
        self.rounds += 1
        inserted = 0
        pending, self._pending = self._pending, []
        self._pending_set.clear()
        dataplane = self.switch.dataplane
        # The candidates' frequencies come from the Count-Min sketch (their
        # reports already crossed the hot threshold).  Nothing in a round
        # updates the sketch, so all of them are read up front.
        estimates = dataplane.stats.sketch.estimate_batch(pending).tolist()
        for key, estimate in zip(pending, estimates):
            if dataplane.is_cached(key):
                continue
            if self._admit(key, estimate):
                inserted += 1
        return inserted

    def _admit(self, key: bytes, candidate_count: int) -> bool:
        """Try to cache *key*, evicting a colder victim if at capacity.

        The victim is chosen before but evicted only after the candidate's
        value has been fetched, so a failed fetch never shrinks the cache.
        """
        victim = None
        if self.switch.dataplane.cache_size() >= self.cache_capacity:
            victim = self._pick_victim(candidate_count)
            if victim is None:
                self.rejections += 1
                return False
        return self._insert(key, victim=victim)

    def _pick_victim(self, candidate_count: int) -> Optional[bytes]:
        """Sample cached keys; return the coldest if the candidate is hotter.

        Cached keys' frequencies come from their per-key counters, read in
        one register gather.  Sampling avoids scanning tens of thousands
        of counters per decision (§4.3).
        """
        dataplane = self.switch.dataplane
        if self._cached_version != dataplane.contents_version:
            self._cached = dataplane.cached_keys()
            self._cached_version = dataplane.contents_version
        cached = self._cached
        if not cached:
            return None
        sample = (cached if len(cached) <= self.sample_size
                  else self._rng.sample(cached, self.sample_size))
        counts = dataplane.counters_of(sample)
        # The comparison re-reads the coldest key's counter on the switch.
        dataplane.stats.counters.note_batch_reads(1)
        # Counters and sketch are reset together, so the rule compares
        # same-interval (sampled) frequencies.
        position = pick_victim(candidate_count, counts)
        return None if position is None else sample[position]

    def _insert(self, key: bytes, victim: Optional[bytes] = None) -> bool:
        """Fetch the value from the owning server and install the entry.

        The owning server blocks writes to the key between
        ``fetch_for_insertion`` and ``finish_insertion`` (§4.3), so a racing
        write cannot leave the switch serving a stale value.  When a
        *victim* is supplied, it is evicted only once the fetch succeeded.
        """
        obs = _obs.ACTIVE
        if obs is not None:
            with obs.tracer.span("controller.insert"):
                return self._insert_inner(key, victim)
        return self._insert_inner(key, victim)

    def _insert_inner(self, key: bytes, victim: Optional[bytes]) -> bool:
        server_id = self.partitioner.server_for(key)
        server = self.servers.get(server_id)
        if server is None:
            self.rejections += 1
            return False
        # Skip-dead-server admission: don't start an insertion whose owner
        # the failure detector has declared dead, and treat an unreachable
        # owner as a lost fetch RPC (the shim never saw it, so there is
        # nothing to roll back).
        if self.detector is not None and not self.detector.is_alive(server_id):
            self.skipped_dead += 1
            self.rejections += 1
            return False
        if not self._probe_server(server_id):
            self.rejections += 1
            return False
        if self.leases.get(key) is not None:
            # A previous insertion of this key is still completing/aborting.
            self.rejections += 1
            return False
        value = server.fetch_for_insertion(key)
        installed = False
        try:
            if not value:
                self.rejections += 1
                return False
            if victim is not None:
                self.switch.evict(victim)
                self.evictions += 1
            port = self._port_of(server_id)
            if not self.switch.dataplane.install(key, value, port):
                # Pipe memory full or fragmented: defragment once and retry.
                self.switch.dataplane.layout.try_defragment(port)
                if not self.switch.dataplane.install(key, value, port):
                    self.rejections += 1
                    return False
            self.insertions += 1
            installed = True
            return True
        finally:
            sim = self.switch.sim
            if installed and self.async_insertions and sim is not None:
                # Model the finish_insertion control RPC: it lands
                # INSERTION_LATENCY later, bounded by a lease so a server
                # crash inside the window cannot wedge its blocked writes.
                self.leases.grant(key, server_id, sim.now)
                sim.schedule(self.INSERTION_LATENCY,
                             self._complete_insertion, key, server_id)
            else:
                server.finish_insertion(key)

    def _complete_insertion(self, key: bytes, server_id: int) -> None:
        lease = self.leases.get(key)
        if lease is None:
            return  # already aborted by the lease reaper
        if not self._probe_server(server_id):
            return  # RPC lost; the reaper aborts once the lease expires
        self.leases.complete(key)
        server = self.servers.get(server_id)
        if server is not None:
            server.finish_insertion(key)

    def _defragment_pipe(self, pipe: int) -> None:
        """Reorganize one pipe's value memory (paper §4.4.2: "periodic
        memory reorganization"); the mechanics live with the layout."""
        self.switch.dataplane.layout.defragment_pipe(pipe)

    # -- degraded keys (shim cache-update retry exhaustion) -----------------------------

    def report_degraded_key(self, server_id: int, key: bytes) -> None:
        """A shim exhausted its cache-update retries for *key*: evict the
        stale switch entry and ack the shim so it can leave write-around
        mode.  Queued while the controller is stalled, processed on
        resume."""
        self._degraded_queue.append((server_id, key))
        if self._running:
            self._process_degraded()

    def _process_degraded(self) -> None:
        while self._degraded_queue:
            server_id, key = self._degraded_queue.popleft()
            if self.switch.dataplane.is_cached(key):
                self.switch.evict(key)
                self.evictions += 1
            self.degraded_evictions += 1
            self._ack_degraded(server_id, key)

    def _ack_degraded(self, server_id: int, key: bytes) -> None:
        """Deliver the recovery ack once the server is reachable (the ack
        is a control RPC: it cannot cross a partition or reach a crashed
        server, so retry on the heartbeat cadence until it can)."""
        server = self.servers.get(server_id)
        if server is None:
            return
        sim = self.switch.sim
        if sim is None:
            server.shim.clear_degraded(key)
            return
        if not self._probe_server(server_id):
            sim.schedule(self.HEARTBEAT_INTERVAL, self._ack_degraded,
                         server_id, key)
            return
        sim.schedule(self.INSERTION_LATENCY, server.shim.clear_degraded, key)

    # -- bulk operations for experiment setup ------------------------------------------

    def preload(self, keys: List[bytes]) -> int:
        """Install *keys* directly (experiments start with a warm cache,
        §7.4).  Returns the number actually installed.  Always synchronous:
        setup predates traffic, so there is no window worth modelling."""
        installed = 0
        previous, self.async_insertions = self.async_insertions, False
        try:
            for key in keys:
                if self.switch.dataplane.is_cached(key):
                    continue
                if self.switch.dataplane.cache_size() >= self.cache_capacity:
                    break
                if self._insert(key):
                    installed += 1
        finally:
            self.async_insertions = previous
        return installed
