"""Simulator-core harness: scalar vs batched runs, equivalence, fast-forward.

This module is the user-facing surface of the batched fast path
(:mod:`repro.net.fastpath`):

* :func:`build_rack` assembles one canonical read-benchmark rack the same
  way under both paths (same seeds, same preload, same controller);
* :func:`run_scalar` / :func:`run_batched` execute it with the per-packet
  event loop (the executable specification) or the lanes engine;
* :func:`counters_snapshot` / :func:`diff_snapshots` capture and compare
  every gated counter — the equivalence contract is *exact equality*,
  enforced by ``tests/test_prop_simcore.py`` and the ``simcore`` perf/CI
  scenario;
* :class:`SimCoreRunner` adds the steady-state fast-forward: when the
  controller has been quiescent for a few epochs on a clean, read-only
  rack, whole statistics epochs are advanced with the rate-equilibrium
  model (:mod:`repro.sim.ratesim`) instead of per-packet simulation,
  re-entering event mode at the next epoch boundary.  Fast-forwarded runs
  are *approximate* (their snapshots are marked, never byte-gated).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.client.workload import Workload, WorkloadSpec
from repro.errors import ConfigurationError
from repro.net.fastpath import FastPathEngine
from repro.net.trace import DeliveryTrace
from repro.reliability.retry import RetryPolicy
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.ratesim import (
    CacheContentsMask,
    RateSimConfig,
    RateSimResult,
    cached_write_fraction,
    partition_vector_for_servers,
    simulate,
)


@dataclasses.dataclass(frozen=True)
class SimCoreConfig:
    """One simulator-core benchmark scenario (shared by both paths)."""

    num_servers: int = 8
    num_keys: int = 5_000
    cache_items: int = 64
    lookup_entries: int = 1_024
    skew: float = 0.99
    write_ratio: float = 0.0
    rate: float = 1e6
    duration: float = 0.1
    warm: bool = True
    #: heavy-hitter report threshold; a high value models the settled
    #: regime where the warm cache already holds the hot set (the
    #: fast-forwardable steady state).
    hot_threshold: int = 8
    #: statistics epoch; also the fast-forward granularity.
    stats_interval: float = 1.0
    seed: int = 0
    #: concurrent open-loop clients; each beyond the first draws from a
    #: forked (reseeded) query stream over the same popularity map.
    num_clients: int = 1
    #: per-client rates overriding ``rate`` (length must be num_clients).
    client_rates: Optional[Tuple[float, ...]] = None
    #: give every client the default retry policy (seeded from ``seed``).
    retries: bool = False
    #: cache geometry for the switch ("paper", "setassoc", "orbit").
    #: All three layouts run natively under the lanes engine through
    #: their vectorized batch probes (``CacheLayout.classify_reads``);
    #: the differential harness holds each one byte-identical to the
    #: scalar loop, including Orbit's per-hit recirculation delays.
    layout: str = "paper"
    #: bytes per stored value (threaded into the workload).  Values wider
    #: than one Orbit segment serve in multiple recirculation passes;
    #: values wider than a layout's ``max_value_size`` are uncacheable.
    value_size: int = 128
    #: value stages for the switch (fewer stages -> narrower Orbit
    #: segments -> multi-pass serves that still fit the wire format).
    num_value_stages: int = 8

    def __post_init__(self):
        if self.num_clients < 1:
            raise ConfigurationError("need at least one client")
        if (self.client_rates is not None
                and len(self.client_rates) != self.num_clients):
            raise ConfigurationError(
                "client_rates must have one rate per client")

    @property
    def rates(self) -> Tuple[float, ...]:
        return self.client_rates or (self.rate,) * self.num_clients

    @property
    def packets(self) -> int:
        return int(sum(self.rates) * self.duration)


def build_rack(config: SimCoreConfig):
    """Assemble the scenario rack; returns ``(cluster, client, workload)``.

    Both paths call this with the same config, so every seed-derived
    decision (partitioning, sampler, workload stream) is shared; only the
    driving loop differs.
    """
    cluster = Cluster(ClusterConfig(
        num_servers=config.num_servers,
        cache_items=config.cache_items,
        lookup_entries=config.lookup_entries,
        value_slots=config.lookup_entries,
        hot_threshold=config.hot_threshold,
        stats_interval=config.stats_interval,
        seed=config.seed,
        layout=config.layout,
        num_value_stages=config.num_value_stages,
    ))
    workload = Workload(WorkloadSpec(
        num_keys=config.num_keys, read_skew=config.skew,
        write_ratio=config.write_ratio, value_size=config.value_size,
        seed=config.seed,
    ))
    cluster.load_workload_data(workload)
    if config.warm:
        cluster.warm_cache(workload, config.cache_items)
    policy = RetryPolicy(seed=config.seed) if config.retries else None
    rates = config.rates
    client = cluster.add_workload_client(workload, rate=rates[0],
                                         retry_policy=policy)
    for i in range(1, config.num_clients):
        # Forked stream: same popularity map (hot set agreement), own RNG
        # streams — the 7919 stride keeps sibling seeds well separated.
        cluster.add_workload_client(workload.fork(7919 * i), rate=rates[i],
                                    retry_policy=policy)
    cluster.start_controller()
    return cluster, client, workload


def run_scalar(config: SimCoreConfig) -> Dict:
    """Reference run: the per-packet event loop, verbatim."""
    cluster, client, workload = build_rack(config)
    trace = DeliveryTrace().attach(cluster.sim)
    cluster.sim.run_until(cluster.sim.now + config.duration)
    return counters_snapshot(cluster, client, trace)


def run_batched(config: SimCoreConfig,
                fast_forward: bool = False) -> Dict:
    """Lanes-engine run of the same scenario."""
    cluster, client, workload = build_rack(config)
    trace = DeliveryTrace()
    runner = SimCoreRunner(cluster, client, workload, trace=trace,
                           fast_forward=fast_forward)
    runner.run(config.duration)
    snap = counters_snapshot(cluster, client, trace, engine=runner.engine)
    snap["ff_epochs"] = runner.ff_epochs
    return snap


# -- counter capture -----------------------------------------------------------


def counters_snapshot(cluster: Cluster, client, trace: DeliveryTrace,
                      engine: Optional[FastPathEngine] = None) -> Dict:
    """Every gated counter of one finished run, as a flat dict.

    Not included, deliberately: ``events.processed`` (the whole point of
    the fast path is fewer events), packet ids (scalar replies allocate
    ``Packet`` objects, lanes don't — nothing gated reads them), and
    ``_outstanding`` (the scalar loop keeps an entry per never-answered
    dropped read, the lanes don't create one per bulk read; everything
    observable about in-flight traffic is covered by sent/received).
    """
    sim = cluster.sim
    switch = cluster.switch
    dp = switch.dataplane
    stats = dp.stats
    snap: Dict = {
        "sim.delivered": sim.delivered,
        "sim.lost": sim.lost,
        "sim.node_drops": sim.node_drops,
        "client.sent": client.sent,
        "client.received": client.received,
        "client.cache_hits": client.cache_hits,
        "client.retransmissions": client.retransmissions,
        "client.timeouts": client.timeouts,
        "client.stale_drops": client.stale_drops,
        "client.interval_sent": client._interval_sent,
        "client.interval_received": client._interval_received,
        "client.latencies": list(client.latencies),
        "switch.processed": switch.processed,
        "switch.forwarded": switch.forwarded,
        "dataplane.cache_hits": dp.cache_hits,
        "dataplane.cache_misses": dp.cache_misses,
        "dataplane.writes_seen": dp.writes_seen,
        "dataplane.invalidations": dp.invalidations,
        "dataplane.updates_received": dp.updates_received,
        "dataplane.contents_version": dp.contents_version,
        "dataplane.cache_size": dp.cache_size(),
        "stats.reports": stats.reports,
        "stats.resets": stats.resets,
        "sampler.observed": stats.sampler.observed,
        "sampler.sampled": stats.sampler.sampled,
        "digests.hits": stats.digests.hits,
        "digests.misses": stats.digests.misses,
        "trace.digest": trace.digest(),
        # Per-key hit counters of the cached set (key -> register value).
        "cache.key_counters": sorted(
            (key.hex(), dp.counter_of(key)) for key in switch.cached_keys()),
    }
    # Layout-level registers and counters (for the paper geometry: the
    # lookup-table hit/miss split and the per-pipe status/value registers,
    # under the same key names as before the geometry seam), plus the
    # layout's own SRAM self-audit so a mis-accounted geometry diverges
    # from the truthful reference in a named field.
    snap.update(dp.layout.snapshot_fields())
    snap["layout.sram_audit"] = dp.layout.sram_audit()
    ctl = cluster.controller
    if ctl is not None:
        snap.update({
            "controller.rounds": ctl.rounds,
            "controller.reports_received": ctl.reports_received,
            "controller.insertions": ctl.insertions,
            "controller.evictions": ctl.evictions,
            "controller.rejections": ctl.rejections,
        })
    for sid in sorted(cluster.servers):
        srv = cluster.servers[sid]
        snap[f"server{sid}.received"] = srv.received
        snap[f"server{sid}.processed"] = srv.processed
        snap[f"server{sid}.drops"] = srv.drops
        snap[f"server{sid}.queued"] = srv._queued
        snap[f"server{sid}.busy_until"] = srv._busy_until
        snap[f"server{sid}.store.gets"] = srv.store.gets
        snap[f"server{sid}.store.puts"] = srv.store.puts
        snap[f"server{sid}.store.core_ops"] = list(srv.store.core_ops)
        # Probe accounting of the shards: the batch read charges it from
        # resolved columns, so a stale column shows here.
        snap[f"server{sid}.store.probes"] = srv.store.probe_totals()
    # Additional workload clients (client-0 keys keep their unprefixed
    # names so single-client goldens stay comparable across versions).
    extra = [c for c in cluster.clients
             if isinstance(c, type(client)) and c is not client]
    for i, cl in enumerate(extra, start=1):
        snap[f"client{i}.sent"] = cl.sent
        snap[f"client{i}.received"] = cl.received
        snap[f"client{i}.cache_hits"] = cl.cache_hits
        snap[f"client{i}.retransmissions"] = cl.retransmissions
        snap[f"client{i}.timeouts"] = cl.timeouts
        snap[f"client{i}.stale_drops"] = cl.stale_drops
        snap[f"client{i}.interval_sent"] = cl._interval_sent
        snap[f"client{i}.interval_received"] = cl._interval_received
        snap[f"client{i}.latencies"] = list(cl.latencies)
    for node_id in sorted(cluster.servers) + [c.node_id
                                              for c in [client] + extra]:
        link = cluster.link_to(node_id)
        snap[f"link{node_id}.transmitted"] = link.transmitted
        snap[f"link{node_id}.dropped"] = link.dropped
        snap[f"link{node_id}.duplicated"] = link.duplicated
        snap[f"link{node_id}.reordered"] = link.reordered
    if engine is not None:
        # Engine-side telemetry (batched runs only, excluded from the
        # scalar/batched diff): lane coverage and attributed fallbacks,
        # surfaced in perf reports so a silent full-scalarization
        # regression fails the bench gate instead of just slowing it.
        snap["fastpath.coverage"] = engine.coverage()
        snap["fastpath.fallbacks"] = dict(engine.fallback_reasons)
    return snap


def diff_snapshots(a: Dict, b: Dict) -> List[str]:
    """Human-readable list of unequal fields (empty = byte-identical)."""
    out = []
    for key in sorted(set(a) | set(b)):
        # Runner/engine metadata, batched-only: fast-forward epoch count
        # and lane-coverage telemetry are about *how* a run executed, not
        # what it computed, so they never participate in equivalence.
        if key == "ff_epochs" or key.startswith("fastpath."):
            continue
        va, vb = a.get(key), b.get(key)
        if key.endswith(".latencies"):
            la, lb = va or [], vb or []
            if len(la) != len(lb):
                out.append(f"{key}: length {len(la)} != {len(lb)}")
            else:
                bad = [i for i, (x, y) in enumerate(zip(la, lb)) if x != y]
                if bad:
                    out.append(f"{key}: {len(bad)} samples differ "
                               f"(first at {bad[0]})")
            continue
        if va != vb:
            out.append(f"{key}: {va!r} != {vb!r}")
    return out


# -- steady-state fast-forward ---------------------------------------------------


def rack_equilibrium(cluster: Cluster, workload: Workload,
                     mask: Optional[np.ndarray] = None) -> RateSimResult:
    """Rate-equilibrium operating point of *cluster* under *workload*.

    Uses the cluster's *actual* server-id partitioning (the internal
    ``partition_vector`` hashes against ``range(n)`` and assigns items to
    different owners).
    """
    spec = workload.spec
    part = partition_vector_for_servers(
        spec.num_keys, tuple(cluster.plan.server_ids))
    if mask is None:
        mask = CacheContentsMask(cluster.switch, workload.keyspace).mask()
    config = RateSimConfig(num_servers=cluster.config.num_servers,
                           server_rate=cluster.config.server_rate,
                           write_ratio=spec.write_ratio)
    write_probs = (workload.write_item_probs()
                   if spec.write_ratio > 0 else None)
    return simulate(workload.read_item_probs(), mask, config,
                    write_probs=write_probs, part_vector=part)


class SimCoreRunner:
    """Drives a rack through the lanes engine with optional fast-forward.

    Epochs are the controller's statistics interval.  An epoch is handed to
    the equilibrium model only when *all* of these held:

    * the rack is clean (no fault window, no observers) — enforced both at
      the decision point and by construction, since a fault opening would
      have put the engine in scalar mode;
    * the coherence plane is idle: no server has pending cache updates or
      blocked writes (mixed workloads fast-forward through the
      write-ratio-aware equilibrium; an in-flight update round trip does
      not);
    * the controller is quiet: no hot-key reports pending or on their way
      to it (the engine's report lane), and the cache contents unchanged
      for ``quiescent_epochs`` consecutive epochs.

    A fast-forwarded epoch synthesizes the aggregate counters from the
    equilibrium (per-server load split by the real partition vector),
    feeds a sampled key stream through the *real* statistics machinery
    (exactly like the hybrid emulation), and still runs the control-plane
    events, so the controller can end quiescence and drop the runner back
    into event mode at the next boundary.  Latency samples are not
    synthesized — fast-forwarded runs are throughput-accurate, not
    latency-complete, and their snapshots are not byte-comparable.
    """

    def __init__(self, cluster: Cluster, client, workload: Workload,
                 trace: Optional[DeliveryTrace] = None,
                 fast_forward: bool = False,
                 quiescent_epochs: int = 2,
                 samples_per_epoch: int = 2_000):
        self.cluster = cluster
        self.client = client
        self.workload = workload
        self.engine = FastPathEngine(cluster, trace=trace)
        self.fast_forward = fast_forward
        self.quiescent_epochs = quiescent_epochs
        self.samples_per_epoch = samples_per_epoch
        self.epoch = cluster.config.stats_interval
        self.ff_epochs = 0
        self._mask = CacheContentsMask(cluster.switch, workload.keyspace)
        self._version_history: List[int] = []
        self._part = None

    def run(self, duration: float) -> None:
        sim = self.cluster.sim
        t_end = sim.now + duration
        if not self.fast_forward:
            self.engine.run_until(t_end)
            return
        while sim.now < t_end:
            k = int(np.floor(sim.now / self.epoch)) + 1
            boundary = min(t_end, k * self.epoch)
            if (boundary - sim.now >= self.epoch * 0.999
                    and self.quiescent()):
                self._fast_forward_epoch(boundary)
            else:
                self.engine.run_until(boundary)
            self._version_history.append(self._mask.version)

    def quiescent(self) -> bool:
        """True when the next epoch is eligible for equilibrium handoff."""
        if self.engine.fault_window_open():
            return False
        for srv in self.cluster.servers.values():
            if srv.shim.pending_updates or srv.shim.blocked_writes:
                return False
        ctl = self.cluster.controller
        if ctl is not None and ctl.pending_reports() > 0:
            return False
        if self.engine._reports.pending():
            return False  # hot-key reports still on their lane
        hist = self._version_history
        k = self.quiescent_epochs
        if len(hist) < k:
            return False
        recent = hist[-k:] + [self._mask.version]
        return len(set(recent)) == 1

    # -- one equilibrium epoch ----------------------------------------------------

    def _fast_forward_epoch(self, t_to: float) -> None:
        cluster, client = self.cluster, self.client
        sim = cluster.sim
        spec = self.workload.spec
        if self._part is None:
            self._part = partition_vector_for_servers(
                spec.num_keys, tuple(cluster.plan.server_ids))
        # Complete the in-flight pipeline before jumping the clock so no
        # lane entry is left carrying a pre-jump timestamp.
        self.engine.drain_lanes()
        eq = rack_equilibrium(cluster, self.workload, mask=self._mask.mask())

        # The open-loop clients are below saturation or they aren't;
        # either way the delivered fraction is the equilibrium's.
        total_rate = sum(st.client.rate for st in self.engine._states)
        n = self.engine.sends_in_window(t_to)
        scale = min(1.0, eq.throughput / total_rate) if n else 1.0
        w = spec.write_ratio
        nw = int(round(n * w))
        nr = n - nw
        reads = int(round(nr * scale))
        writes = int(round(nw * scale))
        # eq.hit_ratio is hits over *all* served queries (writes included),
        # so it scales the whole delivered count; the hits themselves are
        # still reads.
        hits = int(round((reads + writes) * eq.hit_ratio))
        misses = reads - hits
        write_probs = self.workload.write_item_probs() if writes else None
        cached_w = int(round(writes * cached_write_fraction(
            write_probs, self._mask.mask()))) if writes else 0
        plain_w = writes - cached_w
        delivered = reads + writes

        # Per-client attribution: each client gets its rate-proportional
        # share (the remainder lands on client 0).
        acc_n = acc_d = acc_h = 0
        states = self.engine._states
        for st in reversed(states):
            if st is states[0]:
                n_i, d_i, h_i = n - acc_n, delivered - acc_d, hits - acc_h
            else:
                frac = st.client.rate / total_rate
                n_i = int(round(n * frac))
                d_i = int(round(delivered * frac))
                h_i = int(round(hits * frac))
                acc_n += n_i
                acc_d += d_i
                acc_h += h_i
            cl = st.client
            cl.sent += n_i
            cl._interval_sent += n_i
            cl.received += d_i
            cl._interval_received += d_i
            cl.cache_hits += h_i
        # Hop counts per query class: a cache hit bounces at the switch
        # (2 deliveries), a miss takes the full round trip (4), an
        # uncached write likewise (4), a cached write adds the
        # invalidation's update + ack legs (6).
        sim.delivered += hits * 2 + misses * 4 + plain_w * 4 + cached_w * 6
        sim.lost += n - delivered
        switch = cluster.switch
        # Query + server reply transit the switch; a cached write's update
        # is processed (its ack is generated in-switch, not processed).
        switch.processed += delivered * 2 - hits + cached_w
        switch.forwarded += delivered * 2 - hits + cached_w
        dp = switch.dataplane
        dp.cache_hits += hits
        dp.cache_misses += misses
        dp.writes_seen += writes
        dp.invalidations += cached_w
        dp.updates_received += cached_w

        # Spread misses over servers with the equilibrium's per-server
        # load; writes by each owner's share of the write distribution.
        sids = cluster.plan.server_ids
        load = eq.per_server_load
        total = load.sum()
        if misses and total > 0:
            share = np.floor(load / total * misses).astype(int)
            share[int(np.argmax(load))] += misses - int(share.sum())
            for idx, sid in enumerate(sids):
                srv = cluster.servers[sid]
                k = int(share[idx])
                srv.received += k
                srv.processed += k
                srv.store.gets += k
        if writes:
            wload = np.array([float(write_probs[self._part == idx].sum())
                              for idx in range(len(sids))])
            wtotal = wload.sum()
            if wtotal > 0:
                wshare = np.floor(wload / wtotal * writes).astype(int)
                wshare[int(np.argmax(wload))] += writes - int(wshare.sum())
                for idx, sid in enumerate(sids):
                    srv = cluster.servers[sid]
                    k = int(wshare[idx])
                    srv.received += k
                    srv.processed += k
                    srv.store.puts += k

        # Real statistics + reporting, as in the hybrid emulation: the
        # controller keeps seeing a faithful sampled stream, so it can end
        # the quiescent phase and pull us back into event mode.
        count = self.samples_per_epoch
        ranks = self.workload._read_gen.sample(count)
        items = self.workload.popularity.items_at(ranks)
        keys = self.workload.keyspace.keys(items)
        report = None
        if cluster.controller is not None:
            report = cluster.controller.report_hot_key
        for hot in dp.observe_reads(keys):
            if report is not None:
                report(hot)

        # Skip the per-send event work: advance every client's send clock
        # analytically and let the control-plane events run the epoch out.
        self.engine.advance_send_clock(t_to)
        self.ff_epochs += 1
        sim.events.run_until(t_to)
        self.engine.note_time_jump()
