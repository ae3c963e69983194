"""One rack config, one rack builder, and the scalar-vs-batched harness.

A rack is described by one config hierarchy, three levels deep:

* :class:`~repro.sim.cluster.ClusterConfig` — the rack itself: servers,
  switch geometry, links and controller intervals;
* :class:`SimCoreConfig` — that rack plus its traffic: keys, skew, write
  ratio, open-loop clients, duration, warm-up and client retries;
* :class:`~repro.faults.runner.ChaosConfig` — that plus the chaos phase:
  drain window, invariant interval and the shim's update-retry budget.

:func:`build_rack` assembles any of them (the simcore races, the chaos
runs and perf's rack rows all call it).  On top of it this module is the
user-facing surface of the batched fast path (:mod:`repro.net.fastpath`):

* :func:`run_scalar` / :func:`run_batched` execute a rack with the
  per-packet event loop (the executable specification) or the lanes
  engine;
* :func:`counters_snapshot` / :func:`diff_snapshots` capture and compare
  every gated counter — the equivalence contract is *exact equality*,
  enforced by ``tests/test_prop_simcore.py`` and the ``simcore`` perf/CI
  scenario.

Full-rack throughput at paper scale comes from the rate-equilibrium model
(:mod:`repro.sim.ratesim`) and the hybrid emulation
(:mod:`repro.sim.emulation`), not from this packet-level rack.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
from typing import Dict, List, Optional, Tuple

from repro.client.workload import Workload, WorkloadSpec
from repro.errors import ConfigurationError
from repro.net.fastpath import FastPathEngine
from repro.net.trace import DeliveryTrace
from repro.obs import runtime as _obs
from repro.obs.span import SPAN_HIST_PREFIX
from repro.reliability.retry import RetryPolicy
from repro.sim.cluster import Cluster, ClusterConfig


@dataclasses.dataclass(frozen=True)
class SimCoreConfig(ClusterConfig):
    """A rack and its traffic: every :class:`ClusterConfig` field, small-
    rack defaults, plus the open-loop clients that drive it."""

    num_servers: int = 8
    cache_items: int = 64
    lookup_entries: int = 1_024
    num_keys: int = 5_000
    skew: float = 0.99
    write_ratio: float = 0.0
    #: bytes per stored value (threaded into the workload).  Values wider
    #: than one Orbit segment serve in multiple recirculation passes;
    #: values wider than a layout's ``max_value_size`` are uncacheable.
    value_size: int = 128
    #: open-loop rate of each client (queries/second).
    rate: float = 1e6
    #: per-client rates overriding ``rate`` (length must be num_clients).
    client_rates: Optional[Tuple[float, ...]] = None
    #: concurrent open-loop clients; each beyond the first draws from a
    #: forked (reseeded) query stream over the same popularity map.
    num_clients: int = 1
    duration: float = 0.1
    #: preload the cache with its ``cache_items`` hottest keys.
    warm: bool = True
    #: give every client a retry policy (seeded from ``seed``) and
    #: versioned write values, so lost or duplicated writes show.
    retries: bool = False
    retry_timeout: float = RetryPolicy.timeout
    retry_backoff: float = RetryPolicy.backoff
    retry_max: int = RetryPolicy.max_retries

    def __post_init__(self):
        super().__post_init__()
        if self.num_clients < 1:
            raise ConfigurationError("need at least one client")
        if (self.client_rates is not None
                and len(self.client_rates) != self.num_clients):
            raise ConfigurationError(
                "client_rates must have one rate per client")
        # ``not x > 0`` rejects NaN too.
        if not self.duration > 0:
            raise ConfigurationError("duration must be positive")
        if not (self.rate > 0
                and all(r > 0 for r in self.client_rates or ())):
            raise ConfigurationError("rate and client_rates must be positive")

    @property
    def rates(self) -> Tuple[float, ...]:
        return self.client_rates or (self.rate,) * self.num_clients

    @property
    def packets(self) -> int:
        return int(sum(self.rates) * self.duration)


def build_rack(config: SimCoreConfig):
    """Assemble the rack *config* describes, data loaded, cache warmed,
    clients attached and controller started; returns ``(cluster, client,
    workload)`` with the first client.

    Every rack with traffic is built here (the simcore races, the chaos
    runs, perf's rack rows), so the scalar and batched paths share every
    seed-derived decision (partitioning, sampler, workload stream); only
    the driving loop differs.
    """
    cluster = Cluster(config)
    workload = Workload(WorkloadSpec(
        num_keys=config.num_keys, read_skew=config.skew,
        write_ratio=config.write_ratio, value_size=config.value_size,
        seed=config.seed,
    ))
    cluster.load_workload_data(workload)
    if config.warm:
        cluster.warm_cache(workload)
    policy = None
    if config.retries:
        policy = RetryPolicy(
            timeout=config.retry_timeout, backoff=config.retry_backoff,
            max_retries=config.retry_max, seed=config.seed)
    clients = [cluster.add_workload_client(
        # Clients beyond the first draw forked streams: same popularity
        # map (hot set agreement), own RNG streams; the 7919 stride keeps
        # sibling seeds well separated.
        workload.fork(7919 * i) if i else workload, rate=rate,
        retry_policy=policy, versioned_writes=config.retries)
        for i, rate in enumerate(config.rates)]
    cluster.start_controller()
    return cluster, clients[0], workload


def _frees_its_rack(run):
    """Make *run* return only once the rack it built is freed.  A rack
    is one web of reference cycles (the simulator and its nodes, shims
    and their servers, scheduled callbacks), so reference counting never
    frees it, and the cyclic collector frees it only when its next full
    pass happens to come: a caller that runs the two engines back to back
    would otherwise build the second rack beside the first."""
    @functools.wraps(run)
    def run_and_free(config: SimCoreConfig) -> Dict:
        snapshot = run(config)
        gc.collect()
        return snapshot
    return run_and_free


@_frees_its_rack
def run_scalar(config: SimCoreConfig) -> Dict:
    """Reference run: the per-packet event loop, verbatim."""
    cluster, client, workload = build_rack(config)
    trace = DeliveryTrace().attach(cluster.sim)
    cluster.sim.run_until(cluster.sim.now + config.duration)
    return counters_snapshot(cluster, client, trace)


@_frees_its_rack
def run_batched(config: SimCoreConfig) -> Dict:
    """Lanes-engine run of the same scenario."""
    cluster, client, _ = build_rack(config)
    trace = DeliveryTrace()
    engine = FastPathEngine(cluster, trace=trace)
    engine.run(config.duration)
    return counters_snapshot(cluster, client, trace, engine=engine)


# -- counter capture -----------------------------------------------------------


def counters_snapshot(cluster: Cluster, client,
                      trace: Optional[DeliveryTrace] = None,
                      engine: Optional[FastPathEngine] = None) -> Dict:
    """Every gated counter of one finished run, as a flat dict; with an
    observability session live, its registry metrics too (``obs.<name>``).
    A NoCache rack has no dataplane or controller fields; a run without a
    *trace* has no digest.

    Not included, deliberately: ``events.processed`` (the whole point of
    the fast path is fewer events), packet ids (scalar replies allocate
    ``Packet`` objects, lanes don't — nothing gated reads them), and
    ``_outstanding`` (the scalar loop keeps an entry per never-answered
    dropped read, the lanes don't create one per bulk read; everything
    observable about in-flight traffic is covered by sent/received).
    """
    sim = cluster.sim
    switch = cluster.switch
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
        "switch.forwarded": switch.forwarded,
    }
    if trace is not None:
        snap["trace.digest"] = trace.digest()
    dp = getattr(switch, "dataplane", None)
    if dp is not None:
        stats = dp.stats
        snap.update({
            "switch.processed": switch.processed,
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
            # Per-key hit counters of the cached set (key -> register).
            "cache.key_counters": sorted(
                (key.hex(), dp.counter_of(key))
                for key in switch.cached_keys()),
        })
        # Layout-level registers and counters (for the paper geometry:
        # the lookup-table hit/miss split and the per-pipe status/value
        # registers, under the same key names as before the geometry
        # seam), plus the layout's own SRAM self-audit so a mis-accounted
        # geometry diverges from the truthful reference in a named field.
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
    obs = _obs.ACTIVE
    if obs is not None:
        # The session's registry, one key per metric, minus what counts
        # how an engine grouped its work: span histograms and the
        # engine's own fallback counters.
        for name, metric in obs.registry.collect().items():
            if not name.startswith((SPAN_HIST_PREFIX, "fastpath.")):
                snap[f"obs.{name}"] = metric
    if engine is not None:
        # Engine-side telemetry (batched runs only, excluded from the
        # scalar/batched diff): lane coverage and attributed fallbacks,
        # surfaced in perf reports so a silent full-scalarization
        # regression fails the bench gate instead of just slowing it.
        snap["fastpath.coverage"] = engine.coverage()
        snap["fastpath.fallbacks"] = dict(engine.fallback_reasons)
        snap["fastpath.reply_ties"] = engine.reply_ties
        snap["fastpath.hook_ties"] = engine.hook_ties
    return snap


def diff_snapshots(a: Dict, b: Dict) -> List[str]:
    """Human-readable list of unequal fields (empty = byte-identical).

    Latency lists compare exactly, unless the engine side counted
    equal-time client replies (``fastpath.reply_ties``): their order is
    the one accepted divergence, so then they compare as multisets.
    """
    ties = a.get("fastpath.reply_ties", 0) + b.get("fastpath.reply_ties", 0)
    out = []
    for key in sorted(set(a) | set(b)):
        # Engine metadata, batched-only: lane-coverage telemetry is about
        # *how* a run executed, not what it computed, so it never
        # participates in equivalence.
        if key.startswith("fastpath."):
            continue
        va, vb = a.get(key), b.get(key)
        if key.endswith(".latencies"):
            la, lb = va or [], vb or []
            if ties:
                la, lb = sorted(la), sorted(lb)
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


class SimCoreRunner:
    """A rack driven by the lanes engine, under the signature the repo
    benchmark builds (``benchmarks/e2e/workloads.py``).

    Kept only for that caller: the benchmark directory is the measuring
    instrument and changes on its own schedule.  Everything else builds
    ``FastPathEngine(cluster, trace=trace)`` directly.  *client* and
    *workload* are unused; the engine drives every workload client the
    cluster holds.
    """

    def __init__(self, cluster: Cluster, client, workload: Workload,
                 trace: Optional[DeliveryTrace] = None):
        self.engine = FastPathEngine(cluster, trace=trace)

    def run(self, duration: float) -> None:
        self.engine.run(duration)
