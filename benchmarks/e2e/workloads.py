"""The seven benchmark workloads, driven through public entry points only.

Every workload offers the same four steps: ``check`` (untimed correctness
run that also warms the process), ``setup`` (fresh state, timed as
``setup_s``), ``run`` (the measured region) and ``observe`` (simulated
results and public counters, read after the run).

``scale`` shrinks a workload for ``--quick``: packet workloads simulate
``scale`` times as long (so send ``scale`` times as many queries), the
model workload uses ``scale`` times as many keys.  The simulated clients
are open-loop with deterministic spacing at the stated rates.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List

import numpy as np

from repro import obs
from repro.client.api import WorkloadClient
from repro.client.workload import Workload
from repro.core.controller import CacheController
from repro.core.dataplane import NetCacheDataplane
from repro.core.geometry import PaperLayout
from repro.core.stats import QueryStatistics
from repro.core.switch import NetCacheSwitch, PlainSwitch
from repro.faults import invariants
from repro.faults.injector import FaultInjector
from repro.faults.runner import (
    SCENARIO_OVERRIDES,
    ChaosConfig,
    ChaosRunner,
    scripted_schedule,
)
from repro.kvstore.server import StorageServer
from repro.kvstore.shim import ServerShim
from repro.kvstore.store import KVStore
from repro.net.events import EventQueue
from repro.net.fastpath import FastPathEngine
from repro.net.simulator import Simulator
from repro.net.trace import DeliveryTrace
from repro.sim import emulation, experiments
from repro.sim.cluster import Cluster, ClusterConfig, default_workload
from repro.sim.emulation import DynamicsEmulator, EmulationConfig
from repro.sim.scaling import ScalingConfig
from repro.sim.simcore import SimCoreConfig, SimCoreRunner, build_rack

import checks

HERE = Path(__file__).resolve().parent

# -- what the ledger times ------------------------------------------------------

#: (owner, attribute, span name).  Owners are the classes that define the
#: method (a subclass override is its own entry) or, for module-level
#: functions, the modules that imported them by name.
RUN_SPANS = [
    (Workload, "next_queries", "client.workload.next_queries"),
    (Workload, "next_query", "client.workload.next_query"),
    (WorkloadClient, "handle_packet", "client.api.handle_packet"),
    (FastPathEngine, "run_until", "net.fastpath.run_until"),
    (DeliveryTrace, "note_batch", "net.trace.note_batch"),
    (EventQueue, "run_until", "net.events.run_until"),
    (Simulator, "transmit", "net.simulator.transmit"),
    (NetCacheSwitch, "process_read_batch", "core.switch.process_read_batch"),
    (NetCacheSwitch, "process_write_packet",
     "core.switch.process_write_packet"),
    (PaperLayout, "classify_reads", "core.geometry.classify_reads"),
    (QueryStatistics, "sample_batch", "core.stats.sample_batch"),
    (QueryStatistics, "cache_count_batch", "core.stats.cache_count_batch"),
    (QueryStatistics, "heavy_hitter_count_batch",
     "core.stats.heavy_hitter_count_batch"),
    (NetCacheSwitch, "handle_packet", "core.switch.handle_packet"),
    (PlainSwitch, "handle_packet", "core.switch.handle_packet"),
    (NetCacheDataplane, "process", "core.dataplane.process"),
    (CacheController, "update_round", "core.controller.update_round"),
    (NetCacheDataplane, "observe_reads", "core.dataplane.observe_reads"),
    (KVStore, "get", "kvstore.store.get"),
    (KVStore, "put", "kvstore.store.put"),
    (ServerShim, "process", "kvstore.shim.process"),
    (StorageServer, "handle_packet", "kvstore.server.handle_packet"),
    (experiments, "simulate", "sim.ratesim.simulate"),
    (emulation, "simulate", "sim.ratesim.simulate"),
    (DynamicsEmulator, "run", "sim.emulation.run"),
    (experiments, "sweep", "sim.scaling.sweep"),
    (invariants.InvariantSuite, "finalize", "faults.invariants.finalize"),
] + [
    # Summed over every checker that defines the public on_tick.
    (checker, "on_tick", "faults.invariants.on_tick")
    for checker in vars(invariants).values()
    if isinstance(checker, type)
    and issubclass(checker, invariants.InvariantChecker)
    and "on_tick" in vars(checker)
]

#: spans of the set-up phase; their total seconds are reported as ``*_s``.
SETUP_SPANS = [
    (Cluster, "__init__", "sim.cluster.init"),
    (Cluster, "load_workload_data", "sim.cluster.load_workload_data"),
    (Cluster, "warm_cache", "sim.cluster.warm_cache"),
]

#: spans that must have been entered on a workload (``--quick`` asserts
#: it): the layers README.md's table says do the work there.
_LANES_READ_SPANS = (
    "client.workload.next_queries", "net.fastpath.run_until",
    "net.trace.note_batch", "core.switch.process_read_batch",
    "core.geometry.classify_reads", "core.stats.sample_batch",
    "core.stats.cache_count_batch", "core.stats.heavy_hitter_count_batch",
    "kvstore.store.get")
_PER_PACKET_SPANS = (
    "client.workload.next_query", "client.api.handle_packet",
    "net.simulator.transmit", "core.switch.handle_packet",
    "core.dataplane.process", "kvstore.server.handle_packet",
    "kvstore.shim.process", "kvstore.store.get")
EXPECTED_SPANS = {
    "lanes_read": _LANES_READ_SPANS,
    "lanes_mixed": _LANES_READ_SPANS + (
        "core.switch.process_write_packet", "core.dataplane.process",
        "kvstore.store.put"),
    # At --quick size the cold cache of lanes_bigkeys never gets a hit.
    "lanes_bigkeys": tuple(
        span for span in _LANES_READ_SPANS
        if span != "core.stats.cache_count_batch"
    ) + ("core.controller.update_round",),
    # The engine's scalar fallback still draws its queries in batches.
    "lanes_obs": _PER_PACKET_SPANS[1:] + (
        "client.workload.next_queries", "net.fastpath.run_until"),
    "scalar_fig10c": _PER_PACKET_SPANS + ("net.events.run_until",),
    "chaos_loss_retry": _PER_PACKET_SPANS + (
        "net.events.run_until", "kvstore.store.put",
        "core.controller.update_round", "faults.invariants.on_tick",
        "faults.invariants.finalize"),
    "figures_model": (
        "sim.ratesim.simulate", "sim.emulation.run", "sim.scaling.sweep",
        "core.dataplane.observe_reads", "core.controller.update_round",
        "core.geometry.classify_reads", "core.stats.sample_batch",
        "core.stats.heavy_hitter_count_batch"),
}


#: per-layer counts read from the objects' public counters after the run.
COUNT_NAMES = (
    "client.retransmissions", "client.timeouts",
    "client.latency_p50_us", "client.latency_p999_us",
    "net.fastpath.coverage", "net.fastpath.fallbacks",
    "net.events.processed", "net.simulator.delivered", "net.simulator.lost",
    "net.simulator.node_drops",
    "core.dataplane.reads", "core.dataplane.invalidations",
    "core.controller.insertions", "core.controller.evictions",
    "sketch.digest.hit_ratio", "sketch.digest.evictions",
    "kvstore.server.drops", "kvstore.shim.retransmissions",
    "kvstore.shim.writes_blocked", "kvstore.shim.dedup_hits",
    "sim.emulation.steps", "sim.paper_rel_err",
    "faults.invariants.ticks", "faults.invariants.violations",
    "faults.injector.injected",
    "obs.span_count", "obs.histogram_observations",
)


# -- reading a finished rack ----------------------------------------------------


@dataclasses.dataclass
class Seen:
    """What one finished repetition shows from outside."""

    #: simulated client queries sent in the region (``attempted``).
    queries: int
    #: definitive failures only (time-outs, drops); a query still in flight
    #: or queued when the window closes is neither answered nor failed.
    failed: int
    #: the simulated end-to-end metrics.
    sim: Dict[str, float]
    #: per-layer counts, by ``COUNT_NAMES``.
    counts: Dict[str, float]
    latency_samples: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    #: delivery-trace digest or chaos event log, equal across repetitions.
    fingerprint: object = None
    paper_errors: Dict[str, float] = dataclasses.field(default_factory=dict)


def rack_counts(racks, engine=None) -> Dict[str, float]:
    """Public counters of finished racks (clusters or the emulator)."""
    c = dict.fromkeys(COUNT_NAMES, 0)
    digest_hits = digest_lookups = 0
    for rack in racks:
        sim = rack.sim
        c["net.events.processed"] += sim.events.processed
        c["net.simulator.delivered"] += sim.delivered
        c["net.simulator.lost"] += sim.lost
        c["net.simulator.node_drops"] += sim.node_drops
        for client in getattr(rack, "clients", ()):
            c["client.retransmissions"] += client.retransmissions
            c["client.timeouts"] += client.timeouts
        dataplane = getattr(rack.switch, "dataplane", None)
        if dataplane is not None:
            c["core.dataplane.reads"] += (dataplane.cache_hits
                                          + dataplane.cache_misses)
            c["core.dataplane.invalidations"] += dataplane.invalidations
            digests = dataplane.stats.digests
            digest_hits += digests.hits
            digest_lookups += digests.hits + digests.misses
            c["sketch.digest.evictions"] += digests.evictions
        if rack.controller is not None:
            c["core.controller.insertions"] += rack.controller.insertions
            c["core.controller.evictions"] += rack.controller.evictions
        for server in rack.servers.values():
            c["kvstore.server.drops"] += server.drops
            c["kvstore.shim.retransmissions"] += server.shim.retransmissions
            c["kvstore.shim.writes_blocked"] += server.shim.writes_blocked
            c["kvstore.shim.dedup_hits"] += server.shim.dedup.hits
    if digest_lookups:
        c["sketch.digest.hit_ratio"] = digest_hits / digest_lookups
    if engine is not None:
        c["net.fastpath.coverage"] = engine.coverage()
        c["net.fastpath.fallbacks"] = engine.scalar_fallbacks
    return c


def total_sent(cluster: Cluster) -> int:
    return sum(client.sent for client in cluster.clients)


def observe_racks(racks, sim_seconds: float, engine=None) -> Seen:
    """Simulated results pooled over *racks*, each run for *sim_seconds*."""
    sent = sum(total_sent(rack) for rack in racks)
    answered = sum(rack.total_received() for rack in racks)
    hits = sum(rack.total_cache_hits() for rack in racks)
    latencies = np.concatenate([rack.all_latencies() for rack in racks])
    counts = rack_counts(racks, engine)
    p50, p999 = np.percentile(latencies, [50.0, 99.9]) * 1e6
    counts["client.latency_p50_us"] = float(p50)
    counts["client.latency_p999_us"] = float(p999)
    return Seen(
        queries=sent,
        failed=int(counts["client.timeouts"] + counts["kvstore.server.drops"]),
        sim={
            "answered_share": answered / sent,
            "sim_goodput_qps": answered / (sim_seconds * len(racks)),
            "sim_hit_ratio": hits / answered,
        },
        counts=counts,
        latency_samples=int(latencies.size),
    )


# -- lanes workloads -------------------------------------------------------------


class LanesCase:
    """``build_rack`` + ``SimCoreRunner.run`` with a ``DeliveryTrace``."""

    #: queries of the scalar-vs-lanes correctness prefix.
    PREFIX_QUERIES = 12_000

    def __init__(self, name: str, config: SimCoreConfig,
                 observer: bool = False):
        self.name = name
        self.base = config
        self.observer = observer

    def config(self, seed: int, scale: float) -> SimCoreConfig:
        return dataclasses.replace(
            self.base, seed=seed, duration=self.base.duration * scale)

    def check(self, seed: int, scale: float, sabotage: bool) -> List[str]:
        return checks.dual_path_prefix(
            self.config(seed, scale), self.PREFIX_QUERIES,
            alter="switch.processed" if sabotage else None)

    def setup(self, seed: int, scale: float) -> SimpleNamespace:
        config = self.config(seed, scale)
        cluster, client, workload = build_rack(config)
        trace = DeliveryTrace()
        runner = SimCoreRunner(cluster, client, workload, trace=trace)
        return SimpleNamespace(config=config, cluster=cluster, runner=runner,
                               trace=trace, session=None)

    def run(self, state) -> None:
        if self.observer:
            clock = obs.sim_clock(state.cluster.sim)
            with obs.session(clock=clock) as state.session:
                state.runner.run(state.config.duration)
        else:
            state.runner.run(state.config.duration)

    def observe(self, state) -> Seen:
        seen = observe_racks([state.cluster], state.config.duration,
                             engine=state.runner.engine)
        seen.fingerprint = state.trace.digest()
        if state.session is not None:
            seen.counts["obs.span_count"] = sum(
                s["count"] for s in state.session.tracer.summary().values())
            seen.counts["obs.histogram_observations"] = sum(
                m["count"] for m in state.session.registry.collect().values()
                if m["type"] == "histogram")
        return seen


# -- the Fig 10(c) sweep on the per-packet event loop ------------------------------


class ScalarFig10cCase:
    """The Fig 10(c) sweep as ``fig10c_latency`` builds it: the path users
    and ``bench_fig10c_latency`` run.  ``Cluster.run`` on the per-packet
    event loop, NoCache and NetCache racks, one of them saturated."""

    name = "scalar_fig10c"

    NUM_SERVERS = 8
    SERVER_RATE = 50_000.0
    NUM_KEYS = 2_000
    CACHE_ITEMS = 100
    OFFERED_FRACTIONS = (0.3, 0.7, 1.1)
    SIM_SECONDS = 0.035

    def check(self, seed, scale, sabotage) -> List[str]:
        # Warm-up only: the event loop has no second implementation to
        # diff against; its correctness checks are in observe().
        self.run(self.setup(seed, scale * 0.1))
        return []

    def setup(self, seed, scale) -> SimpleNamespace:
        racks = []
        capacity = self.NUM_SERVERS * self.SERVER_RATE
        for enable_cache in (False, True):
            for fraction in self.OFFERED_FRACTIONS:
                cluster = Cluster(ClusterConfig(
                    num_servers=self.NUM_SERVERS,
                    server_rate=self.SERVER_RATE, enable_cache=enable_cache,
                    cache_items=self.CACHE_ITEMS, lookup_entries=1024,
                    value_slots=1024, seed=seed))
                workload = default_workload(num_keys=self.NUM_KEYS,
                                            skew=0.99, seed=seed)
                cluster.load_workload_data(workload)
                if enable_cache:
                    cluster.warm_cache(workload, self.CACHE_ITEMS)
                cluster.add_workload_client(workload,
                                            rate=fraction * capacity)
                racks.append(cluster)
        return SimpleNamespace(racks=racks,
                               sim_seconds=self.SIM_SECONDS * scale)

    def run(self, state) -> None:
        for cluster in state.racks:
            cluster.run(state.sim_seconds)

    def observe(self, state) -> Seen:
        seen = observe_racks(state.racks, state.sim_seconds)
        for cluster in state.racks:
            if cluster.total_received() > total_sent(cluster):
                seen.problems.append("a rack answered more than was sent")
            if cluster.controller is None and cluster.total_cache_hits():
                seen.problems.append("a NoCache rack reported cache hits")
        return seen


# -- chaos: loss bursts, retries, dedup, invariants ---------------------------------


class ChaosLossRetryCase:
    """60% loss bursts on two server links with client retries, shim dedup
    and the invariant suite: per-packet link RNG and retry timers."""

    name = "chaos_loss_retry"

    DURATION = 0.24
    # The default budget (3 retries, doubling from 400 us) gives up on
    # about 2.5% of the queries inside a burst.  The benchmark needs
    # workloads on which no operation fails, so these clients retry at a
    # fixed 200 us for longer than a burst can hide a server: every query
    # is answered, and the retry span (16 ms) stays inside the durability
    # invariant's 20 ms ack-reorder allowance.
    RETRY = dict(retry_max=80, retry_backoff=1.0, retry_timeout=200e-6)

    def check(self, seed, scale, sabotage) -> List[str]:
        self.run(self.setup(seed, scale * 0.1))
        return []

    def setup(self, seed, scale) -> SimpleNamespace:
        duration = self.DURATION * scale
        config = ChaosConfig(
            seed=seed, rate=100_000, duration=duration, drain=0.05,
            num_servers=8, num_keys=5000, cache_items=64,
            lookup_entries=1024, value_slots=1024,
            stats_interval=duration / 3, invariant_interval=duration / 30,
            **SCENARIO_OVERRIDES["loss-retry"], **self.RETRY)
        # Built as run_chaos("loss-retry") builds it, keeping the runner
        # (and so its cluster) reachable for the counters.
        runner = ChaosRunner(config, scenario="loss-retry")
        runner.schedule = scripted_schedule(
            "loss-retry", config, runner.cluster.plan.server_ids)
        runner.injector = FaultInjector(runner.cluster, runner.schedule)
        return SimpleNamespace(runner=runner, report=None)

    def run(self, state) -> None:
        state.report = state.runner.run()

    def observe(self, state) -> Seen:
        runner, report = state.runner, state.report
        seen = observe_racks([runner.cluster], runner.config.duration)
        seen.counts["faults.invariants.ticks"] = report.invariant_ticks
        seen.counts["faults.invariants.violations"] = len(report.violations)
        seen.counts["faults.injector.injected"] = report.faults_injected
        seen.problems += checks.chaos_clean(report)
        seen.fingerprint = report.event_log_text()
        return seen


# -- the analytic figures and the hybrid emulation ------------------------------------


class FiguresModelCase:
    """No packets: the rate-equilibrium model behind Figs 9 and 10, and the
    hybrid emulation of Fig 11 feeding core.stats and the controller a
    sampled stream.  Carries the accuracy metric.

    At full size every figure runs with its default (the paper's)
    parameters, so one repetition takes longer than the run budget and is
    the only one; ``scale`` shrinks key spaces and caches together.
    """

    name = "figures_model"

    def check(self, seed, scale, sabotage) -> List[str]:
        return []   # a region this long needs no warm-up

    def setup(self, seed, scale) -> SimpleNamespace:
        base = EmulationConfig()
        # As fig11_dynamics("hot-in", duration=40.0) builds it, keeping
        # the emulator reachable for the counters.
        emulator = DynamicsEmulator(EmulationConfig(
            churn_kind="hot-in", churn_interval=10.0, duration=40.0,
            seed=seed,
            num_keys=int(base.num_keys * scale),
            cache_items=int(base.cache_items * scale),
            churn_n=int(base.churn_n * scale),
            samples_per_step=int(base.samples_per_step * scale)))
        return SimpleNamespace(
            emulator=emulator,
            static_keys=int(experiments.STATIC_NUM_KEYS * scale),
            figures=None, fig11=None)

    def run(self, state) -> None:
        keys = state.static_keys
        cache = keys // 100     # the paper's 10K cached items of 1M keys
        sizes = [n for n in (10, 100, 1_000, 10_000, 65_536) if n <= keys]
        state.figures = {
            "fig09a": experiments.fig09a_value_size(),
            "fig09b": experiments.fig09b_cache_size(),
            "fig10a": experiments.fig10a_throughput(cache, keys),
            "fig10b": experiments.fig10b_breakdown(cache, keys),
            "fig10d": experiments.fig10d_write_ratio(
                cache_items=cache, num_keys=keys),
            "fig10e": experiments.fig10e_cache_size(sizes, num_keys=keys),
            "fig10f": experiments.fig10f_scalability(config=ScalingConfig(
                num_keys=keys, leaf_cache_items=cache,
                spine_cache_items=cache)),
        }
        state.fig11 = state.emulator.run()

    def observe(self, state) -> Seen:
        emulator, fig11 = state.emulator, state.fig11
        failed = checks.failed_predicates(state.figures, fig11)
        rows = sum(len(rows) for rows in state.figures.values()) \
            + len(fig11.times)
        errors = paper_errors(state.figures)
        counts = rack_counts([emulator])
        counts["sim.emulation.steps"] = len(fig11.times)
        counts["sim.paper_rel_err"] = sum(errors.values()) / len(errors)
        dataplane = emulator.switch.dataplane
        return Seen(
            # The sampled statistics stream is this workload's query count.
            queries=dataplane.cache_hits + dataplane.cache_misses,
            failed=0,
            sim={
                "answered_share": 1.0 - len(failed) / rows,
                "sim_goodput_qps":
                    experiments.dynamics_summary(fig11)["mean"],
                "sim_hit_ratio": dataplane.hit_ratio(),
            },
            counts=counts,
            problems=[f"predicate {name} failed" for name in failed],
            paper_errors=errors,
        )


def paper_errors(figures) -> Dict[str, float]:
    """Relative error of the model against each row of
    ``paper_reference.json`` (``|model - paper| / paper``)."""
    fig10a = {r.workload: r for r in figures["fig10a"]}
    skewed_writes = [r for r in figures["fig10d"]
                     if r.write_dist == "zipf-0.99"]
    zipf99 = [r for r in figures["fig10e"] if r.skew == 0.99]
    plateau = max(r.throughput_bqps for r in zipf99)
    uniform = fig10a["uniform"].nocache_bqps
    model = {
        "fig09a.read_bqps_up_to_128B": float(np.mean(
            [r.read_bqps for r in figures["fig09a"] if r.x <= 128])),
        "fig09b.read_bqps": float(np.mean(
            [r.read_bqps for r in figures["fig09b"]])),
        "fig10a.nocache_share_of_uniform.zipf-0.95":
            fig10a["zipf-0.95"].nocache_bqps / uniform,
        "fig10a.nocache_share_of_uniform.zipf-0.99":
            fig10a["zipf-0.99"].nocache_bqps / uniform,
        "fig10a.improvement.zipf-0.9": fig10a["zipf-0.9"].improvement,
        "fig10a.improvement.zipf-0.95": fig10a["zipf-0.95"].improvement,
        "fig10a.improvement.zipf-0.99": fig10a["zipf-0.99"].improvement,
        "fig10a.netcache_bqps.zipf-0.99": fig10a["zipf-0.99"].netcache_bqps,
        # First swept write ratio at which NetCache no longer beats NoCache.
        "fig10d.skewed_write_crossover": min(
            (r.write_ratio for r in skewed_writes
             if r.netcache_bqps <= r.nocache_bqps), default=1.0),
        # Smallest swept cache that reaches 95% of the plateau.
        "fig10e.items_to_plateau.zipf-0.99": min(
            r.cache_items for r in zipf99
            if r.throughput_bqps >= 0.95 * plateau),
    }
    reference = json.loads((HERE / "paper_reference.json").read_text())
    return {row["id"]: abs(model[row["id"]] - row["paper"]) / row["paper"]
            for row in reference["points"]}


# -- the table ----------------------------------------------------------------------
# BENCHMARK.json records why each workload exists.

_READ = SimCoreConfig(rate=1e6, duration=0.25)

CASES = {case.name: case for case in (
    LanesCase("lanes_read", _READ),
    LanesCase("lanes_mixed", dataclasses.replace(
        _READ, write_ratio=0.05, num_clients=2, client_rates=(6e5, 4e5),
        retries=True, duration=0.1)),
    LanesCase("lanes_bigkeys", SimCoreConfig(
        num_keys=100_000, cache_items=1024, lookup_entries=4096,
        num_servers=16, warm=False, rate=1e6, duration=0.2)),
    LanesCase("lanes_obs", dataclasses.replace(_READ, duration=0.04),
              observer=True),
    ScalarFig10cCase(),
    ChaosLossRetryCase(),
    FiguresModelCase(),
)}
