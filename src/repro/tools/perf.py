"""Perf harness: one table of named scenarios, replay snapshots, one gate.

``netcache-repro perf --scenario NAME`` runs one row of :data:`SCENARIOS`
and prints its report.  ``--out FILE`` writes the run's snapshot;
``--compare PRIOR.json`` re-runs the row and fails (exit 1) when a guarded
metric moved — the gate CI holds against the committed ``BENCH_*.json``.

A row is a :class:`Scenario`: its runner, its guard rows, its renderer
and, where it has one, the writer of its ``--metrics-out`` file.  Each
runner is bound to the config object it consumes — a ``SimCoreConfig``
for a discrete-event rack row or for a race of the lanes engine against
the scalar event loop, the keywords of ``run_tournament`` for the
geometry grid.  The gate and the renderer find their row by the
snapshot's ``scenario`` name.

Everything under ``results`` is a pure function of (scenario, seed) and is
all a snapshot file holds; the rack rows are gated within ``--threshold``
on sim-time throughput, ratios and latency quantiles, every other row
with exact equality.  Host time is the in-memory ``wall`` section: the
report prints it, ``--out`` drops it, and the one gate that reads it
(``geometry10m``'s floor rows) checks the fresh run, never a baseline.
Host-time trajectories live in ``benchmarks/e2e``.
"""

from __future__ import annotations

import dataclasses
import json
import re
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.client.workload import Workload, WorkloadSpec
from repro.core.dataplane import NetCacheDataplane
from repro.core.stats import QueryStatistics
from repro.errors import ConfigurationError
from repro.net.routing import RoutingTable
from repro.sim.simcore import (
    SimCoreConfig,
    build_rack,
    diff_snapshots,
    run_batched,
    run_scalar,
)
from repro.sketch.reference import ScalarQueryStatistics
from repro.tools import tournament

#: bump when the snapshot layout changes incompatibly.
SNAPSHOT_SCHEMA = 1

#: default allowed relative change before --compare fails.
DEFAULT_THRESHOLD = 0.10

#: one guard row: a path into the snapshot and the rule held on it.
#: "higher" may not drop and "lower" may not grow past the threshold,
#: "equal" must replay identically, and ``("floor", x)`` is a minimum for
#: a host-time reading of the fresh run (no baseline records one).
Guard = Tuple[Tuple[str, ...], Union[str, Tuple[str, float]]]


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One row of :data:`SCENARIOS`."""

    description: str
    #: ``run(seed, duration)`` -> ``(config, results, wall)``; a
    #: ``duration`` of None means the row's own length.
    run: Callable[[int, Optional[float]], Tuple[Dict, Dict, Dict]]
    guards: Tuple[Guard, ...]
    render: Callable[[Dict], str]
    #: the text ``--metrics-out`` writes for a snapshot of this row; None
    #: when the row has no such file.
    write_metrics: Optional[Callable[[Dict], str]] = None


def _speeds(packets: int, elapsed: float, ref_elapsed: float) -> Dict:
    """The ``wall`` readings of a measured pass and its scalar reference."""
    return {"packets_per_second": packets / elapsed,
            "reference_packets_per_second": packets / ref_elapsed,
            "speedup_vs_scalar": ref_elapsed / elapsed}


# -- the discrete-event rack -------------------------------------------------------

#: component histograms embedded in a rack snapshot's latency section.
LATENCY_COMPONENTS = (
    "client.request",
    "shim.cache_update.rtt",
    "span.dataplane.process",
    "span.controller.update_cache",
    "span.shim.handle_write",
)


def _at(config: SimCoreConfig, seed: int,
        duration: Optional[float]) -> SimCoreConfig:
    """*config* at *seed*, running ``duration`` seconds (None: its own)."""
    return dataclasses.replace(
        config, seed=seed,
        duration=config.duration if duration is None else duration)


def _run_rack(rack: SimCoreConfig, seed: int, duration: Optional[float]):
    """Build the rack and run it, set-up included, inside an obs session."""
    rack = _at(rack, seed, duration)
    duration = rack.duration
    cluster = None
    # The session opens before the rack is built, so warm-up's spans land
    # in it; simulated time is 0 until the rack runs.
    with obs.session(clock=lambda: cluster.sim.now if cluster else 0.0) as o:
        cluster, client, _ = build_rack(rack)
        cluster.run(duration)
        client.stop()

    config = dataclasses.asdict(rack)
    wall = {"time_shares": o.tracer.wall_shares(),
            "registry_jsonl": (obs.registry_to_jsonl(o.registry)
                               + obs.tracer_to_jsonl(o.tracer))}
    dataplane = cluster.switch.dataplane
    controller = cluster.controller
    received = client.received
    results = {
        "queries_sent": client.sent,
        "queries_received": received,
        "delivery_ratio": received / client.sent if client.sent else 0.0,
        "throughput_qps": received / duration,
        "cache_hit_ratio": client.cache_hits / received if received else 0.0,
        "switch": {
            "cache_hits": dataplane.cache_hits,
            "cache_misses": dataplane.cache_misses,
            "hit_ratio": dataplane.hit_ratio(),
            "invalidations": dataplane.invalidations,
            "updates_received": dataplane.updates_received,
            "cache_size": dataplane.cache_size(),
        },
        "controller": {
            "rounds": controller.rounds,
            "reports_received": controller.reports_received,
            "insertions": controller.insertions,
            "evictions": controller.evictions,
            "rejections": controller.rejections,
        },
        "net": {
            "delivered": o.net_delivered.value,
            "dropped": o.net_dropped.value,
        },
        "reliability": {
            "client_retries": client.retransmissions,
            "client_timeouts": client.timeouts,
            "dedup_hits": sum(s.shim.dedup.hits
                              for s in cluster.servers.values()),
            "degraded_entries": sum(s.shim.degraded_entries
                                    for s in cluster.servers.values()),
        },
        "latency": obs.latency_summary(
            o.registry, [n for n in LATENCY_COMPONENTS if n in o.registry]),
        "components": o.tracer.summary(),
    }
    return config, results, wall


def _render_rack(snapshot: Dict) -> str:
    r = snapshot["results"]
    lines = [
        f"scenario {snapshot['scenario']} seed={snapshot['seed']} "
        f"duration={snapshot['config']['duration']:g}s",
        f"throughput   : {r['throughput_qps']:,.0f} qps "
        f"({r['queries_received']}/{r['queries_sent']} answered)",
        f"cache        : {r['cache_hit_ratio']:.1%} client hit ratio, "
        f"{r['switch']['cache_size']} items cached",
        f"controller   : {r['controller']['insertions']} insertions, "
        f"{r['controller']['evictions']} evictions over "
        f"{r['controller']['rounds']} rounds",
        "latency (sim-time seconds):",
    ]
    for name, digest in sorted(r["latency"].items()):
        if not digest["count"]:
            continue
        lines.append(
            f"  {name:<30} n={digest['count']:<8} "
            f"p50={digest['p50']:.3e} p90={digest['p90']:.3e} "
            f"p99={digest['p99']:.3e} p999={digest['p999']:.3e}")
    lines.append("host-time shares (exclusive):")
    for name, share in sorted(snapshot["wall"]["time_shares"].items(),
                              key=lambda kv: -kv[1]):
        lines.append(f"  {name:<30} {share:6.1%}")
    return "\n".join(lines)


def _registry_jsonl(snapshot: Dict) -> str:
    return snapshot["wall"]["registry_jsonl"]


#: sim-time throughput, ratios and client latency, within the threshold.
RACK_GUARDS: Tuple[Guard, ...] = (
    (("results", "throughput_qps"), "higher"),
    (("results", "delivery_ratio"), "higher"),
    (("results", "cache_hit_ratio"), "higher"),
    (("results", "latency", "client.request", "p50"), "lower"),
    (("results", "latency", "client.request", "p99"), "lower"),
)


def _rack_row(description: str, rack: SimCoreConfig) -> Scenario:
    return Scenario(description, partial(_run_rack, rack), RACK_GUARDS,
                    _render_rack, _registry_jsonl)


# -- the statistics hot-path microbenchmark ----------------------------------------

#: ``packets`` is the budget a ``duration`` of 1.0 streams; statistics are
#: cleared every ``reset_every`` packets.  Sample rate 1.0: every packet
#: exercises the counter/sketch/Bloom path (the sampler's high-pass role
#: belongs to the rack rows), and neither engine consumes RNG state, so
#: the priming pass cannot perturb the measured pass's decisions.
HOTPATH = dict(num_keys=20_000, cache_items=1_000, entries=4_096,
               hot_threshold=8, packets=120_000, batch_size=4_000,
               reset_every=32_000)


def _run_hotpath(seed: int, duration: Optional[float]):
    """Drive the real data plane's statistics path, twice.

    The measured pass streams a Zipf read workload through batched
    ``observe_reads`` with warm digests (one untimed priming pass fills
    the intern table, then statistics are reset — the steady state a
    switch reaches within its first statistics interval).  The reference
    pass replays the *same* stream through a scalar
    :class:`~repro.sketch.reference.ScalarQueryStatistics` data plane that
    hashes every key from scratch, and every observable output — hot
    reports in order, hit/miss counts, per-key counters — must match
    bit-for-bit, which lands in ``results.reference_matches``.
    """
    cfg = HOTPATH
    batch_size, reset_every = cfg["batch_size"], cfg["reset_every"]
    total = max(batch_size, int(round(
        cfg["packets"] * (1.0 if duration is None else duration))))
    workload = Workload(WorkloadSpec(num_keys=cfg["num_keys"], seed=seed))
    stream = [key for _op, key in workload.queries(total)]
    items = workload.keyspace.items(stream)
    cached = workload.hottest_keys(cfg["cache_items"])

    def build(stats_class) -> NetCacheDataplane:
        dp = NetCacheDataplane(
            RoutingTable(default_port=0), entries=cfg["entries"],
            value_slots=cfg["entries"],
            stats=stats_class(entries=cfg["entries"],
                              hot_threshold=cfg["hot_threshold"],
                              sample_rate=1.0, seed=seed))
        dp.layout.bind_keyspace(workload.keyspace)
        ports = dp.num_pipes * dp.ports_per_pipe
        for i, key in enumerate(cached):
            dp.install(key, workload.value_for(key), i % ports)
        return dp

    def run_stream(dp: NetCacheDataplane, batched: bool) -> List[bytes]:
        """Feed the stream with resets at fixed packet offsets; batch
        boundaries are split at reset points so both drivers clear their
        statistics at identical stream positions."""
        hot: List[bytes] = []
        pos = 0
        while pos < total:
            end = min(pos + batch_size, total,
                      (pos // reset_every + 1) * reset_every)
            if batched:
                hot.extend(dp.observe_reads(items[pos:end]))
            else:
                hot.extend(key for key in map(dp.observe_read,
                                              stream[pos:end])
                           if key is not None)
            pos = end
            if pos % reset_every == 0:
                dp.reset_statistics()
        return hot

    fast = build(QueryStatistics)
    run_stream(fast, batched=True)  # priming pass: fill the digest table
    fast.reset_statistics()
    hits0, misses0 = fast.cache_hits, fast.cache_misses
    reports0, resets0 = fast.stats.reports, fast.stats.resets
    fast.stats.sampler.reset_stats()

    ref = build(ScalarQueryStatistics)
    start = perf_counter()
    hot_fast = run_stream(fast, batched=True)
    split = perf_counter()
    hot_ref = run_stream(ref, batched=False)
    stop = perf_counter()

    cache_hits = fast.cache_hits - hits0
    cache_misses = fast.cache_misses - misses0
    matches = (hot_fast == hot_ref
               and cache_hits == ref.cache_hits
               and cache_misses == ref.cache_misses
               and fast.stats.reports - reports0 == ref.stats.reports
               and all(fast.counter_of(k) == ref.counter_of(k)
                       for k in cached))
    sampler = fast.stats.sampler
    results = {
        "packets": total,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "hit_ratio": cache_hits / total,
        "hot_reports": len(hot_fast),
        "resets": fast.stats.resets - resets0,
        "sampler_observed": sampler.observed,
        "sampler_sampled": sampler.sampled,
        "digest": fast.stats.digests.stats(),
        "reference_matches": matches,
    }
    return dict(cfg), results, _speeds(total, split - start, stop - split)


def _render_hotpath(snapshot: Dict) -> str:
    r = snapshot["results"]
    w = snapshot["wall"]
    d = r["digest"]
    return "\n".join([
        f"scenario {snapshot['scenario']} seed={snapshot['seed']} "
        f"packets={r['packets']}",
        f"hot path     : {w['packets_per_second']:,.0f} packets/s "
        f"(batched observe_reads, warm digests)",
        f"reference    : {w['reference_packets_per_second']:,.0f} "
        f"packets/s (scalar, hash per access)",
        f"speedup      : {w['speedup_vs_scalar']:.1f}x",
        f"cache        : {r['hit_ratio']:.1%} hit ratio "
        f"({r['cache_hits']} hits / {r['cache_misses']} misses)",
        f"statistics   : {r['hot_reports']} hot reports over "
        f"{r['resets']} resets, {r['sampler_sampled']} sampled",
        f"digests      : {d['size']} interned, {d['hits']} hits / "
        f"{d['misses']} misses / {d['evictions']} evictions",
        f"equivalence  : scalar reference "
        f"{'matched bit-for-bit' if r['reference_matches'] else 'DIVERGED'}",
    ])


#: exact replay counters: any drift means the hot path changed behaviour.
HOTPATH_GUARDS: Tuple[Guard, ...] = tuple(
    (("results", metric), "equal")
    for metric in ("packets", "cache_hits", "cache_misses", "hot_reports",
                   "sampler_sampled", "reference_matches"))


# -- the dual-path races -----------------------------------------------------------

#: the 10M-packet read-only rack both simulator paths race on.
SIMCORE = SimCoreConfig(rate=1_000_000.0, duration=10.0, stats_interval=1.0)

#: two open-loop clients, 5% writes, retry policy armed.
SIMCORE_MIXED = dataclasses.replace(
    SIMCORE, write_ratio=0.05, num_clients=2,
    client_rates=(600_000.0, 400_000.0), retries=True)

#: each non-paper geometry at the full packet budget.  Orbit runs 96-byte
#: values on 2-stage (32-byte) segments — three segments per value, so
#: every cache hit takes two recirculation passes and the per-record
#: reply-delay lane is exercised at scale while staying inside the wire
#: format's 128-byte value cap.
GEOMETRY_CELLS: Tuple[SimCoreConfig, ...] = (
    dataclasses.replace(SIMCORE, layout="setassoc"),
    dataclasses.replace(SIMCORE, layout="orbit", value_size=96,
                        num_value_stages=2),
)

#: batched-over-scalar host-time ratio each geometry must keep, so a
#: native kernel cannot decay into per-packet work with equal counters.
GEOMETRY_SPEEDUP_FLOOR = 3.0


def _race(config: SimCoreConfig) -> Tuple[Dict, Dict]:
    """Race the batched lanes engine against the scalar event loop.

    Both paths run the same config from identical seeds; the scalar loop
    is the executable specification, and ``diff_snapshots`` must come back
    empty — every counter, per-key register, per-server/per-link total,
    latency sample and the delivery-trace digest byte-identical.  Returns
    ``(results, wall)``: the replay counters, the verdict and the engine's
    telemetry (the share of packets that ran under lanes, and why the
    rest fell back), then the two paths' host time.
    """
    start = perf_counter()
    batched = run_batched(config)
    split = perf_counter()
    scalar = run_scalar(config)
    stop = perf_counter()
    diffs = diff_snapshots(scalar, batched)

    def clients_total(field: str) -> int:
        """Sum a per-client counter over client, client1, client2, ..."""
        return sum(v for k, v in scalar.items()
                   if re.fullmatch(rf"client\d*\.{field}", k))

    received = clients_total("received")
    cache_hits = clients_total("cache_hits")
    results = {
        "packets": config.packets,
        "queries_sent": clients_total("sent"),
        "queries_received": received,
        "cache_hits": cache_hits,
        "cache_hit_ratio": cache_hits / received if received else 0.0,
        "writes_seen": scalar.get("dataplane.writes_seen", 0),
        "retransmissions": clients_total("retransmissions"),
        "deliveries": scalar["sim.delivered"],
        "lost": scalar["sim.lost"],
        "recirculations": scalar.get("layout.recirculations", 0),
        "trace_digest": scalar["trace.digest"],
        "divergences": len(diffs),
        "divergent_fields": diffs[:20],
        "paths_match": not diffs,
        "fastpath_coverage": batched.get("fastpath.coverage", 0.0),
        "fallback_reasons": batched.get("fastpath.fallbacks", {}),
    }
    return results, _speeds(config.packets, split - start, stop - split)


def _run_simcore(config: SimCoreConfig, seed: int,
                 duration: Optional[float]):
    config = _at(config, seed, duration)
    return (dataclasses.asdict(config),) + _race(config)


def _run_geometry(seed: int, duration: Optional[float]):
    """One race per :data:`GEOMETRY_CELLS` geometry (the tournament sweeps
    the grid at smoke scale; this takes the non-paper geometries to the
    full packet budget); everything it returns is keyed by layout."""
    config, results, cells = {}, {}, {}
    for cell in GEOMETRY_CELLS:
        config[cell.layout], results[cell.layout], cells[cell.layout] = \
            _run_simcore(cell, seed, duration)
    return config, results, {"cells": cells}


def _race_lines(r: Dict, w: Dict) -> List[str]:
    lines = [
        f"batched      : {w['packets_per_second']:,.0f} packets/s "
        f"(lanes engine)",
        f"scalar       : {w['reference_packets_per_second']:,.0f} "
        f"packets/s (per-packet event loop)",
        f"speedup      : {w['speedup_vs_scalar']:.1f}x",
        f"cache        : {r['cache_hit_ratio']:.1%} client hit ratio "
        f"({r['cache_hits']} hits / {r['queries_received']} answered)",
        f"writes       : {r['writes_seen']:,} at the switch, "
        f"{r['retransmissions']:,} client retransmissions, "
        f"{r['recirculations']:,} recirculations",
        f"trace        : {r['trace_digest']}",
        f"coverage     : {r['fastpath_coverage']:.3f} fast-path, "
        f"fallbacks {r['fallback_reasons'] or '{}'}",
        f"equivalence  : "
        f"{'byte-identical' if r['paths_match'] else 'DIVERGED'}"
        f" ({r['divergences']} fields differ)",
    ]
    lines.extend(f"  {d}" for d in r["divergent_fields"])
    return lines


def _render_simcore(snapshot: Dict) -> str:
    r = snapshot["results"]
    return "\n".join(
        [f"scenario {snapshot['scenario']} seed={snapshot['seed']} "
         f"packets={r['packets']:,}"] + _race_lines(r, snapshot["wall"]))


def _render_geometry(snapshot: Dict) -> str:
    lines = [f"scenario {snapshot['scenario']} seed={snapshot['seed']}"]
    for layout, r in snapshot["results"].items():
        cell = snapshot["config"][layout]
        lines.append(
            f"{layout} (value_size={cell['value_size']}, "
            f"stages={cell['num_value_stages']}): {r['packets']:,} packets")
        lines.extend(
            "  " + line
            for line in _race_lines(r, snapshot["wall"]["cells"][layout]))
    return "\n".join(lines)


#: the dual-path equivalence itself: any drift in the replay counters or
#: a single divergent field fails the compare.
SIMCORE_GUARDS: Tuple[Guard, ...] = tuple(
    (("results", metric), "equal")
    for metric in ("packets", "queries_sent", "queries_received",
                   "cache_hits", "writes_seen", "retransmissions",
                   "deliveries", "lost", "divergences", "paths_match"))

#: per geometry, the replay counters AND the engine telemetry — exact
#: coverage, so a change that quietly pushes a geometry back onto the
#: scalar path fails --compare even with matching counters — then the
#: host-time floor of the fresh run.
GEOMETRY_GUARDS: Tuple[Guard, ...] = tuple(
    (("results", cell.layout, metric), "equal")
    for cell in GEOMETRY_CELLS
    for metric in ("packets", "cache_hits", "deliveries", "lost",
                   "recirculations", "divergences", "paths_match",
                   "fastpath_coverage")
) + tuple(
    (("wall", "cells", cell.layout, "speedup_vs_scalar"),
     ("floor", GEOMETRY_SPEEDUP_FLOOR))
    for cell in GEOMETRY_CELLS)


# -- the cache-geometry tournament --------------------------------------------------

#: ``packets`` is the query budget of each grid cell.
TOURNAMENT = dict(num_keys=2_000, cache_items=64, lookup_entries=256,
                  value_slots=256, packets=20_000)


def _run_tournament(seed: int, duration: Optional[float]):
    """Sweep the geometry grid (see :mod:`repro.tools.tournament`).

    Every cell is a pure function of the seed — layouts in the same cell
    see byte-identical query streams — so the whole ``results`` section
    replays exactly.  The grid has one size: ``duration`` is not read,
    and its host time is not taken."""
    grid = tournament.run_tournament(seed=seed, **TOURNAMENT)
    return dict(TOURNAMENT), {"cells": grid["cells"], **grid["summary"]}, {}


def _render_tournament(snapshot: Dict) -> str:
    r = snapshot["results"]
    return (f"scenario {snapshot['scenario']} seed={snapshot['seed']} "
            f"cells={r['grid_cells']}\n" + tournament.render(r["cells"], r))


def _grid_csv(snapshot: Dict) -> str:
    return tournament.cells_to_csv(snapshot["results"]["cells"])


#: the aggregate surface replays exactly; the divergence counts pin that
#: the non-paper geometries really trade hit ratio for their structure
#: (tests assert > 0 divergent cells, the gate the exact count).
TOURNAMENT_GUARDS: Tuple[Guard, ...] = tuple(
    (("results", metric), "equal")
    for metric in ("grid_cells", "layouts_completed",
                   "paper_mean_hit_ratio", "setassoc_mean_hit_ratio",
                   "orbit_mean_hit_ratio", "setassoc_divergent_cells",
                   "orbit_divergent_cells", "sram_all_ok"))


# -- the table ---------------------------------------------------------------------

#: the 8-server, 64-item rack and 5,000-key Zipf-0.99 read stream the
#: paper-workload rack rows share (:class:`SimCoreConfig`'s defaults).
_RACK = SimCoreConfig(stats_interval=0.5, rate=40_000.0, duration=1.0)

SCENARIOS: Dict[str, Scenario] = {
    "zipf99": _rack_row(
        "paper workload: Zipf 0.99 reads, warm 64-item cache", _RACK),
    "smoke": _rack_row(
        "tiny CI scenario: seconds, not minutes",
        SimCoreConfig(num_servers=4, cache_items=16, lookup_entries=256,
                      stats_interval=0.5, num_keys=500, rate=10_000.0,
                      duration=0.2)),
    "lossy10": _rack_row(
        "10% loss on every client and server cable, client retries on "
        "(goodput must stay within 10% of lossless)",
        dataclasses.replace(_RACK, link_loss=0.10, retries=True,
                            write_ratio=0.1, duration=0.5)),
    "hotpath": Scenario(
        "statistics hot-path microbenchmark: batched observe_reads raced "
        "against the scalar reference",
        _run_hotpath, HOTPATH_GUARDS, _render_hotpath),
    "simcore": Scenario(
        "10M-packet zipf99 rack under the batched lanes engine, raced "
        "against the scalar event loop (byte-identical counters required)",
        partial(_run_simcore, SIMCORE), SIMCORE_GUARDS, _render_simcore),
    "simcore_mixed": Scenario(
        "10M-packet mixed rack: two open-loop clients (600k + 400k QPS), "
        "5% writes through the real write pipeline, retry policy armed, "
        "raced against the scalar event loop",
        partial(_run_simcore, SIMCORE_MIXED), SIMCORE_GUARDS,
        _render_simcore),
    "tournament": Scenario(
        "cache-geometry tournament: {paper, setassoc, orbit} x zipf skew x "
        "value size x write ratio on identical seeded streams "
        "(exact-replay grid, gated by BENCH_geometry.json)",
        _run_tournament, TOURNAMENT_GUARDS, _render_tournament, _grid_csv),
    "geometry10m": Scenario(
        "geometry race: setassoc and orbit each run a 10M-packet rack "
        "natively under the lanes engine, raced against the scalar event "
        "loop (byte-identical counters, full fast-path coverage and a "
        f">={GEOMETRY_SPEEDUP_FLOOR:g}x host-time ratio per layout "
        "required)",
        _run_geometry, GEOMETRY_GUARDS, _render_geometry),
}


def metrics_rows() -> str:
    """The scenarios ``--metrics-out`` applies to, for help and errors."""
    return ", ".join(sorted(name for name, row in SCENARIOS.items()
                            if row.write_metrics is not None))


def run_scenario(name: str, seed: int = 0,
                 duration: Optional[float] = None,
                 metrics_out: Optional[str] = None) -> Dict:
    """Run one scenario and return its snapshot dict."""
    row = SCENARIOS.get(name)
    if row is None:
        raise ConfigurationError(
            f"unknown perf scenario {name!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))}")
    if metrics_out and row.write_metrics is None:
        raise ConfigurationError(
            f"scenario {name!r} has no --metrics-out file "
            f"(the scenarios that do: {metrics_rows()})")
    config, results, wall = row.run(seed, duration)
    snapshot = {"schema": SNAPSHOT_SCHEMA, "scenario": name, "seed": seed,
                "config": config, "results": results, "wall": wall}
    if metrics_out:
        with open(metrics_out, "w") as fh:
            fh.write(row.write_metrics(snapshot))
    return snapshot


def strip_volatile(snapshot: Dict) -> Dict:
    """Drop the host-time section: what remains must replay identically."""
    return {k: v for k, v in snapshot.items() if k != "wall"}


def snapshot_to_json(snapshot: Dict) -> str:
    """The ``--out`` file: the snapshot without its host-time section."""
    return json.dumps(strip_volatile(snapshot), sort_keys=True,
                      indent=2) + "\n"


def render_snapshot(snapshot: Dict) -> str:
    """Human-readable report of one fresh (``wall``-carrying) snapshot."""
    return SCENARIOS[snapshot["scenario"]].render(snapshot)


# -- regression gate --------------------------------------------------------------


def _guards(snapshot: Dict) -> Tuple[Guard, ...]:
    """The guard rows of the scenario a snapshot names (none if unknown)."""
    name = snapshot.get("scenario")
    row = SCENARIOS.get(name) if isinstance(name, str) else None
    return row.guards if row is not None else ()


def _get_path(snapshot: Dict, path: Tuple[str, ...]):
    cur = snapshot
    for part in path:
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def validate_snapshot(snapshot: Dict) -> List[str]:
    """Structural checks of a snapshot file against its row's guards;
    returns readable problems (empty = well-formed).  Floor guards read
    host time, which no file holds, and are skipped."""
    if not isinstance(snapshot, dict):
        return ["snapshot is not a JSON object"]
    problems = []
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        problems.append(
            f"schema {snapshot.get('schema')!r} != {SNAPSHOT_SCHEMA}")
    for field in ("scenario", "seed", "config", "results"):
        if field not in snapshot:
            problems.append(f"missing top-level field {field!r}")
    guards = _guards(snapshot)
    if "scenario" in snapshot and not guards:
        problems.append(f"unknown scenario {snapshot['scenario']!r}")
    for path, rule in guards:
        if isinstance(rule, str) and not isinstance(
                _get_path(snapshot, path), (int, float)):
            problems.append(
                f"missing or non-numeric metric {'.'.join(path)}")
    return problems


def compare_snapshots(base: Dict, new: Dict,
                      threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Regression diffs of the fresh run *new* against *base*; empty list
    = pass.

    The comparison is relative: a "higher is better" metric fails when it
    drops more than ``threshold`` below the baseline, a "lower is better"
    metric when it grows more than ``threshold`` above it.  "equal"
    metrics ignore the threshold, and a floor is held on *new* alone.
    """
    if threshold < 0:
        raise ConfigurationError("threshold must be non-negative")
    if base.get("scenario") != new.get("scenario"):
        return [f"scenario mismatch: baseline ran {base.get('scenario')!r}, "
                f"this run {new.get('scenario')!r}"]
    diffs = []
    for path, rule in _guards(new):
        dotted = ".".join(path)
        cur = _get_path(new, path)
        old = _get_path(base, path) if isinstance(rule, str) else rule[1]
        if old is None or cur is None:
            diffs.append(f"metric {dotted} missing from "
                         f"{'baseline' if old is None else 'this run'}")
            continue
        if not isinstance(rule, str):  # ("floor", old): no baseline reading
            if cur < old:
                diffs.append(f"{dotted}: {cur:.2f} is below the "
                             f"{old:g} floor")
            continue
        if rule == "equal":
            if old != cur:
                diffs.append(f"{dotted}: {old!r} -> {cur!r} "
                             f"(must replay identically)")
            continue
        sign = -1 if rule == "higher" else 1
        worse = sign * (cur - old)
        if worse <= 0:
            continue
        if old == 0:
            # Nothing to scale by: any appearance of a worse value fails.
            diffs.append(f"{dotted}: {old:g} -> {cur:g} (baseline was zero)")
        elif worse / abs(old) > threshold:
            diffs.append(
                f"{dotted}: {old:g} -> {cur:g} "
                f"({sign * worse / abs(old):+.1%} worse than "
                f"{sign * threshold:+.1%} allowance)")
    return diffs


def render_comparison(scenario: str, base_path: str, diffs: List[str],
                      threshold: float) -> str:
    """The gate's verdict; names the threshold only when a guard of the
    scenario uses it."""
    relative = any(rule in ("higher", "lower")
                   for _path, rule in SCENARIOS[scenario].guards)
    how = f"threshold {threshold:.1%}" if relative else "exact"
    if not diffs:
        return f"no regressions vs {base_path} ({how})"
    return "\n".join([f"REGRESSION vs {base_path} ({how}):"]
                     + [f"  {d}" for d in diffs])
