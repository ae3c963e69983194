"""Canned reproductions of every evaluation figure (§7).

Each ``figXX_*`` function regenerates one figure's data series and returns
structured rows; ``format_table`` renders them the way the benchmark harness
prints them.  EXPERIMENTS.md records these outputs against the paper's
numbers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.client.zipf import ZipfDistribution
from repro.constants import DEFAULT_CACHE_ITEMS, SERVER_RATE
from repro.sim import microbench
from repro.sim.cluster import Cluster, ClusterConfig, default_workload
from repro.sim.emulation import EmulationResult, run_dynamics
from repro.sim.ratesim import RateSimConfig, simulate, top_k_mask
from repro.sim.scaling import ScalingConfig, ScalingPoint, sweep


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table (the harness's output format)."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{v:.4g}" if isinstance(v, float) else str(v) for v in row
        ])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r_i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if r_i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fig 9: switch microbenchmark (snake test)
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class MicrobenchRow:
    x: int                      # value size (9a) or cache size (9b)
    read_bqps: float
    update_bqps: float
    pipeline_passes: int
    verified: bool


def fig09a_value_size(
    value_sizes: Sequence[int] = (16, 32, 64, 96, 128, 192, 256),
    functional_check: bool = True,
) -> List[MicrobenchRow]:
    """Fig 9(a): throughput vs value size; flat at 2.24 BQPS to 128 B."""
    rows = []
    for size in value_sizes:
        tput = microbench.snake_throughput(size, cache_size=64 * 1024)
        verified = True
        if functional_check and size <= 128:
            check = microbench.verify_pipeline(size, cache_size=64,
                                               num_queries=128)
            verified = check.all_correct
        rows.append(MicrobenchRow(
            x=size, read_bqps=tput / 1e9, update_bqps=tput / 1e9,
            pipeline_passes=microbench.pipeline_passes(size),
            verified=verified,
        ))
    return rows


def fig09b_cache_size(
    cache_sizes: Sequence[int] = (1024, 4096, 16384, 32768, 65536),
    functional_check: bool = True,
) -> List[MicrobenchRow]:
    """Fig 9(b): throughput vs cache size; flat at 2.24 BQPS to 64K items."""
    rows = []
    for size in cache_sizes:
        tput = microbench.snake_throughput(128, cache_size=size)
        verified = True
        if functional_check:
            check = microbench.verify_pipeline(
                128, cache_size=min(size, 128), num_queries=128)
            verified = check.all_correct
        rows.append(MicrobenchRow(
            x=size, read_bqps=tput / 1e9, update_bqps=tput / 1e9,
            pipeline_passes=1, verified=verified,
        ))
    return rows


# ---------------------------------------------------------------------------
# Fig 10(a)/(b): system throughput and per-server breakdown
# ---------------------------------------------------------------------------

#: key-space size for the static rack experiments.
STATIC_NUM_KEYS = 1_000_000

SKEW_LABELS: Dict[str, float] = {
    "uniform": 0.0,
    "zipf-0.9": 0.9,
    "zipf-0.95": 0.95,
    "zipf-0.99": 0.99,
}


@dataclasses.dataclass
class ThroughputRow:
    workload: str
    nocache_bqps: float
    netcache_bqps: float
    cache_portion_bqps: float
    server_portion_bqps: float
    improvement: float


def _static_config(**overrides) -> RateSimConfig:
    return RateSimConfig(num_servers=128, server_rate=SERVER_RATE, **overrides)


def _read_probs(skew: float, num_keys: int = STATIC_NUM_KEYS) -> np.ndarray:
    return ZipfDistribution(num_keys, skew).probs


def fig10a_throughput(
    cache_items: int = DEFAULT_CACHE_ITEMS,
    num_keys: int = STATIC_NUM_KEYS,
    skews: Optional[Dict[str, float]] = None,
) -> List[ThroughputRow]:
    """Fig 10(a): NoCache vs NetCache under increasing skew, read-only."""
    config = _static_config()
    rows = []
    for label, skew in (skews or SKEW_LABELS).items():
        probs = _read_probs(skew, num_keys)
        nocache = simulate(probs, None, config)
        netcache = simulate(probs, top_k_mask(probs, cache_items), config)
        rows.append(ThroughputRow(
            workload=label,
            nocache_bqps=nocache.throughput / 1e9,
            netcache_bqps=netcache.throughput / 1e9,
            cache_portion_bqps=netcache.cache_throughput / 1e9,
            server_portion_bqps=netcache.server_throughput / 1e9,
            improvement=netcache.throughput / nocache.throughput,
        ))
    return rows


@dataclasses.dataclass
class BreakdownRow:
    workload: str
    cached: bool
    per_server_normalized: np.ndarray   # sorted descending

    @property
    def imbalance(self) -> float:
        arr = self.per_server_normalized
        return float(arr.max() / arr.mean()) if arr.mean() > 0 else 1.0


def fig10b_breakdown(
    cache_items: int = DEFAULT_CACHE_ITEMS,
    num_keys: int = STATIC_NUM_KEYS,
    skews: Optional[Dict[str, float]] = None,
) -> List[BreakdownRow]:
    """Fig 10(b): per-server throughput, skewed w/o cache, flat with it."""
    config = _static_config()
    rows = []
    for label, skew in (skews or SKEW_LABELS).items():
        if label == "uniform":
            continue
        probs = _read_probs(skew, num_keys)
        for cached, mask in ((False, None),
                             (True, top_k_mask(probs, cache_items))):
            result = simulate(probs, mask, config)
            loads = np.sort(result.per_server_load)[::-1]
            peak = loads.max()
            rows.append(BreakdownRow(
                workload=label, cached=cached,
                per_server_normalized=loads / peak if peak else loads,
            ))
    return rows


# ---------------------------------------------------------------------------
# Fig 10(c): latency vs throughput (discrete-event, scaled rack)
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class LatencyRow:
    system: str
    offered_fraction: float     # of the balanced-rack capacity
    throughput_qps: float
    mean_latency_us: float
    p99_latency_us: float


def fig10c_latency(
    num_servers: int = 8,
    server_rate: float = 50_000.0,
    offered_fractions: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.1),
    num_keys: int = 2_000,
    skew: float = 0.99,
    sim_seconds: float = 0.25,
    seed: int = 0,
) -> List[LatencyRow]:
    """Fig 10(c): average latency stays flat for NetCache while NoCache
    saturates at a small fraction of the rack capacity.

    Runs a scaled-down rack in the discrete-event simulator; rates are
    lower than the testbed's but the *relative* saturation points and the
    hit/miss latency split reproduce the figure.
    """
    rows: List[LatencyRow] = []
    capacity = num_servers * server_rate
    for enable_cache, name in ((False, "NoCache"), (True, "NetCache")):
        for fraction in offered_fractions:
            cluster, client = fig10c_rack(
                enable_cache, fraction * capacity, num_servers=num_servers,
                server_rate=server_rate, num_keys=num_keys, skew=skew,
                seed=seed)
            cluster.run(sim_seconds)
            lat = np.asarray(client.latencies[len(client.latencies) // 5 :])
            if lat.size == 0:
                continue
            rows.append(LatencyRow(
                system=name,
                offered_fraction=fraction,
                throughput_qps=client.received / sim_seconds,
                mean_latency_us=float(lat.mean() * 1e6),
                p99_latency_us=float(np.percentile(lat, 99) * 1e6),
            ))
    return rows


def fig10c_rack(enable_cache: bool, rate: float, num_servers: int = 8,
                server_rate: float = 50_000.0, num_keys: int = 2_000,
                cache_items: int = 100, skew: float = 0.99, seed: int = 0):
    """One rack of the Fig 10(c) sweep: stores loaded, the cache (if any)
    warmed with the *cache_items* hottest keys, one open-loop client
    offering *rate*.  Returns ``(cluster, client)``."""
    cluster = Cluster(ClusterConfig(
        num_servers=num_servers, server_rate=server_rate,
        enable_cache=enable_cache, cache_items=cache_items,
        lookup_entries=1024, value_slots=1024, seed=seed,
    ))
    workload = default_workload(num_keys=num_keys, skew=skew, seed=seed)
    cluster.load_workload_data(workload)
    if enable_cache:
        cluster.warm_cache(workload, cache_items)
    return cluster, cluster.add_workload_client(workload, rate=rate)


# ---------------------------------------------------------------------------
# Fig 10(d): write ratio
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class WriteRatioRow:
    write_dist: str
    write_ratio: float
    nocache_bqps: float
    netcache_bqps: float


def fig10d_write_ratio(
    write_ratios: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
    cache_items: int = DEFAULT_CACHE_ITEMS,
    num_keys: int = STATIC_NUM_KEYS,
    read_skew: float = 0.99,
) -> List[WriteRatioRow]:
    """Fig 10(d): uniform writes decay NetCache linearly; same-skew writes
    erase the caching benefit past ~0.2 write ratio."""
    config = _static_config()
    read_probs = _read_probs(read_skew, num_keys)
    uniform = _read_probs(0.0, num_keys)
    mask = top_k_mask(read_probs, cache_items)
    rows = []
    for dist_name, write_probs in (("uniform", uniform),
                                   ("zipf-0.99", read_probs)):
        for w in write_ratios:
            cfg = dataclasses.replace(config, write_ratio=w)
            nocache = simulate(read_probs, None, cfg, write_probs=write_probs)
            netcache = simulate(read_probs, mask, cfg,
                                write_probs=write_probs)
            rows.append(WriteRatioRow(
                write_dist=dist_name, write_ratio=w,
                nocache_bqps=nocache.throughput / 1e9,
                netcache_bqps=netcache.throughput / 1e9,
            ))
    return rows


# ---------------------------------------------------------------------------
# Fig 10(e): cache size
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class CacheSizeRow:
    skew: float
    cache_items: int
    throughput_bqps: float
    cache_portion_bqps: float


def fig10e_cache_size(
    cache_sizes: Sequence[int] = (10, 100, 1_000, 10_000, 65_536),
    skews: Sequence[float] = (0.9, 0.99),
    num_keys: int = STATIC_NUM_KEYS,
) -> List[CacheSizeRow]:
    """Fig 10(e): ~1 000 cached items balance 128 servers; returns diminish."""
    config = _static_config()
    rows = []
    for skew in skews:
        probs = _read_probs(skew, num_keys)
        for size in cache_sizes:
            result = simulate(probs, top_k_mask(probs, size), config)
            rows.append(CacheSizeRow(
                skew=skew, cache_items=size,
                throughput_bqps=result.throughput / 1e9,
                cache_portion_bqps=result.cache_throughput / 1e9,
            ))
    return rows


# ---------------------------------------------------------------------------
# Fig 10(f): scalability
# ---------------------------------------------------------------------------

def fig10f_scalability(
    rack_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    config: ScalingConfig = ScalingConfig(),
) -> List[ScalingPoint]:
    """Fig 10(f): NoCache flat, Leaf-Cache limited, Leaf-Spine linear."""
    return sweep(list(rack_counts), config)


# ---------------------------------------------------------------------------
# Fig 11: dynamics
# ---------------------------------------------------------------------------

def fig11_dynamics(kind: str, duration: float = 40.0,
                   seed: int = 0) -> EmulationResult:
    """Fig 11(a/b/c): throughput trace under hot-in / random / hot-out."""
    return run_dynamics(kind, duration=duration, seed=seed)


def dynamics_summary(result: EmulationResult) -> Dict[str, float]:
    """Headline numbers of a dynamics trace: steady-state rate, depth of the
    worst dip, and mean recovery."""
    rates = np.asarray(result.throughput)
    if rates.size == 0:
        return {"steady": 0.0, "worst_dip": 0.0, "mean": 0.0}
    steady = float(np.percentile(rates, 90))
    return {
        "steady": steady,
        "worst_dip": float(rates.min() / steady) if steady else 0.0,
        "mean": float(rates.mean()),
    }
