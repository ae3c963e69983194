"""Rate-equilibrium simulator: saturated system throughput.

This reproduces the paper's *server rotation* methodology (§7.1) in closed
form: find the bottleneck partition, scale the client load so the bottleneck
runs exactly at its capacity, and add up what every partition and the switch
cache serve at that operating point.  Because the key-value cluster is
shared-nothing and the microbenchmark shows the switch is never the
bottleneck, this is exactly what the paper measures by physically rotating
two servers through 128 partitions.

Write queries are modelled with an invalidation window: a write to a cached
key makes the entry invalid for ``invalidation_window`` seconds (server
queueing + processing + the data-plane update round trip), during which reads
on that key fall through to the server.  Validity therefore depends on the
absolute query rate, which itself depends on validity — a fixed point the
simulator iterates to convergence.  Writes to cached keys also charge the
owning server a coherence surcharge (the shim's update/ack/blocking work).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional, Sequence

import numpy as np

from repro.constants import PIPE_RATE, SERVER_RATE, SWITCH_RATE
from repro.errors import ConfigurationError
from repro.kvstore.partition import HashPartitioner
from repro.client.zipf import KeySpace


@functools.lru_cache(maxsize=32)
def partition_vector(num_keys: int, num_servers: int,
                     seed: int = 0x5EED) -> np.ndarray:
    """item id -> partition index, using the real hash partitioner.

    Cached because a sweep calls the rate simulator dozens of times on the
    same key space.  For large key spaces prefer
    :func:`fast_partition_vector`.
    """
    partitioner = HashPartitioner(list(range(num_servers)), seed=seed)
    return partitioner.partitions_of(KeySpace(num_keys).keys(range(num_keys)))


@functools.lru_cache(maxsize=32)
def fast_partition_vector(num_keys: int, num_servers: int,
                          seed: int = 0x5EED) -> np.ndarray:
    """Vectorized uniform hash partition (splitmix64 over item ids).

    Statistically equivalent to :func:`partition_vector` (any uniform hash
    yields the same load distribution); used by the large-keyspace static
    experiments where hashing every key byte string in Python would dominate
    the runtime.
    """
    mask64 = np.uint64(0xFFFFFFFFFFFFFFFF)
    x = np.arange(num_keys, dtype=np.uint64)
    x = (x + np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)) & mask64
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & mask64
    with np.errstate(over="ignore"):
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & mask64
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & mask64
    x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(num_servers)).astype(np.int64)


class CacheContentsMask:
    """Contents-version-keyed cache of the cached-items mask.

    Rebuilding the per-item boolean mask from the switch's key list is the
    expensive part of re-running the equilibrium model every step of the
    hybrid emulation; the dataplane bumps ``contents_version`` on every
    install/evict, so the mask is reused until the cache actually changes.
    """

    def __init__(self, switch, keyspace: KeySpace):
        self._switch = switch
        self._keyspace = keyspace
        self._mask: Optional[np.ndarray] = None
        self._version = -1

    def mask(self) -> np.ndarray:
        dataplane = self._switch.dataplane
        if self._mask is None or self._version != dataplane.contents_version:
            self._mask = mask_from_keys(self._switch.cached_keys(),
                                        self._keyspace)
            self._version = dataplane.contents_version
        return self._mask


@dataclasses.dataclass(frozen=True)
class RateSimConfig:
    """Inputs to one equilibrium computation."""

    num_servers: int = 128
    server_rate: float = SERVER_RATE
    switch_rate: float = SWITCH_RATE
    pipe_rate: float = PIPE_RATE
    #: egress pipes facing the storage servers.
    num_pipes: int = 2
    #: egress pipes facing the clients; every reply (cache hit or server
    #: reply) exits through one of them, which is what caps the measured
    #: system at ~2 BQPS in Fig 10(c).
    num_upstream_pipes: int = 2
    write_ratio: float = 0.0
    #: fixed part of the invalidation window (propagation, update RTT).
    invalidation_window: float = 10e-6
    #: queueing/processing part, in units of server service times: a write
    #: keeps the entry invalid while it waits in and is served by the
    #: (loaded) owning server, which scales with 1/server_rate.
    invalidation_service_factor: float = 64.0
    #: extra server work per cached-key write, as a fraction of one query
    #: (shim update + ack handling + write blocking).
    coherence_overhead: float = 0.3
    partition_seed: int = 0x5EED
    #: use the byte-level hash partitioner (matches the DES cluster exactly)
    #: instead of the vectorized equivalent; only worth it for small
    #: keyspaces in cross-validation tests.
    exact_partition: bool = False

    def __post_init__(self):
        if self.num_servers <= 0:
            raise ConfigurationError("num_servers must be positive")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigurationError("write_ratio must be in [0, 1]")


@dataclasses.dataclass
class RateSimResult:
    """Equilibrium operating point."""

    throughput: float
    cache_throughput: float
    server_throughput: float
    per_server_load: np.ndarray  # queries/second at saturation
    bottleneck: int
    hit_ratio: float
    #: which constraint bound the system: "server", "pipe", or "switch".
    binding: str

    @property
    def per_server_normalized(self) -> np.ndarray:
        peak = self.per_server_load.max()
        return self.per_server_load / peak if peak > 0 else self.per_server_load


def simulate(read_probs: np.ndarray,
             cached_mask: Optional[np.ndarray],
             config: RateSimConfig,
             write_probs: Optional[np.ndarray] = None) -> RateSimResult:
    """Compute the saturated throughput for one workload + cache contents.

    Parameters
    ----------
    read_probs:
        Per-item probability of a query being a read of that item,
        conditioned on the query being a read (sums to 1).
    cached_mask:
        Boolean per-item mask of cached items (None = no cache).
    config:
        Cluster capacities and the write model.
    write_probs:
        Per-item write distribution (required if ``write_ratio > 0``).
    """
    n_items = len(read_probs)
    w = config.write_ratio
    if w > 0 and write_probs is None:
        raise ConfigurationError("write_ratio > 0 requires write_probs")
    if cached_mask is None:
        cached_mask = np.zeros(n_items, dtype=bool)

    if config.exact_partition:
        part = partition_vector(n_items, config.num_servers,
                                config.partition_seed)
    else:
        part = fast_partition_vector(n_items, config.num_servers,
                                     config.partition_seed)
    read_rate = (1.0 - w) * read_probs          # per unit client rate
    write_rate = (w * write_probs) if w > 0 else np.zeros(n_items)

    # Fixed point on validity of cached entries.
    validity = np.ones(n_items)
    rate = 0.0
    for _ in range(50):
        # Per-item traffic that reaches servers, per unit client rate.
        hit_rate = np.where(cached_mask, read_rate * validity, 0.0)
        miss_read = read_rate - hit_rate
        server_write = write_rate * np.where(cached_mask,
                                             1.0 + config.coherence_overhead,
                                             1.0)
        server_traffic = miss_read + server_write
        per_server = np.bincount(part, weights=server_traffic,
                                 minlength=config.num_servers)
        max_load = per_server.max()

        # Constraints: every server at most server_rate; every downstream
        # egress pipe carries its servers' cached-value hits plus the
        # queries forwarded to those servers (§4.4.4); every reply exits
        # through an upstream pipe; the chip forwards at most switch_rate.
        bounds = {}
        if max_load > 0:
            bounds["server"] = config.server_rate / max_load
        total = hit_rate.sum() + server_traffic.sum()
        if total > 0:
            bounds["switch"] = config.switch_rate / total
        pipe_load = _max_pipe_load(hit_rate, server_traffic, part, config)
        if pipe_load > 0:
            bounds["pipe"] = config.pipe_rate / pipe_load
        replies = read_rate.sum() + write_rate.sum()
        if replies > 0 and config.num_upstream_pipes > 0:
            bounds["upstream"] = (config.num_upstream_pipes
                                  * config.pipe_rate / replies)
        if not bounds:
            raise ConfigurationError("workload has no traffic")
        binding = min(bounds, key=bounds.get)
        new_rate = bounds[binding]

        # Update validity from absolute write rates.
        if w > 0:
            window = (config.invalidation_window +
                      config.invalidation_service_factor / config.server_rate)
            inv = new_rate * write_rate * window
            new_validity = 1.0 / (1.0 + inv)
        else:
            new_validity = validity
        if abs(new_rate - rate) <= 1e-9 * max(1.0, new_rate):
            rate, validity = new_rate, new_validity
            break
        rate, validity = new_rate, new_validity

    hit_rate = np.where(cached_mask, read_rate * validity, 0.0)
    miss_read = read_rate - hit_rate
    server_write = write_rate * np.where(cached_mask,
                                         1.0 + config.coherence_overhead, 1.0)
    server_traffic = miss_read + server_write
    per_server = np.bincount(part, weights=server_traffic,
                             minlength=config.num_servers) * rate
    cache_tput = float(hit_rate.sum() * rate)
    # Served throughput counts queries, not the coherence surcharge.
    served_by_servers = float((miss_read + write_rate).sum() * rate)
    total = cache_tput + served_by_servers
    return RateSimResult(
        throughput=total,
        cache_throughput=cache_tput,
        server_throughput=served_by_servers,
        per_server_load=per_server,
        bottleneck=int(per_server.argmax()),
        hit_ratio=cache_tput / total if total else 0.0,
        binding=binding,
    )


def _max_pipe_load(hit_rate: np.ndarray, server_traffic: np.ndarray,
                   part: np.ndarray, config: RateSimConfig) -> float:
    """Traffic through the busiest downstream egress pipe.

    A pipe carries the cached-value hits it serves (values live in the pipe
    of the owning server, §4.4.4) plus the queries forwarded to its servers.
    Servers spread over pipes round-robin by partition index.
    """
    pipes = part % config.num_pipes
    per_pipe = np.bincount(pipes, weights=hit_rate + server_traffic,
                           minlength=config.num_pipes)
    return float(per_pipe.max())


def top_k_mask(read_probs: np.ndarray, k: int) -> np.ndarray:
    """Mask of the *k* most-read items (ideal cache contents)."""
    mask = np.zeros(len(read_probs), dtype=bool)
    if k > 0:
        idx = np.argpartition(read_probs, -min(k, len(read_probs)))[-k:]
        mask[idx] = True
    return mask


def mask_from_keys(keys: Sequence[bytes], keyspace: KeySpace) -> np.ndarray:
    """Mask from concrete cached keys (hybrid emulation uses this)."""
    mask = np.zeros(keyspace.num_keys, dtype=bool)
    for key in keys:
        mask[keyspace.item(key)] = True
    return mask

