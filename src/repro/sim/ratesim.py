"""Rate-equilibrium simulator: saturated system throughput.

This reproduces the paper's *server rotation* methodology (§7.1) in closed
form: find the bottleneck partition, scale the client load so the bottleneck
runs exactly at its capacity, and add up what every partition and the switch
cache serve at that operating point.  Because the key-value cluster is
shared-nothing and the microbenchmark shows the switch is never the
bottleneck, this is exactly what the paper measures by physically rotating
two servers through 128 partitions.

Write queries are modelled with an invalidation window: a write to a cached
key makes the entry invalid for :data:`INVALIDATION_WINDOW` seconds (server
queueing + processing + the data-plane update round trip), during which reads
on that key fall through to the server.  Validity therefore depends on the
absolute query rate, which itself depends on validity — a fixed point the
simulator iterates to convergence.  Writes to cached keys also charge the
owning server a coherence surcharge (the shim's update/ack/blocking work).

Cost.  The figure sweeps and the Fig 11 emulation solve hundreds of these
equilibria over up to a million items, so :func:`simulate` does per-item
work only where validity can change it: a pass rewrites the cached items'
entries (``flatnonzero(cached_mask)``) of per-item arrays built once per
call, whose other entries do not depend on validity.  With no writes, or
no cached entry to invalidate, validity cannot move and the first pass is
the answer; a read-only point builds no write arrays (``x + 0.0 == x``).
Every reduction still runs over the full per-item arrays in item order —
the per-server and per-pipe ``bincount`` and the ``sum`` of the hit and
server-traffic arrays — so the result is bit-identical to recomputing
every array on every pass (``tests/test_prop_ratesim.py`` keeps that loop
as its reference).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, Optional

import numpy as np

from repro.constants import PIPE_RATE, SERVER_RATE, SWITCH_RATE
from repro.errors import ConfigurationError
from repro.kvstore.partition import HashPartitioner
from repro.client.zipf import KeySpace

#: fixed part of the invalidation window (propagation, update RTT), seconds.
INVALIDATION_WINDOW = 10e-6


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
    the runtime.  Cached, so it comes in the narrowest unsigned dtype that
    holds a server index and read-only, like :func:`pipe_vector`.
    """
    mask64 = np.uint64(0xFFFFFFFFFFFFFFFF)
    x = np.arange(num_keys, dtype=np.uint64)
    x = (x + np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)) & mask64
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & mask64
    with np.errstate(over="ignore"):
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & mask64
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & mask64
    x = x ^ (x >> np.uint64(31))
    part = (x % np.uint64(num_servers)).astype(
        np.min_scalar_type(num_servers - 1))
    part.flags.writeable = False
    return part


def _partitions(num_keys: int, num_servers: int, seed: int,
                exact: bool) -> np.ndarray:
    if exact:
        return partition_vector(num_keys, num_servers, seed)
    return fast_partition_vector(num_keys, num_servers, seed)


@functools.lru_cache(maxsize=32)
def pipe_vector(num_keys: int, num_servers: int, num_pipes: int,
                seed: int = 0x5EED, exact: bool = False) -> np.ndarray:
    """item id -> the downstream egress pipe of its owning server.

    Servers spread over pipes round-robin by partition index (§4.4.4).
    Cached like the partition vector it is derived from, in the narrowest
    unsigned dtype that holds a pipe index (a byte an item for a real
    switch's pipes, not eight), and read-only, since every caller gets the
    same array.
    """
    pipes = (_partitions(num_keys, num_servers, seed, exact) % num_pipes
             ).astype(np.min_scalar_type(num_pipes - 1))
    pipes.flags.writeable = False
    return pipes


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
        rates = (self.server_rate, self.switch_rate, self.pipe_rate)
        if (self.num_pipes <= 0 or self.num_upstream_pipes < 0
                or not all(rate > 0 for rate in rates)):
            raise ConfigurationError("impossible pipe count or capacity")


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
    for name, vector in (("cached_mask", cached_mask),
                         ("write_probs", write_probs)):
        if vector is not None and len(vector) != n_items:
            raise ConfigurationError(
                f"{name} has {len(vector)} items, read_probs {n_items}")
    idx = (np.flatnonzero(cached_mask) if cached_mask is not None
           else np.empty(0, dtype=np.intp))

    part = _partitions(n_items, config.num_servers, config.partition_seed,
                       config.exact_partition)
    pipes = pipe_vector(n_items, config.num_servers, config.num_pipes,
                        config.partition_seed, config.exact_partition)
    read_rate = (1.0 - w) * read_probs          # per unit client rate
    cached_reads = read_rate[idx]

    # Validity cannot change any write's server work (a cached key's
    # carries the coherence surcharge), nor so an uncached item's server
    # traffic: it is computed once, in place of the rates, and a pass
    # rewrites only the cached items' entries of it and of the hits.
    if w > 0:
        server_write = w * write_probs
        replies = read_rate.sum() + server_write.sum()
        cached_write_rate = server_write[idx]
        server_write[idx] *= 1.0 + config.coherence_overhead
        cached_server_write = server_write[idx]
        server_traffic = np.add(read_rate, server_write, out=server_write)
    else:
        replies, server_traffic = read_rate.sum(), read_rate
        cached_write_rate = cached_server_write = np.zeros(len(idx))
    del read_rate
    one_pass = _validity_fixed(w, len(idx))
    hit_rate = np.zeros(n_items)
    pipe_traffic = np.empty(n_items)

    def traffic(validity):
        """The cached items' missed reads at *validity*, with the hit and
        server-traffic arrays brought up to it, and the per-server load
        per unit client rate."""
        hits = cached_reads * validity
        misses = cached_reads - hits
        hit_rate[idx] = hits
        server_traffic[idx] = misses + cached_server_write
        per_server = np.bincount(part, weights=server_traffic,
                                 minlength=config.num_servers)
        return misses, per_server

    # Fixed point on validity of cached entries.
    validity = np.ones(len(idx))
    rate = 0.0
    for _ in range(50):
        misses, per_server = traffic(validity)
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
        pipe_load = _max_pipe_load(
            np.add(hit_rate, server_traffic, out=pipe_traffic), pipes,
            config.num_pipes)
        if pipe_load > 0:
            bounds["pipe"] = config.pipe_rate / pipe_load
        if replies > 0 and config.num_upstream_pipes > 0:
            bounds["upstream"] = (config.num_upstream_pipes
                                  * config.pipe_rate / replies)
        if not bounds:
            raise ConfigurationError("workload has no traffic")
        binding = min(bounds, key=bounds.get)
        new_rate = bounds[binding]
        if one_pass:
            # Validity cannot move: a second pass would repeat this one.
            rate = new_rate
            break

        # Update validity from absolute write rates.
        window = (INVALIDATION_WINDOW +
                  config.invalidation_service_factor / config.server_rate)
        inv = new_rate * cached_write_rate * window
        new_validity = 1.0 / (1.0 + inv)
        settled = _settled(new_rate, rate)
        rate, validity = new_rate, new_validity
        if settled:
            break
    if not one_pass:
        misses, per_server = traffic(validity)

    per_server = per_server * rate
    cache_tput = float(hit_rate.sum() * rate)
    # Served throughput counts queries, not the coherence surcharge, which
    # only the cached items' server traffic carries.
    served = server_traffic
    served[idx] = misses + cached_write_rate
    served_by_servers = float(served.sum() * rate)
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


def _validity_fixed(write_ratio: float, num_cached: int) -> bool:
    """No write to invalidate an entry, or no cached entry to invalidate."""
    return write_ratio == 0 or num_cached == 0


def _settled(new_rate: float, rate: float) -> bool:
    """The fixed point's stopping rule: the rate moved by at most 1e-9 of
    itself since the last pass."""
    return abs(new_rate - rate) <= 1e-9 * max(1.0, new_rate)


def _max_pipe_load(pipe_traffic: np.ndarray, pipes: np.ndarray,
                   num_pipes: int) -> float:
    """Traffic through the busiest downstream egress pipe.

    A pipe carries the cached-value hits it serves (values live in the pipe
    of the owning server, §4.4.4) plus the queries forwarded to its servers.
    """
    per_pipe = np.bincount(pipes, weights=pipe_traffic, minlength=num_pipes)
    return float(per_pipe.max())


def top_k_mask(read_probs: np.ndarray, k: int) -> np.ndarray:
    """Mask of the *k* most-read items (ideal cache contents)."""
    mask = np.zeros(len(read_probs), dtype=bool)
    if k > 0:
        idx = np.argpartition(read_probs, -min(k, len(read_probs)))[-k:]
        mask[idx] = True
    return mask


def mask_from_keys(keys: Iterable[bytes], keyspace: KeySpace) -> np.ndarray:
    """Mask from concrete cached keys (hybrid emulation uses this)."""
    mask = np.zeros(keyspace.num_keys, dtype=bool)
    mask[keyspace.items(keys)] = True
    return mask
