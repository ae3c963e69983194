"""Baselines and ablations: NoCache, server-based cache layer, selective
replication, and cache-update policies under an update-rate budget."""

from repro.baselines.consistent import (
    ConsistentHashRing,
    moved_keys_on_join,
    ring_load_vector,
)
from repro.baselines.nocache import make_nocache_cluster, nocache_equilibrium
from repro.baselines.policies import (
    CachePolicy,
    LfuPolicy,
    LruPolicy,
    ThresholdPolicy,
    compare_policies,
)
from repro.baselines.replication import ReplicationConfig, simulate_replication
from repro.baselines.servercache import (
    ServerCacheConfig,
    ServerCacheResult,
    simulate_server_cache,
)

__all__ = [
    "CachePolicy",
    "ConsistentHashRing",
    "moved_keys_on_join",
    "ring_load_vector",
    "LfuPolicy",
    "LruPolicy",
    "ReplicationConfig",
    "ServerCacheConfig",
    "ServerCacheResult",
    "ThresholdPolicy",
    "compare_policies",
    "make_nocache_cluster",
    "nocache_equilibrium",
    "simulate_replication",
    "simulate_server_cache",
]
