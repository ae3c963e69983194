"""Baselines and ablations: server-based cache layer, selective
replication, consistent hashing, and cache-update policies under an
update-rate budget.  NoCache is ``make_cluster(enable_cache=False)``."""

from repro.baselines.consistent import ConsistentHashRing, ring_load_vector
from repro.baselines.policies import (
    CachePolicy,
    LfuPolicy,
    LruPolicy,
    ThresholdPolicy,
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
    "ring_load_vector",
    "LfuPolicy",
    "LruPolicy",
    "ReplicationConfig",
    "ServerCacheConfig",
    "ServerCacheResult",
    "ThresholdPolicy",
    "simulate_replication",
    "simulate_server_cache",
]
