"""Selective-replication baseline (§1).

The alternative to caching the paper dismisses: replicate hot items onto R
additional storage nodes and spread their queries.  It consumes server
capacity for replicas and still leaves a bottleneck once the head of the
distribution outruns the replication factor.  The equilibrium model lets the
ablation benchmark quantify the comparison on the same workloads.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.ratesim import RateSimConfig, fast_partition_vector, top_k_mask


@dataclasses.dataclass(frozen=True)
class ReplicationConfig:
    """Replicate the hottest *replicated_items* onto *replicas* servers."""

    replicated_items: int = 10_000
    replicas: int = 3

    def __post_init__(self):
        if self.replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        if self.replicated_items < 0:
            raise ConfigurationError("replicated_items must be >= 0")


def simulate_replication(read_probs: np.ndarray,
                         storage: RateSimConfig,
                         config: ReplicationConfig) -> float:
    """Saturated throughput with selective replication.

    Each replicated item's load splits evenly across ``replicas`` servers
    chosen uniformly (primary + R-1 replicas); non-replicated items stay
    hash-partitioned.  Returns total queries/second at saturation.
    """
    n = len(read_probs)
    part = fast_partition_vector(n, storage.num_servers,
                                 storage.partition_seed)
    mask = top_k_mask(read_probs, config.replicated_items)
    per_server = np.bincount(part, weights=np.where(mask, 0.0, read_probs),
                             minlength=storage.num_servers)
    # Replica placement: deterministic stride from the primary.
    replicated = np.flatnonzero(mask)
    primary = part[replicated].astype(np.intp)
    share = read_probs[replicated] / config.replicas
    for r in range(config.replicas):
        targets = (primary + r * 17) % storage.num_servers
        per_server += np.bincount(targets, weights=share,
                                  minlength=storage.num_servers)
    if per_server.max() <= 0:
        raise ConfigurationError("no traffic")
    return storage.server_rate / per_server.max()
