"""Request batching: multi-get / multi-put over the async client.

The paper's motivation (§1) is pages that issue "hundreds or even thousands
of storage accesses"; real clients amortize that with batched requests.
:class:`BatchClient` issues a whole batch asynchronously, lets the switch
answer the cached subset at wire speed, and gathers replies (with a
timeout) into one result — reporting how much of the batch the cache
absorbed, which is the per-page view of the load-balancing story.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from repro.client.api import NetCacheClient
from repro.errors import ConfigurationError, SimulationError


@dataclasses.dataclass
class BatchResult:
    """Outcome of one batch."""

    values: Dict[bytes, Optional[bytes]]
    latencies: Dict[bytes, float]
    cache_hits: int
    elapsed: float  # makespan: first send to last reply

    @property
    def hit_ratio(self) -> float:
        return self.cache_hits / len(self.values) if self.values else 0.0

    @property
    def max_latency(self) -> float:
        return max(self.latencies.values()) if self.latencies else 0.0


class BatchClient:
    """Batched operations over a :class:`NetCacheClient`."""

    def __init__(self, client: NetCacheClient, timeout: float = 1.0):
        self.client = client
        self.timeout = timeout

    def _await_all(self, outstanding: Dict[int, bytes],
                   box: Dict[bytes, Tuple[Optional[bytes], float, bool]]
                   ) -> None:
        sim = self.client.sim
        deadline = sim.now + self.timeout
        while len(box) < len(outstanding):
            if sim.now >= deadline or not sim.step():
                missing = len(outstanding) - len(box)
                raise SimulationError(
                    f"batch timed out with {missing} replies outstanding")

    def multi_get(self, keys: Sequence[bytes]) -> BatchResult:
        """Issue all *keys* at once; gather values, latencies, hit stats."""
        if not keys:
            raise ConfigurationError("empty batch")
        unique = list(dict.fromkeys(keys))  # dedupe, keep order
        box: Dict[bytes, Tuple[Optional[bytes], float, bool]] = {}
        outstanding: Dict[int, bytes] = {}
        start = self.client.sim.now
        hits_before = self.client.cache_hits

        def make_callback(key: bytes):
            def on_reply(value: Optional[bytes], latency: float) -> None:
                box[key] = (value, latency, False)
            return on_reply

        for key in unique:
            seq = self.client.get(key, callback=make_callback(key))
            outstanding[seq] = key
        self._await_all(outstanding, box)
        return BatchResult(
            values={k: v for k, (v, _, _) in box.items()},
            latencies={k: lat for k, (_, lat, _) in box.items()},
            cache_hits=self.client.cache_hits - hits_before,
            elapsed=self.client.sim.now - start,
        )

    def multi_put(self, items: Sequence[Tuple[bytes, bytes]]) -> float:
        """Issue all puts at once; returns the batch makespan."""
        if not items:
            raise ConfigurationError("empty batch")
        box: Dict[bytes, tuple] = {}
        outstanding: Dict[int, bytes] = {}
        start = self.client.sim.now
        for i, (key, value) in enumerate(items):
            tag = key + i.to_bytes(4, "big")  # same key twice is allowed

            def on_reply(v, latency, _tag=tag):
                box[_tag] = (v, latency, False)

            seq = self.client.put(key, value, callback=on_reply)
            outstanding[seq] = tag
        self._await_all(outstanding, box)
        return self.client.sim.now - start
