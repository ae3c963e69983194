"""Switch microbenchmark: the snake test (§7.1, §7.2, Fig 9).

Two parts:

* a *capacity model* that reproduces the paper's numbers: the measured
  throughput is the smaller of what the two traffic generators can offer
  (2 x 35 MQPS, multiplied by the x32 snake replication) and what the chip
  can forward (4+ BQPS aggregate, divided by the number of pipeline passes a
  value needs).  For values up to 128 B (8 stages x 16 B) one pass suffices,
  so the line is flat at 2.24 BQPS, bottlenecked by the generators — the
  paper's headline microbenchmark result;

* a *functional check* that actually builds a NetCache data plane, loads it
  with items, and pushes read and update packets through
  :meth:`NetCacheDataplane.process` to verify the pipeline really serves
  correct values at every size/cache-size point being reported.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.constants import (
    CLIENT_RATE,
    LOOKUP_TABLE_ENTRIES,
    MAX_VALUE_SIZE,
    NUM_VALUE_STAGES,
    SNAKE_REPLICATION,
    SWITCH_RATE,
    VALUE_SLOT_SIZE,
)
from repro.errors import ConfigurationError
from repro.net.packet import make_get, make_put
from repro.net.protocol import Op
from repro.net.routing import RoutingTable
from repro.core.dataplane import Action, NetCacheDataplane


#: snake-test generators (§7.2): two, each offering CLIENT_RATE.
NUM_GENERATORS = 2
#: load the generators offer, after snake replication.
OFFERED_RATE = NUM_GENERATORS * CLIENT_RATE * SNAKE_REPLICATION
#: value bytes one pipeline pass serves (8 stages x 16 B).
ONE_PASS_BYTES = NUM_VALUE_STAGES * VALUE_SLOT_SIZE


def pipeline_passes(value_size: int) -> int:
    """Pipeline traversals needed to serve a value (§5: recirculation)."""
    if value_size <= 0:
        raise ConfigurationError("value_size must be positive")
    return -(-value_size // ONE_PASS_BYTES)


def snake_throughput(value_size: int, cache_size: int) -> float:
    """Measured snake-test throughput (queries/second).

    Values beyond one pipeline pass recirculate, dividing the chip's
    effective packet rate; the cache size does not affect throughput as long
    as it fits the lookup table (Fig 9b).
    """
    if cache_size <= 0 or cache_size > LOOKUP_TABLE_ENTRIES:
        raise ConfigurationError(
            f"cache_size must be in [1, {LOOKUP_TABLE_ENTRIES}]"
        )
    passes = pipeline_passes(value_size)
    switch_bound = SWITCH_RATE / passes
    return min(OFFERED_RATE, switch_bound)


@dataclasses.dataclass
class SnakeCheck:
    """Outcome of the functional pipeline check."""

    queries: int
    correct: int
    updates: int

    @property
    def all_correct(self) -> bool:
        return self.queries == self.correct


def verify_pipeline(value_size: int, cache_size: int = 256,
                    num_queries: int = 512, seed: int = 0) -> SnakeCheck:
    """Drive a real data plane with reads and updates, verifying values.

    Uses a single-pipe data plane sized down for test speed; the structural
    constraints (slot widths, bitmap addressing) are identical to the full
    geometry, so a value that round-trips here round-trips on the chip model
    at any scale.
    """
    if value_size > MAX_VALUE_SIZE:
        raise ConfigurationError(
            "functional check covers single-pass values only"
        )
    routing = RoutingTable(default_port=0)
    routing.add_route(1, 1)  # server port
    routing.add_route(2, 2)  # client port
    dataplane = NetCacheDataplane(
        routing, num_pipes=1, ports_per_pipe=64,
        entries=max(cache_size, 8), value_slots=max(cache_size * 8, 64),
    )

    def value_of(i: int) -> bytes:
        pattern = bytes([(i + j) % 251 for j in range(value_size)])
        return pattern

    keys: List[bytes] = [f"snake{i:011d}".encode() for i in range(cache_size)]
    for i, key in enumerate(keys):
        if not dataplane.install(key, value_of(i), egress_port=1):
            raise ConfigurationError("pipe memory exhausted during setup")

    correct = 0
    updates = 0
    for q in range(num_queries):
        i = (q * 31 + seed) % cache_size
        pkt = make_get(src=2, dst=1, key=keys[i], seq=q)
        result = dataplane.process(pkt, ingress_port=2)
        expected = value_of(i)
        if (result.action is Action.FORWARD and pkt.op == Op.GET_REPLY
                and pkt.value == expected and pkt.served_by_cache):
            correct += 1
        # Every 8th query, write a new (same-size) value through the
        # write + update path and verify the next read sees it.
        if q % 8 == 7:
            new_value = value_of(i + 1)[:value_size]
            wpkt = make_put(src=2, dst=1, key=keys[i], value=new_value, seq=q)
            dataplane.process(wpkt, ingress_port=2)
            assert wpkt.op == Op.PUT_CACHED
            from repro.net.packet import make_cache_update

            upd = make_cache_update(src=1, dst=1, key=keys[i],
                                    value=new_value, seq=updates + 1)
            dataplane.process(upd, ingress_port=1)
            updates += 1

            rpkt = make_get(src=2, dst=1, key=keys[i], seq=q)
            dataplane.process(rpkt, ingress_port=2)
            if rpkt.value != new_value:
                raise ConfigurationError("update path served a stale value")

            # Restore the original value so later reads verify.
            upd2 = make_cache_update(src=1, dst=1, key=keys[i],
                                     value=value_of(i), seq=updates + 1)
            dataplane.process(upd2, ingress_port=1)
            updates += 1
    return SnakeCheck(queries=num_queries, correct=correct, updates=updates)
