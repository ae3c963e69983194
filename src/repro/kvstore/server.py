"""Storage server node for the discrete-event simulator.

Models one rack server: a NIC-attached queue in front of a fixed service
rate, the key-value store, and the shim agent.  Two queueing modes support
the paper's two methodologies:

* unbounded FIFO (server rotation, §7.3): latency grows when offered load
  exceeds the service rate, reproducing the Fig 10(c) saturation behaviour;
* bounded drop-tail queue (server emulation, §7.4): excess queries are
  dropped, and the client's rate controller reads the loss rate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.constants import SERVER_RATE
from repro.errors import ConfigurationError
from repro.net.events import Event
from repro.net.packet import Packet
from repro.net.simulator import Node
from repro.kvstore.shim import ServerShim
from repro.kvstore.store import KVStore


class StorageServer(Node):
    """A simulated storage server running the KV store behind the shim.

    Parameters
    ----------
    node_id:
        Simulator node id.
    gateway:
        Node id of the directly-attached ToR switch.
    service_rate:
        Queries/second one server sustains (paper: 10 MQPS, §6).
    queue_limit:
        Maximum queued queries; ``None`` models an unbounded FIFO, an
        integer models the emulation drop queue (§7.1).
    num_cores:
        Per-core shards in the store.
    """

    def __init__(self, node_id: int, gateway: int,
                 service_rate: float = SERVER_RATE,
                 queue_limit: Optional[int] = None,
                 num_cores: int = 16):
        super().__init__(node_id)
        if not service_rate > 0:   # NaN too
            raise ConfigurationError("service_rate must be positive")
        if queue_limit is not None and queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1 or None")
        self.gateway = gateway
        self.service_rate = service_rate
        self.service_time = 1.0 / service_rate
        self.queue_limit = queue_limit
        self.store = KVStore(num_cores=num_cores)
        self.shim = ServerShim(self, self.store)
        self._busy_until = 0.0
        self._queued = 0
        self.received = 0
        self.processed = 0
        self.drops = 0

    # -- simulator node interface ------------------------------------------------

    def handle_packet(self, pkt: Packet) -> None:
        self.received += 1
        now = self.sim.now
        queue_wait = max(0.0, self._busy_until - now)
        if self.queue_limit is not None and self._queued >= self.queue_limit:
            self.drops += 1
            return
        start = now + queue_wait
        self._busy_until = start + self.service_time
        self._queued += 1
        self.sim.schedule(self._busy_until - now, self._complete, pkt)

    def _complete(self, pkt: Packet) -> None:
        self._queued -= 1
        self.processed += 1
        self.shim.process(pkt)

    # -- transport used by the shim ------------------------------------------------

    def send_reply(self, pkt: Packet) -> None:
        """Send a reply toward the client via the ToR."""
        self.sim.transmit(self.node_id, self.gateway, pkt)

    def send_to_gateway(self, pkt: Packet) -> None:
        """Send a packet (e.g. CACHE_UPDATE) to the directly-attached ToR."""
        self.sim.transmit(self.node_id, self.gateway, pkt)

    def schedule(self, delay: float, callback: Callable, *args) -> Event:
        return self.sim.schedule(delay, callback, *args)

    # -- control-plane API used by the controller (§4.3) ----------------------------

    def fetch_for_insertion(self, key: bytes) -> Optional[bytes]:
        """Begin a controller insertion: block writes, return current value."""
        return self.shim.begin_insertion(key)

    def finish_insertion(self, key: bytes) -> None:
        """Controller finished inserting *key*; unblock writes."""
        self.shim.end_insertion(key)

    def abort_insertion(self, key: bytes) -> None:
        """Controller abandoned an insertion (lease expired); unblock
        writes without installing anything."""
        self.shim.abort_insertion(key)

    def utilization(self, elapsed: float) -> float:
        """Fraction of *elapsed* time spent serving queries."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.processed * self.service_time / elapsed)


def load_stores(servers: Dict[int, StorageServer], partitioner,
                keys: Sequence[bytes],
                values_for: Callable[[np.ndarray], List[bytes]]) -> None:
    """Put a value under each of *keys* in the store of the server that
    owns it: one kernel call partitions the keys, and each store takes
    its share in one bulk put, with ``values_for(ids)`` building the
    values of the keys at positions *ids*, one partition at a time."""
    for part, ids in partitioner.split_keys(keys).items():
        store = servers[partitioner.server_ids[part]].store
        store.put_batch([keys[i] for i in ids.tolist()], values_for(ids))
