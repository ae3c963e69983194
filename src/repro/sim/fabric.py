"""Packet-level leaf-spine fabric with caches at both tiers (§5, Fig 10f).

The paper evaluates multi-rack scaling analytically and leaves the
mechanism as future work; this module builds the mechanism at packet level:
a spine switch running the NetCache program above several NetCache ToRs.
Queries enter at the spine; a spine cache hit turns around immediately, a
miss travels to the owning rack where the ToR may serve it, and only the
residual load reaches servers.

Coherence across tiers is conservative: a write invalidates the key at
*every* switch it traverses (the normal Algorithm 1 write path), and the
server's data-plane value update revalidates only its own ToR — a spine
entry stays invalid until the spine controller reinstalls it.  Stale data
is therefore impossible; spine entries merely lose hits after writes, the
safe end of the design space the paper leaves open.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.client.api import NetCacheClient, SyncClient
from repro.client.workload import Workload
from repro.constants import LINK_LATENCY
from repro.core.controller import CacheController
from repro.core.switch import NetCacheSwitch
from repro.errors import ConfigurationError
from repro.kvstore.partition import HashPartitioner
from repro.kvstore.server import StorageServer, load_stores
from repro.net.simulator import Simulator
from repro.net.topology import LeafSpinePlan, make_leaf_spine_plan


@dataclasses.dataclass
class FabricConfig:
    """Parameters of a packet-level leaf-spine deployment."""

    num_racks: int = 2
    servers_per_rack: int = 4
    num_clients: int = 1
    server_rate: float = 10_000.0
    server_queue_limit: Optional[int] = None
    leaf_cache_items: int = 32
    spine_cache_items: int = 32
    spine_cache: bool = True
    lookup_entries: int = 1024
    value_slots: int = 1024
    link_latency: float = LINK_LATENCY
    seed: int = 0

    def __post_init__(self):
        if self.num_racks <= 0 or self.servers_per_rack <= 0:
            raise ConfigurationError("fabric needs racks and servers")


class Fabric:
    """A live leaf-spine cluster: spine switch, ToRs, servers, clients."""

    def __init__(self, config: FabricConfig = FabricConfig()):
        self.config = config
        self.sim = Simulator()
        plan: LeafSpinePlan = make_leaf_spine_plan(
            config.num_racks, config.servers_per_rack, num_spines=1,
            num_clients=config.num_clients)
        self.plan = plan
        self.partitioner = HashPartitioner(plan.all_server_ids)

        def make_switch(node_id):
            switch = NetCacheSwitch(
                node_id, entries=config.lookup_entries,
                value_slots=config.value_slots, num_pipes=2,
                ports_per_pipe=max(4, config.servers_per_rack),
            )
            switch.dataplane.stats.set_sample_rate(1.0)
            return switch

        # Spine tier (single spine: deterministic routing).
        self.spine = make_switch(plan.spine_ids[0])
        self.sim.add_node(self.spine)

        # Racks.
        self.tors: List[NetCacheSwitch] = []
        self.servers: Dict[int, StorageServer] = {}
        for rack in plan.racks:
            tor = make_switch(rack.tor_id)
            self.sim.add_node(tor)
            self.tors.append(tor)
            for port, sid in enumerate(rack.server_ids):
                server = StorageServer(
                    sid, gateway=rack.tor_id,
                    service_rate=config.server_rate,
                    queue_limit=config.server_queue_limit)
                self.sim.add_node(server)
                self.sim.connect(rack.tor_id, sid,
                                 latency=config.link_latency)
                tor.attach_neighbor(port, sid)
                self.servers[sid] = server
            # Uplink: last port; unknown destinations go up.
            uplink_port = config.servers_per_rack
            self.sim.connect(plan.spine_ids[0], rack.tor_id,
                             latency=config.link_latency)
            tor.attach_neighbor(uplink_port, plan.spine_ids[0])
            tor.routing.default_port = uplink_port

        # Spine wiring: ToRs then clients; server routes go via their ToR.
        for port, rack in enumerate(plan.racks):
            self.spine.attach_neighbor(port, rack.tor_id)
            for sid in rack.server_ids:
                self.spine.add_remote_route(sid, via_neighbor=rack.tor_id)
        self.clients: List[NetCacheClient] = []
        for i, cid in enumerate(plan.client_ids):
            client = NetCacheClient(cid, gateway=plan.spine_ids[0],
                                    partitioner=self.partitioner)
            self.sim.add_node(client)
            self.sim.connect(plan.spine_ids[0], cid,
                             latency=config.link_latency)
            self.spine.attach_neighbor(config.num_racks + i, cid)
            self.clients.append(client)

        # Controllers: one per ToR over its rack, one for the spine over
        # everything (ports resolved through the ToR the server hangs off).
        self.leaf_controllers: List[CacheController] = []
        for tor, rack in zip(self.tors, plan.racks):
            rack_servers = {sid: self.servers[sid]
                            for sid in rack.server_ids}
            self.leaf_controllers.append(CacheController(
                tor, self.partitioner, rack_servers,
                cache_capacity=config.leaf_cache_items, seed=config.seed))
        self.spine_controller: Optional[CacheController] = None
        if config.spine_cache:
            self.spine_controller = CacheController(
                self.spine, self.partitioner, self.servers,
                cache_capacity=config.spine_cache_items,
                seed=config.seed + 1,
                port_resolver=self._spine_port_of_server)

    def _spine_port_of_server(self, server_id: int) -> int:
        rack = self.plan.rack_of_server(server_id)
        return self.spine.port_of(rack.tor_id)

    # -- setup helpers ----------------------------------------------------------

    def load_workload_data(self, workload: Workload) -> None:
        load_stores(self.servers, self.partitioner,
                    workload.keyspace.keys(range(workload.spec.num_keys)),
                    workload.values_for)

    def warm_caches(self, workload: Workload) -> None:
        """Spine takes the globally hottest items; each leaf takes the
        hottest *remaining* items stored in its rack."""
        hot = workload.hottest_keys(
            self.config.spine_cache_items
            + self.config.leaf_cache_items * self.config.num_racks)
        spine_share = hot[: self.config.spine_cache_items]
        if self.spine_controller is not None:
            self.spine_controller.preload(spine_share)
            rest = hot[self.config.spine_cache_items :]
        else:
            rest = hot
        for controller, rack in zip(self.leaf_controllers, self.plan.racks):
            rack_keys = [k for k in rest
                         if self.partitioner.server_for(k)
                         in rack.server_ids]
            controller.preload(rack_keys)

    def sync_client(self, index: int = 0, timeout: float = 1.0) -> SyncClient:
        return SyncClient(self.clients[index], timeout=timeout)

    def run(self, seconds: float) -> None:
        self.sim.run_until(self.sim.now + seconds)

    # -- metrics -----------------------------------------------------------------

    def tier_hits(self) -> Dict[str, int]:
        return {
            "spine": self.spine.dataplane.cache_hits,
            "leaf": sum(t.dataplane.cache_hits for t in self.tors),
            "server": sum(s.processed for s in self.servers.values()),
        }
