"""Cluster assembly: build a runnable NetCache rack in the simulator.

Wires Fig 2(a): clients above the ToR, storage servers below it, the
NetCache switch in between, and the controller beside the switch.  Scaled
configurations (fewer servers, lower rates) keep discrete-event runs
tractable; the scale-free experiments use :mod:`repro.sim.ratesim` instead.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.client.api import NetCacheClient, SyncClient, WorkloadClient
from repro.client.ratecontrol import AimdRateController
from repro.client.workload import Workload, WorkloadSpec
from repro.constants import (
    DEFAULT_CACHE_ITEMS,
    LINK_LATENCY,
    NUM_VALUE_STAGES,
    SERVER_RATE,
)
from repro.core.controller import CacheController
from repro.core.switch import NetCacheSwitch, PlainSwitch
from repro.errors import ConfigurationError
from repro.kvstore.partition import HashPartitioner
from repro.kvstore.server import StorageServer, load_stores
from repro.net.fastpath import FastPathEngine
from repro.net.simulator import Simulator
from repro.net.topology import make_rack_plan
from repro.reliability.retry import RetryPolicy

#: pipes of the rack switch; the servers and clients spread over them.
RACK_PIPES = 2


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Parameters of one simulated rack: the base of the rack config
    hierarchy.  ``SimCoreConfig`` (:mod:`repro.sim.simcore`) adds the
    traffic, ``ChaosConfig`` (:mod:`repro.faults.runner`) the chaos phase,
    and ``build_rack`` assembles any of them."""

    num_servers: int = 16
    server_rate: float = SERVER_RATE
    server_queue_limit: Optional[int] = None
    cache_items: int = DEFAULT_CACHE_ITEMS
    enable_cache: bool = True  # False builds the NoCache baseline rack
    link_latency: float = LINK_LATENCY
    link_loss: float = 0.0
    #: lookup-table entries and per-pipe value slots for the switch model;
    #: small defaults keep tests fast, the microbenchmark uses full size.
    #: ``value_slots=None`` means as many slots as lookup entries.
    lookup_entries: int = 16 * 1024
    value_slots: Optional[int] = None
    #: cache geometry for the switch ("paper", "setassoc", "orbit").
    #: All three run natively under the lanes engine through their
    #: vectorized batch probes (``CacheLayout.classify_reads``).
    layout: str = "paper"
    #: value stages available to the layout.  Fewer stages shrink a
    #: segment (stages x slot bytes), which is how packet-level Orbit runs
    #: exercise multi-pass serves within the wire format's value cap.
    num_value_stages: int = NUM_VALUE_STAGES
    controller_update_interval: float = 0.01
    #: statistics epoch (controller counter-reset interval).
    stats_interval: float = 1.0
    #: heavy-hitter report threshold; a high value models the settled
    #: regime where the warm cache already holds the hot set.
    hot_threshold: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.num_servers <= 0:
            raise ConfigurationError("need at least one server")
        # ``not x >= 0`` and ``not x > 0`` reject NaN too.
        if not self.link_latency >= 0:
            raise ConfigurationError("link_latency must be non-negative")
        for name in ("server_rate", "stats_interval",
                     "controller_update_interval"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive")


class Cluster:
    """One assembled rack: simulator + switch + servers + clients."""

    def __init__(self, config: ClusterConfig = ClusterConfig()):
        self.config = config
        self.sim = Simulator()
        plan = make_rack_plan(config.num_servers)
        self.plan = plan
        self.partitioner = HashPartitioner(plan.server_ids)

        if config.enable_cache:
            from repro.core.stats import QueryStatistics

            # A packet-level rack is small enough to count every query.
            stats = QueryStatistics(
                entries=config.lookup_entries,
                hot_threshold=config.hot_threshold,
                sample_rate=1.0,
                seed=config.seed,
            )
            self.switch: PlainSwitch = NetCacheSwitch(
                plan.tor_id,
                num_pipes=RACK_PIPES,
                ports_per_pipe=max(1, (config.num_servers + 1)
                                   // RACK_PIPES + 1),
                entries=config.lookup_entries,
                value_slots=(config.lookup_entries
                             if config.value_slots is None
                             else config.value_slots),
                num_value_stages=config.num_value_stages,
                stats=stats,
                layout=config.layout,
            )
        else:
            self.switch = PlainSwitch(plan.tor_id)
        self.sim.add_node(self.switch)

        self.servers: Dict[int, StorageServer] = {}
        for sid in plan.server_ids:
            server = StorageServer(
                sid, gateway=plan.tor_id, service_rate=config.server_rate,
                queue_limit=config.server_queue_limit,
            )
            self.sim.add_node(server)
            self.servers[sid] = server

        self.clients: List[NetCacheClient] = []
        for cid in plan.client_ids:
            client = NetCacheClient(cid, gateway=plan.tor_id,
                                    partitioner=self.partitioner)
            self.sim.add_node(client)
            self.clients.append(client)

        # Cables + switch port bindings.
        for sid, port in plan.server_ports.items():
            self.sim.connect(plan.tor_id, sid, latency=config.link_latency,
                             loss_prob=config.link_loss, seed=config.seed)
            self.switch.attach_neighbor(port, sid)
        for cid, port in plan.client_ports.items():
            self.sim.connect(plan.tor_id, cid, latency=config.link_latency,
                             loss_prob=config.link_loss, seed=config.seed)
            self.switch.attach_neighbor(port, cid)

        #: the lanes engine :meth:`run` drives the rack with, and why it
        #: does not when it does not (both None until the first run).
        self.engine: Optional[FastPathEngine] = None
        self.scalar_reason: Optional[str] = None

        self.controller: Optional[CacheController] = None
        if config.enable_cache:
            self.controller = CacheController(
                self.switch, self.partitioner, self.servers,
                cache_capacity=config.cache_items,
                stats_interval=config.stats_interval,
                update_interval=config.controller_update_interval,
                seed=config.seed,
                async_insertions=True,
                server_probe=self._server_reachable,
            )
            # Shim degraded-mode recovery goes through the controller
            # (eviction + ack), closing the write-around loop.
            for server in self.servers.values():
                server.shim.degraded_handler = self.controller.report_degraded_key

    def _server_reachable(self, server_id: int) -> bool:
        """Control-plane probe: a heartbeat reaches the server only if the
        node is up *and* its ToR cable is up (a partitioned server is as
        dead to the control plane as a crashed one)."""
        if self.sim.node_is_down(server_id):
            return False
        link = self.sim.link_between(self.plan.tor_id, server_id)
        return link.up

    # -- setup helpers -------------------------------------------------------------

    def load_workload_data(self, workload: Workload) -> None:
        """Preload every item into its owning server's store, and bind
        the switch's cache layout to the workload's key space (its batch
        probes take item ids)."""
        load_stores(self.servers, self.partitioner,
                    workload.keyspace.keys(range(workload.spec.num_keys)),
                    workload.values_for)
        dataplane = getattr(self.switch, "dataplane", None)
        if dataplane is not None:
            dataplane.layout.bind_keyspace(workload.keyspace)

    def warm_cache(self, workload: Workload,
                   items: Optional[int] = None) -> int:
        """Pre-populate the cache with the hottest items (§7.4)."""
        if self.controller is None:
            return 0
        count = items if items is not None else self.config.cache_items
        return self.controller.preload(workload.hottest_keys(count))

    def start_controller(self) -> None:
        if self.controller is not None:
            self.controller.start()

    def sync_client(self, index: int = 0, timeout: float = 1.0) -> SyncClient:
        """Blocking client facade for scripts/tests."""
        return SyncClient(self.clients[index], timeout=timeout)

    def add_workload_client(self, workload: Workload, rate: float,
                            aimd: bool = False,
                            control_interval: float = 0.1,
                            retry_policy: Optional[RetryPolicy] = None,
                            versioned_writes: bool = False) -> WorkloadClient:
        """Attach an open-loop load generator as an extra client node."""
        node_id = max(self.sim.nodes) + 1
        controller = None
        if aimd:
            controller = AimdRateController(initial_rate=rate,
                                            max_rate=rate * 100)
        client = WorkloadClient(node_id, gateway=self.plan.tor_id,
                                partitioner=self.partitioner,
                                workload=workload, rate=rate,
                                controller=controller,
                                control_interval=control_interval,
                                retry_policy=retry_policy,
                                versioned_writes=versioned_writes)
        self.sim.add_node(client)
        self.sim.connect(self.plan.tor_id, node_id,
                         latency=self.config.link_latency,
                         loss_prob=self.config.link_loss,
                         seed=self.config.seed)
        port = max(self.plan.client_ports.values()) + 1 + len(
            [c for c in self.clients if isinstance(c, WorkloadClient)])
        self.switch.attach_neighbor(port, node_id)
        self.clients.append(client)
        return client

    # -- fault-injection hooks (driven by repro.faults) --------------------------------

    def link_to(self, node_id: int):
        """The cable between the ToR and *node_id*."""
        return self.sim.link_between(self.plan.tor_id, node_id)

    def partition_node(self, node_id: int) -> None:
        """Cut the cable between the ToR and *node_id* (server or client)."""
        self.link_to(node_id).take_down()

    def heal_node(self, node_id: int) -> None:
        """Reconnect a partitioned node."""
        self.link_to(node_id).bring_up()

    def crash_server(self, server_id: int) -> None:
        """Crash a storage server: packets to/from it vanish.  The store
        survives (it is durable); timers resume on restart."""
        if server_id not in self.servers:
            raise ConfigurationError(f"{server_id} is not a storage server")
        self.sim.set_node_down(server_id, True)

    def restart_server(self, server_id: int) -> None:
        if server_id not in self.servers:
            raise ConfigurationError(f"{server_id} is not a storage server")
        self.sim.set_node_down(server_id, False)

    def reboot_switch(self) -> int:
        """Reboot the ToR: the cache empties (§3); returns entries lost."""
        reboot = getattr(self.switch, "reboot", None)
        return reboot() if reboot is not None else 0

    def stall_controller(self) -> None:
        """Freeze the control plane: no update rounds, no statistics resets
        (missed 1-second clears) until :meth:`resume_controller`."""
        if self.controller is not None:
            self.controller.stop()

    def resume_controller(self) -> None:
        if self.controller is not None:
            self.controller.start()

    def heal_all_faults(self) -> None:
        """Clear every injected fault: links up and fault-free, nodes up,
        controller running.  Used by the chaos runner before quiescing."""
        for node_id in list(self.servers) + [c.node_id for c in self.clients]:
            link = self.sim._links.get(self.sim._link_key(self.plan.tor_id,
                                                          node_id))
            if link is None:
                continue
            link.bring_up()
            link.start_loss_burst(0.0, 0.0)
            link.set_duplication(0.0)
            link.set_reordering(0.0)
        for sid in self.servers:
            self.sim.set_node_down(sid, False)
        self.resume_controller()

    # -- measurement -----------------------------------------------------------------

    def run(self, seconds: float) -> None:
        """Advance the rack by *seconds* of simulated time.

        The first call picks the driver for the life of the rack: the
        lanes engine (:class:`~repro.net.fastpath.FastPathEngine`) when it
        accepts the rack and the rack is clean, else the per-packet event
        loop, with the reason in :attr:`scalar_reason`.  Once the engine
        runs, ``sim.run_until`` goes through it as well.
        """
        if self.engine is None and self.scalar_reason is None:
            self._pick_engine()
        driver = self.engine if self.engine is not None else self.sim
        driver.run_until(self.sim.now + seconds)

    def _pick_engine(self) -> None:
        try:
            engine = FastPathEngine(self)
        except ConfigurationError as exc:
            self.scalar_reason = str(exc)
            return
        # A hook the lanes cannot feed (a packet tracer; an invariant
        # suite's hooks are batch-capable) or a fault already in place (a
        # lossy link) keeps the rack on the event loop for good.
        self.scalar_reason = engine._dirty_reason()
        if self.scalar_reason is None:
            self.engine = engine

    def total_received(self) -> int:
        return sum(c.received for c in self.clients)

    def total_cache_hits(self) -> int:
        return sum(c.cache_hits for c in self.clients)

    def all_latencies(self) -> List[float]:
        out: List[float] = []
        for c in self.clients:
            out.extend(c.latencies)
        return out


def make_cluster(num_servers: int = 16, enable_cache: bool = True,
                 **overrides) -> Cluster:
    """Convenience constructor with keyword overrides."""
    config = ClusterConfig(num_servers=num_servers,
                           enable_cache=enable_cache, **overrides)
    return Cluster(config)


def default_workload(num_keys: int = 10_000, skew: float = 0.99,
                     write_ratio: float = 0.0, seed: int = 0,
                     value_size: int = 128) -> Workload:
    """A paper-style workload with small defaults for DES runs."""
    return Workload(WorkloadSpec(num_keys=num_keys, read_skew=skew,
                                 write_ratio=write_ratio, seed=seed,
                                 value_size=value_size))
