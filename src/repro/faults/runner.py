"""Reproducible chaos runs: workload + fault schedule + invariants.

A :class:`ChaosRunner` assembles a rack, drives an open-loop workload over
it, injects a :class:`~repro.faults.schedule.FaultSchedule`, checks the
:mod:`~repro.faults.invariants` continuously, then heals every fault,
drains traffic, and measures how long the coherence machinery takes to
settle.  Everything — workload, loss processes, schedule, controller — is
keyed off one seed, so a run is a pure function of its configuration: the
:class:`FaultReport`'s event log is byte-identical across replays.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import contextlib

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker, InvariantSuite
from repro.faults.schedule import FaultSchedule
from repro.obs import runtime as _obs
from repro.sim.simcore import SimCoreConfig, build_rack


@dataclasses.dataclass(frozen=True)
class ChaosConfig(SimCoreConfig):
    """A rack, its traffic and a chaos phase (small defaults keep DES
    runs fast).  ``retries`` turns on client retries with idempotency
    tokens, plus versioned write values so lost or duplicated writes are
    distinguishable."""

    num_servers: int = 4
    cache_items: int = 16
    lookup_entries: int = 256
    controller_update_interval: float = 0.005
    stats_interval: float = 0.05
    hot_threshold: int = 4
    num_keys: int = 200
    write_ratio: float = 0.1
    value_size: int = 32
    rate: float = 20_000.0
    #: seconds of faulted traffic before the heal-and-drain phase.
    duration: float = 0.4
    #: seconds of fault-free settling after the heal.
    drain: float = 0.2
    invariant_interval: float = 0.01
    #: chaos-friendly retry budget: partitions outlast the default 50.
    max_update_retries: int = 5_000

    def __post_init__(self):
        super().__post_init__()
        if self.drain <= 0:
            raise ConfigurationError("drain must be positive")
        if self.max_update_retries < 0:
            raise ConfigurationError("max_update_retries must be >= 0")


@dataclasses.dataclass
class FaultReport:
    """Outcome of one chaos run."""

    seed: int
    scenario: str
    duration: float
    #: fixed-format injector log lines, in firing order.
    events: List[str]
    faults_injected: int
    queries_sent: int
    queries_received: int
    cache_hits: int
    link_drops: int
    node_drops: int
    duplicates: int
    reorders: int
    #: shim retransmissions of switch cache updates (retry-until-ack).
    retries: int
    updates_sent: int
    updates_acked: int
    writes_blocked: int
    invariant_ticks: int
    reads_checked: int
    violations: List[str]
    #: seconds from heal-all until no shim had pending/blocked writes;
    #: None when the run never settled inside the drain window.
    recovery_time: Optional[float]
    # -- reliability layer (defaults keep older call sites working) --------
    client_retries: int = 0
    client_timeouts: int = 0
    client_stale_drops: int = 0
    dedup_hits: int = 0
    degraded_entries: int = 0
    degraded_recovered: int = 0
    insertion_aborts: int = 0
    servers_detected_dead: int = 0
    failovers: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def event_log_text(self) -> str:
        """The canonical, replay-stable event log (one line per event)."""
        return "\n".join(self.events) + "\n"

    def render(self) -> str:
        lines = [
            f"chaos scenario={self.scenario} seed={self.seed} "
            f"duration={self.duration:g}s",
            f"faults injected : {self.faults_injected}",
            f"queries         : {self.queries_received}/{self.queries_sent} "
            f"answered, {self.cache_hits} cache hits",
            f"network         : {self.link_drops} link drops, "
            f"{self.node_drops} node drops, {self.duplicates} duplicates, "
            f"{self.reorders} reordered",
            f"coherence       : {self.updates_acked}/{self.updates_sent} "
            f"updates acked, {self.retries} retransmissions, "
            f"{self.writes_blocked} writes blocked",
            f"invariants      : {self.invariant_ticks} ticks, "
            f"{self.reads_checked} reads checked, "
            f"{len(self.violations)} violations",
            f"reliability     : {self.client_retries} client retries, "
            f"{self.client_timeouts} timeouts, "
            f"{self.dedup_hits} dedup hits, "
            f"{self.degraded_entries} degraded entries "
            f"({self.degraded_recovered} recovered), "
            f"{self.insertion_aborts} insertion aborts, "
            f"{self.servers_detected_dead} servers declared dead "
            f"({self.failovers} failovers)",
        ]
        if self.recovery_time is not None:
            lines.append(f"recovery        : settled "
                         f"{self.recovery_time * 1e3:.3f} ms after heal")
        else:
            lines.append("recovery        : DID NOT SETTLE within drain")
        lines.append("event log:")
        lines.extend(f"  {line}" for line in self.events)
        lines.extend(f"VIOLATION {v}" for v in self.violations)
        return "\n".join(lines)


class ChaosRunner:
    """Composes cluster + workload + schedule + invariants into one run."""

    def __init__(self, config: ChaosConfig = ChaosConfig(),
                 schedule: Optional[FaultSchedule] = None,
                 checkers: Optional[List[InvariantChecker]] = None,
                 scenario: str = "custom"):
        self.config = config
        self.scenario = scenario
        self.cluster, self.client, self.workload = build_rack(config)
        for server in self.cluster.servers.values():
            server.shim.max_update_retries = config.max_update_retries
        self.schedule = schedule if schedule is not None \
            else FaultSchedule(seed=config.seed)
        self.injector = FaultInjector(self.cluster, self.schedule)
        self.suite = InvariantSuite(self.cluster,
                                    interval=config.invariant_interval,
                                    checkers=checkers)

    # -- helpers ---------------------------------------------------------------

    def _settled(self) -> bool:
        shims_idle = all(
            s.shim.pending_updates == 0 and s.shim.blocked_writes == 0
            and not s.shim.degraded_keys
            for s in self.cluster.servers.values())
        controller = self.cluster.controller
        leases_idle = controller is None or len(controller.leases) == 0
        return shims_idle and leases_idle

    # -- the run ----------------------------------------------------------------

    @staticmethod
    def _span(name: str):
        """Span when an observability session is live, no-op otherwise."""
        obs = _obs.ACTIVE
        if obs is None:
            return contextlib.nullcontext()
        return obs.tracer.span(name)

    def run(self) -> FaultReport:
        cfg = self.config
        cluster, client = self.cluster, self.client
        self.suite.start()
        self.injector.arm()

        # Phase 1: faulted traffic.
        with self._span("chaos.faulted"):
            cluster.run(cfg.duration)
        client.stop()

        # Phase 2: heal everything, then drain and watch for settlement.
        t_heal = cluster.sim.now
        cluster.heal_all_faults()
        self.injector.note(t_heal, "heal-all")
        settled_at = None
        t_end = t_heal + cfg.drain
        probe = max(cfg.invariant_interval / 2, 1e-4)
        t = t_heal
        with self._span("chaos.drain"):
            while t < t_end:
                if settled_at is None and self._settled():
                    settled_at = cluster.sim.now
                t = min(t + probe, t_end)
                cluster.sim.run_until(t)
        if settled_at is None and self._settled():
            settled_at = t_heal + cfg.drain
        self.injector.note(cluster.sim.now, "quiesce")
        obs = _obs.ACTIVE
        if obs is not None:
            obs.registry.counter("chaos.faults_injected").inc(
                self.injector.injected)
            if settled_at is not None:
                obs.registry.gauge("chaos.recovery_time").set(
                    settled_at - t_heal)

        # Phase 3: final invariant pass on the healed, drained rack.
        violations = self.suite.finalize()

        sim = cluster.sim
        links = [cluster.link_to(node_id) for node_id in
                 list(cluster.servers) + [c.node_id for c in cluster.clients]]
        shims = [s.shim for s in cluster.servers.values()]
        return FaultReport(
            seed=cfg.seed,
            scenario=self.scenario,
            duration=cfg.duration,
            events=list(self.injector.log),
            faults_injected=self.injector.injected,
            queries_sent=client.sent,
            queries_received=client.received,
            cache_hits=client.cache_hits,
            link_drops=sim.lost - sim.node_drops,
            node_drops=sim.node_drops,
            duplicates=sum(l.duplicated for l in links),
            reorders=sum(l.reordered for l in links),
            retries=sum(s.retransmissions for s in shims),
            updates_sent=sum(s.updates_sent for s in shims),
            updates_acked=sum(s.updates_acked for s in shims),
            writes_blocked=sum(s.writes_blocked for s in shims),
            invariant_ticks=self.suite.ticks,
            reads_checked=self.suite.reads_checked,
            violations=[v.describe() for v in violations],
            recovery_time=(settled_at - t_heal
                           if settled_at is not None else None),
            client_retries=sum(c.retransmissions for c in cluster.clients),
            client_timeouts=sum(c.timeouts for c in cluster.clients),
            client_stale_drops=sum(c.stale_drops for c in cluster.clients),
            dedup_hits=sum(s.dedup.hits for s in shims),
            degraded_entries=sum(s.degraded_entries for s in shims),
            degraded_recovered=sum(s.degraded_recovered for s in shims),
            insertion_aborts=(
                (cluster.controller.insertion_aborts
                 if cluster.controller is not None else 0)
                + sum(s.insertion_aborts for s in shims)),
            servers_detected_dead=(
                cluster.controller.detector.deaths
                if cluster.controller is not None
                and cluster.controller.detector is not None else 0),
            failovers=(
                cluster.controller.detector.recoveries
                if cluster.controller is not None
                and cluster.controller.detector is not None else 0),
        )


# -- scripted scenarios ------------------------------------------------------------


def scripted_schedule(name: str, config: ChaosConfig,
                      server_ids: List[int]) -> FaultSchedule:
    """Named fault scripts over a run of *config.duration* seconds.

    ``combo`` (the default CLI scenario) is the acceptance script: a switch
    reboot mid-run plus a shim<->switch partition, with a loss burst for
    good measure.
    """
    d = config.duration
    schedule = FaultSchedule(seed=config.seed)
    first = server_ids[0]
    second = server_ids[1 % len(server_ids)]
    if name == "reboot":
        schedule.reboot_switch(0.4 * d)
    elif name == "partition":
        schedule.partition(0.3 * d, first, 0.2 * d)
    elif name == "loss-burst":
        schedule.loss_burst(0.3 * d, first, 0.3 * d, 0.5)
        schedule.duplicate(0.5 * d, second, 0.2 * d, 0.3)
        schedule.reorder(0.5 * d, first, 0.2 * d, 0.3)
    elif name == "crash":
        schedule.crash_server(0.3 * d, first, 0.2 * d)
        schedule.stall_controller(0.4 * d, 0.2 * d)
    elif name == "combo":
        schedule.reboot_switch(0.25 * d)
        schedule.partition(0.45 * d, first, 0.15 * d)
        schedule.loss_burst(0.7 * d, second, 0.15 * d, 0.4)
    elif name == "loss-retry":
        # Heavy loss on two server links while client retries are on:
        # exercises retransmission + server-side dedup (exactly-once).
        schedule.loss_burst(0.25 * d, first, 0.3 * d, 0.6)
        schedule.loss_burst(0.35 * d, second, 0.3 * d, 0.6)
    elif name == "crash-insert":
        # Reboot empties the cache so the controller re-inserts hot keys,
        # then a server crash lands inside the async insertion window
        # (completions run INSERTION_LATENCY after an update tick): the
        # lease reaper must abort the wedged insertions.
        schedule.reboot_switch(0.25 * d)
        schedule.crash_server(0.2625 * d + 1e-4, first, 0.3 * d)
    elif name == "partition-budget":
        # Outage outlasting the shim's update-retry budget.  The clean
        # partition trips the failure detector; the near-total "gray" loss
        # burst that follows lets a few writes trickle in whose switch
        # updates then exhaust the (shrunken) retry budget — the shim must
        # degrade to write-around instead of wedging, and recover once the
        # controller acks the eviction.
        schedule.partition(0.25 * d, first, 0.2 * d)
        schedule.loss_burst(0.45 * d, first, 0.3 * d, 0.95)
    elif name == "random":
        return FaultSchedule.random(config.seed, d, server_ids)
    else:
        raise ConfigurationError(f"unknown chaos scenario {name!r}")
    return schedule


SCENARIOS = ("combo", "reboot", "partition", "loss-burst", "crash",
             "loss-retry", "crash-insert", "partition-budget", "random")

#: per-scenario config defaults (explicit CLI overrides still win).  The
#: reliability scenarios need client retries and a write-heavy mix;
#: partition-budget shrinks the update-retry budget so the partition
#: actually exhausts it and forces degraded mode.
SCENARIO_OVERRIDES = {
    "loss-retry": {"retries": True, "write_ratio": 0.15},
    "crash-insert": {"retries": True, "write_ratio": 0.2},
    "partition-budget": {"retries": True, "write_ratio": 0.2,
                         "max_update_retries": 40},
}


def run_chaos(scenario: str = "combo", seed: int = 0,
              **overrides) -> FaultReport:
    """Build and run one scripted chaos scenario."""
    merged = {**SCENARIO_OVERRIDES.get(scenario, {}), **overrides}
    config = ChaosConfig(seed=seed, **merged)
    runner = ChaosRunner(config, scenario=scenario)
    runner.schedule = scripted_schedule(scenario, config,
                                        runner.cluster.plan.server_ids)
    runner.injector = FaultInjector(runner.cluster, runner.schedule)
    return runner.run()
