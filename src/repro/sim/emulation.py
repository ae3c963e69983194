"""Hybrid emulation for dynamic workloads (§7.1 "Server emulation", §7.4).

The paper emulates 128 storage servers with drop queues to study *transient*
behaviour: how fast the cache catches up when popularity shifts.  A pure
packet-level run of that setup is prohibitively slow in Python, so this
module drives the *real* control machinery — the data plane's statistics
(sampler, Count-Min sketch, Bloom filter), the heavy-hitter reports, and the
controller's sample-compare-evict-insert loop against real storage servers —
with the *data path* replaced by the rate-equilibrium model: each time step
computes the saturated throughput given the cache's current contents, and an
AIMD client chases it exactly like the paper's client does.

What is real: statistics data structures, hot-key reporting, cache
insert/evict through the switch data plane, value fetches with write
blocking, churn in the popularity map.  What is modelled: per-packet motion.
The throughput *dips and recoveries* in Fig 11 come from the cache lagging
the workload, which lives entirely in the real part.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.client.dynamics import ChurnSchedule, PopularityMap
from repro.client.ratecontrol import AimdRateController
from repro.client.workload import Workload, WorkloadSpec
from repro.core.controller import CacheController
from repro.core.switch import NetCacheSwitch
from repro.errors import ConfigurationError
from repro.kvstore.partition import HashPartitioner
from repro.kvstore.server import StorageServer, load_stores
from repro.net.simulator import Simulator
from repro.net.topology import make_rack_plan
from repro.sim.ratesim import CacheContentsMask, RateSimConfig, simulate


@dataclasses.dataclass
class EmulationConfig:
    """Parameters of one dynamics run (defaults follow §7.4, scaled)."""

    num_keys: int = 100_000
    skew: float = 0.99
    num_servers: int = 128
    #: emulated per-server rate; the paper scales by 64, we keep the same
    #: relative shape at any absolute rate.
    server_rate: float = 156_250.0  # 10 MQPS / 64
    cache_items: int = 10_000
    churn_kind: str = "hot-in"
    churn_n: int = 200
    churn_interval: float = 10.0
    duration: float = 60.0
    step: float = 0.1
    stats_interval: float = 1.0
    #: statistics samples drawn per step (the sampled-query stream).
    samples_per_step: int = 4_000
    hot_threshold: int = 8
    controller_sample_size: int = 32
    #: simulated times at which the switch reboots with an empty cache
    #: (§3's failure story; the cache must refill from HH reports).
    reboot_times: tuple = ()
    #: (start, end) windows during which the controller is stalled: no
    #: update rounds and no statistics resets (missed 1-second clears).
    controller_stall_windows: tuple = ()
    #: cache geometry for the switch ("paper", "setassoc", "orbit").  The
    #: sampled statistics stream is fed through ``observe_reads``, which
    #: rides every layout's vectorized batch probe (``classify_reads``) —
    #: non-paper geometries run the emulation natively, not via a scalar
    #: per-key loop.
    layout: str = "paper"
    #: value stages for the switch (fewer stages narrow an Orbit segment,
    #: mirroring the :class:`~repro.sim.cluster.ClusterConfig` knob).
    num_value_stages: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.step <= 0 or self.duration <= 0:
            raise ConfigurationError("step and duration must be positive")


@dataclasses.dataclass
class EmulationResult:
    """Per-step trace of one dynamics run."""

    times: List[float]
    throughput: List[float]          # delivered queries/second per step
    offered: List[float]             # client AIMD rate per step
    cache_size: List[int]
    insertions: List[int]            # cumulative controller insertions
    churn_times: List[float]
    reboot_times: List[float] = dataclasses.field(default_factory=list)
    #: step times at which the controller was stalled.
    stall_times: List[float] = dataclasses.field(default_factory=list)

    def rebinned(self, bin_seconds: float) -> List[float]:
        """Average throughput over *bin_seconds* windows (Fig 11 overlays
        per-second and per-10-second curves)."""
        if not self.times:
            return []
        step = self.times[1] - self.times[0] if len(self.times) > 1 else 1.0
        per_bin = max(1, int(round(bin_seconds / step)))
        out = []
        for i in range(0, len(self.throughput), per_bin):
            chunk = self.throughput[i : i + per_bin]
            out.append(sum(chunk) / len(chunk))
        return out


class DynamicsEmulator:
    """Runs one churn scenario against the real cache-update machinery."""

    def __init__(self, config: EmulationConfig = EmulationConfig()):
        self.config = config
        spec = WorkloadSpec(num_keys=config.num_keys, read_skew=config.skew,
                            seed=config.seed)
        self.popularity = PopularityMap(config.num_keys, seed=config.seed)
        self.workload = Workload(spec, popularity=self.popularity)
        self.churn = ChurnSchedule(self.popularity, config.churn_kind,
                                   n=config.churn_n,
                                   top_m=config.cache_items,
                                   interval=config.churn_interval)

        # Real switch + servers + controller (control plane drives these;
        # the simulator exists only to satisfy node wiring).
        self.sim = Simulator()
        plan = make_rack_plan(config.num_servers, 1)
        self.partitioner = HashPartitioner(plan.server_ids)
        entries = max(16 * 1024, config.cache_items * 2)
        self.switch = NetCacheSwitch(
            plan.tor_id, num_pipes=2,
            ports_per_pipe=config.num_servers // 2 + 1,
            entries=entries, value_slots=entries,
            num_value_stages=config.num_value_stages,
            layout=config.layout,
        )
        self.switch.dataplane.stats.set_hot_threshold(config.hot_threshold)
        # samples_per_step already models the data plane's sampler; a
        # second sampling stage inside the statistics would double-count it.
        self.switch.dataplane.stats.set_sample_rate(1.0)
        self.sim.add_node(self.switch)
        self.servers: Dict[int, StorageServer] = {}
        for sid, port in plan.server_ports.items():
            server = StorageServer(sid, gateway=plan.tor_id,
                                   service_rate=config.server_rate)
            self.sim.add_node(server)
            self.sim.connect(plan.tor_id, sid)
            self.switch.attach_neighbor(port, sid)
            self.servers[sid] = server
        self.controller = CacheController(
            self.switch, self.partitioner, self.servers,
            cache_capacity=config.cache_items,
            sample_size=config.controller_sample_size,
        )
        self._load_stores()

        self.rate_config = RateSimConfig(num_servers=config.num_servers,
                                         server_rate=config.server_rate)
        self._rng = np.random.default_rng(config.seed + 7)
        # The read probabilities and the capacity solved from them, each
        # with the (popularity generation, contents version) it holds for.
        self._read_probs: Optional[np.ndarray] = None
        self._probs_generation = -1
        self._capacity = 0.0
        self._capacity_key = None
        self._mask = CacheContentsMask(self.switch, self.workload.keyspace)

    def _load_stores(self) -> None:
        load_stores(self.servers, self.partitioner,
                    self.workload.keyspace.keys(range(self.config.num_keys)),
                    self.workload.value_for)

    # -- pieces of one step ------------------------------------------------------

    def _feed_statistics(self, delivered_rate: float) -> None:
        """Push a sampled batch of the current read stream through the real
        statistics path and report hot keys to the controller.

        Uses the data plane's batch entry point, so the per-step cost is a
        key-materialization pass plus a handful of numpy calls instead of
        ~8 hash computations per sampled query (bit-for-bit identical
        decisions; see docs/PERFORMANCE.md)."""
        count = self.config.samples_per_step
        ranks = self.workload._read_gen.sample(count)
        items = self.popularity.items_at(ranks)
        keys = self.workload.keyspace.keys(items)
        report = self.controller.report_hot_key
        for hot in self.switch.dataplane.observe_reads(keys):
            report(hot)

    def _saturated_throughput(self) -> float:
        """The equilibrium capacity for the current popularity and cache
        contents.  It is a pure function of the two, so it is solved once
        per (popularity generation, contents version): a churn moves the
        generation, an install or evict the version, and a step on which
        neither moved reuses the last answer."""
        generation = self.popularity.changes
        if self._probs_generation != generation:
            self._read_probs = self.workload.read_item_probs()
            self._probs_generation = generation
        key = (generation, self.switch.dataplane.contents_version)
        if self._capacity_key != key:
            # Invalid entries (just-written keys) don't serve; with a
            # read-only dynamics workload every cached key is valid.
            self._capacity = simulate(self._read_probs, self._mask.mask(),
                                      self.rate_config).throughput
            self._capacity_key = key
        return self._capacity

    # -- main loop ------------------------------------------------------------------

    def run(self, warm: bool = True) -> EmulationResult:
        cfg = self.config
        if warm:
            self.controller.preload(self.workload.hottest_keys(cfg.cache_items))
        aimd = AimdRateController(
            initial_rate=cfg.num_servers * cfg.server_rate,
            max_rate=cfg.num_servers * cfg.server_rate * 50,
            increase=0.05, multiplicative_increase=1.3,
        )
        result = EmulationResult([], [], [], [], [], [])
        steps = int(round(cfg.duration / cfg.step))
        next_churn = cfg.churn_interval
        next_reset = cfg.stats_interval
        pending_reboots = sorted(cfg.reboot_times)
        for step_idx in range(steps):
            t = step_idx * cfg.step
            if pending_reboots and t >= pending_reboots[0]:
                pending_reboots.pop(0)
                self.switch.reboot()
                result.reboot_times.append(t)
            if t >= next_churn:
                self.churn.apply_once()
                result.churn_times.append(t)
                next_churn += cfg.churn_interval
            capacity = self._saturated_throughput()
            offered = aimd.rate
            delivered = min(offered, capacity)
            sent = offered * cfg.step
            received = delivered * cfg.step
            aimd.observe(int(sent), int(received))

            self._feed_statistics(delivered)
            stalled = any(start <= t < end
                          for start, end in cfg.controller_stall_windows)
            if stalled:
                result.stall_times.append(t)
            else:
                self.controller.update_round()
            if t >= next_reset:
                # A stalled controller misses the reset entirely; the next
                # one happens a full interval later (counters keep growing).
                if not stalled:
                    self.switch.reset_statistics()
                next_reset += cfg.stats_interval

            result.times.append(t)
            result.throughput.append(delivered)
            result.offered.append(offered)
            result.cache_size.append(self.switch.dataplane.cache_size())
            result.insertions.append(self.controller.insertions)
        return result


def run_dynamics(kind: str, duration: float = 40.0,
                 seed: int = 0, **overrides) -> EmulationResult:
    """Convenience wrapper: run one of the three §7.4 scenarios.

    ``hot-in`` uses the paper's 10-second churn period; ``random`` and
    ``hot-out`` churn every second.
    """
    interval = 10.0 if kind == "hot-in" else 1.0
    config = EmulationConfig(churn_kind=kind, churn_interval=interval,
                             duration=duration, seed=seed, **overrides)
    return DynamicsEmulator(config).run()
