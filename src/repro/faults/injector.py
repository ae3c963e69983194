"""Applies a :class:`~repro.faults.schedule.FaultSchedule` to a live rack.

The injector arms one simulator event per fault and, when it fires,
translates it into the matching hook on :class:`~repro.sim.cluster.Cluster`
(link take-down, loss burst, server crash, switch reboot, controller
stall, ...).  Every firing appends a fixed-format line to ``log``; because
the schedule, the simulator, and every fault RNG are seeded, two runs of
the same scenario produce byte-identical logs.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule


class FaultInjector:
    """Arms a schedule's events on a cluster's simulator and logs firings."""

    def __init__(self, cluster, schedule: FaultSchedule):
        self.cluster = cluster
        self.schedule = schedule
        self.log: List[str] = []
        self.injected = 0
        self._armed = False

    def arm(self) -> int:
        """Schedule every fault event; returns the number armed."""
        if self._armed:
            raise ConfigurationError("injector already armed")
        self._armed = True
        events = self.schedule.events()
        queue = self.cluster.sim.events
        for event in events:
            queue.schedule_abs(max(event.time, queue.now), self._fire, event)
        return len(events)

    def note(self, time: float, message: str) -> None:
        """Append a runner-level marker (heal-all, quiesce) to the log."""
        self.log.append(f"t={time:.9f} {message}")

    # -- dispatch --------------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        detail = self._apply(event)
        self.injected += 1
        line = event.describe()
        if detail:
            line += f" {detail}"
        self.log.append(line)

    def _apply(self, event: FaultEvent) -> str:
        cluster = self.cluster
        kind = event.kind
        if kind is FaultKind.LINK_DOWN:
            cluster.partition_node(event.node)
            return ""
        if kind is FaultKind.LINK_UP:
            cluster.heal_node(event.node)
            return ""
        if kind is FaultKind.LOSS_BURST:
            link = cluster.link_to(event.node)
            link.start_loss_burst(event.prob, event.time + event.duration)
            return ""
        if kind is FaultKind.DUPLICATE:
            cluster.link_to(event.node).set_duplication(event.prob)
            return "off" if not event.prob else ""
        if kind is FaultKind.REORDER:
            cluster.link_to(event.node).set_reordering(event.prob)
            return "off" if not event.prob else ""
        if kind is FaultKind.SERVER_CRASH:
            cluster.crash_server(event.node)
            return ""
        if kind is FaultKind.SERVER_RESTART:
            cluster.restart_server(event.node)
            return ""
        if kind is FaultKind.SWITCH_REBOOT:
            lost = cluster.reboot_switch()
            return f"entries-lost={lost}"
        if kind is FaultKind.CONTROLLER_STALL:
            cluster.stall_controller()
            return ""
        if kind is FaultKind.CONTROLLER_RESUME:
            cluster.resume_controller()
            return ""
        raise ConfigurationError(f"unhandled fault kind {kind!r}")
