"""Switch resource accounting (§6 "Implementation").

The paper reports that NetCache uses "less than 50% of the on-chip memory
available in the Tofino ASIC".  This module computes the SRAM footprint of a
configured data plane, checks each component against per-stage budgets, and
renders the resource table the benchmarks print.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.constants import CHIP_SRAM_BYTES
from repro.core.dataplane import NetCacheDataplane


@dataclasses.dataclass(frozen=True)
class ResourceLine:
    """One component's footprint."""

    component: str
    sram_bytes: int
    detail: str

    @property
    def sram_mb(self) -> float:
        return self.sram_bytes / (1024 * 1024)


@dataclasses.dataclass(frozen=True)
class ResourceReport:
    """Full footprint of one NetCache data plane."""

    lines: List[ResourceLine]
    chip_sram_bytes: int = CHIP_SRAM_BYTES

    @property
    def total_bytes(self) -> int:
        return sum(line.sram_bytes for line in self.lines)

    @property
    def utilization(self) -> float:
        return self.total_bytes / self.chip_sram_bytes

    @property
    def fits_half_chip(self) -> bool:
        """The paper's headline claim: under 50% of on-chip memory."""
        return self.utilization < 0.5

    def render(self) -> str:
        width = max(len(line.component) for line in self.lines) + 2
        rows = [f"{'component':<{width}}{'SRAM':>10}  detail"]
        for line in self.lines:
            rows.append(
                f"{line.component:<{width}}{line.sram_mb:>8.2f}MB  {line.detail}"
            )
        rows.append(
            f"{'TOTAL':<{width}}{self.total_bytes / (1024*1024):>8.2f}MB  "
            f"{self.utilization:.1%} of {self.chip_sram_bytes // (1024*1024)}MB chip"
        )
        return "\n".join(rows)


def report_for(dataplane: NetCacheDataplane) -> ResourceReport:
    """Account the SRAM footprint of *dataplane*.

    The cache-geometry components come from the layout's own accounting
    (for the paper design: the lookup table counted once per ingress pipe,
    value arrays counted across all egress pipes — each pipe holds only
    its servers' values, §4.4.4, so that is the real total, not a replica
    count); the statistics engine is appended by this function since it is
    shared by every geometry.
    """
    lines: List[ResourceLine] = [
        ResourceLine(component, sram_bytes, detail)
        for component, sram_bytes, detail in dataplane.layout.resource_lines()
    ]

    stats = dataplane.stats
    lines.append(ResourceLine(
        "cache_counters",
        stats.counters.sram_bytes,
        f"{stats.counters.slots} x {stats.counters.slot_bytes * 8}-bit",
    ))
    lines.append(ResourceLine(
        "count_min_sketch",
        stats.sketch.sram_bytes,
        f"{stats.sketch.depth} arrays x {stats.sketch.width} x "
        f"{stats.sketch.counter_bits}-bit",
    ))
    lines.append(ResourceLine(
        "bloom_filter",
        stats.bloom.sram_bytes,
        f"{stats.bloom.num_hashes} arrays x {stats.bloom.bits} x 1-bit",
    ))
    return ResourceReport(lines=lines)


def paper_prototype_report() -> ResourceReport:
    """Report for the paper's exact prototype geometry (one logical value
    copy: 8 stages x 64K x 16B = 8 MB)."""
    from repro.net.routing import RoutingTable

    dataplane = NetCacheDataplane(RoutingTable(default_port=0), num_pipes=1)
    return report_for(dataplane)
