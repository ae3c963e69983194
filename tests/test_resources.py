"""Tests for switch resource accounting (§6 claims)."""

from repro.core.resources import paper_prototype_report, report_for
from repro.core.dataplane import NetCacheDataplane
from repro.net.routing import RoutingTable


class TestPaperPrototype:
    def test_under_half_chip(self):
        report = paper_prototype_report()
        assert report.fits_half_chip

    def test_value_memory_is_8mb(self):
        report = paper_prototype_report()
        values = next(l for l in report.lines if l.component == "value_arrays")
        assert values.sram_bytes == 8 * 1024 * 1024

    def test_cm_sketch_geometry(self):
        report = paper_prototype_report()
        cm = next(l for l in report.lines if l.component == "count_min_sketch")
        assert cm.sram_bytes == 4 * 64 * 1024 * 2

    def test_bloom_geometry(self):
        report = paper_prototype_report()
        bloom = next(l for l in report.lines if l.component == "bloom_filter")
        assert bloom.sram_bytes == 3 * 256 * 1024 // 8


class TestReportMechanics:
    def _small(self):
        dp = NetCacheDataplane(RoutingTable(default_port=0), num_pipes=2,
                               entries=1024, value_slots=1024)
        return report_for(dp)

    def test_total_is_sum(self):
        report = self._small()
        assert report.total_bytes == sum(l.sram_bytes for l in report.lines)

    def test_render_contains_total(self):
        text = self._small().render()
        assert "TOTAL" in text and "cache_lookup" in text

    def test_value_arrays_scale_with_pipes(self):
        one = NetCacheDataplane(RoutingTable(default_port=0), num_pipes=1,
                                entries=256, value_slots=256)
        two = NetCacheDataplane(RoutingTable(default_port=0), num_pipes=2,
                                entries=256, value_slots=256)
        v1 = next(l for l in report_for(one).lines
                  if l.component == "value_arrays").sram_bytes
        v2 = next(l for l in report_for(two).lines
                  if l.component == "value_arrays").sram_bytes
        assert v2 == 2 * v1
