"""Tests for the pluggable cache-geometry seam.

Covers the :mod:`repro.core.geometry` contracts directly (registry,
layouts, admission policies), the data-plane integration (recirculation
delay, empty-switch guards), the lanes engine on every layout (all
three run natively via their vectorized batch probes, byte-identical to
the scalar loop), and the geometry tournament's determinism and
divergence claims.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import policies as baselines
from repro.core import geometry
from repro.core.dataplane import NetCacheDataplane
from repro.core.geometry import (
    RECIRCULATION_DELAY,
    OrbitLayout,
    PaperLayout,
    SampleEvictPolicy,
    SetAssocLayout,
    UpdateBudget,
    make_layout,
)
from repro.errors import ConfigurationError
from repro.net.fastpath import FastPathEngine
from repro.net.packet import make_get
from repro.net.routing import RoutingTable
from repro.net.trace import DeliveryTrace
from repro.sim.simcore import (
    SimCoreConfig,
    build_rack,
    diff_snapshots,
    run_batched,
    run_scalar,
)
from repro.tools.tournament import run_cell, run_tournament

KEY = b"0123456789abcdef"
CLIENT, SERVER = 100, 1


def small_dp(layout="paper"):
    routing = RoutingTable(default_port=0)
    routing.add_route(CLIENT, 10)
    routing.add_route(SERVER, 0)
    dp = NetCacheDataplane(routing, num_pipes=2, ports_per_pipe=4,
                           entries=64, value_slots=64)
    if layout != "paper":
        dp = NetCacheDataplane(routing, num_pipes=2, ports_per_pipe=4,
                               entries=64, value_slots=64, layout=layout)
    dp.stats.set_sample_rate(1.0)
    return dp


class TestRegistry:
    def test_names_resolve_to_their_classes(self):
        for name, cls in (("paper", PaperLayout),
                          ("setassoc", SetAssocLayout),
                          ("orbit", OrbitLayout)):
            layout = make_layout(name, num_pipes=2, ports_per_pipe=4,
                                 entries=64, num_value_stages=4,
                                 value_slots=32, slot_bytes=16)
            assert type(layout) is cls
            assert layout.name == name

    def test_none_means_paper(self):
        layout = make_layout(None, num_pipes=1, ports_per_pipe=4,
                             entries=16, num_value_stages=2,
                             value_slots=8, slot_bytes=16)
        assert isinstance(layout, PaperLayout)

    def test_instance_passes_through(self):
        inst = SetAssocLayout(num_pipes=1, entries=16, ways=2,
                              num_value_stages=2, value_slots=8)
        assert make_layout(inst) is inst

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown cache layout"):
            make_layout("cuckoo")


class TestDataplaneSeam:
    def test_paper_internals_live_on_the_layout_only(self):
        dp = small_dp()
        assert isinstance(dp.layout, PaperLayout)
        for name in ("lookup", "values", "status", "memory"):
            assert hasattr(dp.layout, name)
            assert not hasattr(dp, name)

    def test_fresh_switch_hit_ratio_is_zero(self):
        assert small_dp().hit_ratio() == 0.0

    def test_fresh_memory_fragmentation_is_zero(self):
        dp = small_dp()
        assert all(f == 0.0 for f in dp.layout.fragmentation_by_pipe())

    def test_oversized_install_fails_instead_of_raising(self):
        dp = small_dp()
        too_big = b"x" * (dp.layout.max_value_size + 1)
        assert dp.install(KEY, too_big, egress_port=0) is False
        assert not dp.layout.is_cached(KEY)

    def test_orbit_hit_carries_recirculation_delay(self):
        # Small segments keep a 3-pass value inside the packet format.
        dp = small_dp(layout=OrbitLayout(
            num_pipes=2, ports_per_pipe=4, entries=64,
            num_value_stages=2, value_slots=64, slot_bytes=16))
        value = b"v" * (dp.layout.segment_bytes * 3)
        assert dp.install(KEY, value, egress_port=0)
        res = dp.process(make_get(CLIENT, SERVER, KEY), 10)
        assert res.delay == pytest.approx(2 * RECIRCULATION_DELAY)

    def test_paper_hit_has_no_delay(self):
        dp = small_dp()
        dp.install(KEY, b"v", egress_port=0)
        res = dp.process(make_get(CLIENT, SERVER, KEY), 10)
        assert res.delay == 0.0


class TestSetAssocLayout:
    def layout(self, **kw):
        kw.setdefault("num_pipes", 1)
        kw.setdefault("entries", 8)
        kw.setdefault("ways", 2)
        kw.setdefault("num_value_stages", 2)
        kw.setdefault("value_slots", 8)
        kw.setdefault("slot_bytes", 16)
        return SetAssocLayout(**kw)

    def colliders(self, layout, n, tag=b""):
        """n distinct keys that hash into the same set."""
        target = None
        found = []
        i = 0
        while len(found) < n:
            key = b"k%a%d" % (tag, i)
            i += 1
            s = geometry._set_hash(key) % layout.num_sets
            if target is None:
                target = s
            if s == target:
                found.append(key)
        return found

    def test_install_lookup_roundtrip(self):
        layout = self.layout()
        assert layout.install(KEY, b"value", egress_port=0)
        assert layout.read_cached_value(KEY) == b"value"
        assert layout.is_cached(KEY)
        assert layout.cache_size() == 1
        hit = layout.lookup_hit(KEY)
        assert hit is not None and hit.extra_passes == 0
        assert layout.read_value(hit) == b"value"

    def test_full_set_rejects_without_candidate_count(self):
        layout = self.layout()
        keys = self.colliders(layout, 3)
        assert layout.install(keys[0], b"a", 0)
        assert layout.install(keys[1], b"b", 0)
        assert not layout.install(keys[2], b"c", 0)
        assert layout.auto_evictions == 0

    def test_hot_candidate_displaces_coldest_way(self):
        layout = self.layout()
        keys = self.colliders(layout, 3)
        layout.install(keys[0], b"a", 0)
        layout.install(keys[1], b"b", 0)
        layout.lookup_hit(keys[1])  # warm one way; keys[0] stays coldest
        assert not layout.install(keys[2], b"c", 0, candidate_count=0)
        assert layout.install(keys[2], b"c", 0, candidate_count=5)
        assert layout.auto_evictions == 1
        assert not layout.is_cached(keys[0])
        assert layout.read_cached_value(keys[1]) == b"b"
        assert layout.read_cached_value(keys[2]) == b"c"

    def test_write_invalidates_until_fresher_update(self):
        layout = self.layout()
        layout.install(KEY, b"v1", 0)
        assert layout.handle_write(KEY)
        assert layout.read_cached_value(KEY) is None
        assert layout.apply_update(KEY, b"v2", seq=1)
        assert layout.read_cached_value(KEY) == b"v2"
        # A stale sequence number must not roll the value back.
        assert layout.apply_update(KEY, b"v0", seq=1)
        assert layout.read_cached_value(KEY) == b"v2"
        assert layout.status.updates_rejected == 1

    def test_value_wider_than_way_uncacheable(self):
        layout = self.layout()
        assert layout.max_value_size == layout.way_bytes
        assert not layout.install(KEY, b"x" * (layout.way_bytes + 1), 0)

    def test_sram_audit_counts_full_ways(self):
        layout = self.layout()
        layout.install(KEY, b"v", 0)  # 1 byte commits a full way
        assert layout.value_bytes_used() == layout.way_bytes
        assert layout.sram_audit().endswith(":ok")


class TestOrbitLayout:
    def layout(self, **kw):
        kw.setdefault("num_pipes", 1)
        kw.setdefault("entries", 8)
        kw.setdefault("num_value_stages", 2)
        kw.setdefault("value_slots", 8)
        kw.setdefault("slot_bytes", 16)
        kw.setdefault("max_passes", 4)
        return OrbitLayout(**kw)

    def test_multi_segment_value_roundtrips(self):
        layout = self.layout()
        value = bytes(range(64)) + b"tail"  # 68B -> 3 x 32B segments
        assert layout.install(KEY, value, egress_port=0)
        assert layout.read_cached_value(KEY) == value
        hit = layout.lookup_hit(KEY)
        assert hit.extra_passes == 2
        before = layout.recirculations
        assert layout.read_value(hit) == value
        assert layout.recirculations == before + 2

    def test_value_beyond_max_passes_rejected(self):
        layout = self.layout()
        assert layout.max_value_size == 4 * layout.segment_bytes
        assert not layout.install(KEY, b"x" * (layout.max_value_size + 1), 0)

    def test_evict_frees_segments_for_reuse(self):
        layout = self.layout()
        big = b"y" * (layout.segment_bytes * layout.max_passes)
        free_before = len(layout._free)
        assert layout.install(KEY, big, 0)
        assert len(layout._free) == free_before - layout.max_passes
        assert layout.evict(KEY)
        assert len(layout._free) == free_before
        assert layout.value_bytes_used() == 0
        assert layout.install(b"other-key", big, 0)

    def test_write_invalidates_and_update_restores(self):
        layout = self.layout()
        value = b"z" * (layout.segment_bytes + 1)
        layout.install(KEY, value, 0)
        assert layout.handle_write(KEY)
        assert layout.read_cached_value(KEY) is None
        # A same-footprint update revalidates in place...
        assert layout.apply_update(KEY, b"w" * len(value), seq=1)
        assert layout.read_cached_value(KEY) == b"w" * len(value)
        # ...but growing past the allocated segments needs a reinstall.
        grown = b"g" * (layout.segment_bytes * 3)
        assert not layout.apply_update(KEY, grown, seq=2)


def tiny_layout(name, entries=8):
    """A one-pipe layout whose value memory outlasts its key indexes."""
    geometry_kw = dict(num_pipes=1, ports_per_pipe=4, entries=entries,
                       num_value_stages=2, value_slots=64, slot_bytes=16)
    if name == "setassoc":
        geometry_kw["ways"] = 2
    return make_layout(name, **geometry_kw)


def key_of(num):
    return b"key%d" % num


class TestKeyIndexAllocation:
    """The base class's free list, on the layouts that claim from it."""

    pytestmark = pytest.mark.parametrize("name", ["paper", "orbit"])

    def test_indexes_unique(self, name):
        layout = tiny_layout(name)
        for i in range(8):
            assert layout.install(key_of(i), b"v", 0)
        idxs = {layout.key_index_of(key_of(i)) for i in range(8)}
        assert idxs == set(range(8))

    def test_exhaustion(self, name):
        layout = tiny_layout(name, entries=2)
        assert layout.install(b"a", b"v", 0)
        assert layout.install(b"b", b"v", 0)
        assert not layout.install(b"c", b"v", 0)
        assert layout.cache_size() == 2

    def test_remove_recycles_index(self, name):
        # Freed indexes come back last-freed first.
        layout = tiny_layout(name, entries=4)
        for key in (b"a", b"b", b"c"):
            layout.install(key, b"v", 0)
        ia, ic = layout.key_index_of(b"a"), layout.key_index_of(b"c")
        assert layout.evict(b"a") and layout.evict(b"c")
        layout.install(b"x", b"v", 0)
        layout.install(b"y", b"v", 0)
        assert layout.key_index_of(b"x") == ic
        assert layout.key_index_of(b"y") == ia

    def test_remove_missing(self, name):
        layout = tiny_layout(name)
        assert not layout.evict(KEY)
        assert layout.key_index_of(KEY) is None

    def test_cached_keys_listing(self, name):
        layout = tiny_layout(name)
        layout.install(KEY, b"v", 0)
        assert layout.cached_keys() == [KEY]
        assert layout.is_cached(KEY) and layout.cache_size() == 1


@pytest.mark.parametrize("name", ["paper", "setassoc", "orbit"])
def test_install_past_entries_fails_without_committing_memory(name):
    one = tiny_layout(name)
    one.install(KEY, b"v" * 16, 0)
    per_item = one.value_bytes_used()
    layout = tiny_layout(name)
    installed = [layout.install(key_of(i), b"v" * 16, 0)
                 for i in range(64)]
    assert sum(installed) == 8 and not installed[-1]
    assert layout.cache_size() == 8
    assert layout.value_bytes_used() == 8 * per_item


@pytest.mark.parametrize("name", ["paper", "setassoc", "orbit"])
def test_key_map_agrees_across_install_evict_reinstall(name):
    layout = tiny_layout(name)
    rng = random.Random(3)
    cached = {}  # key -> None, in install order
    for _ in range(300):
        key = key_of(rng.randrange(24))
        if rng.random() < 0.6:
            if layout.install(key, b"v", 0):
                cached[key] = None
        else:
            assert layout.evict(key) == (key in cached)
            cached.pop(key, None)
        assert layout.cached_keys() == list(cached)
        assert layout.cache_size() == len(cached)
        indexes = [layout.key_index_of(k) for k in cached]
        assert None not in indexes and len(set(indexes)) == len(indexes)
        for k in cached:
            assert layout.is_cached(k)
            assert layout.lookup_hit(k).key_index == layout.key_index_of(k)
        for num in range(24):
            if key_of(num) not in cached:
                assert not layout.is_cached(key_of(num))
                assert layout.key_index_of(key_of(num)) is None


class TestAdmissionPolicies:
    def test_sample_evict_picks_coldest_only_when_beaten(self):
        policy = SampleEvictPolicy()
        counters = {b"a": 5, b"b": 1, b"c": 9}
        sample = [b"a", b"b", b"c"]
        pick = policy.pick_victim(b"new", sample, counters.get,
                                  lambda k: 3)
        assert pick == b"b"
        assert policy.pick_victim(b"new", sample, counters.get,
                                  lambda k: 1) is None
        assert policy.pick_victim(b"new", [], counters.get,
                                  lambda k: 99) is None

    def test_budget_denies_and_refills(self):
        budget = UpdateBudget(3)
        assert budget.take(2) and not budget.take(2)
        assert (budget.spent, budget.denied) == (2, 2)
        budget.refill()
        assert budget.take(3)

    def test_baseline_policies_share_the_geometry_contract(self):
        # The ablation baselines fold into AdmissionPolicy.
        for cls in (baselines.LruPolicy, baselines.LfuPolicy,
                    baselines.ThresholdPolicy):
            policy = cls(4)
            assert isinstance(policy, geometry.AdmissionPolicy)
            # Their control surface stays inert.
            assert policy.pick_victim(b"x", [b"y"], lambda k: 0,
                                      lambda k: 9) is None

    def test_baseline_capacity_still_validated(self):
        with pytest.raises(ConfigurationError):
            baselines.LruPolicy(0)


class TestLayoutLanes:
    """Every shipped layout runs natively under lanes, byte-identical."""

    def cfg(self, layout, **overrides):
        params = dict(num_servers=4, num_keys=300, cache_items=16,
                      lookup_entries=64, rate=1e5, duration=0.03,
                      seed=7, layout=layout)
        params.update(overrides)
        return SimCoreConfig(**params)

    def full_coverage(self, cfg):
        cluster, _, _ = build_rack(cfg)
        engine = FastPathEngine(cluster, trace=DeliveryTrace())
        engine.run(cfg.duration)
        assert engine.coverage() == 1.0

    def test_setassoc_runs_native_and_stays_equivalent(self):
        cfg = self.cfg("setassoc")
        self.full_coverage(cfg)
        assert diff_snapshots(run_scalar(cfg), run_batched(cfg)) == []

    def test_orbit_multipass_runs_native_and_stays_equivalent(self):
        # 96B values over 2-stage (32B) segments: every hit takes two
        # recirculation passes, so the per-record reply-delay lane is
        # exercised, not just the zero-delay shortcut.
        cfg = self.cfg("orbit", value_size=96, num_value_stages=2)
        self.full_coverage(cfg)
        scalar = run_scalar(cfg)
        assert scalar["layout.recirculations"] > 0
        assert diff_snapshots(scalar, run_batched(cfg)) == []

    def test_paper_layout_keeps_full_coverage(self):
        self.full_coverage(self.cfg("paper"))


CELL_PARAMS = dict(num_keys=400, cache_items=16, lookup_entries=64,
                   value_slots=64, packets=4_000, seed=11)


class TestTournament:
    def test_cell_is_deterministic_from_the_seed(self):
        for layout in ("paper", "setassoc", "orbit"):
            a = run_cell(layout, 0.99, 64, 0.1, **CELL_PARAMS)
            b = run_cell(layout, 0.99, 64, 0.1, **CELL_PARAMS)
            assert a == b

    def test_orbit_caches_what_paper_cannot(self):
        paper = run_cell("paper", 0.99, 512, 0.0, **CELL_PARAMS)
        orbit = run_cell("orbit", 0.99, 512, 0.0, **CELL_PARAMS)
        assert paper["hit_ratio"] == 0.0  # 512B > the paper's 128B ceiling
        assert orbit["hit_ratio"] > 0.0
        assert orbit["recirculations"] > 0
        assert paper["sram_ok"] and orbit["sram_ok"]

    def test_grid_summary_counts_divergence(self):
        result = run_tournament(**CELL_PARAMS)
        summary = result["summary"]
        assert summary["grid_cells"] == len(result["cells"]) == 24
        assert summary["layouts_completed"] == 3
        assert summary["orbit_divergent_cells"] > 0
        assert summary["sram_all_ok"] is True


ARRAYS, SLOTS, SLOT_BYTES = 4, 8, 16


def geometry_ops():
    install = st.tuples(st.just("install"), st.integers(0, 20),
                        st.integers(1, ARRAYS * SLOT_BYTES))
    evict = st.tuples(st.just("evict"), st.integers(0, 20), st.just(0))
    return st.lists(st.one_of(install, evict), max_size=40)


@settings(max_examples=100, deadline=None)
@given(geometry_ops())
def test_defragment_preserves_values_under_the_seam(op_list):
    # Satellite: relocations through the layout seam must keep every
    # cached value byte-for-byte and never over-commit the slot budget.
    layout = PaperLayout(num_pipes=1, ports_per_pipe=4, entries=64,
                         num_value_stages=ARRAYS, value_slots=SLOTS,
                         slot_bytes=SLOT_BYTES)
    for kind, key_num, size in op_list:
        key = f"key{key_num}".encode()
        if kind == "install":
            if not layout.is_cached(key):
                layout.install(key, bytes([key_num % 256]) * size,
                               egress_port=0)
        else:
            layout.evict(key)
    before = {key: layout.read_cached_value(key)
              for key in layout.cached_keys()}
    layout.defragment_pipe(0)
    after = {key: layout.read_cached_value(key)
             for key in layout.cached_keys()}
    assert after == before
    mm = layout.memory[0]
    assert mm.used_slots <= mm.total_slots
    assert layout.value_bytes_used() <= layout.value_capacity_bytes()
