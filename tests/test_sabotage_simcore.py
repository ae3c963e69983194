"""Sabotage wall: prove the differential harness detects what it claims to.

A green equivalence gate is only evidence if the gate can actually fail.
Each test here injects exactly one defect — a mutated snapshot field, one
ulp of client latency, one swapped cache-status bit, one cancelled retry
timer — and asserts ``diff_snapshots`` flags the divergence *and names the
right field*.  If any of these pass with an empty diff, the differential
tests in ``test_simcore.py``/``test_prop_simcore.py`` are decorative.

Two layers:

* snapshot sabotage — mutate one field of a copied snapshot and require
  the diff to name that field and only that field;
* behavioral sabotage — perturb the lanes engine (never the scalar
  reference) mid-run and require the diff to include the field the defect
  manifests in.
"""

import contextlib
import copy
import re

import numpy as np
import pytest

from repro import obs
from repro.core import geometry
from repro.core.primitives import RegisterArray
from repro.core.status import CacheStatusModule
from repro.core.switch import PlainSwitch
from repro.kvstore.store import KVStore, ReadColumns
from repro.net import fastpath
from repro.net.trace import DeliveryTrace
from repro.obs.metrics import Histogram
from repro.sketch import hashing
from repro.sketch.digest import DigestTable, digest_table_for
from repro.sim.experiments import fig10c_rack
from repro.sim.simcore import (
    SimCoreConfig,
    build_rack,
    counters_snapshot,
    diff_snapshots,
    run_batched,
    run_scalar,
)


def tiny(**overrides):
    defaults = dict(num_servers=4, num_keys=500, cache_items=16,
                    lookup_entries=256, rate=2e5, duration=0.05, seed=3)
    defaults.update(overrides)
    return SimCoreConfig(**defaults)


@pytest.fixture(scope="module")
def snap():
    return run_batched(tiny())


class TestSnapshotSabotage:
    """Mutate one field; the diff must name that field and only it."""

    def _assert_only(self, a, b, key):
        diffs = diff_snapshots(a, b)
        assert len(diffs) == 1, diffs
        assert diffs[0].split(":")[0] == key, diffs

    def test_identical_copies_diff_empty(self, snap):
        assert diff_snapshots(snap, copy.deepcopy(snap)) == []

    def test_bumped_counter_named(self, snap):
        bad = copy.deepcopy(snap)
        bad["client.sent"] += 1
        self._assert_only(snap, bad, "client.sent")

    def test_mutated_trace_digest_named(self, snap):
        bad = copy.deepcopy(snap)
        head, count = bad["trace.digest"].split(":")
        flipped = ("0" if head[0] != "0" else "1") + head[1:]
        bad["trace.digest"] = f"{flipped}:{count}"
        self._assert_only(snap, bad, "trace.digest")

    def test_per_key_register_named(self, snap):
        bad = copy.deepcopy(snap)
        assert bad["cache.key_counters"], "scenario must cache keys"
        key_hex, count = bad["cache.key_counters"][0]
        bad["cache.key_counters"][0] = (key_hex, count + 1)
        self._assert_only(snap, bad, "cache.key_counters")

    def test_one_latency_ulp_named(self, snap):
        bad = copy.deepcopy(snap)
        lat = bad["client.latencies"]
        assert len(lat) > 5
        lat[5] = float(np.nextafter(lat[5], np.inf))
        diffs = diff_snapshots(snap, bad)
        assert diffs == ["client.latencies: 1 samples differ (first at 5)"]

    def test_busy_until_float_named(self, snap):
        bad = copy.deepcopy(snap)
        key = next(k for k in sorted(bad) if k.endswith(".busy_until"))
        bad[key] = float(np.nextafter(bad[key], np.inf))
        self._assert_only(snap, bad, key)


def run_faulted(cfg, script, batched, arm=None, session=False):
    """Run one path with a fault script; *arm* sabotages the engine.
    With *session* the run (and so the snapshot) has an observability
    session on the rack's sim clock."""
    cluster, client, _ = build_rack(cfg)
    trace = DeliveryTrace()
    if not batched:
        trace.attach(cluster.sim)
    script(cluster, client)
    with (obs.session(clock=obs.sim_clock(cluster.sim)) if session
          else contextlib.nullcontext()):
        if batched:
            engine = fastpath.FastPathEngine(cluster, trace=trace)
            if arm is not None:
                arm(engine)
            engine.run(cfg.duration)
            return counters_snapshot(cluster, client, trace, engine=engine)
        cluster.sim.run_until(cluster.sim.now + cfg.duration)
        return counters_snapshot(cluster, client, trace)


class TestBehavioralSabotage:
    """Perturb the lanes engine by one quantum; the diff must notice."""

    def test_one_ulp_of_latency_flags_latencies_only(self, monkeypatch):
        cfg = tiny()
        scalar = run_scalar(cfg)
        monkeypatch.setattr(
            fastpath, "CLIENT_OVERHEAD",
            float(np.nextafter(fastpath.CLIENT_OVERHEAD, np.inf)))
        sabotaged = run_batched(cfg)
        diffs = diff_snapshots(scalar, sabotaged)
        assert diffs, "one-ulp latency skew must not pass the gate"
        fields = {d.split(":")[0] for d in diffs}
        assert all(f.endswith(".latencies") for f in fields), diffs

    @pytest.mark.parametrize("layout, field", [
        ("paper", r"pipe\d+\.valid\.writes:"),
        ("setassoc", r"layout\.valid\.writes:"),
        ("orbit", r"layout\.valid\.writes:"),
    ], ids=["paper", "setassoc", "orbit"])
    def test_one_swapped_valid_bit_flags_the_register(self, monkeypatch,
                                                      layout, field):
        # Swap the cache-status bit back to valid after the first
        # data-plane invalidation (batched run only).  The harness pins
        # every register's read/write accounting, so the lone spurious
        # bitmap write is caught and named even before a stale read
        # could leak through — on every layout, since all of them keep
        # their valid bits in the one CacheStatusModule.
        cfg = tiny(write_ratio=0.1, seed=5, layout=layout)
        scalar = run_scalar(cfg)
        orig = CacheStatusModule.invalidate
        armed = {"live": True}

        def sabotaged(self, key_index):
            orig(self, key_index)
            if armed["live"]:
                armed["live"] = False
                self.valid.write_int(key_index, 1)

        monkeypatch.setattr(CacheStatusModule, "invalidate", sabotaged)
        bad = run_batched(cfg)
        diffs = diff_snapshots(scalar, bad)
        assert len(diffs) == 1, diffs
        assert re.match(field, diffs[0]), diffs

    def test_sram_overcommit_layout_flags_the_audit(self, monkeypatch):
        # A mis-accounted cache geometry: the layout installs real value
        # bytes but declares zero SRAM capacity for them.  Nothing about
        # packet processing changes, so every traffic counter matches —
        # only the layout's self-audit ("used/declared:verdict", captured
        # as a snapshot field) can catch the lie, and it must name it.
        cfg = tiny()
        scalar = run_scalar(cfg)
        assert scalar["layout.sram_audit"].endswith(":ok")
        monkeypatch.setattr(geometry.PaperLayout, "value_capacity_bytes",
                            lambda self: 0)
        bad = run_batched(cfg)
        assert bad["layout.sram_audit"].endswith(":OVER")
        diffs = diff_snapshots(scalar, bad)
        assert len(diffs) == 1, diffs
        assert diffs[0].split(":")[0] == "layout.sram_audit", diffs

    def test_one_dropped_retry_timer_flags_retransmissions(self):
        # Cancel the first retry timer the engine registers: the scalar
        # reference retransmits through the crash window, the sabotaged
        # batched run silently loses that request.
        cfg = tiny(duration=0.03, retries=True, seed=8)

        def script(cluster, client):
            sid = cluster.plan.server_ids[0]
            ev = cluster.sim.events
            ev.schedule_at(0.008, cluster.crash_server, sid)
            ev.schedule_at(0.020, cluster.restart_server, sid)

        def arm(engine):
            orig = engine._scalarize_entry
            armed = {"live": True}

            def sabotaged(st, chunk, i, track=False):
                orig(st, chunk, i, track=track)
                entry = st.client._outstanding.get(int(chunk.seqs[i]))
                if armed["live"] and entry is not None \
                        and entry.timer is not None:
                    armed["live"] = False
                    entry.timer.cancel()

            engine._scalarize_entry = sabotaged

        scalar = run_faulted(cfg, script, batched=False)
        bad = run_faulted(cfg, script, batched=True, arm=arm)
        diffs = diff_snapshots(scalar, bad)
        assert diffs, "a lost retransmission chain must not pass the gate"
        fields = {d.split(":")[0] for d in diffs}
        assert "client.retransmissions" in fields, diffs


class TestGeometryKernelSabotage:
    """Defects in the vectorized batch probes must be caught and named.

    Both sabotages are armed only after the scalar reference has run
    (``_probe`` feeds the batch kernel's memo; ``classify_reads`` is
    batch-only), so a green diff here would mean the harness cannot
    police the geometry kernels at all.
    """

    def test_wrong_fingerprint_mask_flags_the_lookup(self, monkeypatch):
        # The batch probe recomputes the 16-bit fingerprint; masking it
        # to 8 bits makes almost every cached key probe as a miss, which
        # must surface in the layout's own lookup counters (and from
        # there in every downstream traffic field).
        cfg = tiny(layout="setassoc")
        scalar = run_scalar(cfg)

        def sabotaged(self, key):
            h = geometry._set_hash(key)
            base = (h % self.num_sets) * self.ways
            fp = (h >> 16) & 0xFF  # wrong: drops the fingerprint's high byte
            mismatches = 0
            for way in range(self.ways):
                idx = base + way
                if self._fp[idx] != fp:
                    continue
                if self._keys[idx] == key:
                    return idx, mismatches
                mismatches += 1
            return -1, mismatches

        monkeypatch.setattr(geometry.SetAssocLayout, "_probe", sabotaged)
        bad = run_batched(cfg)
        diffs = diff_snapshots(scalar, bad)
        assert diffs, "a wrong fingerprint mask must not pass the gate"
        fields = {d.split(":")[0] for d in diffs}
        assert "lookup.hits" in fields, diffs

    def test_one_dropped_recirculation_pass_flags_latencies(self,
                                                            monkeypatch):
        # Shave one recirculation pass off a single record's reply-delay
        # lane: that reply lands RECIRCULATION_DELAY early, which the
        # latency samples (and the timestamped delivery trace) must flag.
        cfg = tiny(layout="orbit", value_size=96, num_value_stages=2)
        scalar = run_scalar(cfg)
        assert scalar["layout.recirculations"] > 0
        orig = geometry.OrbitLayout.classify_reads
        armed = {"live": True}

        def sabotaged(self, keys, read_values):
            hit_mask, hit_indexes, miss_keys, miss_pos, hit_delays = \
                orig(self, keys, read_values)
            if armed["live"] and hit_delays is not None and hit_delays.size:
                pos = np.flatnonzero(hit_delays > 0)
                if pos.size:
                    armed["live"] = False
                    hit_delays[pos[0]] -= geometry.RECIRCULATION_DELAY
            return hit_mask, hit_indexes, miss_keys, miss_pos, hit_delays

        monkeypatch.setattr(geometry.OrbitLayout, "classify_reads",
                            sabotaged)
        bad = run_batched(cfg)
        diffs = diff_snapshots(scalar, bad)
        assert diffs, "a dropped recirculation pass must not pass the gate"
        fields = {d.split(":")[0] for d in diffs}
        assert any(f.endswith(".latencies") for f in fields), diffs


class TestReadPathKernelSabotage:
    """Defects in the two batch read kernels — ``KVStore.get_batch`` and
    ``PaperLayout.classify_reads`` — must be caught and named.

    The scalar reference runs ``KVStore.get`` and ``lookup_hit`` and
    never enters either kernel, and each sabotage is armed after the
    reference run.
    """

    @staticmethod
    def _resize_every_store(cluster, client):
        """Mid-run, enough new keys on every server that all shards
        rebuild: every probe length resolved before it is now wrong."""
        def fill():
            for server in cluster.servers.values():
                for i in range(3000):
                    server.store.put(b"filler%d" % i, b"x")
        cluster.sim.events.schedule_at(0.02, fill)

    def test_stale_store_columns_flag_the_probe_totals(self, monkeypatch):
        cfg = tiny()
        scalar = run_faulted(cfg, self._resize_every_store, batched=False)
        # The structural versions stop moving: rows resolved before the
        # rebuild keep passing as fresh.
        orig = KVStore.put

        def sabotaged(self, key, value):
            versions = self._structure.copy()
            orig(self, key, value)
            self._structure[:] = versions

        monkeypatch.setattr(KVStore, "put", sabotaged)
        bad = run_faulted(cfg, self._resize_every_store, batched=True)
        diffs = diff_snapshots(scalar, bad)
        assert diffs, "stale store columns must not pass the gate"
        fields = {d.split(":")[0] for d in diffs}
        assert all(re.fullmatch(r"server\d+\.store\.probes", f)
                   for f in fields), diffs

    def test_unrefreshed_core_column_flags_core_ops(self, monkeypatch):
        # The columns hash every key's slot but leave the core column as
        # allocated, so every read is charged to core 0.
        cfg = tiny()
        scalar = run_scalar(cfg)
        orig = ReadColumns.__init__

        def sabotaged(self, keys, num_cores):
            orig(self, keys, num_cores)
            self.core[:] = 0

        monkeypatch.setattr(ReadColumns, "__init__", sabotaged)
        diffs = diff_snapshots(scalar, run_batched(cfg))
        fields = {d.split(":")[0] for d in diffs}
        assert any(re.fullmatch(r"server\d+\.store\.core_ops", f)
                   for f in fields), diffs

    def test_validity_bit_reused_across_a_write_flags_cache_hits(
            self, monkeypatch):
        # The kernel must read validity live: a write flips the bit
        # between two batches.  Here each status slot's first answer is
        # reused forever, so reads inside a key's invalid window are
        # served by the switch instead of the server.  (4 MQPS keeps
        # dozens of reads inside such windows.)
        cfg = tiny(write_ratio=0.3, rate=4e6, duration=0.003, seed=5)
        scalar = run_scalar(cfg)
        orig = RegisterArray.read_int_batch
        first_answer = {}

        def sabotaged(self, indexes):
            fresh = orig(self, indexes)
            if not self.name.endswith("/cache_status"):
                return fresh
            return np.array(
                [first_answer.setdefault((self.name, i), int(bit))
                 for i, bit in zip(np.asarray(indexes).tolist(), fresh)],
                dtype=fresh.dtype)

        monkeypatch.setattr(RegisterArray, "read_int_batch", sabotaged)
        diffs = diff_snapshots(scalar, run_batched(cfg))
        assert diffs, "a reused validity bit must not pass the gate"
        fields = {d.split(":")[0] for d in diffs}
        assert "client.cache_hits" in fields, diffs


class TestHashKernelSabotage:
    """Defects in ``hash_bytes_batch`` and in the digest columns it fills
    must be caught and named.

    The scalar reference hashes with ``hash_bytes`` and reads digests
    through ``DigestTable.get``; it enters neither the kernel nor
    ``get_batch``, and each sabotage is armed after the reference run.
    """

    #: fields a wrong digest or a wrong slot hash shows in.
    FAMILY = re.compile(r"stats\.|digests\.|controller\.|"
                        r"server\d+\.store\.probes")

    def test_skipped_length_mix_flags_the_hashed_state(self, monkeypatch):
        # The kernel forgets to mix the key length into the seed: every
        # hash it produces is a valid-looking 64-bit value, and wrong.
        cfg = tiny()
        scalar = run_scalar(cfg)
        orig = hashing._hash_same_length

        def sabotaged(keys, length, seeds):
            unmix = np.uint64(length * hashing._GAMMA & hashing._MASK64)
            return orig(keys, length, seeds ^ unmix)

        monkeypatch.setattr(hashing, "_hash_same_length", sabotaged)
        diffs = diff_snapshots(scalar, run_batched(cfg))
        assert diffs, "a kernel without the length mix must not pass"
        fields = {d.split(":")[0] for d in diffs}
        assert any(self.FAMILY.match(f) for f in fields), diffs

    def test_recycled_row_served_unfilled_flags_the_reports(
            self, monkeypatch):
        # 48 digest rows for 500 keys, on both paths, so rows recycle all
        # run long; the sabotaged table hands a recycled row out with the
        # evicted key's indexes still in it.
        cfg = tiny(warm=False, hot_threshold=3)

        def small_table(cluster, client):
            stats = cluster.switch.dataplane.stats
            stats.digests = digest_table_for(
                stats.sketch, stats.bloom, stats.sampler, capacity=48)

        scalar = run_faulted(cfg, small_table, batched=False)
        assert scalar["stats.reports"] > 0
        orig = DigestTable.get_batch

        def sabotaged(self, keys):
            cm, bloom = self.cm[:48].copy(), self.bloom[:48].copy()
            recycles = len(self) == 48
            rows = orig(self, keys)
            if recycles:
                self.cm[:48], self.bloom[:48] = cm, bloom
            return rows

        monkeypatch.setattr(DigestTable, "get_batch", sabotaged)
        bad = run_faulted(cfg, small_table, batched=True)
        diffs = diff_snapshots(scalar, bad)
        assert diffs, "a row served before its refill must not pass"
        fields = {d.split(":")[0] for d in diffs}
        assert "stats.reports" in fields, diffs


class TestMixedLaneSabotage:
    """Defects in the two mechanisms that keep mixed traffic in whole
    lanes — the hot-key report lane and the completion slice whose reads
    ``KVStore.get_batch`` charges around its writes — must be caught and
    named.  The scalar reference delivers reports as events and reads
    with ``KVStore.get``; it enters neither.
    """

    def test_report_delivered_a_step_late_flags_the_controller(self):
        # A cold cache and a low threshold keep reports flowing into the
        # first update round (10 ms); the run ends right after it.  The
        # sabotaged lane hands every report over one retry step late, so
        # the ones that cross the round miss their insertion.
        cfg = tiny(warm=False, hot_threshold=3, retries=True,
                   duration=0.0102)

        def arm(engine):
            late = engine._tmin

            class LateLane(fastpath._Lane):
                def push(self, reports):
                    reports.t = reports.t + late
                    super().push(reports)

            engine._reports = LateLane()

        scalar = run_scalar(cfg)
        assert scalar["controller.rounds"] == 1
        bad = run_faulted(cfg, lambda cluster, client: None, batched=True,
                          arm=arm)
        diffs = diff_snapshots(scalar, bad)
        assert diffs, "a report crossing an update round must not pass"
        fields = {d.split(":")[0] for d in diffs}
        assert "controller.insertions" in fields, diffs

    def test_materialized_row_without_its_entry_flags_received(self):
        # No retry policy, so a dropped row needs no ``_Outstanding`` —
        # but a materialized one does: its reply arrives as a real packet
        # and is counted only if it finds its entry.  A light loss burst
        # on a server link opens a fallback with a row or two in the
        # lanes (a burst on the client link would lose the reply either
        # way and hide the defect).
        cfg = tiny(seed=5)

        def burst(cluster, client):
            link = cluster.link_to(cluster.plan.server_ids[0])
            cluster.sim.events.schedule_at(
                0.02, link.start_loss_burst, 0.05, 0.03)

        armed = []

        def arm(engine):
            hook = engine._scalarize_rows
            engine._scalarize_rows = \
                lambda chunk, always=False: hook(chunk)
            armed.append(engine)

        scalar = run_faulted(cfg, burst, batched=False)
        healthy = run_faulted(cfg, burst, batched=True)
        assert healthy["fastpath.fallbacks"] == {"link_fault": 1}
        assert diff_snapshots(scalar, healthy) == []
        bad = run_faulted(cfg, burst, batched=True, arm=arm)
        assert armed[0].materialized, "scenario must catch rows in the lanes"
        fields = {d.split(":")[0] for d in diff_snapshots(scalar, bad)}
        assert "client.received" in fields, fields

    def test_reads_charged_after_a_structural_put_flag_the_probe_totals(
            self, monkeypatch):
        # Every key leaves its store before the run, on both paths, so
        # the first write of each key re-inserts it: a structural put in
        # the middle of a completion slice, between reads that miss it
        # and reads that find it.
        cfg = tiny(write_ratio=0.3, seed=5)

        def empty_the_stores(cluster, client):
            keyspace = client.workload.keyspace
            for item in range(keyspace.num_keys):
                key = keyspace.key(item)
                owner = client.partitioner.server_for(key)
                cluster.servers[owner].store.delete(key)

        scalar = run_faulted(cfg, empty_the_stores, batched=False)
        healthy = run_faulted(cfg, empty_the_stores, batched=True)
        assert diff_snapshots(scalar, healthy) == []
        orig = KVStore.get_batch
        structural = []

        def sabotaged(self, ids, columns, write_at=(), apply=None):
            # All of the slice's writes first, then all of its reads.
            before = self._structure.sum()
            for j in range(len(write_at)):
                apply(j)
            structural.append(self._structure.sum() != before)
            orig(self, ids, columns)

        monkeypatch.setattr(KVStore, "get_batch", sabotaged)
        bad = run_faulted(cfg, empty_the_stores, batched=True)
        assert any(structural), "scenario must put absent keys in slices"
        diffs = diff_snapshots(scalar, bad)
        assert diffs, "reads charged after the put must not pass the gate"
        fields = {d.split(":")[0] for d in diffs}
        assert all(re.fullmatch(r"server\d+\.store\.probes", f)
                   for f in fields), diffs


class TestRegistrySabotage:
    """The lanes feed an observability session in bulk; the registry
    fields of the snapshot must catch a bulk feed that loses a value."""

    def test_one_dropped_latency_observation_flags_the_histogram(
            self, monkeypatch):
        # The lanes hand ``client.request`` one flush's replies through
        # ``observe_batch``, which the per-packet loop never calls; the
        # sabotaged batch loses its first latency.
        cfg = tiny()

        def no_faults(cluster, client):
            pass

        scalar = run_faulted(cfg, no_faults, batched=False, session=True)
        orig = Histogram.observe_batch
        armed = {"live": True}

        def sabotaged(self, values):
            if armed["live"] and self.name == "client.request" \
                    and len(values):
                armed["live"] = False
                values = values[1:]
            orig(self, values)

        monkeypatch.setattr(Histogram, "observe_batch", sabotaged)
        bad = run_faulted(cfg, no_faults, batched=True, session=True)
        assert not armed["live"], "the lanes must feed the histogram"
        diffs = diff_snapshots(scalar, bad)
        assert len(diffs) == 1, diffs
        assert diffs[0].split(":")[0] == "obs.client.request", diffs


class TestNoCacheSabotage:
    """A NoCache rack runs in lanes through the plain switch's batch
    methods; its snapshot has no dataplane fields to hide behind."""

    def test_uncounted_reply_forwarding_flags_the_switch(self, monkeypatch):
        def run(lanes):
            cluster, client = fig10c_rack(False, 2e5, num_servers=4,
                                          num_keys=400)
            if lanes:
                cluster.run(0.005)
                assert cluster.engine is not None
            else:
                cluster.sim.run_until(0.005)
            return counters_snapshot(cluster, client, engine=cluster.engine)

        scalar = run(lanes=False)
        monkeypatch.setattr(PlainSwitch, "process_reply_batch",
                            lambda self, count: None)
        diffs = diff_snapshots(scalar, run(lanes=True))
        assert [d.split(":")[0] for d in diffs] == ["switch.forwarded"], \
            diffs
