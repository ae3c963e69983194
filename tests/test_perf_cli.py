"""Tests for the perf harness and its CLI regression gate.

Three claims from the issue are nailed down here: (1) a seeded perf
scenario replays byte-identically modulo wall-clock fields, (2) the
``--compare`` gate passes against an honest baseline, and (3) sabotaging
the baseline's throughput or tail latency makes the CLI exit non-zero
with a readable diff — while a structurally broken snapshot is rejected
up front with exit code 2.  Every row of the scenario table is driven
once at a tiny size, and every committed ``BENCH_*.json`` is held against
its row's guards; nothing here asserts on a measured time.
"""

import copy
import dataclasses
import itertools
import json
import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.obs.export import parse_jsonl
from repro.tools import perf
from repro.tools.cli import main

#: short smoke runs keep the whole module in CI-smoke territory.
RUN = ["perf", "--scenario", "smoke", "--duration", "0.1"]

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def snapshot_file(tmp_path_factory):
    """One honest smoke snapshot, shared by the compare tests."""
    path = tmp_path_factory.mktemp("perf") / "BENCH_smoke.json"
    assert main(RUN + ["--out", str(path)]) == 0
    return path


def _load(path):
    return json.loads(path.read_text())


def _corrupt(snapshot_file, tmp_path, mutate):
    bad = copy.deepcopy(_load(snapshot_file))
    mutate(bad)
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(bad))
    return path


# -- determinism --------------------------------------------------------------------


def test_seeded_scenario_replays_identically():
    first = perf.run_scenario("smoke", seed=0, duration=0.1)
    second = perf.run_scenario("smoke", seed=0, duration=0.1)
    a = perf.strip_volatile(first)
    b = perf.strip_volatile(second)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # The wall section exists but is excluded — it is the only volatility.
    assert "wall" in first and "wall" not in a


def test_different_seed_changes_results():
    base = perf.strip_volatile(perf.run_scenario("smoke", seed=0,
                                                 duration=0.1))
    other = perf.strip_volatile(perf.run_scenario("smoke", seed=1,
                                                  duration=0.1))
    assert json.dumps(base, sort_keys=True) != \
        json.dumps(other, sort_keys=True)


# -- the CLI happy path -------------------------------------------------------------


def test_snapshot_file_is_well_formed(snapshot_file):
    snap = _load(snapshot_file)
    assert perf.validate_snapshot(snap) == []
    results = snap["results"]
    assert results["throughput_qps"] > 0
    assert 0 < results["cache_hit_ratio"] <= 1
    assert results["latency"]["client.request"]["p99"] > 0
    # Cluster.run drives the smoke rack in lanes: one span per stage
    # flush, no per-packet dataplane span.
    components = results["components"]
    assert "fastpath.switch_arrivals" in components
    assert "fastpath.client_replies" in components
    assert "dataplane.process" not in components


def test_self_compare_passes(snapshot_file, capsys):
    assert main(RUN + ["--compare", str(snapshot_file)]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_metrics_out_is_parseable_jsonl(tmp_path):
    path = tmp_path / "metrics.jsonl"
    assert main(RUN + ["--metrics-out", str(path)]) == 0
    records = parse_jsonl(path.read_text())
    assert "client.request" in records
    assert any(name.startswith("span.") for name in records)


def test_list_scenarios(capsys):
    assert main(["perf", "--list"]) == 0
    out = capsys.readouterr().out
    for name in perf.SCENARIOS:
        assert name in out


# -- every row of the table, at a tiny size ------------------------------------------


@pytest.fixture
def scripted_clock(monkeypatch):
    """Host time is not under test.  Every reading of the harness's clock
    is 10x the last, so the second (scalar) leg of a race always reads 10x
    the first and the floor rows are decided by arithmetic, not by how
    fast this host happens to be."""
    ticks = (10.0 ** k for k in itertools.count())
    monkeypatch.setattr(perf, "perf_counter", lambda: next(ticks))


@pytest.mark.parametrize("name", sorted(perf.SCENARIOS))
def test_every_row_snapshots_replays_and_self_compares(
        name, tmp_path, capsys, scripted_clock):
    row = perf.SCENARIOS[name]
    run = ["perf", "--scenario", name, "--duration", "0.01"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    metrics = tmp_path / "metrics"
    if row.write_metrics is not None:
        run += ["--metrics-out", str(metrics)]
    assert main(run + ["--out", str(first)]) == 0
    snap = _load(first)
    assert perf.validate_snapshot(snap) == []
    assert snap["scenario"] == name and "wall" not in snap
    # The file is everything that must replay: a second run at the same
    # seed writes the same bytes, and gates clean against the first.
    capsys.readouterr()
    assert main(run + ["--out", str(second),
                       "--compare", str(first)]) == 0
    assert second.read_bytes() == first.read_bytes()
    relative = any(rule in ("higher", "lower") for _path, rule in row.guards)
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict.startswith("no regressions")
    assert ("threshold 10.0%" if relative else "(exact)") in verdict
    if name == "tournament":  # the grid has one size: the committed CSV
        assert metrics.read_text() == (REPO / "BENCH_geometry.csv").read_text()
    elif row.write_metrics is not None:
        assert "client.request" in parse_jsonl(metrics.read_text())


# -- the committed baselines ---------------------------------------------------------


def test_committed_baselines_validate_against_their_rows():
    """Old baselines stay valid without re-running anything: each names a
    row of the table, has that row's guarded metrics, and carries no host
    time.  Their ``config`` sections predate the table (the rack ones
    predate every later row) and are not read."""
    gated = {}
    for path in sorted(REPO.glob("BENCH_*.json")):
        snap = _load(path)
        assert perf.validate_snapshot(snap) == [], path.name
        assert "wall" not in snap, path.name
        gated[snap["scenario"]] = perf.SCENARIOS[snap["scenario"]].guards
    assert sorted(gated) == ["geometry10m", "hotpath", "lossy10", "simcore",
                             "simcore_mixed", "tournament", "zipf99"]
    assert gated["zipf99"] is gated["lossy10"] is perf.RACK_GUARDS


def test_speedup_floor_names_the_slow_layout():
    """The >=3x rows of geometry10m read the fresh run only."""
    base = _load(REPO / "BENCH_geometry10m.json")
    fresh = copy.deepcopy(base)
    fresh["wall"] = {"cells": {"setassoc": {"speedup_vs_scalar": 3.0},
                               "orbit": {"speedup_vs_scalar": 2.9}}}
    diffs = perf.compare_snapshots(base, fresh)
    assert len(diffs) == 1
    assert "wall.cells.orbit.speedup_vs_scalar" in diffs[0]
    assert "2.90 is below the 3 floor" in diffs[0]
    fresh["wall"]["cells"]["orbit"]["speedup_vs_scalar"] = 3.0
    assert perf.compare_snapshots(base, fresh) == []
    del fresh["wall"]["cells"]["setassoc"]
    assert perf.compare_snapshots(base, fresh) == [
        "metric wall.cells.setassoc.speedup_vs_scalar missing from this run"]


# -- sabotage: the gate must catch doctored baselines -------------------------------


def test_corrupted_throughput_fails_compare(snapshot_file, tmp_path, capsys):
    def triple_throughput(s):
        s["results"]["throughput_qps"] *= 3

    bad = _corrupt(snapshot_file, tmp_path, triple_throughput)
    assert main(RUN + ["--compare", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "results.throughput_qps" in out
    assert "worse than" in out


def test_corrupted_p99_fails_compare(snapshot_file, tmp_path, capsys):
    def shrink_p99(s):
        s["results"]["latency"]["client.request"]["p99"] /= 10

    bad = _corrupt(snapshot_file, tmp_path, shrink_p99)
    assert main(RUN + ["--compare", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "results.latency.client.request.p99" in out


def test_loose_threshold_tolerates_small_drift(snapshot_file, tmp_path):
    def nudge(s):
        s["results"]["throughput_qps"] *= 1.05  # 5% above this run

    bad = _corrupt(snapshot_file, tmp_path, nudge)
    assert main(RUN + ["--compare", str(bad), "--threshold", "0.2"]) == 0


# -- malformed input: exit 2, not 1 -------------------------------------------------


def test_malformed_snapshot_rejected(snapshot_file, tmp_path, capsys):
    def drop_results(s):
        del s["results"]

    bad = _corrupt(snapshot_file, tmp_path, drop_results)
    assert main(RUN + ["--compare", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed snapshot" in err
    assert "results" in err


def test_unparseable_snapshot_rejected(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert main(RUN + ["--compare", str(bad)]) == 2
    assert "cannot read snapshot" in capsys.readouterr().err


def test_missing_snapshot_rejected(tmp_path, capsys):
    assert main(RUN + ["--compare", str(tmp_path / "nope.json")]) == 2
    assert "cannot read snapshot" in capsys.readouterr().err


def test_snapshot_of_another_scenario_rejected_before_the_run(
        snapshot_file, monkeypatch, capsys):
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("ran the scenario before checking the baseline")

    monkeypatch.setattr(perf, "run_scenario", must_not_run)
    assert main(["perf", "--scenario", "hotpath",
                 "--compare", str(snapshot_file)]) == 2
    err = capsys.readouterr().err
    assert "'smoke'" in err and "'hotpath'" in err


def test_unsupported_metrics_out_rejected_naming_the_rows(tmp_path, capsys):
    path = tmp_path / "metrics"
    assert main(["perf", "--scenario", "hotpath", "--duration", "0.05",
                 "--metrics-out", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'hotpath' has no --metrics-out file" in err
    assert perf.metrics_rows() in err and "tournament" in err
    assert not path.exists()


def test_negative_threshold_rejected_before_the_run(capsys):
    assert main(RUN + ["--threshold", "-0.1"]) == 2
    assert "--threshold must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("scenario,duration", [("zipf99", "0"),
                                               ("simcore", "-0.01")])
def test_non_positive_duration_rejected_before_the_run(
        scenario, duration, monkeypatch, capsys):
    # Unchecked, zipf99 divided by the zero duration and simcore reported
    # negative packets and exited 0.
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("ran the scenario with a non-positive duration")

    monkeypatch.setattr(perf, "run_scenario", must_not_run)
    assert main(["perf", "--scenario", scenario,
                 "--duration", duration]) == 2
    assert "--duration must be positive" in capsys.readouterr().err


def test_crash_inside_a_runner_is_not_swallowed(monkeypatch):
    def crash(_seed, _duration):
        raise RuntimeError("bug in the runner")

    monkeypatch.setitem(
        perf.SCENARIOS, "smoke",
        dataclasses.replace(perf.SCENARIOS["smoke"], run=crash))
    with pytest.raises(RuntimeError, match="bug in the runner"):
        main(RUN)


# -- library-level units ------------------------------------------------------------


def test_unknown_scenario_raises():
    with pytest.raises(ConfigurationError):
        perf.run_scenario("nope")


def test_compare_rejects_scenario_mismatch(snapshot_file):
    snap = _load(snapshot_file)
    other = copy.deepcopy(snap)
    other["scenario"] = "zipf99"
    diffs = perf.compare_snapshots(other, snap)
    assert diffs and "scenario mismatch" in diffs[0]


def test_compare_threshold_is_exact_boundary(snapshot_file):
    snap = _load(snapshot_file)
    worse = copy.deepcopy(snap)
    # Exactly at the threshold passes; just past it fails.
    worse["results"]["throughput_qps"] = \
        snap["results"]["throughput_qps"] * (1 - perf.DEFAULT_THRESHOLD)
    assert perf.compare_snapshots(snap, worse) == []
    worse["results"]["throughput_qps"] *= 0.98
    assert perf.compare_snapshots(snap, worse) != []


def test_validate_snapshot_reports_each_problem():
    problems = perf.validate_snapshot({"schema": 99})
    assert any("schema" in p for p in problems)
    assert any("results" in p for p in problems)
    assert perf.validate_snapshot([1, 2]) == ["snapshot is not a JSON object"]
