"""Unit tests for the batch statistics APIs and the hotpath perf scenario.

The Hypothesis suites (``test_prop_hotpath.py``, ``test_prop_digest.py``)
carry the equivalence burden; this module pins the direct contracts: what
the batch entry points return, how the microbench snapshot is shaped and
gated, and that the scenario replays deterministically.
"""

import copy
import json

import numpy as np
import pytest

from repro.core.stats import QueryStatistics
from repro.errors import ConfigurationError
from repro.tools import perf
from repro.tools.cli import main

#: small hotpath run: scales the 120K-packet budget down to 6K.
RUN = ["perf", "--scenario", "hotpath", "--duration", "0.05"]


# -- batch API units ---------------------------------------------------------------


def make_stats(**kw):
    kw.setdefault("entries", 32)
    kw.setdefault("hot_threshold", 3)
    kw.setdefault("seed", 1)
    return QueryStatistics(**kw)


def test_sample_batch_full_rate_is_all_true_mask():
    stats = make_stats(sample_rate=1.0)
    mask = stats.sample_batch([b"a", b"b", b"c"])
    assert mask.dtype == bool and mask.all() and len(mask) == 3
    assert stats.sampler.observed == 3 and stats.sampler.sampled == 3


def test_sample_batch_zero_rate_is_all_false_mask():
    stats = make_stats(sample_rate=0.0)
    mask = stats.sample_batch([b"a", b"b"])
    assert not mask.any()
    assert stats.sampler.sampled == 0


def test_cache_count_batch_applies_only_sampled_hits():
    stats = make_stats(sample_rate=1.0)
    decisions = np.array([True, False, True, True])
    stats.cache_count_batch([4, 4, 4, 9], decisions)
    assert stats.read_counter(4) == 2
    assert stats.read_counter(9) == 1
    assert stats.read_counter(0) == 0


def test_heavy_hitter_count_batch_reports_each_hot_key_once():
    stats = make_stats(sample_rate=1.0, hot_threshold=3)
    hot = stats.heavy_hitter_count_batch([b"k"] * 5 + [b"cold"])
    assert hot == [b"k"]  # crosses at the 3rd occurrence, reported once
    assert stats.reports == 1
    # Next interval: the Bloom dedup clears with the reset.
    stats.reset()
    assert stats.heavy_hitter_count_batch([b"k"] * 3) == [b"k"]


def test_heavy_hitter_count_batch_empty_input():
    stats = make_stats()
    assert stats.heavy_hitter_count_batch([]) == []


def test_reset_does_not_scale_with_width():
    """The O(1)-reset contract, measured: clearing full-geometry statistics
    (64K-slot sketch rows, 256K-bit Blooms) must not be slower than
    clearing a handful of scalar updates' worth of state."""
    import time

    stats = QueryStatistics(seed=0)  # full paper geometry
    for i in range(200):
        stats.heavy_hitter_count(b"key-%d" % i)
    start = time.perf_counter()
    for _ in range(100):
        stats.reset()
    per_reset = (time.perf_counter() - start) / 100
    # Generous bound: an O(width) reset costs milliseconds in Python;
    # the epoch bump costs microseconds.
    assert per_reset < 1e-3, f"reset took {per_reset * 1e6:.0f}us"


# -- the hotpath perf scenario -----------------------------------------------------


@pytest.fixture(scope="module")
def snapshot_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("hotpath") / "BENCH_hotpath.json"
    assert main(RUN + ["--out", str(path)]) == 0
    return path


def _load(path):
    return json.loads(path.read_text())


def test_hotpath_snapshot_is_well_formed(snapshot_file):
    snap = _load(snapshot_file)
    assert perf.validate_snapshot(snap) == []
    assert snap["config"] == perf.HOTPATH
    r = snap["results"]
    assert r["packets"] == 6000
    assert r["cache_hits"] + r["cache_misses"] == r["packets"]
    assert r["reference_matches"] is True
    assert r["digest"]["size"] > 0
    # The measured speedup is host time: the report prints it, the file
    # does not hold it.
    assert "wall" not in snap


def test_hotpath_replays_identically():
    a = perf.strip_volatile(perf.run_scenario("hotpath", seed=0,
                                              duration=0.05))
    b = perf.strip_volatile(perf.run_scenario("hotpath", seed=0,
                                              duration=0.05))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_hotpath_self_compare_passes(snapshot_file, capsys):
    assert main(RUN + ["--compare", str(snapshot_file)]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_hotpath_gate_is_exact(snapshot_file, tmp_path, capsys):
    """Microbench metrics are gated on equality: a one-count drift fails
    even far inside the relative threshold."""
    bad = copy.deepcopy(_load(snapshot_file))
    bad["results"]["hot_reports"] += 1
    path = tmp_path / "drifted.json"
    path.write_text(json.dumps(bad))
    assert main(RUN + ["--compare", str(path)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "results.hot_reports" in out
    assert "must replay identically" in out


def test_hotpath_gate_catches_reference_divergence(snapshot_file, tmp_path,
                                                   capsys):
    bad = copy.deepcopy(_load(snapshot_file))
    bad["results"]["reference_matches"] = False
    path = tmp_path / "diverged.json"
    path.write_text(json.dumps(bad))
    assert main(RUN + ["--compare", str(path)]) == 1
    assert "reference_matches" in capsys.readouterr().out


def test_hotpath_rejects_metrics_out():
    with pytest.raises(ConfigurationError):
        perf.run_scenario("hotpath", duration=0.05, metrics_out="x.jsonl")
