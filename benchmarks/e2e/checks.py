"""Correctness checks of the benchmark (all untimed).

None of them pins a literal: each compares the program with itself (two
engines, two repetitions) or with a shape the paper claims, so a later
change that deliberately moves the model is not blocked by this file.
Every function returns the list of problems it found; empty means pass.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.sim.simcore import diff_snapshots, run_batched, run_scalar


def dual_path_prefix(config, queries: int,
                     alter: Optional[str] = None) -> List[str]:
    """The first *queries* queries of *config* under the per-packet loop
    and under the lanes engine; every gated counter must be equal.

    *alter* names one counter to bump in the scalar snapshot first: the
    harness's self-test uses it to show that a divergence is reported and
    fails the run.
    """
    duration = min(config.duration, queries / sum(config.rates))
    prefix = dataclasses.replace(config, duration=duration)
    scalar, batched = run_scalar(prefix), run_batched(prefix)
    if alter is not None:
        scalar[alter] += 1
    return [f"scalar != lanes: {line}"
            for line in diff_snapshots(scalar, batched)]


def repetitions_differ(observations) -> List[str]:
    """Simulated results are a pure function of workload and seed, so
    every repetition must report exactly the same ones."""
    first = observations[0]
    problems = []
    for i, other in enumerate(observations[1:], start=2):
        mine = {**other.sim, **other.counts}
        for name, value in {**first.sim, **first.counts}.items():
            if mine[name] != value:
                problems.append(f"repetition {i}: {name} "
                                f"{mine[name]!r} != {value!r}")
        if other.fingerprint != first.fingerprint:
            problems.append(f"repetition {i}: delivery trace or event log "
                            f"differs from repetition 1")
    return problems


def chaos_clean(report) -> List[str]:
    problems = [f"invariant violated: {v}" for v in report.violations]
    if report.recovery_time is None:
        problems.append("rack did not settle within the drain window")
    return problems


# -- the paper's shape claims, as named predicates ---------------------------------


def fig10a_improvement_grows_with_skew(figures, fig11) -> bool:
    rows = {r.workload: r for r in figures["fig10a"]}
    gains = [rows[name].improvement
             for name in ("uniform", "zipf-0.9", "zipf-0.95", "zipf-0.99")]
    return all(a < b for a, b in zip(gains, gains[1:]))


def fig10a_netcache_never_below_nocache(figures, fig11) -> bool:
    return all(r.netcache_bqps >= r.nocache_bqps * (1 - 1e-9)
               for r in figures["fig10a"])


def fig10e_1000_items_reach_plateau(figures, fig11) -> bool:
    for skew in (0.9, 0.99):
        series = {r.cache_items: r.throughput_bqps
                  for r in figures["fig10e"] if r.skew == skew}
        if series[1_000] <= 0.85 * max(series.values()):
            return False
    return True


def fig11_hot_in_dips_and_recovers(figures, fig11) -> bool:
    """At each churn the rate dips below 80% of the second before it and
    is back above 70% between 2 s and 6 s later (the thresholds of
    ``benchmarks/bench_fig11a_hot_in.py``)."""
    rates = np.asarray(fig11.throughput)
    step = fig11.times[1] - fig11.times[0]
    churns = [int(round(t / step)) for t in fig11.churn_times]
    churns = [i for i in churns if i + 20 < len(rates)]
    if not churns:
        return False
    for i in churns:
        before = rates[i - 10:i].mean()
        if not rates[i:i + 5].min() < 0.8 * before:
            return False
        if not rates[i + 20:i + 60].max() > 0.7 * before:
            return False
    return True


PREDICATES = (
    fig10a_improvement_grows_with_skew,
    fig10a_netcache_never_below_nocache,
    fig10e_1000_items_reach_plateau,
    fig11_hot_in_dips_and_recovers,
)


def failed_predicates(figures: Dict[str, list], fig11) -> List[str]:
    return [p.__name__ for p in PREDICATES if not p(figures, fig11)]
