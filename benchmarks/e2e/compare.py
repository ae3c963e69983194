#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.jsonl B.jsonl``.

A set is a file written by ``run.py --out``: one JSON record per workload
run, as many runs per workload as were made (ten or more for a paired
comparison, alternating which side runs first).  A is the base, B the
change.  One row is printed for every pairing of end-to-end metric and
workload, with each side's median and quartiles, the ratio B/A with its
base, and a verdict against the bound BENCHMARK.json fixes:

  worse       B's median is worse than A's by more than the bound
  unresolved  the distance between the quartiles of either side, as a
              share of its median, is wider than the bound
  better      B's median is better by more than A's own quartile distance,
              and B wins at least nine tenths of the pairs (run i of A
              against run i of B, ties counting for neither)
  same        none of the above

Simulated metrics are a pure function of workload and seed, so for them a
last column says whether the runs with the same seed agree bit for bit;
where both sets hold traced runs, one more line per workload says the same
of the simulated per-layer metrics (latency percentiles, paper_rel_err,
every counter).  The exit code is 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from run import is_host_metric, summary

ROOT = Path(__file__).resolve().parents[2]


def load(path, trace: int = 0):
    """``(workload, metric) -> [(seed, value), ...]`` in file order, from
    the full-size runs of a set made with ``--trace`` *trace*."""
    values = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"] != trace or record["quick"]:
            continue
        for name, metric in record["metrics"].items():
            values[record["workload"], name].append(
                (record["seed"], metric["value"]))
    return values


def differs_at_equal_seeds(a, b):
    """Whether any run of B differs from the run of A with its seed; None
    when the sets share no seed."""
    by_seed = dict(a)
    shared = [(by_seed[seed], value) for seed, value in b if seed in by_seed]
    return any(x != y for x, y in shared) if shared else None


def verdict(a, b, better: str, bound: float) -> str:
    med_a, q1_a, q3_a = summary(a)
    med_b, q1_b, q3_b = summary(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / med_a
    spread_a = (q3_a - q1_a) / med_a
    spread_b = (q3_b - q1_b) / med_b
    if worsening > bound:
        return "worse"
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    if (-worsening > spread_a and wins
            and wins >= 0.9 * (wins + losses)):
        return "better"
    return "same"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    set_a, set_b = load(argv[1]), load(argv[2])
    print(f"A = {argv[1]}   B = {argv[2]}")
    print(f"{'workload':<17}{'metric':<20}{'unit':<9}{'A median':>14} "
          f"{'A quartiles':>25}{'B median':>14} {'B quartiles':>25}"
          f"{'B/A':>8}  {'runs':>5}  {'bound':>5}  verdict")
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = set_a[workload, name], set_b[workload, name]
            if not a or not b:
                print(f"{workload:<17}{name:<20}missing from "
                      f"{'A' if not a else 'B'}")
                continue
            va, vb = [v for _, v in a], [v for _, v in b]
            med_a, q1_a, q3_a = summary(va)
            med_b, q1_b, q3_b = summary(vb)
            result = verdict(va, vb, metric["better"], metric["bound"])
            worse += result == "worse"
            line = (f"{workload:<17}{name:<20}{metric['unit']:<9}"
                    f"{med_a:>14.6g} {f'{q1_a:.6g} .. {q3_a:.6g}':>25}"
                    f"{med_b:>14.6g} {f'{q1_b:.6g} .. {q3_b:.6g}':>25}"
                    f"{med_b / med_a:>8.4f}  {len(va):>2}/{len(vb):<2}  "
                    f"{metric['bound']:>5}  {result}")
            differs = None if is_host_metric(name) \
                else differs_at_equal_seeds(a, b)
            if differs is not None:
                line += ("  DIFFERS at equal seeds" if differs
                         else "  bit-identical at equal seeds")
            print(line)
    layers_a, layers_b = load(argv[1], trace=1), load(argv[2], trace=1)
    for workload in (w["name"] for w in spec["workloads"]):
        differing = compared = 0
        for (owner, name), b in layers_b.items():
            if owner != workload or is_host_metric(name):
                continue
            differs = differs_at_equal_seeds(layers_a[owner, name], b)
            compared += differs is not None
            if differs:
                differing += 1
                print(f"{workload:<17}{name} DIFFERS at equal seeds")
        if compared:
            print(f"{workload:<17}{compared} simulated per-layer metrics "
                  f"compared at equal seeds, {differing} differ")
    print(f"{worse} worse" if worse else "no row is worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
