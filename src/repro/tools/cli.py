"""Command-line interface: regenerate experiments and inspect the system.

Installed as ``netcache-repro`` (see pyproject), or run as
``python -m repro.tools.cli``::

    netcache-repro figure 10a          # print one figure's table
    netcache-repro figure all          # every static figure
    netcache-repro dynamics hot-in     # a Fig 11 trace
    netcache-repro resources           # the §6 SRAM report
    netcache-repro validate            # DES vs model cross-check
    netcache-repro demo                # tiny end-to-end walkthrough
    netcache-repro chaos --seed 7      # reproducible fault-injection run
    netcache-repro perf --scenario zipf99 --out BENCH_zipf99.json
    netcache-repro perf --scenario zipf99 --compare BENCH_zipf99.json
    netcache-repro perf --scenario hotpath --compare BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.sim import experiments as exp


def _print(title: str, body: str) -> None:
    print(f"\n{title}\n{'=' * len(title)}\n{body}")


# -- figure runners -------------------------------------------------------------

def _fig09a():
    rows = exp.fig09a_value_size()
    return exp.format_table(
        ["value_bytes", "read_BQPS", "passes"],
        [[r.x, r.read_bqps, r.pipeline_passes] for r in rows])


def _fig09b():
    rows = exp.fig09b_cache_size()
    return exp.format_table(
        ["cache_items", "read_BQPS"], [[r.x, r.read_bqps] for r in rows])


def _fig10a():
    rows = exp.fig10a_throughput()
    return exp.format_table(
        ["workload", "NoCache_BQPS", "NetCache_BQPS", "improvement"],
        [[r.workload, r.nocache_bqps, r.netcache_bqps, r.improvement]
         for r in rows])


def _fig10b():
    rows = exp.fig10b_breakdown()
    return exp.format_table(
        ["workload", "system", "max/mean"],
        [[r.workload, "NetCache" if r.cached else "NoCache", r.imbalance]
         for r in rows])


def _fig10d():
    rows = exp.fig10d_write_ratio()
    return exp.format_table(
        ["write_dist", "write_ratio", "NoCache_BQPS", "NetCache_BQPS"],
        [[r.write_dist, r.write_ratio, r.nocache_bqps, r.netcache_bqps]
         for r in rows])


def _fig10e():
    rows = exp.fig10e_cache_size()
    return exp.format_table(
        ["zipf", "cache_items", "total_BQPS"],
        [[r.skew, r.cache_items, r.throughput_bqps] for r in rows])


def _fig10f():
    points = exp.fig10f_scalability()
    return exp.format_table(
        ["design", "racks", "BQPS"],
        [[p.design, p.num_racks, p.throughput / 1e9] for p in points])


FIGURES = {
    "9a": ("Fig 9(a) throughput vs value size", _fig09a),
    "9b": ("Fig 9(b) throughput vs cache size", _fig09b),
    "10a": ("Fig 10(a) throughput under skew", _fig10a),
    "10b": ("Fig 10(b) per-server imbalance", _fig10b),
    "10d": ("Fig 10(d) write ratio", _fig10d),
    "10e": ("Fig 10(e) cache size", _fig10e),
    "10f": ("Fig 10(f) multi-rack scaling", _fig10f),
}


# -- subcommands ------------------------------------------------------------------

def cmd_figure(args) -> int:
    which = list(FIGURES) if args.id == "all" else [args.id]
    unknown = [f for f in which if f not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"choose from {', '.join(FIGURES)} or 'all'", file=sys.stderr)
        return 2
    for fig in which:
        title, runner = FIGURES[fig]
        _print(title, runner())
    return 0


def cmd_dynamics(args) -> int:
    result = exp.fig11_dynamics(args.kind, duration=args.duration)
    per_second = result.rebinned(1.0)
    body = exp.format_table(
        ["second", "tput_MQPS"],
        [[i, v / 1e6] for i, v in enumerate(per_second)])
    _print(f"Fig 11 dynamics: {args.kind}", body)
    summary = exp.dynamics_summary(result)
    print(f"steady {summary['steady'] / 1e6:.2f} MQPS, "
          f"worst dip {summary['worst_dip']:.0%} of steady")
    return 0


def cmd_resources(_args) -> int:
    from repro.core.resources import paper_prototype_report

    _print("Switch SRAM footprint (§6 geometry)",
           paper_prototype_report().render())
    return 0


def cmd_validate(_args) -> int:
    from repro.analysis.validation import drive_at

    ok = True
    for cache in (True, False):
        name = "NetCache" if cache else "NoCache"
        at = drive_at(1.0, enable_cache=cache)
        above = drive_at(1.6, enable_cache=cache)
        feasible = at.delivery_ratio > 0.95
        tight = above.delivery_ratio < 0.95
        ok &= feasible and tight
        print(f"{name}: model predicts {at.model_throughput:,.0f} qps; "
              f"DES delivers {at.delivery_ratio:.1%} of it at 1.0x "
              f"({'ok' if feasible else 'MISMATCH'}), "
              f"{above.delivery_ratio:.1%} at 1.6x "
              f"({'ok' if tight else 'MISMATCH'})")
    print("cross-validation", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


def cmd_demo(_args) -> int:
    from repro.sim.cluster import default_workload, make_cluster

    cluster = make_cluster(num_servers=4, cache_items=16,
                           lookup_entries=256, value_slots=256)
    workload = default_workload(num_keys=200, skew=0.99)
    cluster.load_workload_data(workload)
    cluster.warm_cache(workload, 16)
    client = cluster.sync_client()
    hot = workload.hottest_keys(1)[0]
    print(f"GET {hot!r} -> {client.get(hot)[:12]!r}... (switch cache)")
    client.put(hot, b"written-via-cli")
    print(f"PUT then GET -> {client.get(hot)!r}")
    dp = cluster.switch.dataplane
    print(f"switch: {dp.cache_hits} hits / {dp.cache_misses} misses, "
          f"{dp.invalidations} invalidations")
    return 0


def cmd_chaos(args) -> int:
    """Run a scripted fault scenario ``args.runs`` times and verify that
    the event logs replay byte-identically and no invariant broke."""
    from repro.faults import run_chaos

    if args.runs < 1:
        print("error: --runs must be at least 1", file=sys.stderr)
        return 2
    # Only pass flags the user actually set, so per-scenario defaults
    # (SCENARIO_OVERRIDES: client retries, write mix, retry budgets) apply.
    overrides = {k: v for k, v in (
        ("duration", args.duration), ("num_servers", args.servers),
        ("write_ratio", args.write_ratio), ("rate", args.rate),
    ) if v is not None}
    reports = [
        run_chaos(scenario=args.scenario, seed=args.seed, **overrides)
        for _ in range(args.runs)
    ]
    report = reports[0]
    _print(f"chaos: {args.scenario}", report.render())
    ok = report.clean and report.recovery_time is not None
    if args.runs > 1:
        identical = all(r.event_log_text() == report.event_log_text()
                        for r in reports[1:])
        print(f"event logs identical across {args.runs} runs: "
              f"{'yes' if identical else 'NO'}")
        ok &= identical
    return 0 if ok else 1


def cmd_perf(args) -> int:
    """Run a named perf scenario; optionally snapshot and/or gate against a
    prior snapshot (see repro.tools.perf)."""
    import json

    from repro.errors import ConfigurationError
    from repro.tools import perf

    if args.list:
        width = max(len(n) for n in perf.SCENARIOS)
        for name in sorted(perf.SCENARIOS):
            print(f"{name:<{width}}  {perf.SCENARIOS[name].description}")
        return 0

    if args.threshold < 0:
        print("error: --threshold must be non-negative", file=sys.stderr)
        return 2
    if args.duration is not None and args.duration <= 0:
        print("error: --duration must be positive", file=sys.stderr)
        return 2
    baseline = None
    if args.compare:
        try:
            with open(args.compare) as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read snapshot {args.compare}: {exc}",
                  file=sys.stderr)
            return 2
        problems = perf.validate_snapshot(baseline)
        if problems:
            print(f"error: malformed snapshot {args.compare}:",
                  file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            return 2
        if baseline["scenario"] != args.scenario:
            print(f"error: snapshot {args.compare} records scenario "
                  f"{baseline['scenario']!r}, not {args.scenario!r}",
                  file=sys.stderr)
            return 2

    try:
        snapshot = perf.run_scenario(args.scenario, seed=args.seed,
                                     duration=args.duration,
                                     metrics_out=args.metrics_out)
    except ConfigurationError as exc:  # rejected input; a crash tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print(f"perf: {args.scenario}", perf.render_snapshot(snapshot))

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(perf.snapshot_to_json(snapshot))
        print(f"wrote {args.out}")
    if args.metrics_out:
        print(f"wrote {args.metrics_out}")

    if baseline is not None:
        diffs = perf.compare_snapshots(baseline, snapshot,
                                       threshold=args.threshold)
        print(perf.render_comparison(args.scenario, args.compare, diffs,
                                     args.threshold))
        if diffs:
            return 1
    return 0


def cmd_report(args) -> int:
    from repro.tools.reportgen import generate

    text = generate(full=args.full)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(text)} bytes)")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcache-repro",
        description="NetCache (SOSP 2017) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("id", help=f"one of {', '.join(FIGURES)} or 'all'")
    p_fig.set_defaults(func=cmd_figure)

    p_dyn = sub.add_parser("dynamics", help="run a Fig 11 churn scenario")
    p_dyn.add_argument("kind", choices=["hot-in", "random", "hot-out"])
    p_dyn.add_argument("--duration", type=float, default=30.0)
    p_dyn.set_defaults(func=cmd_dynamics)

    p_res = sub.add_parser("resources", help="print the §6 SRAM report")
    p_res.set_defaults(func=cmd_resources)

    p_val = sub.add_parser("validate",
                           help="cross-check DES against the rate model")
    p_val.set_defaults(func=cmd_validate)

    p_demo = sub.add_parser("demo", help="tiny end-to-end walkthrough")
    p_demo.set_defaults(func=cmd_demo)

    p_chaos = sub.add_parser(
        "chaos", help="run a reproducible fault-injection scenario")
    from repro.faults.runner import SCENARIOS

    p_chaos.add_argument("--scenario", choices=SCENARIOS, default="combo",
                         help="scripted fault schedule (default: combo = "
                              "switch reboot + partition + loss burst)")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--duration", type=float, default=None,
                         help="seconds of faulted traffic (default: 0.4)")
    p_chaos.add_argument("--servers", type=int, default=None,
                         help="storage servers in the rack (default: 4)")
    p_chaos.add_argument("--write-ratio", type=float, default=None,
                         help="write fraction (default: per scenario)")
    p_chaos.add_argument("--rate", type=float, default=None,
                         help="open-loop client rate (queries/s, "
                              "default: 20000)")
    p_chaos.add_argument("--runs", type=int, default=2,
                         help="replays to compare for determinism")
    p_chaos.set_defaults(func=cmd_chaos)

    p_perf = sub.add_parser(
        "perf", help="run a perf scenario; snapshot and regression-gate")
    from repro.tools.perf import (
        DEFAULT_THRESHOLD,
        SCENARIOS as PERF_SCENARIOS,
        metrics_rows,
    )

    p_perf.add_argument("--scenario", choices=sorted(PERF_SCENARIOS),
                        default="zipf99",
                        help="named workload (default: zipf99; see --list)")
    p_perf.add_argument("--seed", type=int, default=0)
    p_perf.add_argument("--duration", type=float, default=None,
                        help="override the scenario's run length (seconds)")
    p_perf.add_argument("--out", default=None,
                        help="write the snapshot JSON (BENCH_<scenario>.json)")
    p_perf.add_argument("--metrics-out", default=None,
                        help="also write the scenario's own metrics file: "
                             "the obs registry as JSONL for a rack run, the "
                             f"grid as CSV for the tournament ({metrics_rows()} "
                             "have one)")
    p_perf.add_argument("--compare", default=None, metavar="SNAPSHOT",
                        help="fail (exit 1) on regression vs a prior snapshot")
    p_perf.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="allowed relative change for --compare "
                             "(default: %(default)s)")
    p_perf.add_argument("--list", action="store_true",
                        help="list scenarios and exit")
    p_perf.set_defaults(func=cmd_perf)

    p_rep = sub.add_parser("report",
                           help="generate a markdown results report")
    p_rep.add_argument("--output", "-o", default=None,
                       help="write to a file instead of stdout")
    p_rep.add_argument("--full", action="store_true",
                       help="include the slow packet-level experiments")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
