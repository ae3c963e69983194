#!/usr/bin/env python3
"""The repository benchmark: seven workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--out FILE]

With ``--workload`` one workload is measured in this process and the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it every workload runs in a
fresh child process of its own, one at a time.  The exit code is non-zero
if a correctness check fails.

Two kinds of number are printed and each line says which: *host* numbers
are what the simulator costs to run on this machine, *simulated* numbers
are what the modelled rack did, a pure function of workload and seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1"}

#: share of full size that ``--quick`` runs.
QUICK_SCALE = 1 / 20

def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def is_host_metric(name: str) -> bool:
    """Host time, memory and call counts of the simulator itself, as
    opposed to simulated results."""
    return (name.endswith(("_s", ".calls"))
            or name in ("peak_rss_mb", "queries_per_host_s",
                        "net.host_us_per_delivery", "trace.overhead_share"))


def summary(values):
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q1, q3


# -- measuring one workload in this process ------------------------------------


def repetition(case, seed: int, scale: float, ledger=None):
    """Fresh state, one measured region, then the untimed read-out."""
    from workloads import RUN_SPANS, SETUP_SPANS

    gc.collect()
    clock = time.perf_counter
    if ledger is None:
        t0 = clock()
        state = case.setup(seed, scale)
        t1 = clock()
        case.run(state)
        t2 = clock()
        rep = SimpleNamespace(setup_s=t1 - t0, run_s=t2 - t1)
    else:
        with ledger.patched(SETUP_SPANS + RUN_SPANS):
            state, setup_root = ledger.call("setup", case.setup, seed, scale)
            _, run_root = ledger.call("run", case.run, state)
        rep = SimpleNamespace(setup_s=ledger.duration(setup_root),
                              run_s=ledger.duration(run_root),
                              setup_totals=ledger.totals(setup_root),
                              run_totals=ledger.totals(run_root))
    rep.seen = case.observe(state)
    return rep


def layer_metrics(plain, traced) -> dict:
    """Per-layer metrics from the traced repetitions (host times are
    medians over them) and the public counters."""
    from workloads import RUN_SPANS, SETUP_SPANS

    never = (0.0, 0.0, 0)   # self seconds, total seconds, calls
    metrics = {}
    for name in dict.fromkeys(span for _, _, span in RUN_SPANS):
        metrics[f"{name}.self_s"] = median(
            [r.run_totals.get(name, never)[0] for r in traced])
        metrics[f"{name}.calls"] = traced[0].run_totals.get(name, never)[2]
    for _, _, name in SETUP_SPANS:
        metrics[f"{name}_s"] = median(
            [r.setup_totals.get(name, never)[1] for r in traced])
    counts = traced[0].seen.counts
    metrics.update(counts)
    batches = metrics["core.switch.process_read_batch.calls"]
    metrics["core.switch.read_batch_mean_len"] = (
        counts["core.dataplane.reads"] / batches if batches else 0.0)
    untraced_run_s = median([r.run_s for r in plain])
    delivered = counts["net.simulator.delivered"]
    metrics["net.host_us_per_delivery"] = (
        untraced_run_s / delivered * 1e6 if delivered else 0.0)
    # Time of the region outside every listed span: with it the self
    # times add up to the traced run_s.
    metrics["trace.unattributed.self_s"] = median(
        [r.run_totals["run"][0] for r in traced])
    metrics["trace.overhead_share"] = (
        median([r.run_s for r in traced]) / untraced_run_s - 1.0)
    return metrics


def measure(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program under test from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    import checks
    from ledger import Ledger
    from workloads import CASES, EXPECTED_SPANS

    case = CASES[args.workload]
    scale = QUICK_SCALE if args.quick else 1.0

    # Untimed: the correctness run is also the warm-up.
    problems = case.check(args.seed, scale, args.sabotage)

    # Repeat the measured region on freshly built state until it has been
    # measured for --seconds in total; --quick stops after one repetition.
    plain, traced, spent, ledger = [], [], 0.0, None
    while not plain or (spent < args.seconds and not args.quick):
        plain.append(repetition(case, args.seed, scale))
        spent += plain[-1].run_s
        if args.trace:
            ledger = Ledger()
            traced.append(repetition(case, args.seed, scale, ledger))
            spent += traced[-1].run_s
    runs = [r.run_s for r in plain]
    setups = [r.setup_s for r in plain]
    # Set-up is timed at least three times, five on racks that build in
    # under 0.2 s, whatever the number of repetitions.
    while not args.quick and len(setups) < (
            3 if median(setups) >= 0.2 else 5):
        gc.collect()
        t0 = time.perf_counter()
        case.setup(args.seed, scale)
        setups.append(time.perf_counter() - t0)

    seen = plain[0].seen
    problems += seen.problems
    problems += checks.repetitions_differ([r.seen for r in plain + traced])
    for rep in traced:
        total = sum(t[0] for t in rep.run_totals.values())
        if abs(total - rep.run_s) > 0.01 * rep.run_s:
            problems.append(f"traced self times sum to {total:.6f} s, "
                            f"the root span lasted {rep.run_s:.6f} s")

    if args.trace:
        section = "per_layer"
        metrics = layer_metrics(plain, traced)
        if args.quick:
            problems += [f"span {name} was never entered"
                         for name in EXPECTED_SPANS[case.name]
                         if not metrics[f"{name}.calls"]]
    else:
        section = "end_to_end"
        run_s = median(runs)
        metrics = {
            "setup_s": median(setups),
            "run_s": run_s,
            "queries_per_host_s": seen.queries / run_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **seen.sim,
        }
        if problems:
            metrics["answered_share"] = 0.0
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        print(f"metrics measured and metrics declared in BENCHMARK.json "
              f"differ: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2

    print(f"workload {case.name}  seed {args.seed}  "
          f"{'quick, ' if args.quick else ''}"
          f"{len(plain)} untraced + {len(traced)} traced repetitions  "
          f"{seen.queries} queries each")
    samples = {"setup_s": setups, "run_s": runs}
    for name, unit in units.items():
        kind = "host" if is_host_metric(name) else "simulated"
        line = f"  {kind:<9} {name:<46} {metrics[name]:>16.6f} {unit}"
        if name in samples:
            _, q1, q3 = summary(samples[name])
            line += (f"   median of {len(samples[name])}, "
                     f"quartiles {q1:.4f} .. {q3:.4f}")
        print(line)
    if not args.trace and seen.latency_samples:
        print(f"  simulated client latency p50 "
              f"{seen.counts['client.latency_p50_us']:.3f} us, p99.9 "
              f"{seen.counts['client.latency_p999_us']:.3f} us over "
              f"{seen.latency_samples} samples (per-layer metrics "
              f"client.latency_*)")
    for point, error in seen.paper_errors.items():
        print(f"  simulated paper point {point:<44} relative error "
              f"{error:.4f}")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    print(f"  checks: {'FAILED' if problems else 'passed'}")

    result = {
        "correct": not problems,
        "attempted": seen.queries,
        "failed": seen.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.out:
        record = dict(workload=case.name, seed=args.seed, trace=args.trace,
                      quick=args.quick, seconds=args.seconds, **result,
                      samples=samples, host=host_description())
        with open(args.out, "a") as out:
            out.write(json.dumps(record) + "\n")
        if ledger is not None:
            ledger.write_jsonl(f"{args.out}.{case.name}.spans.jsonl.gz")
    print(json.dumps(result))
    return 1 if problems else 0


def host_description() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


# -- every workload, each in a fresh child process -------------------------------


def child(args, workload: str, trace: int, sabotage: bool = False):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    if sabotage:
        command.append("--sabotage")
    elif args.out:
        command += ["--out", args.out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done


def suite(args, spec: dict) -> int:
    started = time.perf_counter()
    failed = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ((0, 1) if args.trace or args.quick else (0,)):
            done = child(args, workload, trace)
            if done.returncode:
                failed.append(f"{workload} --trace {trace} exited "
                              f"{done.returncode}")
    if args.quick:
        names = [m["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
                 for m in spec[section]]
        failed += [f"BENCHMARK.json: bad or repeated name {name!r}"
                   for name in names
                   if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                                       name) or names.count(name) > 1]
        # The harness's own test: a divergence between the two engines
        # must be reported, mark the run incorrect and exit 1.
        done = child(args, "lanes_read", 0, sabotage=True)
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 1 or result.get("correct") is not False:
            failed.append("the altered counter was not caught")
        else:
            print("self-test: the altered counter was caught, exit code 1")
    elapsed = time.perf_counter() - started
    print(f"{len(spec['workloads'])} workloads in {elapsed:.1f} s")
    if args.quick and elapsed > 60:
        failed.append(f"--quick took {elapsed:.1f} s, over its 60 s budget")
    for failure in failed:
        print(f"FAILED {failure}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure only this workload, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from "
                        "traced repetitions")
    parser.add_argument("--quick", action="store_true",
                        help="1/20 size, one repetition: the harness's "
                        "self-test")
    parser.add_argument("--out", help="append one JSON record per workload "
                        "run to this file (spans next to it with --trace)")
    parser.add_argument("--sabotage", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # Hash seed and thread count must be fixed before the interpreter
        # and numpy start: run again with them set.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    spec = declared()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return suite(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
