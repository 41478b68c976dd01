#!/usr/bin/env python3
"""Benchmark for qrpd: scans, figure reproduction, CLI queries and Monte Carlo.

Run from the root of a checkout:

  python3 benchmark/run.py --workload cell_queries --seed 1 --seconds 15 --trace 0
  python3 benchmark/run.py                 # every workload, one after another
  python3 benchmark/run.py --trace 1       # per-layer metrics of every workload
  python3 benchmark/run.py --report 10     # steadiness over seeds 1..10

A single-workload run starts fresh interpreters: set-up probes that stop
after the warm-up operation, then the measuring worker (worker.py).  It
prints a readable summary and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced worker.
Outputs and spans go to benchmark_out/ at the checkout root.  The exit code
is 0 when every check passed, 1 on a mismatch, 2 when a run could not be
made.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = ("engine_scan", "figures", "cell_queries", "montecarlo")
SETUP_SAMPLES = 3            # fresh interpreters behind each setup_s
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 150


class RunError(Exception):
    """A worker could not be started or did not report."""


def worker(workload, seed, seconds, *flags):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *flags]
    launched = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} worker timed out after {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} worker exited {proc.returncode}:\n"
                       f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - launched
    return out


def import_times():
    """Median cumulative import times of qrpd.cli and numpy, split from a
    fresh interpreter's -X importtime report."""
    cli_us, numpy_us = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import numpy, qrpd.cli"],
            capture_output=True, text=True, cwd=ROOT, timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        if proc.returncode != 0:
            raise RunError(f"importing qrpd.cli failed:\n{proc.stderr[-2000:]}")
        top = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cumulative, name = line.split("|")
                if not name.startswith("  ") and cumulative.strip().isdigit():
                    top[name.strip()] = int(cumulative)
        cli_us.append(top["qrpd.cli"])
        numpy_us.append(top["numpy"])
    return statistics.median(cli_us) / 1e3, statistics.median(numpy_us) / 1e3


def with_units(values, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def end_to_end(workload, seed, seconds, spec):
    setups = [worker(workload, seed, seconds, "--probe")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    out = worker(workload, seed, seconds)
    setups.append(out["setup_s"])
    # Each operation's median over the passes, so that a slow moment of the
    # host does not land in the tail of a workload with few operations.
    times = [statistics.median(op) for op in zip(*out["op_times"])]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(out["pass_times"]),
        "work_per_s": out["units"] / sum(out["pass_times"]),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p99_ms": statistics.quantiles(times, n=100, method="inclusive")[98] * 1e3,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    metrics = with_units(values, spec)
    notes = [f"passes: {len(out['pass_times'])}, operations per pass: {len(times)}, "
             f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}"]
    return out, metrics, notes


def per_layer(workload, seed, seconds, spec):
    """Per-layer metrics of a traced worker.  A metric named
    <span>.<field> is that field of the span's summary, per traced pass;
    the others are computed here."""
    cli_ms, numpy_ms = import_times()
    out = worker(workload, seed, seconds, "--trace")
    layers = out["layers"]
    untraced = out["pass_times"][0]
    traced = statistics.median(out["traced_pass_times"])
    values = {
        "repeated.period_not_found.count": out["period_not_found"],
        "actions.self_ms": sum(stats["self_ms"] for span, stats in layers.items()
                               if span.startswith("actions.")),
        "cli.import_ms": cli_ms,
        "cli.numpy_import_ms": numpy_ms,
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_pct": (traced / untraced - 1.0) * 100.0,
    }
    for metric in spec["per_layer"]:
        span, field = metric["name"].rsplit(".", 1)
        values.setdefault(metric["name"], layers.get(span, {}).get(field, 0.0))
    metrics = with_units(values, spec)
    notes = [f"traced passes: {len(out['traced_pass_times'])}; tracing overhead "
             f"{values['trace.overhead_pct']:.1f}% (pass {untraced:.3f} s untraced, "
             f"{traced:.3f} s traced)"]
    return out, metrics, notes


def run_one(workload, seed, seconds, trace, spec):
    measure = per_layer if trace else end_to_end
    out, metrics, notes = measure(workload, seed, seconds, spec)
    loop = out["reference_loop_s"]
    print(f"workload {workload} seed {seed} trace {int(trace)}")
    for note in notes:
        print(f"  {note}")
    print(f"  attempted {out['attempted']}, failed {out['failed']}")
    print(f"  diagnostic reference_loop_ms before={loop[0] * 1e3:.1f} "
          f"after={loop[1] * 1e3:.1f}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    for error in out["errors"][:50]:
        print(f"MISMATCH {error}", file=sys.stderr)
    result = {"correct": not out["errors"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed, seconds, trace, spec):
    """Every workload, one after another; each runs in its own workers."""
    return max(run_one(workload, seed, seconds, trace, spec) for workload in WORKLOADS)


def report(workloads, runs, seconds, spec):
    """Run each workload once per seed 1..runs and print each end-to-end
    metric's median, quartiles and spread (Q3 - Q1) / median next to the
    bound in BENCHMARK.json."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in workloads:
        rows, loops, shares, elapsed = {}, [], set(), []
        for seed in range(1, runs + 1):
            started = time.perf_counter()
            try:
                out, metrics, _ = end_to_end(workload, seed, seconds, spec)
            except RunError as exc:
                print(f"{workload} seed {seed}: {exc}")
                status = 2
                continue
            elapsed.append(f"{time.perf_counter() - started:.1f}")
            for error in out["errors"][:50]:
                print(f"{workload} seed {seed}: MISMATCH {error}")
                status = max(status, 1)
            shares.add((out["failed"], out["attempted"]))
            loops.append(f"{out['reference_loop_s'][0] * 1e3:.1f}")
            for name, m in metrics.items():
                rows.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {runs} runs of {seconds} s; failed/attempted "
              f"{sorted(shares)}")
        print(f"  reference loop ms per run: {' '.join(loops)}")
        print(f"  seconds per run, set-up and checks included: {' '.join(elapsed)}")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, values in rows.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"  {name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bounds[name]:6.2f}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=int, metavar="RUNS",
                        help="steadiness report over seeds 1..RUNS")
    args = parser.parse_args()

    if not (ROOT / "src" / "qrpd" / "__init__.py").is_file():
        print(f"error: no qrpd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if args.report:
            chosen = (args.workload,) if args.workload else WORKLOADS
            return report(chosen, args.report, seconds, spec)
        if args.workload is None:
            return run_all(args.seed, seconds, args.trace, spec)
        return run_one(args.workload, args.seed, seconds, bool(args.trace), spec)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
