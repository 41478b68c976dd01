"""Run one workload in this process and print one JSON line of raw timings.

Started by run.py.  Order of work: import qrpd from the checkout's src/,
build the seeded inputs, run one untimed warm-up operation, note the time
("ready"), then run whole passes until the next pass would end after
--seconds, then check every output.  With --probe it stops at "ready";
with --trace it times one pass untraced and the rest with spans recorded
around qrpd's public functions.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "benchmark_out"


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop; shows a slow host."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def run_pass(ops, failed_fn):
    results, op_times, units, failed = [], [], 0, 0
    start = time.perf_counter()
    for i, (_, fn) in enumerate(ops):
        t0 = time.perf_counter()
        result, n = fn()
        op_times.append(time.perf_counter() - t0)
        results.append(result)
        units += n
        failed += int(failed_fn(i, result))
    return time.perf_counter() - start, results, op_times, units, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import qrpd
    if pathlib.Path(qrpd.__file__).resolve().parent != ROOT / "src" / "qrpd":
        raise SystemExit(f"qrpd imported from {qrpd.__file__}, not the checkout")
    import workloads
    from tracing import Tracer, summarize

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    ops = workload.ops()
    failed_fn = getattr(workload, "failed", lambda index, result: False)
    ops[0][1]()                               # warm-up, untimed
    ready = time.perf_counter()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    loop_before = reference_loop()
    tracer = Tracer() if args.trace else None
    passes, pass_times, op_times = [], [], []
    traced_times = []
    units = failed = 0
    start = time.perf_counter()
    while True:
        if tracer and len(passes) == 1:
            tracer.install()
        seconds, results, times, n, bad = run_pass(ops, failed_fn)
        (traced_times if tracer and passes else pass_times).append(seconds)
        passes.append(results)
        op_times.append(times)
        units += n
        failed += bad
        elapsed = time.perf_counter() - start
        if tracer and len(passes) == 1:
            continue
        if elapsed + statistics.median(traced_times or pass_times) > args.seconds:
            break
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop_after = reference_loop()

    errors = workload.check(passes)
    out = {
        "ready": ready,
        "pass_times": pass_times,
        "op_times": op_times,
        "units": units,
        "attempted": sum(len(times) for times in op_times),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "reference_loop_s": [loop_before, loop_after],
        "errors": errors,
    }
    if tracer:
        tracer.dump(OUT_DIR / f"spans_{args.workload}.jsonl")
        n_traced = len(traced_times)
        out["traced_pass_times"] = traced_times
        out["layers"] = {name: {k: v / n_traced if k != "uniform_block_mb" else v
                                for k, v in stats.items()}
                         for name, stats in summarize(tracer.spans).items()}
        out["period_not_found"] = tracer.failures("PeriodNotFoundError") / n_traced
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
