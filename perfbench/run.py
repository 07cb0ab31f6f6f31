#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the workload runs closed-loop for --seconds with tracing
off and the end-to-end metrics are reported.  With --trace 1 the
workload's trace units (one command, or one whole sweep) run untraced, then
again traced in a single process, and the per-layer metrics are reported.  The last line of standard output is
one JSON object; a human-readable detail line goes to standard error.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# name -> unit
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
# Import time varies by ~15% from one interpreter to the next on a shared
# host, so it is sampled in fresh interpreters too.  Each sample costs about
# a second of wall time in every run.
IMPORT_REPEATS = 3
SCALING_SIZES = (1000, 8000)
SCALING_SMALL_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest child's.

    Pool workers all run the same job shape, so the largest one stands in
    for each; a single-process run has no children and adds nothing.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import evtrisk.cli\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def timed_run(workload, seconds: float, import_s: float, workdir: str):
    import workloads

    start = time.perf_counter()
    workloads.warm_up(workdir)
    warm_s = time.perf_counter() - start
    setups = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.prepare(k)
        setups.append(time.perf_counter() - start)

    latencies, rates, accuracy, signatures = [], [], [], {}
    failures = collections.Counter()
    attempted = failed = flagged = 0
    consistent = True
    i = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        result = workload.unit(i, workload.threads)
        ended = time.perf_counter()
        latencies.append(ended - began)
        rates.append(result.ops / (ended - began))
        attempted += result.ops
        failed += result.failed
        flagged += result.flagged
        failures.update(result.failures)
        if result.accuracy is not None:
            accuracy.append(result.accuracy)
        key = workload.unit_key(i)
        consistent &= signatures.setdefault(key, result.signature) == result.signature
        i += 1
        if ended - start >= seconds:
            break
    wall = ended - start
    correct = consistent and not workloads.HARD_FAILURES & set(failures)

    rss = peak_rss_mb(workload.threads if workload.threads > 1 else 0)
    # Imports are repeated in fresh interpreters after the peak RSS is read,
    # so these children never count as pool workers.
    imports = [import_s] + [import_seconds() for _ in range(IMPORT_REPEATS - 1)]
    metrics = {
        "setup_s": statistics.median(imports) + warm_s + statistics.median(setups),
        # The median unit's rate: a unit slowed by a burst on the shared
        # host moves it less than it moves the mean.
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": rss,
    }
    samples = {"setup_s": SETUP_REPEATS, "ops_per_s": i, "peak_rss_mb": 1}
    detail = {
        "fail_ratio": flagged / attempted,
        "ops": attempted,
        "failures": dict(failures),
        "units": i,
        "wall_s": wall,
        "consistent": consistent,
        "setup_parts": {"import_s": imports, "warm_s": warm_s, "prepare_s": setups},
    }
    if workload.timed_per_op:
        ordered = sorted(latencies)
        detail["latency_s.p50"] = [statistics.median(ordered), len(ordered)]
        if len(ordered) >= 100:
            detail["latency_s.p90"] = [ordered[math.ceil(0.9 * len(ordered)) - 1], len(ordered)]
    if accuracy:
        rmse = math.sqrt(statistics.mean(r * r for r, _ in accuracy))
        ecp = statistics.mean(e for _, e in accuracy)
        reps = len(accuracy) * workloads.MC_CHUNK_REPS
        detail["cvar_rmse"] = [rmse, reps]
        detail["ci_coverage_gap"] = [abs(ecp - 0.95), reps]
    return metrics, samples, attempted, failed, correct, detail


def fit_scaling(seed: int) -> float:
    """Stage-1 fit time at the larger size over the smaller (untraced)."""
    import evtrisk
    import gen

    times = {}
    for n in SCALING_SIZES:
        series = evtrisk.ingest.ReturnSeries(gen.simulate_returns(seed, n, 3))
        runs = []
        for _ in range(SCALING_SMALL_REPEATS if n == min(SCALING_SIZES) else 1):
            start = time.perf_counter()
            evtrisk.smoothing.fit_location_scale(series, lag=1)
            runs.append(time.perf_counter() - start)
        times[n] = statistics.median(runs)
    return times[max(SCALING_SIZES)] / times[min(SCALING_SIZES)]


def traced_run(workload, seed: int, workdir: str, outdir: str):
    import evtrisk
    import spans
    import workloads

    workloads.warm_up(workdir)
    workload.prepare()
    units = workload.trace_units()

    start = time.perf_counter()
    untraced = [workload.unit(i, workload.threads) for i in range(units)]
    untraced_wall = time.perf_counter() - start

    tracer = spans.Tracer()
    traced = []
    with tracer.installed(evtrisk):
        workload.instrument(tracer)
        for i in range(units):
            with tracer.span("bench.op", op=i):
                traced.append(workload.unit(i, 1))
    consistent = all(a.signature == b.signature for a, b in zip(untraced, traced))

    metrics = spans.layer_metrics(tracer, "bench.op", spans.span_cost())
    for layer, span_name in (("mc", "mc.replicate"), ("backtest", "backtest.window")):
        busy = sum(s[spans.END] - s[spans.START] for s in tracer.spans
                   if s[spans.NAME] == span_name)
        pooled = workload.threads > 1 and busy > 0
        metrics[f"{layer}.pool_efficiency"] = (
            busy / (untraced_wall * workload.threads) if pooled else 0.0
        )
    metrics["smoothing.fit_scaling_8000_over_1000"] = fit_scaling(seed)

    attempted = sum(r.ops for r in traced)
    failed = sum(r.failed for r in traced)
    metrics["checks.flagged"] = sum(r.flagged for r in traced)
    hard = any(workloads.HARD_FAILURES & set(r.failures) for r in untraced + traced)
    failures = {f"{lay}/{cat}": n for (lay, cat), n in tracer.failures.items()}
    path = os.path.join(outdir, f"trace-{workload.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload.name, "seed": seed,
            "fields": ["name", "start", "end", "parent", "op", "error"],
            "spans": tracer.spans,
            "failures": failures,
            "metrics": metrics,
        }, fh)
    detail = {"consistent": consistent, "spans": len(tracer.spans), "trace_file": path,
              "failures": failures}
    return metrics, attempted, failed, consistent and not hard, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "evtrisk", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import evtrisk.cli  # noqa: F401  (timed as part of set-up)
    import spans
    import workloads

    if not evtrisk.__file__.startswith(SRC + os.sep):
        print(f"perfbench: evtrisk imported from {evtrisk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    outdir = os.path.join(HERE, "out")
    workdir = os.path.join(outdir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            metrics, attempted, failed, correct, detail = traced_run(
                workload, args.seed, workdir, outdir)
            catalogue = spans.per_layer_catalogue()
            units = {name: catalogue[name][0] for name in catalogue}
            samples = {}
        else:
            metrics, samples, attempted, failed, correct, detail = timed_run(
                workload, args.seconds, import_s, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail["metrics"] = {
        name: {"value": metrics[name], "unit": units[name], "n": samples.get(name)}
        for name in units
    }
    print("perfbench detail " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}),
        file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
