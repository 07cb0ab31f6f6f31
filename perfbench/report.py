#!/usr/bin/env python3
"""Run every workload over several seeds and print every metric.

    python3 perfbench/report.py [--seeds 1-10] [--workloads a,b] [--trace]
                                [--baseline perfbench/baseline.json --label <commit>]

Each run is one `perfbench/run.py` process, run one after another.  For
each workload the report prints every end-to-end metric by name with its
unit, median, quartiles, spread (quartile distance over median) against
the bound in BENCHMARK.json, and its sample count per run; then the
detail metrics (latency percentiles, fail_ratio and, on mc_table1, the
CVaR accuracy).  With --trace it also makes one traced run per workload
and prints the per-layer metrics.  With --baseline it writes machine info
and the medians to that file as one point of the benchmark's trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETAIL_PREFIX = "perfbench detail "


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = next(json.loads(line[len(DETAIL_PREFIX):])
                  for line in proc.stderr.splitlines() if line.startswith(DETAIL_PREFIX))
    detail["process_wall_s"] = time.perf_counter() - start
    return result, detail


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true", help="also make one traced run")
    parser.add_argument("--baseline", default=None, help="write medians to this JSON file")
    parser.add_argument("--label", default=None, help="commit or version the baseline is of")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    baseline = {"label": args.label, "claim": None, "seeds": seeds, "run_seconds": seconds,
                "machine": machine_info(), "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        entry = {"attempted": sum(r["attempted"] for r, _ in runs),
                 "failed": sum(r["failed"] for r, _ in runs),
                 "correct": all(r["correct"] for r, _ in runs),
                 "metrics": {}}
        print(f"== {name}: {len(runs)} runs of {seconds} s, "
              f"attempted {entry['attempted']}, failed {entry['failed']}, "
              f"correct {entry['correct']}")
        for metric, unit in ((m["name"], m["unit"]) for m in bench["end_to_end"]):
            values = [r["metrics"][metric]["value"] for r, _ in runs]
            n = statistics.median(d["metrics"][metric]["n"] for _, d in runs)
            med, q1, q3, rel = spread(values)
            flag = "" if metric == "setup_s" or rel <= bounds[metric] / 3 else "  <-- spread"
            print(f"  {metric:<16} {med:12.6g} {unit:<6} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {rel:.4f} (bound {bounds[metric]}) n/run {n:g}{flag}")
            print(f"    per run: {' '.join(f'{v:.5g}' for v in values)}")
            entry["metrics"][metric] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": rel, "unit": unit, "n_per_run": n}
        for key in ("latency_s.p50", "latency_s.p90", "cvar_rmse", "ci_coverage_gap"):
            pairs = [d[key] for _, d in runs if key in d]
            if pairs:
                med = statistics.median(v for v, _ in pairs)
                n = statistics.median(c for _, c in pairs)
                print(f"  {key:<16} {med:12.6g} (median over runs; n/run {n:g})")
                entry["metrics"][key] = {"median": med, "n_per_run": n}
        walls = [d["process_wall_s"] for _, d in runs]
        print(f"  process wall s   median {statistics.median(walls):.1f} max {max(walls):.1f}")
        ratios = [d["fail_ratio"] for _, d in runs]
        categories: dict = {}
        for _, d in runs:
            for cat, count in d["failures"].items():
                categories[cat] = categories.get(cat, 0) + count
        print(f"  fail_ratio       {statistics.median(ratios):12.6g} "
              f"(median over runs) categories {categories}")
        entry["metrics"]["fail_ratio"] = {"median": statistics.median(ratios)}
        entry["failure_categories"] = categories
        if args.trace:
            result, detail = run_once(name, seeds[0], seconds, 1)
            layer = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"  traced (seed {seeds[0]}, consistent {detail['consistent']}, "
                  f"failures {detail['failures']}):")
            for key, value in layer.items():
                if value:
                    print(f"    {key:<38} {value:.6g}")
            entry["per_layer"] = layer
        baseline["workloads"][name] = entry
        sys.stdout.flush()

    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
