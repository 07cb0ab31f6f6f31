#!/usr/bin/env python3
"""Rolling backtest on a synthetic heteroskedastic series.

Simulates the nonlinear location-scale recursion, rolls the estimator
through it out of sample, and prints the violation counts with coverage,
duration, and shortfall test p-values.

Example:
    python scripts/run_synthetic_backtest.py --m 1500 --n 1000 --threads 2
"""

import argparse
import warnings

from evtrisk.backtest import BacktestConfig, run_backtest
from evtrisk.mc import McDesign, simulate_dgp


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    # Omitted --m, --n, --a and --seed take BacktestConfig's defaults.
    parser.add_argument("--m", type=int, help="series length, also the simulated length")
    parser.add_argument("--n", type=int)
    parser.add_argument("--v", type=int, default=6)
    parser.add_argument("--theta", type=float, default=0.0)
    parser.add_argument("--a")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    levels = None if args.a is None else tuple(float(part) for part in args.a.split(","))
    given = {"m": args.m, "n": args.n, "a_levels": levels, "seed": args.seed}
    cfg = BacktestConfig(**{name: value for name, value in given.items() if value is not None})
    design = McDesign(n=cfg.m, variant="h1", theta=args.theta, v=args.v,
                      reps=1, seed=cfg.seed)
    series = simulate_dgp(design)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_backtest(series, cfg, threads=args.threads)

    print(f"{report.n_forecasts} forecasts, {report.n_failed_windows} failed windows")
    for a, lv in report.levels.items():
        ind = "-" if lv.t_ind_p is None else f"{lv.t_ind_p:.3f}"
        cc = "-" if lv.t_cc_p is None else f"{lv.t_cc_p:.3f}"
        es = "-" if lv.es_p is None else f"{lv.es_p:.3f}"
        print(f"a={a:<6g} violations={lv.violations:>4d} (expected {lv.expected:5.1f}) "
              f"coverage_p={lv.coverage_p:.3f} T_ind={ind} T_cc={cc} ES_p={es}")


if __name__ == "__main__":
    main()
