"""Command-line frontend: estimate, mc, and backtest subcommands."""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
import warnings

import numpy as np

from .backtest import BacktestConfig, run_backtest
from .errors import EvtriskError, InputError
from .gpd import fit_tail
from .ingest import ReturnSeries, load_prices, load_returns, to_returns
from .mc import McDesign, named_design, run_experiment
from .risk import estimate_at
from .smoothing import fit_location_scale
from .tail import choose_N, extract_tail


def _add_input_flags(parser):
    parser.add_argument("--prices", metavar="FILE", help="CSV of dated prices")
    parser.add_argument("--returns", metavar="FILE", help="CSV of precomputed returns")
    parser.add_argument("--date-col", default="date", help="date column name")
    parser.add_argument(
        "--price-col",
        default=None,
        help="value column name (default 'price' for --prices, 'return' for --returns)",
    )


def _add_common_flags(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="worker count (default: EVTRISK_THREADS or all cores)")
    parser.add_argument("--out", metavar="FILE", default=None)
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the generation timestamp from reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtrisk",
        description="Extreme conditional value-at-risk and expected shortfall "
        "by local-linear location/scale estimation with a generalized Pareto tail fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="one-shot CVaR/CES estimate")
    _add_input_flags(est)
    est.add_argument("--a", type=float, default=0.99, help="target level in (0,1)")
    est.add_argument("--x", default="last", help="query point: 'last' or a number")
    est.add_argument("--N", default="auto", help="tail count: integer or 'auto'")
    est.add_argument("--c", type=float, default=0.7, help="tail schedule constant")
    est.add_argument("--rho", default="auto",
                     help="second-order parameter: number or 'auto'")
    est.add_argument("--no-bias-correction", action="store_true")
    _add_common_flags(est)

    mc = sub.add_parser("mc", help="Monte Carlo replication study")
    mc.add_argument("--design", default="table1",
                    help="named design (table1, table23, table4) or a JSON file")
    mc.add_argument("--reps", type=int, default=200)
    _add_common_flags(mc)

    bt = sub.add_parser("backtest", help="rolling out-of-sample validation")
    _add_input_flags(bt)
    bt.add_argument("--m", type=int, default=1500, help="total observations used")
    bt.add_argument("--n", type=int, default=1000, help="rolling window length")
    bt.add_argument("--a", default="0.95,0.99,0.995", help="comma-separated levels")
    bt.add_argument("--N", default="auto", help="tail count: integer or 'auto'")
    bt.add_argument("--B-boot", type=int, default=9999, dest="b_boot")
    bt.add_argument("--dump-forecasts", metavar="FILE", default=None,
                    help="write per-step forecast CSV (date, return, cvar, ces)")
    _add_common_flags(bt)
    return parser


def _resolve_threads(args) -> int:
    if args.threads is not None:
        value = args.threads
    else:
        env = os.environ.get("EVTRISK_THREADS")
        value = int(env) if env else (os.cpu_count() or 1)
    if value < 1:
        raise InputError("--threads must be at least 1")
    return value


def _load_series(args) -> tuple[ReturnSeries, list[str] | None]:
    if bool(args.prices) == bool(args.returns):
        raise InputError("--prices and --returns are mutually exclusive; give exactly one")
    if args.prices:
        col = args.price_col or "price"
        prices = load_prices(args.prices, date_col=args.date_col, price_col=col)
        # Date label of a return is the later of its two price dates.
        return to_returns(prices), list(prices.timestamps[1:])
    col = args.price_col or "return"
    return load_returns(args.returns, value_col=col), None


def _json_ready(value):
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _write_report(report: dict, args) -> None:
    if not args.no_timestamp:
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(_json_ready(report), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _validate_level(a: float) -> None:
    if not 0.0 < a < 1.0:
        raise InputError("level must be in (0,1)")


def _parse_or_auto(text, kind, flag, sentinel="auto"):
    if text == sentinel:
        return None
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"cannot parse {flag} value {text!r}") from None


def _cmd_estimate(args) -> int:
    _validate_level(args.a)
    n_flag = _parse_or_auto(args.N, int, "--N")
    rho_flag = _parse_or_auto(args.rho, float, "--rho")
    x_flag = _parse_or_auto(args.x, float, "--x", sentinel="last")
    series, _ = _load_series(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_location_scale(series, lag=1)
        n_eff = fit.residuals.size
        n_tail = choose_N(n_eff, args.c) if n_flag is None else n_flag
        sample = extract_tail(fit, n_tail)
        tail = fit_tail(sample, rho=rho_flag,
                        bias_correction=not args.no_bias_correction)
        x = float(series.values[-1]) if x_flag is None else x_flag
        est = estimate_at(fit, tail, args.a, x,
                          bias_correction=not args.no_bias_correction)
    report = {
        "command": "estimate",
        "input": {
            "path": args.prices or args.returns,
            "kind": series.kind,
            "observations": len(series),
        },
        "a": args.a,
        "x": est.x,
        "first_stage": {"h1": fit.h1, "h2": fit.h2, "n_eff": n_eff,
                        "m_x": est.m_x, "h_x": est.h_x},
        "tail": {
            "N": sample.N, "N_s": sample.N_s, "a_N": sample.a_N,
            "q_tilde": sample.q_tilde, "h3": sample.h3,
            "sigma": tail.params.sigma, "k": tail.params.k,
            "sigma_bc": tail.params_bc.sigma if tail.params_bc else None,
            "k_bc": tail.params_bc.k if tail.params_bc else None,
            "k_mom": tail.k_mom, "M_n": tail.M_n,
            "rho": tail.rho_hat, "d_hat": tail.d_hat, "loglik": tail.loglik,
        },
        "innovation": {"q": est.q_eps, "es": est.es_eps,
                       "q_bc": est.q_eps_bc, "es_bc": est.es_eps_bc,
                       "B_q": est.B_q, "B_E": est.B_E, "Z_hat": est.Z_hat},
        "estimates": {"cvar": est.cvar, "ces": est.ces,
                      "cvar_bc": est.cvar_bc, "ces_bc": est.ces_bc},
        "intervals": {"cvar_bc": list(est.ci_cvar) if est.ci_cvar else None,
                      "ces_bc": list(est.ci_ces) if est.ci_ces else None},
        "variances": {"sigma1_b": est.sigma1_b, "sigma2_b": est.sigma2_b,
                      "sigma3_b": est.sigma3_b},
        "warnings": sorted(str(w.message) for w in caught),
    }
    _write_report(report, args)
    if args.out:
        print(f"a={args.a:g}  cvar={est.cvar:.6g}  ces={est.ces:.6g}"
              + (f"  cvar_bc={est.cvar_bc:.6g}  ces_bc={est.ces_bc:.6g}"
                 if est.cvar_bc is not None else ""))
    return 0


def _load_design(args) -> McDesign:
    if args.design.endswith(".json"):
        with open(args.design, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw.setdefault("reps", args.reps)
        raw.setdefault("seed", args.seed)
        if "a_levels" in raw:
            raw["a_levels"] = tuple(raw["a_levels"])
        return McDesign(**raw)
    return named_design(args.design, args.reps, args.seed)


def _cmd_mc(args) -> int:
    design = _load_design(args)
    threads = _resolve_threads(args)
    result = run_experiment(design, threads=threads)
    rows = [
        {
            "n": design.n, "variant": design.variant, "theta": design.theta,
            "v": design.v, "reps": design.reps, "seed": design.seed, "c": design.c,
            "a": "" if row.a is None else repr(row.a),
            "target": row.target, "estimator": row.estimator,
            "B": repr(row.B), "S": repr(row.S), "R": repr(row.R),
            "rel_R": repr(row.rel_R),
            "ECP": "" if row.ecp is None else repr(row.ecp),
        }
        for row in result.rows
    ]
    header = ["n", "variant", "theta", "v", "reps", "seed", "c",
              "a", "target", "estimator", "B", "S", "R", "rel_R", "ECP"]
    out = args.out or "results.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out} "
          f"({result.n_failures} failed replications)")
    return 0


def _dump_forecasts(path, report, series, dates) -> None:
    steps = report.forecasts.steps
    labels = (
        [dates[t + 1] for t in steps] if dates is not None else [str(t + 1) for t in steps]
    )
    realized = series.values[steps + 1]
    levels = list(report.config.a_levels)
    for a in levels:
        target = path if len(levels) == 1 else _suffixed(path, a)
        with open(target, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "return", "cvar", "ces"])
            for label, ret, q, e in zip(
                labels, realized, report.forecasts.cvar[a], report.forecasts.ces[a]
            ):
                writer.writerow([label, repr(float(ret)), repr(float(q)), repr(float(e))])


def _suffixed(path: str, a: float) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_a{a:g}{ext or '.csv'}"


def _cmd_backtest(args) -> int:
    try:
        levels = tuple(float(part) for part in args.a.split(","))
    except ValueError:
        raise InputError(f"cannot parse levels {args.a!r}") from None
    for a in levels:
        _validate_level(a)
    series, dates = _load_series(args)
    cfg = BacktestConfig(
        m=args.m,
        n=args.n,
        a_levels=levels,
        N=_parse_or_auto(args.N, int, "--N"),
        seed=args.seed,
        B_boot=args.b_boot,
    )
    threads = _resolve_threads(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_backtest(series, cfg, threads=threads)
    payload = {
        "command": "backtest",
        "config": {"m": cfg.m, "n": cfg.n, "N": cfg.tail_count(cfg.n - 1),
                   "seed": cfg.seed, "B_boot": cfg.B_boot,
                   "a_levels": list(cfg.a_levels)},
        "n_forecasts": report.n_forecasts,
        "failed_windows": report.n_failed_windows,
        "levels": {
            f"{a:g}": {
                "violations": lv.violations,
                "n_evaluated": lv.n_evaluated,
                "expected": lv.expected,
                "coverage_p": lv.coverage_p,
                "t_ind_p": lv.t_ind_p,
                "t_cc_p": lv.t_cc_p,
                "es_p": lv.es_p,
                "violation_steps": lv.violation_steps,
                "violation_dates": (
                    [dates[t + 1] for t in lv.violation_steps]
                    if dates is not None else None
                ),
            }
            for a, lv in report.levels.items()
        },
        "warnings": sorted(str(w.message) for w in caught),
    }
    _write_report(payload, args)
    for a, lv in report.levels.items():
        ind = "-" if lv.t_ind_p is None else f"{lv.t_ind_p:.3f}"
        cc = "-" if lv.t_cc_p is None else f"{lv.t_cc_p:.3f}"
        esp = "-" if lv.es_p is None else f"{lv.es_p:.3f}"
        print(f"a={a:<6g} violations={lv.violations:>4d} (exp {lv.expected:6.1f}) "
              f"coverage_p={lv.coverage_p:.3f} T_ind={ind} T_cc={cc} ES_p={esp}")
    if args.dump_forecasts:
        _dump_forecasts(args.dump_forecasts, report, series, dates)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "mc":
            return _cmd_mc(args)
        return _cmd_backtest(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EvtriskError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
