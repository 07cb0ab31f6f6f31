"""Command-line frontend: estimate, mc, and backtest subcommands."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
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
from .risk import estimate_at, mse_crossover
from .smoothing import fit_location_scale
from .tail import check_schedule_constant, choose_N, extract_tail


def _add_input_flags(parser):
    parser.add_argument("--prices", metavar="FILE", help="CSV of dated prices")
    parser.add_argument("--returns", metavar="FILE", help="CSV of precomputed returns")
    parser.add_argument("--date-col", default="date", help="date column name")
    parser.add_argument(
        "--price-col",
        default=None,
        help="value column name (default 'price' for --prices, 'return' for --returns)",
    )


def _add_common_flags(parser, threads: bool, timestamp: bool):
    parser.add_argument("--out", metavar="FILE", default=None)
    if threads:
        parser.add_argument("--threads", type=int, default=None,
                            help="worker count (default: EVTRISK_THREADS or all cores)")
    if timestamp:
        parser.add_argument("--no-timestamp", action="store_true",
                            help="omit the generation timestamp from the report")


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
    est.add_argument("--seed", type=int, help="ignored: the estimator draws no random numbers")
    _add_common_flags(est, threads=False, timestamp=True)

    mc = sub.add_parser("mc", help="Monte Carlo replication study")
    mc.add_argument("--design", default="table1",
                    help="named design (table1, table23, table4) or a JSON file")
    # An unset --reps or --seed keeps the design's value: a design file's,
    # else McDesign's default.
    mc.add_argument("--reps", type=int, default=None,
                    help="replications (default: the design's)")
    mc.add_argument("--seed", type=int, default=None,
                    help="simulation seed (default: the design's)")
    _add_common_flags(mc, threads=True, timestamp=False)

    # An unset flag keeps BacktestConfig's default.
    bt = sub.add_parser("backtest", help="rolling out-of-sample validation")
    _add_input_flags(bt)
    bt.add_argument("--m", type=int, default=None, help="total observations used")
    bt.add_argument("--n", type=int, default=None, help="rolling window length")
    bt.add_argument("--a", default=None, help="comma-separated levels")
    bt.add_argument("--N", default="auto", help="tail count: integer or 'auto'")
    bt.add_argument("--B-boot", type=int, default=None, dest="b_boot")
    bt.add_argument("--seed", type=int, default=None, help="bootstrap seed")
    bt.add_argument("--dump-forecasts", metavar="FILE", default=None,
                    help="write per-step forecast CSV (date, return, cvar, ces)")
    _add_common_flags(bt, threads=True, timestamp=True)
    return parser


# Parsing leaves the parser unchanged, so one tree serves every main() call
# of a process; building it costs about a millisecond.
_parser = functools.cache(build_parser)


def _resolve_threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise InputError("--threads must be at least 1")
        return args.threads
    env = os.environ.get("EVTRISK_THREADS")
    try:
        value = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        raise InputError(f"EVTRISK_THREADS must be an integer, got {env!r}") from None
    if value < 1:
        raise InputError(
            f"EVTRISK_THREADS must be at least 1, got {env!r}; pass --threads to override")
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


def _parse_or_auto(text, kind, flag, sentinel="auto"):
    if text == sentinel:
        return None
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"cannot parse {flag} value {text!r}") from None


def _cmd_estimate(args) -> int:
    if not 0.0 < args.a < 1.0:
        raise InputError("level must be in (0,1)")
    n_flag = _parse_or_auto(args.N, int, "--N")
    check_schedule_constant(args.c)  # also when --N leaves it unused
    rho_flag = _parse_or_auto(args.rho, float, "--rho")
    if rho_flag is not None and not (math.isfinite(rho_flag) and rho_flag < 0):
        raise InputError(f"--rho must be finite and negative, got {args.rho!r}")
    x_flag = _parse_or_auto(args.x, float, "--x", sentinel="last")
    if x_flag is not None and not math.isfinite(x_flag):
        raise InputError(f"--x must be finite, got {args.x!r}")
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
        est = estimate_at(fit, tail, args.a, x)
        crossover = None
        if tail.params_bc is not None:
            # At the plug-in point of the interval variances (see assemble).
            c1, c2 = mse_crossover(tail.params_bc.k, tail.rho_hat, est.Z_hat)
            crossover = {"C1": c1, "C2": c2}
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
        "mse_crossover": crossover,
        "warnings": sorted(str(w.message) for w in caught),
    }
    _write_report(report, args)
    if args.out:
        print(f"a={args.a:g}  cvar={est.cvar:.6g}  ces={est.ces:.6g}"
              + (f"  cvar_bc={est.cvar_bc:.6g}  ces_bc={est.ces_bc:.6g}"
                 if est.cvar_bc is not None else ""))
    return 0


def _load_design(args) -> McDesign:
    flags = {name: value for name, value in (("reps", args.reps), ("seed", args.seed))
             if value is not None}
    if not args.design.endswith(".json"):
        return dataclasses.replace(named_design(args.design), **flags)
    path = args.design
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: cannot read design ({exc.strerror})") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON ({exc})") from None
    fields = [f.name for f in dataclasses.fields(McDesign)]
    if not isinstance(raw, dict):
        raise InputError(f"{path}: a design is a JSON object with fields {fields}")
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise InputError(f"{path}: unknown design fields {unknown}; accepted: {fields}")
    if not isinstance(raw.get("a_levels", []), list):
        raise InputError(f"{path}: a_levels must be a JSON list of levels")
    raw.update(flags)
    if "a_levels" in raw:
        raw["a_levels"] = tuple(raw["a_levels"])
    try:
        return McDesign(**raw)
    except TypeError as exc:  # a value of the wrong JSON type, e.g. "n": "1000"
        raise InputError(f"{path}: malformed design value ({exc})") from None


def _backtest_config(args) -> BacktestConfig:
    """The configuration of the flags given: BacktestConfig alone holds the
    defaults of the flags left out and checks every value."""
    try:
        levels = None if args.a is None else tuple(float(part) for part in args.a.split(","))
    except ValueError:
        raise InputError(f"cannot parse levels {args.a!r}") from None
    given = {"m": args.m, "n": args.n, "a_levels": levels, "N": _parse_or_auto(args.N, int, "--N"),
             "seed": args.seed, "B_boot": args.b_boot}
    return BacktestConfig(**{name: value for name, value in given.items() if value is not None})


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
    cfg = _backtest_config(args)
    series, dates = _load_series(args)
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
    try:
        args = _parser().parse_args(argv)
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
