import json
import math
import os
import pathlib
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from evtrisk import cli
from evtrisk.backtest import BacktestConfig, rolling_forecast
from evtrisk.cli import _load_design, _resolve_threads, build_parser, main
from evtrisk.errors import InputError
from evtrisk.ingest import ReturnSeries, load_returns
from evtrisk.mc import McDesign, _replicate, _simulate
from evtrisk.risk import mse_crossover

GOLDEN_RETURNS = pathlib.Path(__file__).resolve().parent / "golden" / "returns.csv"


@pytest.fixture(scope="module")
def returns_csv(tmp_path_factory):
    rng = np.random.default_rng(123)
    values = rng.standard_t(6, size=600) / math.sqrt(6 / 4)
    path = tmp_path_factory.mktemp("data") / "returns.csv"
    path.write_text("return\n" + "\n".join(repr(float(v)) for v in values), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def prices_csv(tmp_path_factory):
    import datetime

    rng = np.random.default_rng(7)
    rets = rng.standard_normal(400) * 0.01
    prices = 100 * np.exp(np.cumsum(rets))
    start = datetime.date(2019, 1, 1)
    lines = ["date,price"]
    for i, p in enumerate(prices):
        lines.append(f"{start + datetime.timedelta(days=i)},{float(p)!r}")
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def test_estimate_happy_path(returns_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "estimate", "--returns", str(returns_csv), "--a", "0.99",
        "--out", str(out), "--no-timestamp",
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["a"] == 0.99
    for key in ("estimates", "tail", "innovation", "intervals", "variances"):
        assert key in report
    assert report["estimates"]["cvar"] is not None
    assert report["tail"]["N"] > 0
    lo, hi = report["intervals"]["cvar_bc"]
    assert lo <= report["estimates"]["cvar_bc"] <= hi


def test_estimate_from_prices(prices_csv, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "estimate", "--prices", str(prices_csv), "--a", "0.95",
        "--N", "60", "--out", str(out), "--no-timestamp",
        "--no-bias-correction",
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["input"]["kind"] == "losses"
    assert report["estimates"]["cvar_bc"] is None
    assert report["mse_crossover"] is None


def test_estimate_level_validation(returns_csv, capsys):
    code = main(["estimate", "--returns", str(returns_csv), "--a", "1.5"])
    assert code == 1
    assert "level must be in (0,1)" in capsys.readouterr().err


def test_mutually_exclusive_inputs(returns_csv, prices_csv, capsys):
    code = main([
        "estimate", "--returns", str(returns_csv), "--prices", str(prices_csv),
    ])
    assert code == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_unknown_flag_exits_one(returns_csv):
    code = main(["estimate", "--returns", str(returns_csv), "--bogus"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["estimate", "--threads", "2"],     # estimate runs in one process
    ["mc", "--no-timestamp"],           # results.csv carries no timestamp
])
def test_flags_only_where_read(argv, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--rho", "0.5"], "--rho must be finite and negative"),
    (["--rho", "0"], "--rho must be finite and negative"),
    (["--rho", "nan"], "--rho must be finite and negative"),
    (["--x", "nan"], "--x must be finite"),
    (["--x", "inf"], "--x must be finite"),
    (["--c", "0"], "tail schedule constant c must be finite and positive"),
    (["--c", "-1"], "tail schedule constant c must be finite and positive"),
])
def test_estimate_rejects_bad_values_as_input_errors(returns_csv, capsys, flags, message):
    code = main(["estimate", "--returns", str(returns_csv), "--no-timestamp", *flags])
    assert code == 1
    assert message in capsys.readouterr().err


def test_mc_design_rejects_bad_schedule_constant(tmp_path, capsys):
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps({"n": 400, "c": 0.0}), encoding="utf-8")
    code = main(["mc", "--design", str(design_path), "--reps", "2",
                 "--threads", "1", "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert "tail schedule constant c" in capsys.readouterr().err


def test_estimate_reports_mse_crossover(returns_csv, tmp_path):
    out = tmp_path / "report.json"
    code = main(["estimate", "--returns", str(returns_csv), "--a", "0.99",
                 "--out", str(out), "--no-timestamp"])
    assert code == 0
    report = json.loads(out.read_text())
    c1, c2 = mse_crossover(
        report["tail"]["k_bc"], report["tail"]["rho"], report["innovation"]["Z_hat"]
    )
    assert report["mse_crossover"] == {"C1": c1, "C2": c2}


def _perfbench_gen():
    # Compiled in memory: nothing is written next to the benchmark's files.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    module = types.ModuleType("perfbench_gen")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_estimate_crossover_pole_reports_nan(tmp_path):
    # At rho = -1 the C1 factor is a rounding residue (0/0), while C2 is
    # well defined: only C1 is reported undefined.  C2 follows the fitted
    # shape, and with it the CDF bandwidth h3 of the residuals.
    values = _perfbench_gen().simulate_returns(7, 2000, 3) / 0.01
    data = tmp_path / "returns.csv"
    data.write_text("return\n" + "\n".join(repr(float(v)) for v in values), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["estimate", "--returns", str(data), "--N", "150", "--rho", "-1.0",
                 "--a", "0.995", "--out", str(out), "--no-timestamp"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["mse_crossover"]["C1"] == "nan"
    assert report["mse_crossover"]["C2"] == pytest.approx(12.72, abs=0.01)
    assert "MSE crossover C1 undefined: crossover denominator vanishes" in report["warnings"]
    assert not any(w.startswith("MSE crossover C2") for w in report["warnings"])


def test_estimate_deterministic_bytes(returns_csv, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main([
            "estimate", "--returns", str(returns_csv), "--a", "0.99",
            "--out", str(out), "--no-timestamp", "--seed", "7",
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_mc_custom_design_threads_deterministic(tmp_path):
    design = {
        "n": 400, "variant": "h1", "theta": 0.0, "v": 3,
        "a_levels": [0.95], "c": 0.7,
    }
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(design), encoding="utf-8")
    outputs = []
    for threads, name in ((1, "r1.csv"), (2, "r2.csv")):
        out = tmp_path / name
        code = main([
            "mc", "--design", str(design_path), "--reps", "6", "--seed", "3",
            "--threads", str(threads), "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    header = outputs[0].decode().splitlines()[0]
    assert header == "n,variant,theta,v,reps,seed,c,a,target,estimator,B,S,R,rel_R,ECP"


@pytest.mark.parametrize("design, flags, reps, seed", [
    # An explicit flag wins over the file ...
    ({"n": 200, "reps": 2, "a_levels": [0.95]}, ["--reps", "50"], 50, 0),
    ({"n": 200, "reps": 2, "seed": 9}, ["--seed", "0"], 2, 0),
    # ... and a file value over McDesign's default.
    ({"n": 200, "reps": 2, "seed": 9}, [], 2, 9),
    ({"n": 200}, [], McDesign().reps, McDesign().seed),
    ("table1", [], McDesign().reps, McDesign().seed),
    ("table1", ["--reps", "5", "--seed", "3"], 5, 3),
])
def test_mc_flags_override_design_values(tmp_path, design, flags, reps, seed):
    if isinstance(design, dict):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(design), encoding="utf-8")
        design = str(path)
    resolved = _load_design(build_parser().parse_args(["mc", "--design", design, *flags]))
    assert (resolved.reps, resolved.seed) == (reps, seed)


def test_mc_reps_flag_reaches_results(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"n": 200, "reps": 2, "a_levels": [0.95]}), encoding="utf-8")
    out = tmp_path / "results.csv"
    code = main(["mc", "--design", str(path), "--reps", "3", "--threads", "1",
                 "--out", str(out)])
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert rows and all(row.split(",")[4] == "3" for row in rows)


@pytest.mark.parametrize("values, code, message", [
    ([0.5] * 300, 1, "error: series is constant: all 300 values are equal"),
    ([0.5] * 299 + [0.7], 2, "numerical failure: conditioning values are all equal"),
], ids=["constant", "constant-covariate"])
def test_estimate_flat_series_exit_codes(tmp_path, capsys, values, code, message):
    data = tmp_path / "returns.csv"
    data.write_text("return\n" + "\n".join(repr(v) for v in values), encoding="utf-8")
    assert main(["estimate", "--returns", str(data), "--no-timestamp"]) == code
    assert capsys.readouterr().err.strip() == message


def test_estimate_zero_residual_iqr_is_a_numerical_failure(tmp_path, capsys):
    # 199 of the 249 pairs (lagged return, return) are (0, 0), so their
    # standardized residuals are one value.  The residuals' zero
    # interquartile range is a degenerate fit, not bad input.
    values = np.concatenate([np.zeros(200), np.random.default_rng(0).standard_t(3, size=50)])
    data = tmp_path / "returns.csv"
    data.write_text("return\n" + "\n".join(repr(float(v)) for v in values), encoding="utf-8")
    assert main(["estimate", "--returns", str(data), "--no-timestamp"]) == 2
    assert capsys.readouterr().err.strip() == (
        "numerical failure: standardized residuals: interquartile range is zero (degenerate sample)"
    )


def test_mc_unknown_design(tmp_path):
    code = main(["mc", "--design", "table9", "--reps", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1


def _backtest_at_both_thread_counts(tmp_path, values, flags):
    """The report and forecast bytes of one backtest at --threads 1 and 2."""
    data = tmp_path / "synthetic.csv"
    data.write_text("return\n" + "\n".join(repr(float(v)) for v in values), encoding="utf-8")
    reports, forecasts = [], []
    for threads, tag in ((1, "x"), (2, "y")):
        out = tmp_path / f"report_{tag}.json"
        dump = tmp_path / f"fc_{tag}.csv"
        code = main([
            "backtest", "--returns", str(data), *flags,
            "--threads", str(threads), "--out", str(out),
            "--dump-forecasts", str(dump), "--no-timestamp",
        ])
        assert code == 0
        reports.append(out.read_bytes())
        forecasts.append(dump.read_bytes())
    return reports, forecasts


def test_backtest_cli_smoke_and_determinism(tmp_path):
    rng = np.random.default_rng(2024)
    values = rng.standard_t(6, size=420) / math.sqrt(6 / 4)
    reports, forecasts = _backtest_at_both_thread_counts(
        tmp_path, values, ["--m", "420", "--n", "320", "--a", "0.95", "--seed", "5", "--B-boot", "499"])
    assert reports[0] == reports[1]
    assert forecasts[0] == forecasts[1]
    report = json.loads(reports[0].decode())
    assert report["n_forecasts"] == 100
    level = report["levels"]["0.95"]
    assert 0 <= level["violations"] <= 100
    assert level["n_evaluated"] == 100
    assert level["coverage_p"] is not None
    lines = forecasts[0].decode().splitlines()
    assert lines[0] == "date,return,cvar,ces"
    assert len(lines) == 101
    # Uniform returns put the GPD shape at its boundary in most windows (92
    # of 150 measured).  The warnings each window raises reach the report
    # at any thread count, also from pool workers.
    uniform = np.random.default_rng(0).uniform(-0.01, 0.01, 700)
    reports, forecasts = _backtest_at_both_thread_counts(
        tmp_path, uniform, ["--m", "650", "--n", "500", "--a", "0.99", "--B-boot", "99"])
    assert reports[0] == reports[1]
    assert forecasts[0] == forecasts[1]
    caught = json.loads(reports[0].decode())["warnings"]
    assert len(caught) > 75 and all("search boundary" in w for w in caught)


def test_mc_warnings_do_not_depend_on_threads(tmp_path):
    # Each replication's warnings reach the caller in replication order,
    # also from pool workers.
    recorded = []
    for threads in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["mc", "--design", "table4", "--reps", "40", "--threads", str(threads),
                         "--out", str(tmp_path / f"r{threads}.csv")])
        assert code == 0
        recorded.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    assert recorded[0] == recorded[1] and recorded[0]


@pytest.mark.parametrize("flags, fields", [
    ([], {}),
    (["--m", "2000"], {"m": 2000}),
    (["--n", "500"], {"n": 500}),
    (["--a", "0.99,0.999"], {"a_levels": (0.99, 0.999)}),
    (["--N", "50"], {"N": 50}),
    (["--B-boot", "99"], {"B_boot": 99}),
    (["--seed", "7"], {"seed": 7}),
])
def test_backtest_flags_resolve_over_config_defaults(flags, fields):
    # An omitted flag takes BacktestConfig's default; a given one wins.
    args = build_parser().parse_args(["backtest", "--returns", "r.csv", *flags])
    assert cli._backtest_config(args) == BacktestConfig(**fields)


@pytest.mark.parametrize("input_flag", ["--returns", "--prices"])
def test_backtest_level_checked_before_input_read(tmp_path, capsys, input_flag):
    # The configuration is checked first: a missing file still gets the
    # level error.
    data = tmp_path / "r.csv"
    if input_flag == "--returns":
        data.write_text("return\n0.1\n0.2\n", encoding="utf-8")
    code = main(["backtest", input_flag, str(data), "--a", "0.95,1.5"])
    assert code == 1
    assert "level 1.5 outside (0,1)" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--B-boot", "-5"], "bootstrap count B_boot must be at least 1, got -5"),
    (["--B-boot", "0"], "bootstrap count B_boot must be at least 1, got 0"),
    (["--N", "0"], "tail count N=0 must satisfy 0 < N < n - 1=399"),
    (["--N", "399"], "tail count N=399 must satisfy 0 < N < n - 1=399"),
    (["--a", "0.95,0.95"], "level 0.95 given more than once"),
    (["--seed", "-1"], "bootstrap seed must be a non-negative integer, got -1"),
])
def test_backtest_config_rejected_before_input_read(tmp_path, capsys, flags, message):
    # The input file does not exist: the configuration error comes first.
    code = main(["backtest", "--prices", str(tmp_path / "missing.csv"),
                 "--m", "500", "--n", "400", *flags])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_estimate_checks_c_before_input_read_even_with_explicit_N(tmp_path, capsys):
    code = main(["estimate", "--returns", str(tmp_path / "missing.csv"),
                 "--N", "150", "--c", "-1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: tail schedule constant c must be finite and positive, got -1.0\n")


def test_backtest_level_parse_error(tmp_path):
    data = tmp_path / "r.csv"
    data.write_text("return\n0.1\n0.2\n", encoding="utf-8")
    code = main(["backtest", "--returns", str(data), "--a", "0.95;0.99"])
    assert code == 1


def test_backtest_multi_level_dump_one_file_per_level(tmp_path):
    rng = np.random.default_rng(31)
    values = rng.standard_t(6, size=420) / math.sqrt(6 / 4)
    data = tmp_path / "r.csv"
    data.write_text("return\n" + "\n".join(repr(float(v)) for v in values),
                    encoding="utf-8")
    dump = tmp_path / "fc.csv"
    code = main([
        "backtest", "--returns", str(data), "--m", "420", "--n", "320",
        "--a", "0.95,0.99", "--B-boot", "199", "--threads", "1",
        "--out", str(tmp_path / "rep.json"), "--dump-forecasts", str(dump),
        "--no-timestamp",
    ])
    assert code == 0
    assert not dump.exists()
    for a in ("0.95", "0.99"):
        per_level = tmp_path / f"fc_a{a}.csv"
        assert per_level.exists()
        assert per_level.read_text().splitlines()[0] == "date,return,cvar,ces"


def test_backtest_from_prices_carries_dates(tmp_path):
    import datetime

    rng = np.random.default_rng(77)
    rets = rng.standard_t(6, size=421) * 0.01
    prices = 100 * np.exp(np.cumsum(rets))
    start = datetime.date(2018, 1, 1)
    lines = ["date,price"] + [
        f"{start + datetime.timedelta(days=i)},{float(p)!r}"
        for i, p in enumerate(prices)
    ]
    data = tmp_path / "prices.csv"
    data.write_text("\n".join(lines), encoding="utf-8")
    out = tmp_path / "rep.json"
    code = main([
        "backtest", "--prices", str(data), "--m", "420", "--n", "320",
        "--a", "0.95", "--B-boot", "199", "--threads", "1",
        "--out", str(out), "--no-timestamp",
    ])
    assert code == 0
    level = json.loads(out.read_text())["levels"]["0.95"]
    if level["violations"]:
        assert len(level["violation_dates"]) == level["violations"]
        assert level["violation_dates"][0].startswith("2018") or \
            level["violation_dates"][0].startswith("2019")


def test_estimate_explicit_query_point(returns_csv, tmp_path):
    out = tmp_path / "q.json"
    code = main([
        "estimate", "--returns", str(returns_csv), "--a", "0.99",
        "--x", "0.25", "--out", str(out), "--no-timestamp",
    ])
    assert code == 0
    assert json.loads(out.read_text())["x"] == 0.25


def _estimate_report(tmp_path, values, *flags):
    """The report of `estimate` on the returns `values`, written exactly."""
    data = tmp_path / "window.csv"
    data.write_text("return\n" + "\n".join(repr(float(v)) for v in values), encoding="utf-8")
    out = tmp_path / "window.json"
    assert main(["estimate", "--returns", str(data), *flags, "--out", str(out),
                 "--no-timestamp"]) == 0
    return json.loads(out.read_text())


def test_estimate_is_scale_equivariant(tmp_path):
    # Mapping the returns v to s v + beta maps the covariate and the query
    # point alike.  The standardized residuals, hence h3, the threshold and
    # the fitted shape, stay as they are; the bandwidths h1 and h2 scale by
    # s, h_x by s^2, and m_x and the point estimates move as s (.) + beta.
    # s v + beta rounds each return once: measured, the worst disagreement
    # is 5.2e-15 relative for a pure scaling (s = 1e-5, where the variance
    # floor, relative to mean u^2, zeroes no residual) and 7.4e-13 with a
    # shift (h1 at beta = 1), hence the two tolerances.  The interval endpoints are left
    # out: they scale but do not yet shift, because assemble divides the
    # whole of m + h^(1/2) q by 1 -+ z sqrt(Sigma/N).
    def readings(report):
        first, tail, estimates = report["first_stage"], report["tail"], report["estimates"]
        return (
            [first["h1"], first["h2"]],
            [first["h_x"]],
            [first["m_x"]] + [estimates[key] for key in ("cvar", "ces", "cvar_bc", "ces_bc")],
            [tail[key] for key in ("h3", "q_tilde", "k")],
        )

    values = load_returns(GOLDEN_RETURNS).values
    scaled, variance, located, fixed = readings(_estimate_report(tmp_path, values, "--a", "0.99"))
    for s, beta in ((100.0, 0.0), (1e4, 0.0), (1e-2, 0.0), (1e-4, 0.0), (1e-5, 0.0),
                    (1.0, 0.05), (1.0, 1.0), (3.0, -0.2)):
        got = readings(_estimate_report(tmp_path, s * values + beta, "--a", "0.99"))
        want = ([s * v for v in scaled], [s * s * v for v in variance],
                [s * v + beta for v in located], fixed)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12 if beta == 0.0 else 1e-11, abs=0.0), (s, beta)


def test_backtest_forecast_equals_estimate_on_its_window(tmp_path):
    # The backtest's copy of the pipeline: the forecast at step t is
    # `estimate` on the window that ends at t, at the window's tail count,
    # uncorrected, at the query point values[t].  Bit for bit.
    values = load_returns(GOLDEN_RETURNS).values[:403]
    cfg = BacktestConfig(m=403, n=400, a_levels=(0.99,))
    forecasts = rolling_forecast(ReturnSeries(values, kind="raw"), cfg)
    N = cfg.tail_count(cfg.n - 1)
    assert forecasts.steps.size == 3 and forecasts.n_failures == 0
    for i, t in enumerate(forecasts.steps):
        report = _estimate_report(
            tmp_path, values[t - cfg.n + 1:t + 1], "--a", "0.99", "--N", str(N),
            "--no-bias-correction", "--x", repr(float(values[t])),
        )
        assert report["estimates"]["cvar"] == forecasts.cvar[0.99][i]
        assert report["estimates"]["ces"] == forecasts.ces[0.99][i]


def test_mc_pipeline_arm_equals_estimate_on_its_path(tmp_path):
    # The Monte Carlo copy of the pipeline: its estimates on a simulated
    # path are those of `estimate` on that path at the design's schedule
    # constant, corrected and uncorrected.  Bit for bit.
    design = McDesign(n=1000, reps=3, seed=5, a_levels=(0.99,))
    for rep in range(design.reps):
        records = _replicate(design, rep)
        report = _estimate_report(tmp_path, _simulate(design, rep).y, "--a", "0.99",
                                  "--c", str(design.c))
        assert report["tail"]["k"] == records[("k0", "pipeline", None)][0]
        assert report["tail"]["k_bc"] == records[("k0", "pipeline_bc", None)][0]
        for target in ("cvar", "ces"):
            assert report["estimates"][target] == records[(target, "pipeline", 0.99)][0]
            assert report["estimates"][target + "_bc"] == records[(target, "pipeline_bc", 0.99)][0]


def test_env_thread_fallback(monkeypatch):
    for command in ("mc", "backtest"):
        args = build_parser().parse_args([command])
        monkeypatch.setenv("EVTRISK_THREADS", "3")
        assert _resolve_threads(args) == 3
        monkeypatch.setenv("EVTRISK_THREADS", "0")
        with pytest.raises(InputError, match="--threads"):
            _resolve_threads(args)


def test_thread_range_errors_name_their_source(monkeypatch):
    monkeypatch.setenv("EVTRISK_THREADS", "0")
    with pytest.raises(InputError) as info:
        _resolve_threads(build_parser().parse_args(["mc"]))
    assert str(info.value) == (
        "EVTRISK_THREADS must be at least 1, got '0'; pass --threads to override")
    with pytest.raises(InputError, match="^--threads must be at least 1$"):
        _resolve_threads(build_parser().parse_args(["backtest", "--threads", "0"]))


@pytest.mark.parametrize("argv_tail, bad_text, env", [
    (["estimate", "--returns", "{tmp}/nope.csv"], None, None),
    (["mc", "--design", "{tmp}/nope.json"], None, None),
    (["mc", "--design", "{tmp}/bad.json"], '{"n": 400, "thetaa": 0.1}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"n": 400, "rho_c": 0.25}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"a_levels": 0.95}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"a_levels": [0.99, 0.99], "reps": 4}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"n": "1000"}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"n": 400, "v": 4.5}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"n": 400, "v": 1000}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"theta": "abc"}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"n": 1000.5}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"reps": 2.5}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"seed": 1.5}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"theta": 1.5}', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"theta": -0.5}', None),
    (["mc", "--design", "table1", "--seed", "-1"], None, None),
    (["mc", "--design", "{tmp}/bad.json"], '[1, 2]', None),
    (["mc", "--design", "{tmp}/bad.json"], '{"n": 400, "v"', None),
    (["mc", "--design", "table1", "--reps", "1"], None, "abc"),
    (["estimate", "--prices", "{tmp}/bad.csv"],
     "date,price\n2000-01-03,100\n2000-01-04T00:00+01:00,101\n", None),
    (["estimate", "--prices", "{tmp}/bad.csv"],
     b"date,price\n2000-01-03,100\n2000-01-04,10\xe9\n", None),
], ids=["missing-returns", "missing-design", "unknown-field", "rho_c-field",
        "scalar-levels", "repeated-levels", "string-value", "non-integer-v", "large-v", "string-theta", "non-integer-n",
        "non-integer-reps", "non-integer-seed", "theta-above-one", "negative-theta", "negative-seed",
        "not-object", "truncated", "env-threads",
        "mixed-utc-offsets", "not-utf8"])
def test_bad_input_exits_one_without_traceback(tmp_path, capsys, monkeypatch,
                                               argv_tail, bad_text, env):
    """bad_text, when given, is the content of the {tmp}/bad.* file in argv:
    str is written as UTF-8, bytes as they are."""
    if bad_text is not None:
        name = next(arg for arg in argv_tail if arg.startswith("{tmp}/bad."))
        path = tmp_path / name.removeprefix("{tmp}/")
        if isinstance(bad_text, bytes):
            path.write_bytes(bad_text)
        else:
            path.write_text(bad_text, encoding="utf-8")
    if env is not None:
        monkeypatch.setenv("EVTRISK_THREADS", env)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv_tail]
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def _fresh_process_main(argv) -> None:
    """Run `python -m evtrisk.cli argv` in a new interpreter on this src/."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "evtrisk.cli", *argv],
                   env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                   check=True, timeout=300)


def test_repeated_main_calls_match_fresh_processes(returns_csv, tmp_path):
    # main() reuses one parser per process: flags given to one call must not
    # reach the next, so each report equals that of a fresh process.
    rng = np.random.default_rng(31)
    long_csv = tmp_path / "long.csv"
    long_csv.write_text("return\n" + "\n".join(
        repr(float(v)) for v in rng.standard_t(6, size=1500) / math.sqrt(6 / 4)),
        encoding="utf-8")
    commands = [
        ["estimate", "--returns", str(returns_csv), "--no-bias-correction"],
        ["estimate", "--returns", str(returns_csv)],
        ["backtest", "--returns", str(long_csv), "--m", "1200", "--n", "1000",
         "--a", "0.99", "--B-boot", "99", "--seed", "4", "--threads", "2"],
        ["backtest", "--returns", str(long_csv), "--threads", "2"],
    ]
    for i, argv in enumerate(commands):
        here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
        assert main([*argv, "--no-timestamp", "--out", str(here)]) == 0
        _fresh_process_main([*argv, "--no-timestamp", "--out", str(fresh)])
        assert here.read_bytes() == fresh.read_bytes()
