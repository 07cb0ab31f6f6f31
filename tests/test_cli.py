import json
import math

import numpy as np
import pytest

from evtrisk.cli import main


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


def test_mc_unknown_design(tmp_path):
    code = main(["mc", "--design", "table9", "--reps", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_backtest_cli_smoke_and_determinism(tmp_path):
    rng = np.random.default_rng(2024)
    values = rng.standard_t(6, size=420) / math.sqrt(6 / 4)
    data = tmp_path / "synthetic.csv"
    data.write_text("return\n" + "\n".join(repr(float(v)) for v in values), encoding="utf-8")
    reports, forecasts = [], []
    for threads, tag in ((1, "x"), (2, "y")):
        out = tmp_path / f"report_{tag}.json"
        dump = tmp_path / f"fc_{tag}.csv"
        code = main([
            "backtest", "--returns", str(data), "--m", "420", "--n", "320",
            "--a", "0.95", "--seed", "5", "--B-boot", "499",
            "--threads", str(threads), "--out", str(out),
            "--dump-forecasts", str(dump), "--no-timestamp",
        ])
        assert code == 0
        reports.append(out.read_bytes())
        forecasts.append(dump.read_bytes())
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


def test_env_thread_fallback(returns_csv, tmp_path, monkeypatch):
    monkeypatch.setenv("EVTRISK_THREADS", "1")
    out = tmp_path / "env.json"
    code = main([
        "estimate", "--returns", str(returns_csv), "--a", "0.99",
        "--out", str(out), "--no-timestamp",
    ])
    assert code == 0
