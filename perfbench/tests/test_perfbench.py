"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import collections
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_times_on_nested_tree():
    tree = [
        _span("bench.op", 0.0, 10.0, -1),      # 0
        _span("cli.main", 1.0, 9.0, 0),        # 1
        _span("smoothing.fit", 2.0, 5.0, 1),   # 2
        _span("tail.extract", 5.0, 8.0, 1),    # 3
        _span("tail.quantile", 6.0, 7.0, 3),   # 4
        _span("tail.quantile", 6.5, 7.5, 3),   # 5: overlaps its sibling
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([2.0, 2.0, 3.0, 1.5, 1.0, 1.0])
    total = tree[0][2] - tree[0][1]
    assert sum(selfs) == pytest.approx(total + 0.5)  # the overlap counts twice


def test_union_length_clips_to_parent():
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 20.0)], 1.0, 10.0) == \
        pytest.approx(2.0 + 5.0)
    assert spans.union_length([], 0.0, 1.0) == 0.0


def test_tracer_attributes_failure_to_innermost_layer():
    tracer = spans.Tracer()

    def inner():
        raise ValueError("boom")

    traced_inner = tracer.wrap("tail.quantile", inner)
    traced_outer = tracer.wrap("gpd.rho", lambda: traced_inner())
    with pytest.raises(ValueError):
        with tracer.span("bench.op", op=7):
            traced_outer()
    assert tracer.failures == {("tail", "ValueError"): 1}
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["bench.op", "gpd.rho", "tail.quantile"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 1]
    assert all(s[spans.OP] == 7 for s in tracer.spans)


def test_layer_metrics_shares_and_unattributed_sum_to_one():
    tracer = spans.Tracer()
    tracer.spans = [
        _span("bench.op", 0.0, 4.0, -1),
        _span("smoothing.fit", 0.0, 3.0, 0),
        _span("gpd.mle", 3.0, 3.5, 0),
    ]
    metrics = spans.layer_metrics(tracer, "bench.op", per_span_cost=0.0)
    assert metrics["smoothing.share"] == pytest.approx(0.75)
    assert metrics["gpd.share"] == pytest.approx(0.125)
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.125)
    assert metrics["smoothing.fit_s"] == pytest.approx(3.0)
    assert metrics["smoothing.fit_calls"] == 1
    assert metrics["mc.replicate_calls"] == 0
    assert set(metrics) | {"mc.pool_efficiency", "backtest.pool_efficiency",
                           "smoothing.fit_scaling_8000_over_1000", "checks.flagged"} == \
        set(spans.per_layer_catalogue())


def test_benchmark_json_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names + metrics:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names + metrics)) == len(names + metrics)
    assert set(names) <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        spans.per_layer_catalogue()


def test_generator_is_seeded():
    a = gen.price_csv(gen.simulate_returns(3, 500, 3))
    b = gen.price_csv(gen.simulate_returns(3, 500, 3))
    c = gen.price_csv(gen.simulate_returns(4, 500, 3))
    assert a == b
    assert a != c


def test_generator_scale_and_round_trip(tmp_path):
    import evtrisk

    returns = gen.simulate_returns(5, 2000, 6)
    assert 0.005 < returns.std() < 0.03
    path = tmp_path / "prices.csv"
    gen.write_prices(path, 5, 2000, 6)
    loaded = evtrisk.to_returns(evtrisk.load_prices(path)).values
    assert loaded == pytest.approx(returns, abs=1e-12)


def test_risk_checks():
    assert workloads.risk_failures(1.0, 2.0, 1.0, 2.0, (0.5, 1.5), (1.0, 3.0)) == []
    assert workloads.risk_failures(2.0, 1.0) == ["cvar_above_ces"]
    assert workloads.risk_failures(1.0, float("nan")) == ["nonfinite"]
    assert workloads.risk_failures(1.0, 2.0, 1.0, 2.0, (1.1, 1.5), None) == \
        ["ci_misses_estimate"]
    assert workloads.risk_failures(1.0, 2.0, 1.0, 2.0, (0.5, float("inf")), None) == []


def test_failed_counts_only_program_failures():
    result = workloads.UnitResult(10, collections.Counter(
        {"cvar_above_ces": 4, "failed_replication": 3, "nonfinite": 1, "exit2": 1}))
    assert result.failed == 2
    assert result.flagged == 9
    assert workloads.UnitResult(3, collections.Counter({"exit2": 3, "nonfinite": 3})).failed == 3


def test_run_refuses_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
