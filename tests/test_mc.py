import concurrent.futures
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from evtrisk import mc
from evtrisk.errors import EstimationWarning, InputError, run_jobs
from evtrisk.mc import (
    TRIM_FRACTION,
    McDesign,
    _replicate,
    _simulate,
    _t_quantile,
    _t_risk_std,
    named_design,
    run_experiment,
    summarize,
    true_risk,
)
from oracles import mean_recursion, simulate_oracle, variance_fn

# Level sets McDesign and BacktestConfig reject, with the message of each.
BAD_LEVELS = (
    (("0.95",), r"^level '0\.95' must be a real number in \(0,1\)$"),
    ((0.95, None), r"^level None must be a real number in \(0,1\)$"),
    ((0.95, True), r"^level True must be a real number in \(0,1\)$"),
    (0.95, r"^levels must be a tuple or list, got 0\.95$"),
    ((0.99, 0.99), r"^level 0\.99 given more than once$"),
)

DESIGN = McDesign(n=400, variant="h1", theta=0.0, v=6, reps=6, seed=5,
                  a_levels=(0.95,))


def test_design_validation():
    with pytest.raises(InputError):
        McDesign(n=100)
    with pytest.raises(InputError):
        McDesign(v=2)
    with pytest.raises(InputError, match=r"^design field v must be an integer, got 4\.5$"):
        McDesign(v=4.5)
    with pytest.raises(InputError, match=r"^design field v must be at most 30, got 31: .* v = 3 to 30$"):
        McDesign(v=31)
    assert McDesign(v=30).v == 30
    for field, value in (("n", 1000.5), ("reps", 2.5), ("seed", 1.5), ("seed", True)):
        with pytest.raises(InputError, match=rf"^design field {field} must be an integer, got {value!r}$"):
            McDesign(**{field: value})
    with pytest.raises(InputError, match=r"^design field seed must be non-negative, got -1$"):
        McDesign(seed=-1)
    # theta weighs the previous variance: the recursion is stationary for
    # theta in [0, 1), whichever variance function it carries.
    for variant in ("h1", "h2"):
        for theta in ("abc", 1.0, 1.5, -0.5, math.nan, math.inf):
            with pytest.raises(InputError, match=r"^design field theta must be a real number in \[0, 1\), got "):
                McDesign(variant=variant, theta=theta)
        assert McDesign(variant=variant, theta=0.99).theta == 0.99
    with pytest.raises(InputError):
        McDesign(variant="h3")
    with pytest.raises(InputError):
        McDesign(a_levels=(1.2,))
    for levels, message in BAD_LEVELS:
        with pytest.raises(InputError, match=message):
            McDesign(a_levels=levels)
    assert McDesign(v=3).k0 == pytest.approx(-1 / 3)


@pytest.mark.parametrize("variant", ["h1", "h2"])
def test_mean_recursion_on_path(variant):
    design = McDesign(n=300, variant=variant, theta=0.5, v=3, reps=1, seed=2)
    path = _simulate(design, 0)
    # y(t) = sin(y(t-1)/2) + sqrt(h(t)) eps(t) checked on the recorded path
    rebuilt = mean_recursion(path.y[:-1], path.h[1:], path.eps[1:])
    np.testing.assert_allclose(path.y[1:], rebuilt, rtol=1e-12)


def test_innovations_standardized():
    design = McDesign(n=100_000, variant="h1", theta=0.0, v=6, reps=1, seed=9)
    path = _simulate(design, 0)
    assert path.eps.var() == pytest.approx(1.0, abs=0.03)
    assert abs(path.eps.mean()) < 0.02


def test_v3_heavier_than_v6():
    base = dict(n=50_000, variant="h1", theta=0.0, reps=1, seed=31)
    heavy = _simulate(McDesign(v=3, **base), 0)
    light = _simulate(McDesign(v=6, **base), 0)
    assert stats.kurtosis(heavy.y) > stats.kurtosis(light.y)


def test_variance_recursion_and_floor():
    design = McDesign(n=300, variant="h2", theta=0.5, v=6, reps=1, seed=2)
    path = _simulate(design, 0)
    assert np.all(path.h >= 1e-8)
    # h(t) = h2(y_{t-1}) + theta h(t-1) checked on the recorded path
    rebuilt = variance_fn(path.y[:-1], "h2") + 0.5 * path.h[:-1]
    np.testing.assert_allclose(path.h[1:], rebuilt, rtol=1e-12)


def test_variance_recursion_h1():
    design = McDesign(n=300, variant="h1", theta=0.5, v=3, reps=1, seed=2)
    path = _simulate(design, 0)
    rebuilt = variance_fn(path.y[:-1], "h1") + 0.5 * path.h[:-1]
    np.testing.assert_allclose(path.h[1:], rebuilt, rtol=1e-12)


# ---------------------------------------------------------------- truths


def test_true_risk_median_is_mean_function():
    design = McDesign(n=400, v=6)
    q, _ = true_risk(design, x=0.7, a=0.5, h_next=1.3)
    assert q == pytest.approx(math.sin(0.35))


def test_t_quantile_matches_numeric_inversion():
    for v, a in ((6, 0.99), (3, 0.95)):
        lo, hi = 0.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if stats.t.cdf(mid, v) < a:
                lo = mid
            else:
                hi = mid
        expected = mid / math.sqrt(v / (v - 2))
        assert _t_risk_std(a, v)[0] == pytest.approx(expected, abs=1e-8)


def test_tail_mean_matches_quadrature():
    for v, a in ((6, 0.99), (3, 0.95), (6, 0.999)):
        scale = math.sqrt(v / (v - 2))
        c = stats.t.ppf(a, v)
        raw, _ = quad(lambda x: x * stats.t.pdf(x, v), c, np.inf, limit=300)
        assert _t_risk_std(a, v)[1] == pytest.approx(raw / (1 - a) / scale, rel=1e-8)


def test_tail_mean_above_quantile():
    for v in (3, 6):
        for a in (0.5, 0.9, 0.99, 0.999):
            q, e = _t_risk_std(a, v)
            assert e >= q


def test_true_risk_theta_needs_path_variance():
    design = McDesign(n=400, theta=0.5, v=6)
    q, e = true_risk(design, x=0.0, a=0.99, h_next=1.7)
    assert e > q


# ---------------------------------------------------------------- aggregation


def test_summarize_single_replication():
    b, s, r = summarize(np.array([0.37]))
    assert b == pytest.approx(0.37)
    assert s == 0.0
    assert r == pytest.approx(0.37)


def test_summarize_rmse_identity():
    rng = np.random.default_rng(4)
    errors = rng.normal(0.2, 1.0, size=400)
    b, s, r = summarize(errors)
    cut = int(TRIM_FRACTION * errors.size)  # 10 of 400 from each end
    kept = np.sort(errors)[cut:-cut]
    assert b == pytest.approx(kept.mean(), abs=1e-12)
    assert r**2 == pytest.approx(b**2 + s**2, abs=1e-9)
    assert r == pytest.approx(math.sqrt(np.mean(kept**2)), abs=1e-12)


def test_trimming_robustness():
    rng = np.random.default_rng(6)
    errors = rng.normal(size=200)
    b0, *_ = summarize(errors)
    b0_raw = errors.mean()
    spiked = np.concatenate([errors, [500.0, 600.0]])
    b1, *_ = summarize(spiked)
    b1_raw = spiked.mean()
    assert abs(b1 - b0) < abs(b1_raw - b0_raw)


# ---------------------------------------------------------------- experiment


@pytest.fixture(scope="module")
def small_result():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(DESIGN, threads=1)


def test_experiment_rows_complete(small_result):
    targets = {(row.target, row.estimator, row.a) for row in small_result.rows}
    assert ("sigma_N", "pipeline", None) in targets
    assert ("k0", "oracle_bc", None) in targets
    assert ("cvar", "pipeline_bc", 0.95) in targets
    assert ("ces", "oracle", 0.95) in targets
    for row in small_result.rows:
        assert math.isfinite(row.B)
        assert row.rel_R >= 1.0 or math.isnan(row.rel_R)
        # Only the intervals of the corrected CVaR and CES have a coverage.
        if row.estimator.endswith("_bc") and row.target in ("cvar", "ces"):
            assert row.ecp is not None and 0.0 <= row.ecp <= 1.0
        else:
            assert row.ecp is None


def test_experiment_reproducible_across_threads(small_result):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        again = run_experiment(DESIGN, threads=2)
    assert len(again.rows) == len(small_result.rows)
    for a, b in zip(small_result.rows, again.rows):
        assert (a.target, a.estimator, a.a) == (b.target, b.estimator, b.a)
        assert a.B == b.B and a.S == b.S and a.R == b.R and a.ecp == b.ecp


def test_run_jobs_starts_no_more_workers_than_jobs(monkeypatch):
    # A process pool starts all of its workers at once, so run_jobs asks for
    # no more than there are jobs, and runs here when that is one.  A stand-in
    # pool records its size and maps in this process: no process starts.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return map(fn, jobs)

    def square(i):
        warnings.warn(f"job {i}", EstimationWarning)
        return i * i

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for threads, count, pool in [(64, 4, [4]), (64, 1, []), (2, 8, [2]), (1, 8, []), (64, 0, [])]:
        sizes.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_jobs(square, list(range(count)), threads, chunksize=4)
        assert sizes == pool, (threads, count)
        assert results == [i * i for i in range(count)]
        assert [str(w.message) for w in caught] == [f"job {i}" for i in range(count)]


def fail_first_call(monkeypatch, module, name, error):
    """Make module.name raise `error` on its first call only."""
    original = getattr(module, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(name)
        if len(calls) == 1:
            raise error
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)


@pytest.mark.parametrize("name, category", [
    ("svd", "DegenerateFitError"),      # quartic pilot of the bandwidth rule
])
def test_linalg_error_fails_one_replication(monkeypatch, name, category):
    fail_first_call(monkeypatch, np.linalg, name, np.linalg.LinAlgError("injected"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # 21 table1-style replications, none of which fails on its own
        result = run_experiment(replace(named_design("table1"), reps=21, seed=0), threads=1)
    assert result.n_failures == 1
    rep, message = result.failures[0]
    assert rep == 0
    assert message.startswith(f"{category}: ") and "injected" in message


def test_replication_evaluates_each_curve_once(monkeypatch):
    # m(x) and h(x) do not depend on the level: one table1 replication
    # (three levels) evaluates each fitted curve once at the query point.
    calls = {"m_hat": 0, "h_hat": 0}
    fit_location_scale = mc.fit_location_scale

    def counting(name, curve):
        def counted(q):
            calls[name] += 1
            return curve(q)
        return counted

    def fit_counted(*args, **kwargs):
        fit = fit_location_scale(*args, **kwargs)
        return replace(fit, m_hat=counting("m_hat", fit.m_hat),
                       h_hat=counting("h_hat", fit.h_hat))

    monkeypatch.setattr(mc, "fit_location_scale", fit_counted)
    design = named_design("table1")
    records = _replicate(design, 0)
    assert len(design.a_levels) == 3
    assert len(records) == 8 + 2 * 4 * len(design.a_levels)
    assert calls == {"m_hat": 1, "h_hat": 1}


def test_named_designs():
    design = named_design("table1")
    assert design.v == 3 and (design.reps, design.seed) == (McDesign().reps, McDesign().seed)
    with pytest.raises(InputError):
        named_design("table9")


def test_simulate_reproducible_per_rep():
    design = McDesign(n=300, v=6, reps=2, seed=77)
    a = _simulate(design, 1)
    b = _simulate(design, 1)
    np.testing.assert_array_equal(a.y, b.y)
    c = _simulate(design, 0)
    assert not np.array_equal(a.y, c.y)


@pytest.mark.parametrize("name", ["table1", "table23"])
@pytest.mark.parametrize("variant", ["h1", "h2"])
@pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
def test_simulate_matches_step_by_step_oracle_bitwise(name, variant, theta):
    design = replace(named_design(name), variant=variant, theta=theta)
    for rep in (0, 7):
        path = _simulate(design, rep)
        y, eps, h, h_next = simulate_oracle(design, rep)
        assert path.y.tobytes() == y.tobytes()
        assert path.eps.tobytes() == eps.tobytes()
        assert path.h.tobytes() == h.tobytes()
        assert path.h_next == h_next


def _t_quantile_oracle(v, u):
    """stdtrit(v, u), except within 0.1 of u = 1/2.  stdtrit's relative
    error grows toward 1/2: at v = 4 it is 5e-11 at |u - 1/2| = 1e-3 and
    2.8e-5 at 1.7e-6 (against 40-digit values).  There the oracle inverts
    the incomplete beta function instead, t = sqrt(v y / (1 - y)) with
    y = betaincinv(1/2, v/2, |2u - 1|): its argument is exact and y small."""
    near = np.abs(u - 0.5) < 0.1
    y = special.betaincinv(0.5, 0.5 * v, np.abs(2.0 * u[near] - 1.0))
    out = special.stdtrit(v, u)
    out[near] = np.copysign(np.sqrt(v * y / (1.0 - y)), u[near] - 0.5)
    return out


@pytest.mark.parametrize("v", range(3, 31))
def test_t_quantile_matches_stdtrit(v):
    rng = np.random.default_rng(v)
    tails = np.geomspace(1e-15, 0.1, 2000)
    u = np.concatenate([rng.random(100_000), tails, 1.0 - tails])
    q = _t_quantile(v, u)
    np.testing.assert_allclose(q, _t_quantile_oracle(v, u), rtol=1e-13, atol=0)
    upper = u[u >= 0.5]  # 1 - u is exact there
    assert np.array_equal(_t_quantile(v, 1.0 - upper), -_t_quantile(v, upper))
    # stdtrit gives +inf at u = 0.
    assert _t_quantile(v, np.array([0.0, 0.5, 1.0])).tolist() == [-math.inf, 0.0, math.inf]


def test_theta_half_misspecified_design_runs():
    # the estimator assumes theta = 0; the harness still scores it against
    # the path truth when theta = 0.5
    design = McDesign(n=400, variant="h1", theta=0.5, v=3, reps=6, seed=22,
                      a_levels=(0.95,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_experiment(design, threads=1)
    row = {(r.target, r.estimator, r.a): r for r in result.rows}[("cvar", "pipeline", 0.95)]
    assert math.isfinite(row.B)
    path = _simulate(design, 0)
    q_true, e_true = true_risk(design, float(path.y[-1]), 0.95, h_next=path.h_next)
    assert e_true > q_true
