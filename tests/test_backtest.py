import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from evtrisk.backtest import (
    BOOTSTRAP_BUDGET,
    BacktestConfig,
    _chi2_sf,
    _durations,
    _forecast_window,
    _maximize_weibull,
    _weibull_profile_loglik,
    _weibull_profile_score,
    coverage_test,
    duration_tests,
    es_bootstrap_test,
    rolling_forecast,
    run_backtest,
)
from evtrisk.errors import EstimationWarning, EvtriskError, InputError
from evtrisk.ingest import ReturnSeries
from oracles import es_bootstrap_oracle, weibull_loglik
from test_mc import fail_first_call


# ---------------------------------------------------------------- coverage


def test_coverage_published_values():
    viol = np.zeros(500, dtype=bool)
    viol[:18] = True
    w, p = coverage_test(viol, 0.95)
    assert w == 18
    assert p == pytest.approx(0.151, abs=5e-4)

    viol = np.zeros(500, dtype=bool)
    viol[:5] = True
    w, p = coverage_test(viol, 0.99)
    assert w == 5
    assert p == pytest.approx(1.0)


def test_coverage_exact_expectation_gives_p_one():
    viol = np.zeros(200, dtype=bool)
    viol[:20] = True  # expected 200 * 0.1 = 20
    _, p = coverage_test(viol, 0.9)
    assert p == pytest.approx(1.0)


def test_coverage_invariant_to_relabeling():
    rng = np.random.default_rng(3)
    viol = rng.random(400) < 0.05
    _, p0 = coverage_test(viol, 0.95)
    _, p1 = coverage_test(np.sort(viol), 0.95)
    assert p0 == pytest.approx(p1)


@pytest.mark.parametrize("a", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_tests_reject_level_outside_unit_interval(a):
    viol = np.zeros(200, dtype=bool)
    viol[[20, 90, 150]] = True
    with pytest.raises(InputError, match="outside"):
        coverage_test(viol, a)
    with pytest.raises(InputError, match="outside"):
        duration_tests(viol, a)


# ---------------------------------------------------------------- durations


def test_duration_single_violation_not_available():
    viol = np.zeros(100, dtype=bool)
    viol[40] = True
    assert duration_tests(viol, 0.95) == (None, None)


def test_durations_censoring_layout():
    viol = np.array([0, 0, 1, 0, 0, 0, 1, 0], dtype=bool)
    d, cens = _durations(viol)
    np.testing.assert_array_equal(d, [3.0, 4.0, 1.0])
    np.testing.assert_array_equal(cens, [True, False, True])
    # leading non-violations only lengthen the censored first duration
    d2, cens2 = _durations(np.concatenate([np.zeros(5, dtype=bool), viol]))
    np.testing.assert_array_equal(d2, [8.0, 4.0, 1.0])
    np.testing.assert_array_equal(cens2, cens)


def test_duration_regular_pattern_rejected():
    viol = np.zeros(500, dtype=bool)
    viol[19::20] = True  # perfectly regular, non-memoryless
    p_ind, p_cc = duration_tests(viol, 0.95)
    assert p_ind is not None and p_ind < 0.05


def test_duration_lr_matches_grid_oracle():
    rng = np.random.default_rng(12)
    viol = rng.random(500) < 0.05
    assert viol.sum() >= 2
    d, cens = _durations(viol)
    # dense grid over the shape, scale solved in closed form per shape,
    # plus a dense scale grid for the exponential null
    n_unc = int((~cens).sum())
    ll_weib = -np.inf
    for b in np.linspace(0.05, 10.0, 8000):
        a = (n_unc / np.sum(d**b)) ** (1.0 / b)
        ll_weib = max(ll_weib, weibull_loglik(a, b, d, cens))
    ll_exp = max(
        weibull_loglik(a, 1.0, d, cens) for a in np.linspace(1e-4, 0.5, 20000)
    )
    t_ind_oracle = max(2 * (ll_weib - ll_exp), 0.0)
    p_oracle = stats.chi2.sf(t_ind_oracle, 1)
    p_ind, _ = duration_tests(viol, 0.95)
    assert p_ind == pytest.approx(p_oracle, abs=1e-3)


def test_duration_nulls_are_the_weibull_at_shape_one():
    # The closed-form exponential nulls reproduce the censored Weibull
    # likelihood at shape 1 bit for bit, so the statistics are exact; the
    # chi-square survival functions are checked in test_imports.py.
    rng = np.random.default_rng(8)
    for p, a in ((0.02, 0.99), (0.05, 0.95), (0.2, 0.95), (0.01, 0.995)):
        viol = rng.random(600) < p
        d, cens = _durations(viol)
        n_full = int((~cens).sum())
        ll_weib = _maximize_weibull(d, cens)[1]
        t_ind = max(2.0 * (ll_weib - weibull_loglik(n_full / float(d.sum()), 1.0, d, cens)), 0.0)
        t_cc = max(2.0 * (ll_weib - weibull_loglik(1.0 - a, 1.0, d, cens)), 0.0)
        expected = (_chi2_sf(1, t_ind), _chi2_sf(2, t_cc))
        assert duration_tests(viol, a) == expected


def test_weibull_profile_score_matches_central_difference():
    # The central difference of the profiled log likelihood is the
    # reference for the closed-form score.
    rng = np.random.default_rng(12)
    fixtures = [_durations(rng.random(400) < p) for p in (0.02, 0.05, 0.2)]
    fixtures.append((np.array([3.0, 7.0, 1.0, 12.0, 5.0]),
                     np.array([True, False, False, False, True])))
    step = 1e-6
    for d, cens in fixtures:
        assert cens.any()
        for b in (0.05, 0.3, 0.9, 1.0, 2.5, 7.0):
            numeric = (
                _weibull_profile_loglik(b + step, d, cens)
                - _weibull_profile_loglik(b - step, d, cens)
            ) / (2.0 * step)
            closed = _weibull_profile_score(b, d, cens)
            assert closed == pytest.approx(numeric, rel=1e-6, abs=1e-5)


def test_duration_size_iid_bernoulli():
    rejections = 0
    total = 0
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        viol = rng.random(500) < 0.05
        p_ind, _ = duration_tests(viol, 0.95)
        if p_ind is None:
            continue
        total += 1
        rejections += p_ind < 0.05
    rate = rejections / total
    assert 0.01 <= rate <= 0.12


# ---------------------------------------------------------------- bootstrap


def test_bootstrap_two_point_fixture_reproducible():
    p1 = es_bootstrap_test(np.array([-1.0, 1.0]), B_boot=999, seed=1)
    p2 = es_bootstrap_test(np.array([-1.0, 1.0]), B_boot=999, seed=1)
    assert p1 == p2
    assert 0.0 < p1 <= 1.0


def test_bootstrap_symmetric_fixture_near_half():
    half = stats.norm.ppf(np.linspace(0.55, 0.95, 15))
    residuals = np.concatenate([half, -half])
    p = es_bootstrap_test(residuals, B_boot=9999, seed=3)
    assert 0.4 <= p <= 0.6


def test_bootstrap_positive_shift_rejected():
    rng = np.random.default_rng(8)
    residuals = rng.standard_normal(40)
    residuals -= residuals.mean()
    se = residuals.std(ddof=1) / math.sqrt(residuals.size)
    p = es_bootstrap_test(residuals + 3.0 * se, B_boot=9999, seed=4)
    assert p < 0.05


def test_bootstrap_all_zero_is_degenerate():
    with pytest.warns(EstimationWarning, match="zero-variance"):
        p = es_bootstrap_test(np.zeros(10), B_boot=99, seed=0)
    assert p == 1.0


def test_bootstrap_monotone_in_shift():
    rng = np.random.default_rng(9)
    residuals = rng.standard_normal(30)
    residuals -= residuals.mean()
    ps = [
        es_bootstrap_test(residuals + shift, B_boot=4999, seed=11)
        for shift in (0.0, 0.2, 0.4, 0.8)
    ]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_bootstrap_too_few_residuals():
    assert es_bootstrap_test(np.array([0.3]), B_boot=99, seed=0) is None


def _boot_counts(nr):
    # 1, 99 and 9999 resamples, and one below, at and one above the first
    # block boundary.
    rows = max(1, BOOTSTRAP_BUDGET // nr)
    return sorted({1, 99, 9999, rows - 1, rows, rows + 1} - {0})


@pytest.mark.parametrize(
    "nr, B_boot",
    [(nr, b) for nr in (2, 7, 8, 9, 26, 200, 1000) for b in _boot_counts(nr)],
)
def test_bootstrap_matches_one_shot_oracle_bitwise(nr, B_boot):
    rng = np.random.default_rng(nr)
    residuals = rng.standard_normal(nr) + 0.1
    for seed in (0, 5):
        assert es_bootstrap_test(residuals, B_boot, seed) == es_bootstrap_oracle(
            residuals, B_boot, seed
        )


@pytest.mark.parametrize(
    "residuals",
    [[1.0, 2.0, 3.0], [-3.0, -2.0, -1.0], [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0]],
    ids=["positive-t", "negative-t", "eight-tied"],
)
@pytest.mark.parametrize("B_boot", [99, 9999, BOOTSTRAP_BUDGET // 3 + 1])
def test_bootstrap_degenerate_resamples_match_oracle(residuals, B_boot):
    # Some resamples repeat one centred value: zero sd with a positive mean,
    # and with a zero mean where that value is the sample mean.
    res = np.array(residuals)
    idx = np.random.default_rng(2).integers(0, res.size, size=(B_boot, res.size))
    samples = (res - res.mean())[idx]
    degenerate = samples.std(axis=1, ddof=1) == 0.0
    assert np.any(degenerate & (samples.mean(axis=1) > 0))
    if res.size == 3:
        assert np.any(degenerate & (samples.mean(axis=1) == 0.0))
    assert es_bootstrap_test(res, B_boot, 2) == es_bootstrap_oracle(res, B_boot, 2)


def test_bootstrap_memory_bounded():
    residuals = np.random.default_rng(4).standard_normal(1000)
    tracemalloc.start()
    try:
        es_bootstrap_test(residuals, B_boot=9999, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The one-shot draw traced about 240 MB at this size; a block about 1.6 MB.
    assert peak < 4e6


@pytest.mark.parametrize("B_boot", [0, -3, 2.5, True, "99", None])
def test_bootstrap_count_must_be_positive_integer(B_boot):
    with pytest.raises(InputError, match="B_boot"):
        es_bootstrap_test(np.array([0.5, -0.2, 1.1]), B_boot=B_boot, seed=0)


# ---------------------------------------------------------------- rolling


def synthetic_series(m, seed=0, v=6):
    rng = np.random.default_rng(seed)
    return ReturnSeries(rng.standard_t(v, size=m) / math.sqrt(v / (v - 2)), kind="raw")


def test_backtest_config_validation():
    with pytest.raises(InputError):
        BacktestConfig(m=100, n=100)
    for bad in (
        dict(m=500.0, n=400),
        dict(m=500, n=400.0),
        dict(m=500, n=400, N=50.0),
        dict(m=500, n=400, B_boot=99.5),
        dict(m=500, n=400, B_boot=True),
        dict(m=500, n=400, N=True),
        dict(m=500, n=400, seed=1.5),
    ):
        with pytest.raises(InputError, match="must be an integer"):
            BacktestConfig(**bad)
    cfg = BacktestConfig(m=1500, n=1000)
    assert cfg.tail_count(999) == 234


def test_rolling_forecast_counts_and_violation_rate():
    cfg = BacktestConfig(m=1500, n=1000, a_levels=(0.95,), seed=1)
    series = synthetic_series(1500, seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_backtest(series, cfg, threads=2)
    assert report.n_forecasts == 500
    level = report.levels[0.95]
    rate = level.violations / 500
    assert abs(rate - 0.05) <= 0.02
    assert 0.0 <= level.coverage_p <= 1.0
    if level.es_p is not None:
        assert 0.0 <= level.es_p <= 1.0


def test_rolling_constant_series_fails():
    cfg = BacktestConfig(m=60, n=40, a_levels=(0.95,))
    series = ReturnSeries(np.full(60, 1.0), kind="raw")
    with pytest.raises(EvtriskError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rolling_forecast(series, cfg)


def test_backtest_tests_skip_steps_without_forecast():
    # Windows over the leading zeros fail before any window has succeeded,
    # so their forecasts stay NaN and must not count as non-violations.
    # How many fail depends on the CDF bandwidth h3, the interquartile range
    # of the residuals: 173 of the 250 windows fail with it.
    rng = np.random.default_rng(0)
    values = np.concatenate([np.zeros(300), 5.0 * rng.standard_t(3, size=200)])
    cfg = BacktestConfig(m=500, n=250, a_levels=(0.95,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_backtest(ReturnSeries(values, kind="raw"), cfg, threads=2)
    cvar = report.forecasts.cvar[0.95]
    forecast = np.isfinite(cvar)
    assert int((~forecast).sum()) == 173
    level = report.levels[0.95]
    assert level.n_evaluated == 77
    assert level.expected == pytest.approx(77 * 0.05)
    steps = report.forecasts.steps[forecast]
    viol = values[steps + 1] > cvar[forecast]
    assert level.violations == int(viol.sum())
    assert level.coverage_p == pytest.approx(coverage_test(viol, 0.95)[1])
    assert (level.t_ind_p, level.t_cc_p) == duration_tests(viol, 0.95)


@pytest.mark.parametrize("N", [120, 150])
def test_rolling_large_tail_count_skips_second_order(N):
    # At these tail counts the enlarged counts behind rho (and, for N=150,
    # the moment statistics) hit a nonpositive threshold.  The uncorrected
    # forecasts never use them, so no window may fail on them.
    values = np.random.default_rng(0).standard_t(6, size=320)
    cfg = BacktestConfig(m=310, n=300, a_levels=(0.95,), N=N, B_boot=99)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_backtest(ReturnSeries(values, kind="raw"), cfg)
    assert report.n_failed_windows == 0
    assert np.isfinite(report.forecasts.cvar[0.95]).all()


@pytest.mark.parametrize("name, category", [
    ("svd", "DegenerateFitError"),      # quartic pilot of the bandwidth rule
])
def test_linalg_error_fails_one_window(monkeypatch, name, category):
    values = np.random.default_rng(3).standard_t(6, size=330)
    cfg = BacktestConfig(m=330, n=300, a_levels=(0.95,))
    error = np.linalg.LinAlgError("injected")
    fail_first_call(monkeypatch, np.linalg, name, error)
    _, out, _, message = _forecast_window((values, 299, 300, cfg.tail_count(299), (0.95,)))
    assert out is None
    assert message.startswith(f"{category}: ") and "injected" in message
    fail_first_call(monkeypatch, np.linalg, name, error)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        forecasts = rolling_forecast(ReturnSeries(values, kind="raw"), cfg, threads=1)
    assert forecasts.n_failures == 1
    assert forecasts.carried.tolist() == [True] + [False] * (forecasts.steps.size - 1)
