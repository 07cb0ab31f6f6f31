import contextlib
import pathlib
import random
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import oracles
from evtrisk import smoothing
from evtrisk.errors import DegenerateFitError, EstimationWarning, InputError
from evtrisk.ingest import ReturnSeries
from evtrisk.mc import _simulate, named_design
from evtrisk.smoothing import (
    ROT_KERNEL_CONST,
    _quartic_pilot,
    fit_location_scale,
    local_linear,
    rot_bandwidth_density,
)


# ---------------------------------------------------------------- kernel


def test_epanechnikov_center():
    assert oracles.epan_weight(0.0) == pytest.approx(0.75)
    assert oracles.epan_integrated(0.0) == pytest.approx(0.5)


def test_epanechnikov_endpoint():
    assert oracles.epan_weight(1.0) == pytest.approx(0.0)
    assert oracles.epan_integrated(1.0) == pytest.approx(1.0)


def test_epanechnikov_half():
    # closed-form antiderivative 0.75(u - u^3/3) + 0.5
    assert oracles.epan_weight(0.5) == pytest.approx(0.5625)
    assert oracles.epan_integrated(0.5) == pytest.approx(0.84375)


def test_kernel_integrates_to_one():
    total, _ = quad(lambda u: float(oracles.epan_weight(u)), -1, 1)
    assert total == pytest.approx(1.0, abs=1e-9)


@given(st.floats(min_value=-3, max_value=3))
@settings(max_examples=60, deadline=None)
def test_kernel_symmetry_and_cdf(u):
    assert oracles.epan_weight(u) == pytest.approx(oracles.epan_weight(-u), abs=1e-12)
    i_pos = float(oracles.epan_integrated(u))
    assert i_pos == pytest.approx(1.0 - oracles.epan_integrated(-u), abs=1e-12)
    assert 0.0 <= i_pos <= 1.0


# ---------------------------------------------------------------- local linear


def wls_oracle(q, x, y, h):
    """Direct weighted normal equations, independent of the package path."""
    u = (x - q) / h
    w = np.where(np.abs(u) <= 1.0, 0.75 * (1 - u * u), 0.0)
    design = np.column_stack([np.ones_like(x), x - q])
    normal = design.T @ (design * w[:, None])
    rhs = design.T @ (w * y)
    return np.linalg.solve(normal, rhs)


def test_local_linear_reproduces_line():
    x = np.linspace(-2, 2, 25)
    y = 2.0 + 3.0 * x
    for q in (-1.5, 0.0, 0.7):
        level, slope = local_linear(q, x, y, h=0.9)
        assert level == pytest.approx(2.0 + 3.0 * q, abs=1e-9)
        assert slope[0] == pytest.approx(3.0, abs=1e-9)


@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=0.3, max_value=5.0),
    st.floats(min_value=-1.5, max_value=1.5),
)
@settings(max_examples=40, deadline=None)
def test_local_linear_affine_exact(intercept, slope, h, q):
    x = np.linspace(-2, 2, 30)
    y = intercept + slope * x
    level, beta = local_linear(q, x, y, h=h)
    assert level == pytest.approx(intercept + slope * q, abs=1e-9)
    assert beta[0] == pytest.approx(slope, abs=1e-9)


def test_local_linear_huge_bandwidth_is_ols():
    rng = np.random.default_rng(3)
    x = rng.normal(size=60)
    y = 1.0 + 0.5 * x + rng.normal(size=60)
    level, slope = local_linear(0.3, x, y, h=1e9)
    design = np.column_stack([np.ones_like(x), x - 0.3])
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    assert level == pytest.approx(beta[0], rel=1e-9)
    assert slope[0] == pytest.approx(beta[1], rel=1e-9)


def test_local_linear_seven_point_fixture():
    x = np.array([-1.2, -0.7, -0.1, 0.3, 0.8, 1.4, 2.0])
    y = np.array([0.5, -0.2, 0.1, 0.9, 1.3, 0.7, 2.1])
    level, slope = local_linear(0.5, x, y, h=0.8)
    expect = wls_oracle(0.5, x, y, 0.8)
    assert level == pytest.approx(expect[0], abs=1e-10)
    assert slope[0] == pytest.approx(expect[1], abs=1e-10)


def test_local_linear_random_fixtures_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(15, 60)
        x = rng.normal(size=n) * rng.uniform(0.5, 2.0)
        y = rng.normal(size=n)
        h = rng.uniform(0.5, 2.0) * np.ptp(x) / 2
        q = rng.uniform(x.min(), x.max())
        expect = wls_oracle(q, x, y, h)
        level, slope = local_linear(q, x, y, h=h)
        assert level == pytest.approx(expect[0], abs=1e-10)
        assert slope[0] == pytest.approx(expect[1], abs=1e-10)


def test_local_linear_degenerate_design_errors():
    x = np.full(10, 1.0)
    y = np.arange(10.0)
    with pytest.raises(DegenerateFitError, match="1"):
        local_linear(1.0, x, y, h=0.5)


def test_local_linear_isolated_query_errors():
    x = np.concatenate([np.linspace(0, 1, 10), [10.0]])
    y = np.zeros(11)
    with pytest.raises(DegenerateFitError, match="10"):
        local_linear(10.0, x, y, h=0.5)


# ---------------------------------------------------------------- bandwidths


def rot_oracle(x, y):
    """Independent transcription of the quartic plug-in rule."""
    mu, sd = x.mean(), x.std()
    z = (x - mu) / sd
    design = np.column_stack([np.ones_like(z), z, z**2, z**3, z**4])
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    sigma2 = np.sum((y - design @ beta) ** 2) / (len(x) - 5)
    curv = (2 * beta[2] + 6 * beta[3] * z + 12 * beta[4] * z**2) / sd**2
    return 15.0**0.2 * (sigma2 * np.ptp(x) / np.sum(curv**2)) ** 0.2


def test_rot_regression_linear_fallback():
    x = np.linspace(0, 4, 50)
    y = 1.0 + 2.0 * x
    with pytest.warns(EstimationWarning):
        h = _quartic_pilot(x)(y)
    assert h == pytest.approx(2.0)


def test_rot_regression_noiseless_quadratic_hits_floor():
    x = np.linspace(0, 1, 200)
    h = _quartic_pilot(x)(x**2)
    assert h == pytest.approx(1e-3, abs=1e-12)


def test_rot_regression_matches_oracle():
    rng = np.random.default_rng(21)
    x = np.sort(rng.uniform(0, 3, size=500))
    y = x**2 + rng.normal(size=500)
    assert _quartic_pilot(x)(y) == pytest.approx(rot_oracle(x, y), rel=1e-12)


def test_rot_regression_location_invariance():
    rng = np.random.default_rng(22)
    x = rng.uniform(0, 3, size=300)
    y = np.sin(x) + rng.normal(size=300) * 0.3
    h0 = _quartic_pilot(x)(y)
    h1 = _quartic_pilot(x + 57.0)(y)
    assert h1 == pytest.approx(h0, rel=1e-9)


def test_rot_regression_rank_deficient_design_takes_the_minimum_norm():
    # On x with 2 to 4 distinct values the quartic design has rank 2 to 4,
    # and the least-squares coefficients are not unique; the pilot takes
    # lstsq's minimum-norm ones.  Any other solution differs by a null
    # vector, a polynomial vanishing at the distinct values, whose
    # curvature would move the bandwidth.
    rng = np.random.default_rng(23)
    for distinct in (2, 3, 4):
        x = np.repeat(np.arange(distinct, dtype=float) ** 1.3, 15)
        y = x**2 + rng.standard_normal(x.size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            h = _quartic_pilot(x)(y)
        assert h == pytest.approx(rot_oracle(x, y), rel=1e-12)


def test_fit_bandwidths_equal_the_plug_in_oracle():
    # The pilot is factored once per fit and solved for y and for u^2;
    # both bandwidths equal the rule solved by lstsq on each response.
    gen = _load_gen()
    series = [gen.simulate_returns(7, 1001, 6), gen.simulate_returns(8, 8001, 3),
              _simulate(replace(named_design("table1"), seed=5), 0).y]
    for values in series:
        fit = fit_location_scale(ReturnSeries(values, kind="raw"))
        u2 = (fit.y - windowed_fit(fit.x, fit.y, fit.h1)) ** 2
        assert fit.h1 == pytest.approx(rot_oracle(fit.x, fit.y), rel=1e-12)
        assert fit.h2 == pytest.approx(rot_oracle(fit.x, u2), rel=1e-12)


def test_rot_kernel_constant():
    assert ROT_KERNEL_CONST == pytest.approx(15.0**0.2)


def test_rot_density_direct_value():
    data = np.repeat([0.0, 1.0], 500)  # n = 1000, IQR = 1
    h = rot_bandwidth_density(data)
    assert h == pytest.approx(0.79 * 1000 ** (-0.19), rel=1e-12)
    assert h == pytest.approx(0.212631, abs=5e-7)


def test_rot_density_linear_in_iqr():
    rng = np.random.default_rng(5)
    x = rng.normal(size=400)
    assert rot_bandwidth_density(2 * x) == pytest.approx(2 * rot_bandwidth_density(x), rel=1e-12)


def test_rot_density_rate_at_sample_size():
    # The rate n^(-1/5 + delta) runs on the sample's own size, delta = 0.01.
    data = np.repeat([0.0, 1.0], 256)  # n = 512, IQR = 1
    h = rot_bandwidth_density(data)
    assert h == pytest.approx(0.79 * 512 ** (-0.19), rel=1e-12)


def test_rot_density_degenerate():
    with pytest.raises(InputError):
        rot_bandwidth_density(np.ones(50))


def test_rot_density_location_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=200)
    assert rot_bandwidth_density(x + 11.0) == pytest.approx(rot_bandwidth_density(x), rel=1e-12)


def test_rot_density_quartiles_are_percentiles_bitwise():
    # The quartiles are read off the ascending values by np.percentile's
    # linear rule, so the bandwidth is the np.percentile one bit for bit:
    # every n mod 4, tied values, sorted and unsorted input; a NaN gives NaN.
    rng = np.random.default_rng(31)
    checked = 0
    for n in range(4, 120):
        for x in (rng.standard_t(3, n), np.round(rng.standard_normal(n), 1)):
            q25, q75 = np.percentile(x, [25.0, 75.0])
            if q75 == q25:
                continue
            want = 0.79 * float(q75 - q25) * n ** (-0.2 + smoothing.DENSITY_RATE_DELTA)
            assert rot_bandwidth_density(x) == want
            assert rot_bandwidth_density(np.sort(x)) == want
            checked += 1
    assert checked > 200
    assert np.isnan(rot_bandwidth_density(np.r_[np.arange(10.0), np.nan]))


# ---------------------------------------------------------------- first stage


def test_fit_location_scale_recovers_unit_noise():
    rng = np.random.default_rng(42)
    y = ReturnSeries(rng.standard_normal(2000), kind="raw")
    fit = fit_location_scale(y)
    eps = fit.residuals
    assert abs(eps.mean()) < 0.1
    assert abs(eps.var() - 1.0) < 0.15


def test_fit_location_scale_constant_series():
    # A flat series is rejected as input; a flat covariate under a moving
    # response (only the last value differs) is a degenerate fit.
    with pytest.raises(InputError, match="series is constant: all 64 values are equal"):
        fit_location_scale(ReturnSeries(np.full(64, 3.25), kind="raw"))
    with pytest.raises(DegenerateFitError, match="conditioning values are all equal"):
        fit_location_scale(ReturnSeries(np.append(np.full(63, 3.25), 3.5), kind="raw"))


def test_fit_location_scale_zero_where_h_nonpositive():
    rng = np.random.default_rng(1)
    y = ReturnSeries(rng.standard_normal(500), kind="raw")
    fit = fit_location_scale(y)
    u2 = (fit.y - windowed_fit(fit.x, fit.y, fit.h1)) ** 2
    h_at_x = windowed_fit(fit.x, u2, fit.h2)
    assert np.all(fit.residuals[h_at_x <= 0] == 0.0)


def test_fit_location_scale_too_short():
    # 21 values leave 20 lagged pairs, too few for the quartic pilot.
    for size in (10, 21):
        with pytest.raises(InputError, match=f"series too short for bandwidth plug-in: {size} points"):
            fit_location_scale(ReturnSeries(np.arange(float(size)), kind="raw"))


def test_fit_location_scale_effective_sample():
    rng = np.random.default_rng(2)
    values = rng.standard_normal(100)
    fit = fit_location_scale(ReturnSeries(values, kind="raw"), lag=1)
    assert fit.residuals.size == 99
    np.testing.assert_array_equal(fit.x, values[:-1])
    np.testing.assert_array_equal(fit.y, values[1:])


def test_fit_location_scale_heavy_tails_no_crash():
    # isolated extreme covariates exercise the nearest-neighbor safeguard
    rng = np.random.default_rng(9)
    values = rng.standard_t(3, size=800)
    fit = fit_location_scale(ReturnSeries(values, kind="raw"))
    assert np.all(np.isfinite(fit.residuals))


def test_fit_location_scale_rejects_singular_pilot(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", singular)
    rng = np.random.default_rng(4)
    with pytest.raises(DegenerateFitError, match="quartic pilot fit failed"):
        fit_location_scale(ReturnSeries(rng.standard_normal(200), kind="raw"))


# ------------------------------------- windowed power sums vs the dense oracle

GEN_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _load_gen():
    # Compiled in memory: nothing is written next to the benchmark's files.
    module = types.ModuleType("perfbench_gen")
    module.__file__ = str(GEN_PATH)
    exec(compile(GEN_PATH.read_text(), str(GEN_PATH), "exec"), module.__dict__)
    return module


def windowed_fit(x, y, h):
    """The block path as fit_location_scale runs it: the levels at the sample
    points, fit on the design sorted once by covariate and scattered back."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    levels = np.empty(x.size)
    levels[order] = smoothing._ll_sorted(x[order], np.asarray(y, dtype=float)[order], h)
    return levels


@contextlib.contextmanager
def widened_queries(module):
    """The queries whose bandwidth `module`'s _nn_bandwidth widens within
    the `with` statement, in the order they were widened."""
    widened = []
    original = module._nn_bandwidth

    def recording(q, data, bandwidth):
        widened.append(float(q))
        return original(q, data, bandwidth)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_nn_bandwidth", recording)
        yield widened


def assert_matches_dense(x, y, h, tol=1e-10):
    """At the sample points the block path agrees with the dense oracle:
    levels within tol * max|y|, or tol * max|dense| where that is larger,
    and the same points widened.  Returns the dense levels.

    The tolerance scales with the data: a flat response leaves levels whose
    own size is rounding noise.  The block path widens its points in
    covariate order, the oracle in sample order.
    """
    with widened_queries(smoothing) as fast_widened:
        fast = windowed_fit(x, y, h)
    with widened_queries(oracles) as dense_widened:
        dense, _ = oracles.local_linear_dense(x, x, y, h, strict=False)
    np.testing.assert_array_equal(np.sort(fast_widened), np.sort(dense_widened))
    scale = max(float(np.max(np.abs(y))), float(np.max(np.abs(dense))))
    np.testing.assert_allclose(fast, dense, rtol=0.0, atol=tol * scale)
    return dense


def assert_queries_match_dense(queries, x, y, h):
    """Off the design, one query at a time as m_hat and h_hat answer it:
    _ll_point, widened where degenerate, agrees with the dense oracle as
    _assert_point_matches_dense checks, widens the same queries, or raises
    the same message.  Returns each query's (level, slope) or message."""
    with widened_queries(smoothing) as fast_widened, widened_queries(oracles) as dense_widened:
        found = [_assert_point_matches_dense(float(q), x, y, h, strict=False) for q in queries]
    np.testing.assert_array_equal(fast_widened, dense_widened)
    return found


def assert_stage_one_matches_dense(values):
    """Both sample passes of the first stage, m on y and h on u^2, agree with
    the dense oracle; the variance fit also pointwise where it is positive."""
    x, y = values[:-1], values[1:]
    pilot = _quartic_pilot(x)
    h1 = pilot(y)
    m_dense = assert_matches_dense(x, y, h1)
    u2 = (y - m_dense) ** 2
    h2 = pilot(u2)
    h_dense = assert_matches_dense(x, u2, h2)
    h_fast = windowed_fit(x, u2, h2)
    positive = h_dense > 0
    np.testing.assert_allclose(h_fast[positive], h_dense[positive], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("n, v", [(8000, 3), (1000, 6)])
def test_windowed_fit_matches_dense_on_benchmark_series(n, v):
    assert_stage_one_matches_dense(_load_gen().simulate_returns(7, n + 1, v))


@pytest.mark.parametrize("name, seed", [("table1", 3), ("table4", 4)])
def test_windowed_fit_matches_dense_on_mc_paths(name, seed):
    design = replace(named_design(name), reps=3, seed=seed)
    for rep in range(design.reps):
        assert_stage_one_matches_dense(_simulate(design, rep).y)


def test_windowed_fit_matches_dense_with_heavy_ties():
    # Real prices quote in ticks: many zero returns and many repeated values.
    rng = np.random.default_rng(11)
    returns = np.round(0.01 * rng.standard_t(4, size=2001), 3)
    returns[rng.random(2001) < 0.3] = 0.0
    assert np.mean(returns == 0.0) > 0.3
    assert_stage_one_matches_dense(returns)
    # The window of x=0.49 holds only tied zeros, near its edge: degenerate,
    # and widened, as in the dense fit.
    x = np.concatenate([np.zeros(4000), rng.uniform(1.0, 1.5, size=4000)])
    y = rng.normal(size=x.size)
    assert_queries_match_dense([0.49, 0.75, 0.95], x, y, 0.5)
    assert _assert_point_matches_dense(0.49, x, y, 0.5, strict=True) == (
        "degenerate local-linear fit at query x=0.49 (bandwidth h=0.5)"
    )
    # Five tied sample points at 0.999, alone in their window, share a block
    # with 4000 points in [0, 0.45], whose centre lies far from them.  Their
    # power sums leave rounding noise above the variance floor, so only the
    # tie test finds them degenerate and widens them, as the dense fit does.
    x = np.concatenate([np.random.default_rng(7).uniform(0.0, 0.45, 4000), np.full(5, 0.999)])
    assert_matches_dense(x, rng.normal(size=x.size), 0.5)


def test_windowed_fit_matches_dense_next_to_a_dense_cluster():
    # The points from 0 to 2h = 1.2 form one block, whose window sums are
    # differences of one prefix sum over the block.  A point right of 0.61
    # has a window of a few sparse points, and its sums cancel the prefix of
    # the 4000 clustered terms, whose y near 1 sum to about 4000.  The extra
    # queries between the sparse points go through the one-point fit.
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(0.0, 0.01, 4000), rng.uniform(0.5, 1.5, 12)])
    y = 1.0 + 0.1 * rng.normal(size=x.size)
    assert_matches_dense(x, y, 0.6)
    assert_queries_match_dense(np.linspace(0.6, 1.5, 46), x, y, 0.6)


def test_windowed_fit_point_exactly_at_bandwidth():
    # (x - q)/h is exactly +-1 for the neighbors of each query: zero weight,
    # so the window holds one point and every query is widened.
    x = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    y = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    message = _assert_point_matches_dense(1.0, x, y, 0.5, strict=True)
    assert message == "degenerate local-linear fit at query x=1 (bandwidth h=0.5)"
    assert_matches_dense(x, y, 0.5)
    # On a decimal grid (x - q)/h lands one ulp on either side of 1.
    grid = np.arange(41) * 0.1
    rng = np.random.default_rng(12)
    values = rng.normal(size=grid.size)
    for h in (0.1, 0.2, 0.3, 0.7):
        assert_matches_dense(grid, values, h)
        assert_queries_match_dense(grid + 0.05, grid, values, h)


def test_support_is_the_rounded_window():
    # Each query's index range [lo, hi) on the sorted design holds the points
    # strictly between the rounded ends fl(q - h) and fl(q + h), also where a
    # decimal grid puts an end one ulp on either side of a design point, or
    # exactly on it.  lo counts the points not above fl(q - h), hi those not
    # at or above fl(q + h): a NaN end sorts after every point.
    rng = np.random.default_rng(15)
    grid = np.arange(41) * 0.1
    ticks = np.sort(np.round(rng.standard_t(3, size=500), 1))
    for xs in (grid, ticks):
        queries = np.sort(np.concatenate([xs, xs + 0.05, [-1e3, 1e3, -np.inf, np.inf, np.nan]]))
        for h in (0.1, 0.2, 0.3, 0.5, 0.7):
            lo, hi = smoothing._support(xs, queries, h)
            np.testing.assert_array_equal(lo, np.count_nonzero(~(xs > (queries - h)[:, None]), axis=1))
            np.testing.assert_array_equal(hi, np.count_nonzero(~(xs >= (queries + h)[:, None]), axis=1))


def _float_rule_window(xs, qs, h):
    """[lo, hi) where -1 < fl((x - q)/h) < 1, counted over the whole design."""
    t = (xs - qs[:, None]) / h
    return np.count_nonzero(t <= -1.0, axis=1), np.count_nonzero(t < 1.0, axis=1)


def _cent_rounded_returns():
    returns = _load_gen().simulate_returns(8, 4001, 4)
    prices = np.round(100.0 * np.exp(np.concatenate(([0.0], np.cumsum(returns)))), 2)
    return -np.diff(np.log(prices))


@pytest.mark.parametrize("make", [
    lambda: _load_gen().simulate_returns(7, 8001, 3),
    lambda: _simulate(replace(named_design("table1"), seed=3), 0).y,
    lambda: _simulate(replace(named_design("table4"), seed=4), 0).y,
    _cent_rounded_returns,
    lambda: np.round(_load_gen().simulate_returns(9, 2001, 4), 2),
    lambda: np.round(_load_gen().simulate_returns(9, 2001, 4), 4),
], ids=["gen-8000-t3", "mc-table1", "mc-table4", "cent-prices", "round-2", "round-4"])
def test_rounded_window_is_the_float_rule_on_real_designs(make):
    # The windows of a fit's sample points at its own h1 and h2 are those of
    # the weight's own test -1 < (x - q)/h < 1: on these designs no point
    # lies within rounding of an end, so the window rule moves no window.
    fit = fit_location_scale(ReturnSeries(make(), kind="raw"))
    xs = np.sort(fit.x)
    for h in (fit.h1, fit.h2):
        for start in range(0, xs.size, 1000):
            qs = xs[start : start + 1000]
            np.testing.assert_array_equal(smoothing._support(xs, qs, h), _float_rule_window(xs, qs, h))


def test_windowed_fit_queries_outside_data():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.0, 1.0, size=300)
    y = np.sin(3.0 * x) + 0.1 * rng.normal(size=300)
    assert_matches_dense(x, y, 0.2)
    assert_queries_match_dense([-1.3, -1.05, 1.05, 1.3, 0.0, -0.99], x, y, 0.2)
    assert _assert_point_matches_dense(5.0, x, y, 0.2, strict=True) == (
        "degenerate local-linear fit at query x=5 (bandwidth h=0.2)"
    )
    assert assert_queries_match_dense([0.0, np.nan], x, y, 0.2)[1] == (
        "no distinct covariates around query x=nan"
    )
    # Far outside, the widened window extrapolates a line fit on 3 points
    # spread over 0.03 to a distance of 4.  Taken about the window's mean,
    # the dense sums agree with the one-point fit's to 2e-15 there and with
    # exact rational arithmetic to 2.3e-13 (about the query they lost 1.5e-10).
    far = [-5.0, 5.0]
    for q, found in zip(far, assert_queries_match_dense(far, x, y, 0.2)):
        exact = oracles.local_linear_exact(q, x, y, oracles._nn_bandwidth(q, x, 0.2))
        np.testing.assert_allclose(found, exact, rtol=1e-12)


@given(
    st.lists(st.integers(0, 30), min_size=3, max_size=40),
    st.randoms(use_true_random=False),
    st.integers(0, 12),
    st.sampled_from([1.0, 0.01, 3.7]),
    st.floats(-50.0, 50.0),
)
@settings(max_examples=80, deadline=None)
# Two tied pairs at h = 0.5: every window holds one distinct x, and the
# slopes are at most 6.7e-4 in size on y of about 8 (random.Random(19485)
# draws y = 8.707, 7.142, 7.195, 8.653).  A tolerance scaled by max|dense
# slope| (6.7e-14) failed this case on rounding differences of about 1e-13.
@example([0, 0, 1, 1], random.Random(19485), 0, 1.0, 0.0)
def test_windowed_fit_matches_dense_property(grid, rand, k, scale, shift):
    # Covariates on a grid (with ties) and a half-integer bandwidth keep each
    # point at least half a grid step from the kernel's edge, where weights
    # are tiny and any two summation orders disagree.
    assume(len(set(grid)) >= 2)
    x = shift + scale * np.array(grid, dtype=float)
    y = np.array([rand.uniform(-10.0, 10.0) for _ in grid])
    assume(np.ptp(y) >= 1.0)  # a flat response leaves only rounding noise to compare
    queries = shift + scale * np.arange(-3, 34, dtype=float)
    h = scale * (k + 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_matches_dense(x, y, h)
        assert_queries_match_dense(queries, x, y, h)
        for q in queries:
            _assert_point_matches_dense(q, x, y, h, strict=True)


def _nn_or_message(nn, q, x, h):
    try:
        return np.float64(nn(q, x, h)).tobytes()
    except DegenerateFitError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [5, 300, 1000, 8000])
def test_nn_bandwidth_equals_full_sort_oracle(n):
    # The radius search on the sorted design returns the oracle's float bit
    # for bit, or raises with its message.
    rng = np.random.default_rng(n)
    ticks = np.round(rng.standard_t(3, size=n), 1)
    ticks[rng.random(n) < 0.3] = 0.0  # large tie groups
    designs = [
        ticks,
        # A decimal grid: distances to the two neighbours differ by an ulp,
        # and (x - q)/h lands an ulp to either side of -1 and 1.
        rng.permutation(np.arange(n) * 0.1),
        rng.standard_normal(n) * 1e-3 + 5.0,
        np.full(n, 2.5),  # no two distinct covariates
    ]
    for x in designs:
        xs = np.sort(x, kind="stable")
        span = float(xs[-1] - xs[0])
        queries = np.concatenate([
            x[: min(n, 60)],
            0.5 * (xs[:-1] + xs[1:])[:40],
            xs[:40] + 0.05,
            rng.uniform(xs[0] - 0.1, xs[-1] + 0.1, size=40),
            [xs[0] - 1e3 * (span + 1.0), xs[-1] + 1e3 * (span + 1.0), -np.inf, np.inf, np.nan],
        ])
        for q in queries:
            for h in (1e-9, 0.1, 0.3):
                got = _nn_or_message(smoothing._nn_bandwidth, q, xs, h)
                want = _nn_or_message(oracles._nn_bandwidth, q, x, h)
                assert got == want, (n, q, h)
    assert _nn_or_message(smoothing._nn_bandwidth, np.nan, np.sort(ticks), 0.1) == (
        "no distinct covariates around query x=nan"
    )


def test_evaluators_are_the_one_point_fit():
    # fit_location_scale standardizes by the block path's levels, scattered
    # back to sample order: its residuals are those of windowed_fit bit for
    # bit.  m_hat and h_hat answer one query as a float, through _ll_point
    # on the fit's sorted design, and agree with the block path at a sample
    # point to the dense tolerance.
    rng = np.random.default_rng(14)
    fit = fit_location_scale(ReturnSeries(rng.standard_t(3, size=1001), kind="raw"))
    with widened_queries(smoothing) as widened:
        m_at_x = windowed_fit(fit.x, fit.y, fit.h1)
    assert widened  # heavy tails leave isolated covariates to widen
    u = fit.y - m_at_x
    h_at_x = windowed_fit(fit.x, u * u, fit.h2)
    positive = h_at_x > smoothing.H_EPS * float(np.mean(u * u))
    residuals = np.where(positive, u / np.sqrt(np.where(positive, h_at_x, 1.0)), 0.0)
    assert fit.residuals.tobytes() == residuals.tobytes()
    order = np.argsort(fit.x, kind="stable")
    xs = fit.x[order]
    inside = [int(order[0]), int(order[500]), int(order[-1])]
    for curve, response, h, block in ((fit.m_hat, fit.y, fit.h1, m_at_x),
                                      (fit.h_hat, u * u, fit.h2, h_at_x)):
        for q in [float(fit.x[i]) for i in inside] + [float(xs[-1]) + 1.0]:
            value = curve(q)
            assert isinstance(value, float)
            assert value == smoothing._ll_point(q, xs, response[order], h, strict=False)[0]
        for i in inside:
            scale = max(float(np.max(np.abs(response))), abs(block[i]))
            assert abs(curve(float(fit.x[i])) - block[i]) <= 1e-10 * scale


def _fit_or_message(fit):
    try:
        level, slope = fit()
    except DegenerateFitError as exc:
        return str(exc)
    return float(np.ravel(level)[0]), float(np.ravel(slope)[0])


def _assert_point_matches_dense(q, x, y, h, strict):
    """_ll_point on the sorted design agrees with the dense oracle: levels
    within 1e-10 max(|y|, |level|) and slopes within 1e-10 max(|y|/h,
    |slope|), as in assert_matches_dense, or the same message."""
    order = np.argsort(x, kind="stable")
    got = _fit_or_message(lambda: smoothing._ll_point(q, x[order], y[order], h, strict))
    dense = _fit_or_message(lambda: oracles.local_linear_dense(q, x, y, h, strict))
    if isinstance(dense, str):
        assert got == dense
        return got
    assert not isinstance(got, str), got
    y_max = float(np.max(np.abs(y)))
    for value, want, scale in zip(got, dense, (y_max, y_max / h)):
        assert abs(value - want) <= 1e-10 * max(scale, abs(want)), (q, h, strict)
    return got


def test_one_point_fit_matches_dense_oracle():
    # _ll_point agrees with the dense oracle for one query: at queries inside
    # the data, on design points (tied ones included), on a window end and
    # far outside.  A degenerate query raises the same message when strict
    # and, when not, is widened to the same fit, or raises the same message
    # where no bandwidth helps (two points, or all tied).
    rng = np.random.default_rng(20)
    seen = {"fit": 0, "widened": 0, "raised": 0}
    for trial in range(600):
        n = int(rng.choice([2, 5, 40, 999]))
        x = rng.standard_t(3, size=n)
        if trial % 3 == 1:
            x = np.round(x, 1)
        if trial % 10 == 9:
            x = np.full(n, 0.5)
        y = np.sin(x) + 0.3 * rng.standard_normal(n)
        xs = np.sort(x)
        h = float(rng.choice([0.02, 0.2, 1.0])) * float(rng.uniform(0.5, 2.0))
        q = [float(rng.uniform(xs[0] - 1.0, xs[-1] + 1.0)),
             float(xs[rng.integers(n)]),
             float(xs[rng.integers(n)]) + h,
             float(xs[-1]) + 50.0 * h][trial % 4]
        strict, widened = (_assert_point_matches_dense(q, x, y, h, s) for s in (True, False))
        if isinstance(strict, str):
            seen["raised" if isinstance(widened, str) else "widened"] += 1
        else:
            seen["fit"] += 1
    assert min(seen.values()) > 20, seen
    # Three distinct covariates within 2e-9 of each other are not tied, but
    # their weighted variance is below the degeneracy threshold.
    x = np.array([0.0, 1e-9, 2e-9, 1.0, 1.5, 2.0])
    for strict in (True, False):
        assert _assert_point_matches_dense(0.0, x, np.sin(x), 0.5, strict) == (
            "degenerate local-linear fit at query x=0 (bandwidth h=0.5)"
        )
