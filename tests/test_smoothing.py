import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from evtrisk.errors import DegenerateFitError, EstimationWarning, InputError
from evtrisk.ingest import ReturnSeries
from evtrisk.smoothing import (
    ROT_KERNEL_CONST,
    _epan_integrated,
    _epan_weight,
    fit_location_scale,
    local_linear,
    rot_bandwidth_density,
    rot_bandwidth_regression,
)


# ---------------------------------------------------------------- kernel


def test_epanechnikov_center():
    assert _epan_weight(0.0) == pytest.approx(0.75)
    assert _epan_integrated(0.0) == pytest.approx(0.5)


def test_epanechnikov_endpoint():
    assert _epan_weight(1.0) == pytest.approx(0.0)
    assert _epan_integrated(1.0) == pytest.approx(1.0)


def test_epanechnikov_half():
    # closed-form antiderivative 0.75(u - u^3/3) + 0.5
    assert _epan_weight(0.5) == pytest.approx(0.5625)
    assert _epan_integrated(0.5) == pytest.approx(0.84375)


def test_kernel_integrates_to_one():
    total, _ = quad(lambda u: float(_epan_weight(u)), -1, 1)
    assert total == pytest.approx(1.0, abs=1e-9)


@given(st.floats(min_value=-3, max_value=3))
@settings(max_examples=60, deadline=None)
def test_kernel_symmetry_and_cdf(u):
    assert _epan_weight(u) == pytest.approx(_epan_weight(-u), abs=1e-12)
    i_pos = float(_epan_integrated(u))
    assert i_pos == pytest.approx(1.0 - _epan_integrated(-u), abs=1e-12)
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
        h = rot_bandwidth_regression(x, y)
    assert h == pytest.approx(2.0)


def test_rot_regression_noiseless_quadratic_hits_floor():
    x = np.linspace(0, 1, 200)
    h = rot_bandwidth_regression(x, x**2)
    assert h == pytest.approx(1e-3, abs=1e-12)


def test_rot_regression_matches_oracle():
    rng = np.random.default_rng(21)
    x = np.sort(rng.uniform(0, 3, size=500))
    y = x**2 + rng.normal(size=500)
    assert rot_bandwidth_regression(x, y) == pytest.approx(rot_oracle(x, y), rel=1e-12)


def test_rot_regression_location_invariance():
    rng = np.random.default_rng(22)
    x = rng.uniform(0, 3, size=300)
    y = np.sin(x) + rng.normal(size=300) * 0.3
    h0 = rot_bandwidth_regression(x, y)
    h1 = rot_bandwidth_regression(x + 57.0, y)
    assert h1 == pytest.approx(h0, rel=1e-9)


def test_rot_regression_preconditions():
    with pytest.raises(InputError):
        rot_bandwidth_regression(np.arange(5.0), np.arange(5.0))
    with pytest.raises(InputError):
        rot_bandwidth_regression(np.ones(20), np.arange(20.0))


def test_rot_kernel_constant():
    assert ROT_KERNEL_CONST == pytest.approx(15.0**0.2)


def test_rot_density_direct_value():
    data = np.concatenate([np.zeros(2), np.ones(2)])  # IQR = 1
    h = rot_bandwidth_density(data, n=1000)
    assert h == pytest.approx(0.79 * 1000 ** (-0.19), rel=1e-12)
    assert h == pytest.approx(0.212631, abs=5e-7)


def test_rot_density_linear_in_iqr():
    rng = np.random.default_rng(5)
    x = rng.normal(size=400)
    assert rot_bandwidth_density(2 * x) == pytest.approx(2 * rot_bandwidth_density(x), rel=1e-12)


def test_rot_density_delta_zero_classical_rate():
    data = np.concatenate([np.zeros(2), np.ones(2)])
    h = rot_bandwidth_density(data, n=512, delta=0.0)
    assert h == pytest.approx(0.79 * 512 ** (-0.2), rel=1e-12)


def test_rot_density_degenerate():
    with pytest.raises(InputError):
        rot_bandwidth_density(np.ones(50))


def test_rot_density_location_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=200)
    assert rot_bandwidth_density(x + 11.0) == pytest.approx(rot_bandwidth_density(x), rel=1e-12)


# ---------------------------------------------------------------- first stage


def test_fit_location_scale_recovers_unit_noise():
    rng = np.random.default_rng(42)
    y = ReturnSeries(rng.standard_normal(2000), kind="raw")
    fit = fit_location_scale(y)
    eps = fit.residuals
    assert abs(eps.mean()) < 0.1
    assert abs(eps.var() - 1.0) < 0.15


def test_fit_location_scale_constant_series():
    y = ReturnSeries(np.full(64, 3.25), kind="raw")
    fit = fit_location_scale(y)
    assert fit.m_hat(3.25) == pytest.approx(3.25)
    assert fit.h_hat(3.25) == 0.0
    assert np.all(fit.residuals == 0.0)


def test_fit_location_scale_zero_where_h_nonpositive():
    rng = np.random.default_rng(1)
    y = ReturnSeries(rng.standard_normal(500), kind="raw")
    fit = fit_location_scale(y)
    h_at_x = fit.h_hat(fit.x)
    assert np.all(fit.residuals[h_at_x <= 0] == 0.0)


def test_fit_location_scale_too_short():
    with pytest.raises(InputError):
        fit_location_scale(ReturnSeries(np.arange(10.0), kind="raw"))


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
