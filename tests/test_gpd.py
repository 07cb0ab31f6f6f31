import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import (
    H_matrix,
    V2_matrix,
    bias_correct_oracle,
    gpd_cdf,
    gpd_logpdf,
    gpd_mle_grid_oracle,
    gpd_mle_newton_oracle,
    h_inv_numeric,
    loglik_grad_hess_oracle,
    rho_oracle,
    smoothed_sample,
)
from evtrisk import gpd
from evtrisk.errors import (
    ConvergenceError,
    EstimationWarning,
    EvtriskError,
    InputError,
    PoleError,
    TailError,
)
from evtrisk.gpd import (
    K_DOMAIN,
    A_matrix,
    GpdParams,
    H_inv,
    TailFit,
    Vb_matrix,
    _loglik_grad_hess,
    _profile,
    bias_correct_params,
    d_hat,
    fit_tail,
    gpd_mle,
    gpd_quantile,
    moment_stats,
    rho_hat,
)
from evtrisk.smoothing import rot_bandwidth_density
from evtrisk.tail import TailSample, extract_tail_empirical


def make_sample(exceedances, q_tilde=1.0, n=None, N=None):
    z = np.sort(np.asarray(exceedances, dtype=float))
    n = n or 10 * z.size
    N = N or z.size
    return TailSample(
        residuals_sorted=z + q_tilde,
        n=n,
        N=N,
        a_N=1.0 - N / n,
        q_tilde=q_tilde,
        N_s=z.size,
        exceedances=z,
        h3=None,
        threshold_kind="empirical",
    )


# ---------------------------------------------------------------- density


def test_logpdf_closed_form():
    assert gpd_logpdf(1.0, GpdParams(1.0, -1.0)) == pytest.approx(math.log(2 ** -2.0))
    assert gpd_logpdf(1.0, GpdParams(1.0, -1.0)) == pytest.approx(-1.3862944, abs=1e-6)


def test_logpdf_exponential_limit():
    assert gpd_logpdf(2.0, GpdParams(1.0, 0.0)) == pytest.approx(-2.0)
    assert gpd_logpdf(2.0, GpdParams(1.0, 1e-12)) == pytest.approx(-2.0, abs=1e-9)


def test_logpdf_hand_value():
    # log(2 (1.5)^-5) = log 2 - 5 log 1.5 = -1.33418 (-1.334 to printed digits)
    value = gpd_logpdf(1.0, GpdParams(0.5, -0.25))
    assert value == pytest.approx(math.log(2) - 5 * math.log(1.5), abs=1e-12)
    assert value == pytest.approx(-1.334, abs=2.5e-4)


def test_logpdf_outside_support_is_minus_inf():
    assert gpd_logpdf(10.0, GpdParams(1.0, 0.5)) == -math.inf
    assert gpd_logpdf(-0.5, GpdParams(1.0, -0.2)) == -math.inf


@pytest.mark.parametrize("k", [-0.5, -1 / 6, 0.2])
def test_density_integrates_to_one(k):
    params = GpdParams(1.0, k)
    upper = 1.0 / k if k > 0 else np.inf
    total, _ = quad(lambda z: math.exp(gpd_logpdf(z, params)), 0, upper, limit=300)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_quantile_inverts_cdf():
    params = GpdParams(0.7, -0.3)
    p = np.array([0.1, 0.5, 0.9, 0.999])
    np.testing.assert_allclose(gpd_cdf(gpd_quantile(p, params), params), p, atol=1e-12)


# ---------------------------------------------------------------- MLE


def test_mle_recovers_parameters():
    rng = np.random.default_rng(42)
    z = gpd_quantile(rng.random(50_000), GpdParams(1.0, -1 / 6))
    params, loglik = gpd_mle(make_sample(z, q_tilde=2.0))
    assert abs(params.k - (-1 / 6)) <= 0.02
    assert abs(params.sigma - 1.0) <= 0.03
    _, grad, hess = loglik_grad_hess_oracle(np.sort(z), math.log(params.sigma), params.k)
    assert np.max(np.abs(grad)) < 1e-9
    assert np.all(np.linalg.eigvalsh(hess) <= 1e-6)


def _loglik_cases(seed, count):
    """(z, log sigma, k): k = 0, |k| < 1e-5, k putting |k w| on both sides
    of the 1e-4 series cut, and k anywhere in the search domain, which
    puts some cases outside the support; every third z has zero entries."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(5, 300))
        z = gpd_quantile(rng.random(n), GpdParams(float(rng.uniform(0.2, 3.0)),
                                                  float(rng.uniform(-0.6, 0.3))))
        if i % 3 == 0:
            z[rng.integers(0, n, size=int(rng.integers(1, 4)))] = 0.0
        log_sigma = math.log(rng.uniform(0.2, 3.0))
        w = z / math.exp(log_sigma)
        k = [
            0.0,
            float(rng.uniform(-1e-5, 1e-5)),
            float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * 1e-4 / np.median(w[w > 0])),
            float(rng.uniform(-0.9, 0.9)),
        ][i % 4]
        yield z, log_sigma, k


def test_loglik_matches_masked_oracle_bitwise():
    # Bitwise only in the likelihood: _loglik_grad_hess takes phi' and phi''
    # by their recursions in c, where the oracle has the closed forms in k,
    # and the two cancel alike at |c| = 1e-4 (measured worst, scaled by N:
    # 5e-12 in the shape gradient, 6e-8 in its Hessian entry).  On the same
    # cases the profile at theta = k/sigma gives the oracle's likelihood at
    # (sigma(theta), k(theta)), where the oracle's gradient is
    # N score (-theta, 1/sigma): it vanishes along the ray of fixed theta,
    # g1 + k g2 = 0.  The slope is the score's central difference.
    outside = 0
    for z, log_sigma, k in _loglik_cases(2024, 2000):
        expect = loglik_grad_hess_oracle(z, log_sigma, k)
        got = _loglik_grad_hess(z, log_sigma, k)
        outside += expect[1] is None
        if expect[1] is None:
            assert got[1] is None and got[0] == -np.inf
        else:
            assert got[0] == expect[0]
            np.testing.assert_allclose(got[1], expect[1], rtol=1e-10, atol=1e-10 * z.size)
            np.testing.assert_allclose(got[2], expect[2], rtol=1e-6, atol=1e-6 * z.size)

        theta = k / math.exp(log_sigma)
        found = _profile(z, theta)
        if found is None:
            assert np.max(theta * z) >= 1.0
            continue
        sigma, k_theta, score, slope = found
        ll, grad, _ = loglik_grad_hess_oracle(z, math.log(sigma), k_theta)
        n = z.size
        profile_ll = n * (-math.log(sigma) - 1.0 + k_theta)
        assert profile_ll == pytest.approx(ll, rel=1e-14, abs=1e-14 * n)
        np.testing.assert_allclose(grad, n * score * np.array([-theta, 1.0 / sigma]),
                                   rtol=1e-10, atol=1e-11 * n)
        step = 1e-4 * (1.0 / z.max() - theta)    # 1e-4 of the distance to the pole
        difference = (_profile(z, theta + step)[2] - _profile(z, theta - step)[2]) / (2 * step)
        assert slope == pytest.approx(difference, rel=1e-4, abs=1e-6)
    assert 0 < outside < 2000


def test_mle_matches_grid_oracle():
    rng = np.random.default_rng(5)
    heavy = gpd_quantile(rng.random(100), GpdParams(1.3, -0.3))
    # Exponential exceedances at their plotting positions, the largest moved
    # so that mean(z^2) = 2 mean(z)^2: the profile score then vanishes at
    # theta = 0, the exponential limit k = 0.
    n = 100
    flat = -np.log1p(-(np.arange(n) + 0.5) / n)
    s1, s2 = flat[:-1].sum(), np.sum(flat[:-1] ** 2)
    flat[-1] = np.roots([n - 2, -4 * s1, n * s2 - 2 * s1**2]).max()
    for z in (heavy, flat):
        params, _ = gpd_mle(make_sample(z))
        sigma_g, k_g = gpd_mle_grid_oracle(z, step=5e-3, refine_step=2e-4)
        assert params.sigma == pytest.approx(sigma_g, abs=5e-3)
        assert params.k == pytest.approx(k_g, abs=5e-3)
    assert abs(params.k) < 1e-9 and params.sigma == pytest.approx(flat.mean(), rel=1e-9)


def test_mle_too_few_exceedances():
    with pytest.raises(TailError):
        gpd_mle(make_sample([0.5, 1.0]))


@given(st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=15, deadline=None)
def test_mle_scale_equivariance(lam):
    rng = np.random.default_rng(77)
    z = gpd_quantile(rng.random(400), GpdParams(1.0, -0.25))
    base, _ = gpd_mle(make_sample(z))
    scaled, _ = gpd_mle(make_sample(lam * z, q_tilde=lam))
    assert scaled.k == pytest.approx(base.k, abs=1e-7)
    assert scaled.sigma == pytest.approx(lam * base.sigma, rel=1e-6)


def test_mle_boundary_shape_warns():
    # uniform exceedances have shape 1, outside the search domain; the
    # solver stops at the boundary and flags it
    rng = np.random.default_rng(3)
    z = rng.random(500)
    with pytest.warns(EstimationWarning, match="boundary"):
        params, _ = gpd_mle(make_sample(z))
    assert params.k > 0.85


def _mle_outcome(mle, tail):
    """(sigma, k, loglik), or the error's type name, and whether the
    boundary warning was raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            params, ll = mle(tail)
            result = (params.sigma, params.k, ll)
        except EvtriskError as exc:
            result = type(exc).__name__
    return result, any("boundary" in str(w.message) for w in caught)


def _mixed_tails():
    """150 tails of heavy, bounded (shape at the boundary), tick-rounded and
    rescaled residuals over smoothed and empirical thresholds."""
    rng = np.random.default_rng(21)
    samples = [make_sample(np.random.default_rng(3).random(500))]  # the boundary case above
    while len(samples) < 150:
        n = int(rng.choice([50, 200, 1000]))
        res = [rng.standard_t(int(rng.choice([2, 3, 6])), n), rng.uniform(-1.0, 1.0, n),
               np.round(rng.standard_t(3, n), 1),
               rng.standard_normal(n) * float(rng.choice([1e-3, 100.0]))][len(samples) % 4]
        N = int(rng.integers(6, n // 4))
        try:
            samples.append(extract_tail_empirical(res, N) if len(samples) % 2
                           else smoothed_sample(res, N, 0.3))
        except EvtriskError:
            continue
    return samples


def test_mle_takes_the_newton_oracles_steps_bitwise():
    # No longer bitwise: the profile solver against the damped 2-D Newton
    # it replaced, on _mixed_tails.  Where the oracle converges inside the
    # domain, the likelihood is at least the oracle's; every boundary
    # warning comes with |k| > K_DOMAIN - 0.02; a fit without one has a
    # vanishing gradient; there are no more ConvergenceErrors than the
    # oracle's.
    warned = failed = oracle_failed = 0
    for sample in _mixed_tails():
        got, got_warned = _mle_outcome(gpd_mle, sample)
        want, want_warned = _mle_outcome(gpd_mle_newton_oracle, sample)
        failed += got == ConvergenceError.__name__
        oracle_failed += want == ConvergenceError.__name__
        if isinstance(want, tuple) and not want_warned:
            assert isinstance(got, tuple) and got[2] >= want[2] - 1e-9 * abs(want[2]), got
        if got_warned:
            warned += 1
            assert abs(got[1]) > K_DOMAIN - 0.02
        elif isinstance(got, tuple):
            _, grad, _ = loglik_grad_hess_oracle(sample.exceedances, math.log(got[0]), got[1])
            assert np.max(np.abs(grad)) < 1e-9
    assert failed <= oracle_failed and oracle_failed > 0, (failed, oracle_failed)
    assert warned > 10, warned


def test_mle_stall_and_step_cap_raise(monkeypatch):
    # With no score small enough, the bracket closes on the interior root
    # and the fit raises; on the boundary case it closes on the domain end
    # and warns.  Two steps are too few for any fit.
    rng = np.random.default_rng(5)
    sample = make_sample(gpd_quantile(rng.random(100), GpdParams(1.3, -0.3)))
    monkeypatch.setattr("evtrisk.gpd.MLE_GRAD_TOL", 0.0)
    with pytest.raises(ConvergenceError, match="stalled"):
        gpd_mle(sample)
    with pytest.warns(EstimationWarning, match="boundary"):
        gpd_mle(make_sample(np.random.default_rng(3).random(500)))
    monkeypatch.undo()
    monkeypatch.setattr("evtrisk.gpd.MLE_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="did not converge"):
        gpd_mle(sample)


def _smoothed_t_tails(count):
    """Tails of n = 1000 t(3) to t(6) residuals at 60 to 250 exceedances over
    the smoothed threshold, at the interquartile-range bandwidth."""
    rng = np.random.default_rng(2024)
    tails = []
    while len(tails) < count:
        res = rng.standard_t(int(rng.integers(3, 7)), 1000)
        try:
            tails.append(smoothed_sample(res, int(rng.integers(60, 251)),
                                               rot_bandwidth_density(res)))
        except EvtriskError:
            continue
    return tails


def test_mle_profile_evaluations_per_fit(monkeypatch):
    # The probability-weighted moment start lands near the root: 1542
    # evaluations over these 300 tails, 5.14 per fit and at most 12
    # (measured; the moment start took 7.80 per fit).  The bounds leave
    # three evaluations in all, and one in the largest, for last-bit
    # differences in log1p between CPUs.
    calls = []
    profile = gpd._profile

    def counted(z, theta):
        calls.append(theta)
        return profile(z, theta)

    monkeypatch.setattr(gpd, "_profile", counted)
    counts = []
    for sample in _smoothed_t_tails(300):
        calls.clear()
        gpd_mle(sample)
        counts.append(len(calls))
    assert sum(counts) <= 1545 and max(counts) <= 13


def test_mle_stops_a_boundary_fit_in_the_warning_band(monkeypatch):
    # A fit whose likelihood rises to the shape boundary stops at its first
    # iterate with |k| > K_DOMAIN - 0.02 whose score points outward: the 53
    # boundary fits of _mixed_tails took 393 evaluations, 7.4 per fit and
    # at most 13 (measured; closing the bracket down to adjacent floats
    # took 52.0 per fit and at most 54).  The slack is that of
    # test_mle_profile_evaluations_per_fit.
    calls = []
    profile = gpd._profile

    def counted(z, theta):
        calls.append(theta)
        return profile(z, theta)

    monkeypatch.setattr(gpd, "_profile", counted)
    counts = []
    for sample in _mixed_tails():
        calls.clear()
        got, warned = _mle_outcome(gpd_mle, sample)
        if warned:
            assert abs(got[1]) > K_DOMAIN - 0.02
            counts.append(len(calls))
    assert len(counts) > 45
    assert sum(counts) <= 396 and max(counts) <= 14


def _pwm_gap(z):
    """b0 - 2 a1 and 4 a1 - b0 of the ascending z, as gpd._pwm_start
    computes them."""
    n = z.size
    b0 = float(np.add.reduce(z)) / n
    a1 = float(z @ np.arange(n - 1.0, -1.0, -1.0)) / (n * (n - 1.0))
    return b0 - 2.0 * a1, 4.0 * a1 - b0


def _check_start_and_fit(z, boundary):
    """The start is a negative shape, where the profile is defined and
    |k| < K_DOMAIN, and the fit converges: at the domain boundary with the
    warning, or inside it with none."""
    theta = gpd._pwm_start(z)
    found = gpd._profile(z, theta)
    assert theta < 0.0 and found is not None and abs(found[1]) < K_DOMAIN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params, _ = gpd_mle(make_sample(z))
    if boundary:
        assert params.k > K_DOMAIN - 0.02 and "boundary" in str(caught[-1].message)
    else:
        assert not caught
    return params


def test_pwm_start_on_equal_exceedances():
    # Equal exceedances give b0 - 2 a1 = 0 up to rounding: exactly 0 at
    # 1.0, below 0 in the rounding of some of the other constants.
    gaps = []
    for c in (1.0, 0.1, 0.3, 7.3, 1e-3):
        for n in (5, 50, 137):
            z = np.full(n, c)
            gaps.append(_pwm_gap(z)[0])
            _check_start_and_fit(z, boundary=True)
    assert gaps[0] == 0.0 and min(gaps) < 0.0


@pytest.mark.parametrize("k", [0.3, 1.0])
def test_pwm_start_clamps_a_positive_moment_shape(k):
    # GPD(k = 0.3) exceedances and uniform ones (k = 1, outside the domain)
    # have positive moment shapes; the start stays at a negative one.
    z = np.sort(gpd_quantile(np.random.default_rng(9).random(500), GpdParams(1.0, k)))
    gap, top = _pwm_gap(z)
    assert top / gap > 0.2
    params = _check_start_and_fit(z, boundary=k == 1.0)
    if k < 1.0:
        assert params.k == pytest.approx(k, abs=0.1)


def test_mle_loglik_beats_moment_start():
    rng = np.random.default_rng(8)
    z = gpd_quantile(rng.random(300), GpdParams(0.8, -0.2))
    sample = make_sample(z, q_tilde=1.5)
    params, loglik = gpd_mle(sample)
    k_mom, _ = moment_stats(sample)
    start = GpdParams(-k_mom * sample.q_tilde, k_mom)
    assert loglik >= float(np.sum(gpd_logpdf(z, start)))


# ---------------------------------------------------------------- moments


def test_moment_stats_log_ratio_e():
    z = np.full(8, math.e - 1.0)  # order stats / threshold = e
    k_mom, m_n = moment_stats(make_sample(z, q_tilde=1.0))
    assert k_mom == pytest.approx(-1.0)
    assert m_n == pytest.approx(1.0)


def test_moment_stats_ratio_one():
    k_mom, m_n = moment_stats(make_sample(np.full(5, 1e-15), q_tilde=1.0))
    assert k_mom == pytest.approx(0.0, abs=1e-12)
    assert m_n == pytest.approx(0.0, abs=1e-24)


def test_moment_stats_hand_arithmetic():
    z = np.array([math.exp(0.1) - 1.0, math.exp(0.3) - 1.0])
    k_mom, m_n = moment_stats(make_sample(z, q_tilde=1.0))
    assert k_mom == pytest.approx(-0.2)
    assert m_n == pytest.approx(0.05)


def test_moment_stats_nonpositive_threshold():
    with pytest.raises(TailError, match="nonpositive threshold"):
        moment_stats(make_sample(np.arange(1.0, 9.0), q_tilde=-1.0))


# ---------------------------------------------------------------- rho


def test_rho_enlarged_count_schedule():
    # round(0.25 * 164 * ln 1000) = 283 and half that count = 142
    assert int(math.floor(0.25 * 164 * math.log(1000) + 0.5)) == 283
    assert int(math.floor(0.125 * 164 * math.log(1000) + 0.5)) == 142


def test_rho_count_reaching_sample_errors():
    rng = np.random.default_rng(3)
    res = rng.standard_t(6, size=300)
    # round(0.25 * 250 * ln 300) = 356 >= 300
    with pytest.raises(InputError, match=r"N\(c\)=356 reaches the sample size n=300; "
                       r"use a smaller tail count than N=250"):
        rho_hat(extract_tail_empirical(res, 250))


def test_rho_identical_stats_clamped(monkeypatch):
    import evtrisk.gpd as gpd_mod

    monkeypatch.setattr(
        gpd_mod, "_log_moments", lambda *args: (-0.4, 2 * 0.16 + 0.01)
    )
    with pytest.warns(EstimationWarning, match="clamped"):
        value = rho_hat(extract_tail_empirical(np.arange(1.0, 1001.0), 100))
    assert value == -0.05


def test_rho_degenerate_ratio_falls_back(monkeypatch):
    import evtrisk.gpd as gpd_mod

    # N(c) stats give a positive deviation, N(c/2) a negative one: the log
    # argument is negative and the heavy-tail fallback kicks in.
    calls = iter([(-0.4, 2 * 0.16 + 0.01), (-0.4, 2 * 0.16 - 0.01)])
    monkeypatch.setattr(
        gpd_mod, "_log_moments", lambda *args: next(calls)
    )
    with pytest.warns(EstimationWarning, match="rho = -2"):
        value = rho_hat(extract_tail_empirical(np.arange(1.0, 1001.0), 100))
    assert value == -2.0


def test_rho_student_t6_statistical():
    # Second-order truth for Student-t is rho = -2.  At the c=0.25 count
    # schedule the estimator carries a finite-sample downward bias of a few
    # tenths on top of its sampling noise, so the band is wider than the
    # asymptotic reasoning alone would suggest.
    rng = np.random.default_rng(1234)
    res = rng.standard_t(6, size=100_000) / math.sqrt(6 / 4)
    n = res.size
    N = int(math.floor(0.7 * n**0.79 + 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = rho_hat(extract_tail_empirical(res, N))
    assert abs(value - (-2.0)) <= 1.2


@pytest.mark.parametrize("kind", ["smoothed", "empirical"])
def test_rho_matches_oracle_bitwise(kind):
    # The re-thresholded sample and the shared log-moment routine reproduce
    # the direct transcription: to the last bit under the empirical rule,
    # and under the smoothed rule as closely as the Newton threshold meets
    # the oracle's bisection (both to 1e-10 in F).  Measured: 3.7e-9 here,
    # at most 6.3e-8 over forty further seeds of this sample.
    rng = np.random.default_rng(41)
    res = rng.standard_t(4, size=1500) / math.sqrt(2.0)
    if kind == "smoothed":
        sample = smoothed_sample(res, 150, h3=0.3)
    else:
        sample = extract_tail_empirical(res, 150)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = rho_hat(sample)
        expect = rho_oracle(res, 150, 0.25, sample.h3, kind)
    if kind == "empirical":
        assert value == expect
    else:
        assert value == pytest.approx(expect, rel=0.0, abs=1e-7)


# ---------------------------------------------------------------- matrices


def test_H_matrix_value():
    expect = np.array([[0.75, -0.642857], [-0.642857, 1.285714]])
    np.testing.assert_allclose(H_matrix(-1 / 6), expect, atol=5e-7)


def test_H_inv_closed_form_matches_numeric():
    for k in (-0.45, -1 / 6, -0.05, 0.3):
        np.testing.assert_allclose(H_inv(k), h_inv_numeric(k), atol=1e-12)


@pytest.mark.parametrize("k", [-0.45, -0.35, -0.25, -0.15, -0.05])
def test_H_positive_definite_V2_symmetric(k):
    assert np.all(np.linalg.eigvalsh(H_matrix(k)) > 0)
    v2 = V2_matrix(k)
    np.testing.assert_allclose(v2, v2.T)


def test_Vb_entry_and_symmetry():
    vb = Vb_matrix(-1 / 6)
    assert vb[2, 2] == pytest.approx(1.0 / 36.0)
    np.testing.assert_allclose(vb, vb.T)


def test_A_shape_and_poles():
    a = A_matrix(-1 / 6, -2.0)
    assert a.shape == (2, 5)
    np.testing.assert_allclose(a[:, :2], np.eye(2))
    with pytest.raises(PoleError):
        A_matrix(-1 / 6, 1.0)  # rho must be negative
    with pytest.raises(PoleError):
        A_matrix(0.5, -2.0)  # 1 + rho k = 0
    with pytest.raises(PoleError):
        A_matrix(1.0 / 3.0, -2.0)  # (1 - rho) k = 1
    with pytest.raises(PoleError):
        H_matrix(0.0)


# ---------------------------------------------------------------- bias correction


def make_tail_fit(sigma, k, k_mom, m_n, rho, q_tilde=1.0, k_corr=None):
    z = gpd_quantile(np.linspace(0.01, 0.99, 50), GpdParams(sigma, k))
    sample = make_sample(z, q_tilde=q_tilde)
    k_corr = k_mom if k_corr is None else k_corr
    return TailFit(
        params=GpdParams(sigma, k),
        params_bc=None,
        k_mom=k_mom,
        M_n=m_n,
        rho_hat=rho,
        d_hat=d_hat(k_corr, rho),
        sample=sample,
        loglik=0.0,
        k_corr=k_corr,
    )


def test_bias_correct_zero_deviation_is_identity():
    fit = make_tail_fit(1.0, -0.2, k_mom=-0.2, m_n=2 * 0.04, rho=-2.0)
    corrected = bias_correct_params(fit)
    assert corrected.sigma == pytest.approx(1.0)
    assert corrected.k == pytest.approx(-0.2)


def test_bias_correct_transcription_fixture():
    fit = make_tail_fit(1.0, -1 / 6, k_mom=-1 / 6, m_n=2 / 36 + 0.01, rho=-2.0)
    corrected = bias_correct_params(fit)
    sigma_o, k_o = bias_correct_oracle(
        1.0, -1 / 6, -1 / 6, -1 / 6, 2 / 36 + 0.01, -2.0
    )
    assert corrected.sigma == pytest.approx(sigma_o, abs=1e-12)
    assert corrected.k == pytest.approx(k_o, abs=1e-12)


def test_bias_correct_pole():
    # 1 + rho * k_corr sits within 1e-6 of zero
    fit = TailFit(
        params=GpdParams(1.0, -0.2),
        params_bc=None,
        k_mom=0.5,
        M_n=0.6,
        rho_hat=-2.0000001,
        d_hat=1.0,
        sample=make_sample(np.arange(1.0, 9.0)),
        loglik=0.0,
        k_corr=0.5,
    )
    with pytest.raises(PoleError):
        bias_correct_params(fit)


def test_d_hat_pole():
    with pytest.raises(PoleError):
        d_hat(0.5, -2.0)


def test_bias_correction_improves_t6_shape():
    # direct second stage on IID standardized t(6) draws
    rng = np.random.default_rng(99)
    n = 4000
    N = int(math.floor(0.7 * n**0.79 + 0.5))
    raw, corrected = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(200):
            res = rng.standard_t(6, size=n) / math.sqrt(6 / 4)
            sample = extract_tail_empirical(res, N)
            try:
                fit = fit_tail(sample)
            except (TailError, PoleError):
                continue
            raw.append(fit.params.k)
            corrected.append(fit.params_bc.k)
    k0 = -1 / 6
    assert len(raw) >= 190
    assert abs(np.mean(corrected) - k0) < abs(np.mean(raw) - k0)


def test_fit_tail_assembles_everything():
    rng = np.random.default_rng(15)
    res = rng.standard_t(4, size=2000) / math.sqrt(2.0)
    sample = extract_tail_empirical(res, 220)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_tail(sample)
    assert fit.params_bc is not None
    assert -20.0 <= fit.rho_hat <= -0.05
    assert fit.d_hat != 0.0
    assert fit.k_corr == fit.k_mom


def test_fit_tail_without_correction_skips_second_order():
    rng = np.random.default_rng(15)
    res = rng.standard_t(4, size=2000) / math.sqrt(2.0)
    sample = extract_tail_empirical(res, 220)
    fit = fit_tail(sample, bias_correction=False)
    assert fit.params == gpd_mle(sample)[0]
    assert (fit.params_bc, fit.k_mom, fit.M_n, fit.rho_hat, fit.d_hat, fit.k_corr) == (
        None, None, None, None, None, None
    )
