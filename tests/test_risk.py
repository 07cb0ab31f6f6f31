import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assembly_oracle,
    b_e_oracle,
    crossover_oracle,
    q_bc_oracle,
    sigma1_b_oracle,
    sigma1_oracle,
    sigma2_b_oracle,
    sigma2_oracle,
    sigma3_b_oracle,
)
from evtrisk.errors import InputError, PoleError, TailError
from evtrisk.gpd import GpdParams, TailFit, d_hat, fit_tail, gpd_quantile
from evtrisk.ingest import ReturnSeries
from evtrisk.risk import (
    assemble,
    asymptotic_ci,
    es_bias_term,
    es_eps,
    estimate_at,
    mse_crossover,
    q_eps,
    q_eps_bc,
    sigma1,
    sigma1_b,
    sigma2,
    sigma2_b,
    sigma3_b,
)
from evtrisk.smoothing import LocationScaleFit, fit_location_scale
from evtrisk.tail import TailSample, choose_N, extract_tail


def tail_fixture(sigma=0.5, k=-0.25, q_tilde=2.0, n=1000, N=100,
                 sigma_b=None, k_b=None, k_mom=None, m_n=None, rho=-2.0):
    k_mom = k if k_mom is None else k_mom
    m_n = 2 * k_mom**2 if m_n is None else m_n
    z = gpd_quantile(np.linspace(0.005, 0.995, N), GpdParams(sigma, k))
    z = np.sort(z)
    fit = TailFit(
        params=GpdParams(sigma, k),
        params_bc=GpdParams(sigma if sigma_b is None else sigma_b,
                            k if k_b is None else k_b),
        k_mom=k_mom,
        M_n=m_n,
        rho_hat=rho,
        d_hat=d_hat(k_mom, rho),
        sample=TailSample(
            residuals_sorted=z + q_tilde, n=n, N=N, a_N=1 - N / n,
            q_tilde=q_tilde, N_s=N, exceedances=z, h3=None,
            threshold_kind="empirical",
        ),
        loglik=0.0,
        k_corr=k_mom,
    )
    return fit


# ---------------------------------------------------------------- q_eps


def test_q_eps_zero_extrapolation():
    fit = tail_fixture()
    # (n/N)(1-a) = 1 exactly at the threshold level
    a = 1 - fit.sample.N / fit.sample.n
    assert q_eps(a, fit) == pytest.approx(fit.sample.q_tilde)


def test_q_eps_direct_value():
    fit = tail_fixture(sigma=0.5, k=-0.25, q_tilde=2.0, n=1000, N=100)
    a = 1 - 0.1 * 100 / 1000  # (n/N)(1-a) = 0.1
    assert q_eps(a, fit) == pytest.approx(3.556559, abs=1e-6)


def test_q_eps_below_threshold_level_errors():
    fit = tail_fixture()
    with pytest.raises(InputError, match="below threshold"):
        q_eps(0.5, fit)


def test_q_eps_gpd_stack_oracle():
    rng = np.random.default_rng(31)
    n, N = 200_000, 20_000
    q0, sigma0, k0 = 2.0, 1.0, -1 / 6
    z = np.sort(gpd_quantile(rng.random(N), GpdParams(sigma0, k0)))
    sample = TailSample(
        residuals_sorted=z + q0, n=n, N=N, a_N=1 - N / n, q_tilde=q0,
        N_s=N, exceedances=z, h3=None, threshold_kind="empirical",
    )
    fit = fit_tail(sample, rho=-2.0)
    a = 0.999
    q_true = q0 + sigma0 / k0 * (1 - ((n / N) * (1 - a)) ** k0)
    assert q_eps(a, fit) == pytest.approx(q_true, rel=0.03)
    es_true = q_true / (1 + k0)
    assert es_eps(q_eps(a, fit), fit.params.k) == pytest.approx(es_true, rel=0.03)


def test_q_eps_small_k_matches_log_limit():
    for k in (1e-7, -1e-7, 1e-9, -1e-9):
        fit = tail_fixture(sigma=1.0, k=-0.2, q_tilde=2.0)
        fit.params = GpdParams(1.0, k)
        a = 1 - 0.1 * fit.sample.N / fit.sample.n
        limit = 2.0 - 1.0 * math.log(0.1)
        assert q_eps(a, fit) == pytest.approx(limit, rel=1e-6)


@given(st.floats(min_value=0.901, max_value=0.9989), st.floats(min_value=0.902, max_value=0.999))
@settings(max_examples=40, deadline=None)
def test_q_eps_monotone_in_level(a1, a2):
    fit = tail_fixture()
    lo, hi = sorted((a1, a2))
    if hi - lo < 1e-6:
        return
    assert q_eps(hi, fit) > q_eps(lo, fit)


# ---------------------------------------------------------------- es_eps


def test_es_eps_k_zero_equals_q():
    fit = tail_fixture()
    fit.params = GpdParams(0.5, 0.0)
    a = 0.99
    assert es_eps(q_eps(a, fit), fit.params.k) == pytest.approx(q_eps(a, fit))


def test_es_eps_division():
    fit = tail_fixture(sigma=0.5, k=-0.25, q_tilde=2.0)
    a = 1 - 0.1 * fit.sample.N / fit.sample.n
    assert es_eps(q_eps(a, fit), fit.params.k) == pytest.approx(3.556559 / 0.75, abs=1e-5)
    assert es_eps(q_eps(a, fit), fit.params.k) == pytest.approx(4.742079, abs=1e-5)


def test_es_eps_undefined_below_minus_one():
    fit = tail_fixture()
    fit.params = GpdParams(0.5, -1.05)
    with pytest.raises(TailError, match="undefined"):
        es_eps(q_eps(0.99, fit), fit.params.k)


# ---------------------------------------------------------------- corrected


def test_q_eps_bc_zero_deviation_reduces_to_corrected_extrapolation():
    fit = tail_fixture(sigma=0.5, k=-0.25, sigma_b=0.45, k_b=-0.3,
                       k_mom=-0.25, m_n=2 * 0.25**2)
    a = 0.995
    value, b_q, z_hat = q_eps_bc(a, fit)
    assert b_q == 0.0
    plain = TailFit(**{**fit.__dict__, "params": fit.params_bc})
    assert value == pytest.approx(q_eps(a, plain), abs=1e-12)
    assert z_hat == pytest.approx(q_eps(a, fit) / fit.sample.q_tilde)


def test_q_eps_bc_transcription_fixture():
    fit = tail_fixture(sigma=0.5, k=-0.2, q_tilde=2.0, n=1000, N=100,
                       sigma_b=0.48, k_b=-0.2, k_mom=-0.2,
                       m_n=2 * 0.04 + 0.004, rho=-2.0)
    # correction shape = corrected shape = -0.2 here
    a = 1 - 0.1 * fit.sample.N / fit.sample.n  # N/(n(1-a)) = 10
    value, b_q, z_hat = q_eps_bc(a, fit)
    d = d_hat(fit.params_bc.k, fit.rho_hat)
    expect, b_q_expect = q_bc_oracle(
        q_tilde=2.0, sigma_b=0.48, k_b=-0.2, rho=-2.0, d=d,
        z_hat=z_hat, dev=0.004, n=1000, N=100, a=a,
    )
    assert b_q == pytest.approx(b_q_expect, abs=1e-12)
    assert value == pytest.approx(expect, abs=1e-12)


def test_q_eps_bc_out_of_range():
    fit = tail_fixture(sigma=0.5, k=-0.2, sigma_b=0.48, k_b=-0.2,
                       k_mom=-0.2, m_n=2 * 0.04 + 10.0, rho=-2.0)
    with pytest.raises(TailError, match="no-bias-correction"):
        q_eps_bc(0.999, fit)


def test_es_eps_bc_division_and_consistency():
    fit = tail_fixture(sigma=0.5, k=-0.25, sigma_b=0.5, k_b=-1 / 6,
                       k_mom=-0.25, m_n=2 * 0.25**2)
    a = 0.995
    q_b, _, _ = q_eps_bc(a, fit)
    est = assemble(fit, a, x=0.0, m_x=0.0, h_x=1.0)
    assert est.es_eps_bc == pytest.approx(q_b / (1 - 1 / 6))
    assert est.es_eps_bc == pytest.approx(est.q_eps_bc / (1 - 1 / 6))
    fit.params_bc = GpdParams(0.5, -1.0)
    with pytest.raises(TailError, match="undefined"):
        assemble(fit, a, x=0.0, m_x=0.0, h_x=1.0)


def test_es_bias_term_transcription():
    fit = tail_fixture(sigma=0.5, k=-0.25, sigma_b=0.48, k_b=-0.3,
                       k_mom=-0.3, m_n=2 * 0.09 + 0.005, rho=-2.0)
    b_e = es_bias_term(fit, q_bc=3.1, z_hat=1.9)
    d = d_hat(-0.3, -2.0)
    assert b_e == pytest.approx(
        b_e_oracle(3.1, 1.9, 0.005, d, -0.3, -2.0), abs=1e-12
    )


# ---------------------------------------------------------------- variances


def test_sigma1_b_transcription_anchor():
    mine = sigma1_b(-1 / 6, -2.0, 1.778)
    assert mine == pytest.approx(sigma1_b_oracle(-1 / 6, -2.0, 1.778), abs=1e-10)


def test_all_sigma_transcriptions_random_grid():
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = rng.uniform(-0.45, -0.06)
        rho = rng.uniform(-4.0, -0.6)
        z = rng.uniform(1.2, 4.5)
        assert sigma1(k, z) == pytest.approx(sigma1_oracle(k, z), rel=1e-10)
        assert sigma1_b(k, rho, z) == pytest.approx(sigma1_b_oracle(k, rho, z), rel=1e-10)
        assert sigma2(k, z) == pytest.approx(sigma2_oracle(k, z), rel=1e-10)
        assert sigma2_b(k, rho, z) == pytest.approx(sigma2_b_oracle(k, rho, z), rel=1e-10)
        assert sigma3_b(k, rho, z) == pytest.approx(sigma3_b_oracle(k, rho, z), rel=1e-10)


def test_sigma_grid_finite_nonnegative():
    for k in np.linspace(-0.4, -0.05, 8):
        for rho in np.linspace(-5.0, -0.5, 7):
            for z in np.linspace(1.1, 5.0, 6):
                values = [
                    sigma1(k, z),
                    sigma1_b(k, rho, z),
                    sigma2(k, z),
                    sigma2_b(k, rho, z),
                    sigma3_b(k, rho, z),
                ]
                assert all(np.isfinite(v) for v in values)
                assert all(v >= 0 for v in values)


# ---------------------------------------------------------------- intervals


def test_ci_degenerates_at_huge_N():
    lo, hi = asymptotic_ci(3.0, sigma1_b(-1 / 6, -2.0, 1.778), N=10**18)
    assert lo == pytest.approx(3.0, abs=1e-6)
    assert hi == pytest.approx(3.0, abs=1e-6)


def test_ci_contains_estimate():
    lo, hi = asymptotic_ci(3.0, sigma1_b(-1 / 6, -2.0, 1.778), N=164)
    assert lo <= 3.0 <= hi
    lo, hi = asymptotic_ci(-3.0, sigma3_b(-1 / 6, -2.0, 1.778), N=164)
    assert lo <= -3.0 <= hi


def test_ci_one_sided_when_factor_nonpositive():
    with pytest.warns(UserWarning, match="one-sided"):
        lo, hi = asymptotic_ci(3.0, sigma1_b(-0.35, -2.0, 8.0), N=5)
    assert hi == math.inf
    assert lo < 3.0


# ---------------------------------------------------------------- crossover


def test_crossover_values_match_oracle():
    c1, c2 = mse_crossover(-1 / 6, -2.0, 1.778)
    c1_o, c2_o = crossover_oracle(-1 / 6, -2.0, 1.778)
    if c1 is not None:
        assert c1 == pytest.approx(c1_o, abs=1e-10)
        assert c1 >= 0
    if c2 is not None:
        assert c2 == pytest.approx(c2_o, abs=1e-10)
        assert c2 >= 0


def test_crossover_nonnegative_over_grid():
    for k in (-0.3, -0.15):
        for rho in (-3.0, -1.0):
            for z in (1.5, 3.0):
                # the mu factor crosses zero at isolated points (NaN there)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    c1, c2 = mse_crossover(k, rho, z)
                assert c1 is None or math.isnan(c1) or c1 >= 0
                assert c2 is None or math.isnan(c2) or c2 >= 0


def test_crossover_zero_variance_gap(monkeypatch):
    import evtrisk.risk as risk_mod

    monkeypatch.setattr(risk_mod, "sigma1", lambda k, z: risk_mod.sigma1_b(k, -2.0, z))
    c1, _ = mse_crossover(-1 / 6, -2.0, 1.778)
    assert c1 == 0.0


@pytest.mark.parametrize("z", [1.5, 3.0, 10.0])
@pytest.mark.parametrize("k", [-0.4, -0.25, -0.1, 0.2])
def test_crossover_pole_at_rho_minus_one_is_nan_whatever_the_residue_sign(k, z):
    # At rho = -1 the C1 gap and its factor are both rounding residues of 0,
    # so the sign of the gap must not decide between None and NaN.
    with pytest.warns(UserWarning, match="C1 undefined"):
        c1, _ = mse_crossover(k, -1.0, z)
    assert c1 is not None and math.isnan(c1)


@pytest.mark.parametrize("func, args", [
    (sigma1, (0.0, 2.0)),
    (sigma2, (0.0, 2.0)),
    (sigma1_b, (0.0, -2.0, 2.0)),
    (sigma2_b, (0.0, -2.0, 2.0)),
    (sigma3_b, (0.0, -2.0, 2.0)),
    (mse_crossover, (0.0, -2.0, 2.0)),
    (mse_crossover, (1e-200, -2.0, 2.0)),
], ids=["sigma1", "sigma2", "sigma1_b", "sigma2_b", "sigma3_b", "mse_crossover",
        "mse_crossover_tiny_k"])
def test_vanishing_shape_raises_pole_error(func, args):
    with pytest.raises(PoleError, match="factor k vanishes"):
        func(*args)


def test_sigma3_b_names_the_matrix_pole_first():
    with pytest.raises(PoleError, match=r"A\(k, rho\) requires rho < 0"):
        sigma3_b(-0.2, 0.0, 2.0)


@pytest.mark.parametrize("args, error, message", [
    ((-1.0, -2.0, 2.0), PoleError, r"factor 1 \+ k vanishes"),
    ((-0.2, -2.0, 0.0), InputError, "Z must be finite and positive, got 0.0"),
    ((-0.2, -2.0, -1.0), InputError, "Z must be finite and positive, got -1.0"),
    ((-0.2, -2.0, math.inf), InputError, "Z must be finite and positive, got inf"),
    ((-0.2, -2.0, math.nan), InputError, "Z must be finite and positive, got nan"),
], ids=["k_minus_one", "z_zero", "z_negative", "z_inf", "z_nan"])
def test_crossover_domain_errors_are_evtrisk_errors(args, error, message):
    # At k = -1 the shortfall factor divides by k (1 + k), at Z = 0 _cb
    # divides by Z and at Z < 0 it takes log Z: each is decided first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any division warns
        with pytest.raises(error, match=message):
            mse_crossover(*args)


# ---------------------------------------------------------------- assembly


def unit_scale_fit():
    return LocationScaleFit(
        x=np.linspace(-1, 1, 50),
        y=np.zeros(50),
        h1=1.0,
        h2=1.0,
        residuals=np.zeros(50),
        m_hat=lambda q: 0.0 if np.isscalar(q) else np.zeros_like(np.asarray(q)),
        h_hat=lambda q: 1.0 if np.isscalar(q) else np.ones_like(np.asarray(q)),
    )


def test_estimate_at_unit_scale():
    tail = tail_fixture(sigma=0.5, k=-0.25, sigma_b=0.48, k_b=-0.28,
                        k_mom=-0.3, m_n=2 * 0.09 + 0.002)
    est = estimate_at(unit_scale_fit(), tail, a=0.995, x=0.0)
    assert est.cvar == pytest.approx(est.q_eps)
    assert est.ces == pytest.approx(est.es_eps)
    assert est.cvar_bc == pytest.approx(est.q_eps_bc)
    assert est.ces_bc == pytest.approx(est.es_eps_bc + est.B_E)
    assert est.ci_cvar[0] <= est.cvar_bc <= est.ci_cvar[1]
    assert est.ci_ces[0] <= est.ces_bc <= est.ci_ces[1]


def test_estimate_at_affine_assembly():
    fit = LocationScaleFit(
        x=np.linspace(-1, 1, 50), y=np.zeros(50), h1=1.0, h2=1.0,
        residuals=np.zeros(50),
        m_hat=lambda q: 0.1, h_hat=lambda q: 4.0,
    )
    tail = dataclasses.replace(tail_fixture(sigma=0.5, k=-0.25), params_bc=None)
    est = estimate_at(fit, tail, a=0.995, x=0.0)
    assert est.cvar == pytest.approx(0.1 + 2.0 * est.q_eps)
    assert est.ces == pytest.approx(0.1 + 2.0 * est.es_eps)


ASSEMBLY_GRID = [
    dict(sigma=0.5, k=-0.25, sigma_b=0.48, k_b=-0.28, k_mom=-0.3,
         m_n=2 * 0.09 + 0.002),
    dict(sigma=0.5, k=-0.25, sigma_b=0.5, k_b=-1 / 6, k_mom=-0.25,
         m_n=2 * 0.25**2),
    dict(sigma=0.5, k=-0.25, sigma_b=0.45, k_b=-0.3, k_mom=-0.28,
         m_n=2 * 0.28**2 + 0.004, rho=-1.0),
    dict(sigma=0.8, k=-0.1, sigma_b=0.75, k_b=-0.15, k_mom=-0.12,
         m_n=2 * 0.12**2 - 0.001, rho=-3.0, N=50),
]


@pytest.mark.parametrize("params", ASSEMBLY_GRID)
@pytest.mark.parametrize("corrected", [True, False])
def test_assemble_matches_oracle(params, corrected):
    # The tail fit decides the correction: an uncorrected tail has no params_bc.
    tail = tail_fixture(**params)
    if not corrected:
        tail = dataclasses.replace(tail, params_bc=None)
    for a in (0.95, 0.99, 0.999):
        for m, h in ((0.0, 1.0), (0.3, 2.5), (-1.2, 0.04)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                est = assemble(tail, a, 0.7, m, h)
                want = assembly_oracle(tail, a, m, h)
            assert est.cvar == pytest.approx(want["cvar"], rel=1e-12)
            assert est.ces == pytest.approx(want["ces"], rel=1e-12)
            if not corrected:
                assert est.cvar_bc is None and est.ci_cvar is None
                continue
            assert est.cvar_bc == pytest.approx(want["cvar_bc"], rel=1e-12)
            assert est.ces_bc == pytest.approx(want["ces_bc"], rel=1e-12)
            assert est.es_eps_bc == pytest.approx(want["es_eps_bc"], rel=1e-12)
            for got, expect in ((est.ci_cvar, want["ci_cvar"]),
                                (est.ci_ces, want["ci_ces"])):
                assert got[0] == pytest.approx(expect[0], rel=1e-12)
                assert got[1] == pytest.approx(expect[1], rel=1e-12)


@pytest.mark.parametrize("params", ASSEMBLY_GRID)
def test_assemble_variances_equal_the_sigma_functions(params):
    # assemble evaluates the pieces its three variances share once; each
    # variance still equals its public function bit for bit.
    tail = tail_fixture(**params)
    for a in (0.95, 0.99, 0.999):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = assemble(tail, a, 0.7, 0.3, 2.5)
        args = (tail.params_bc.k, tail.rho_hat, est.Z_hat)
        assert (est.sigma1_b, est.sigma2_b, est.sigma3_b) == (
            sigma1_b(*args), sigma2_b(*args), sigma3_b(*args))


def test_estimate_at_uncorrected_tail_fit():
    # The tail fit alone decides the correction: an uncorrected fit yields the
    # uncorrected estimates, the same as beside a corrected fit, and no more.
    values = np.random.default_rng(91).standard_t(6, size=1000) / math.sqrt(6 / 4)
    fit = fit_location_scale(ReturnSeries(values, kind="raw"))
    sample = extract_tail(fit, choose_N(fit.residuals.size))
    x = float(values[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plain = estimate_at(fit, fit_tail(sample, bias_correction=False), 0.99, x)
        full = estimate_at(fit, fit_tail(sample, rho=-2.0), 0.99, x)
    assert full.cvar_bc is not None
    assert (plain.cvar, plain.ces) == (full.cvar, full.ces)
    assert plain.cvar_bc is None and plain.ces_bc is None
    assert plain.ci_cvar is None and plain.ci_ces is None
    assert plain.Z_hat is None and plain.sigma1_b is None


def test_estimate_at_nonpositive_variance():
    fit = LocationScaleFit(
        x=np.linspace(-1, 1, 50), y=np.zeros(50), h1=1.0, h2=1.0,
        residuals=np.zeros(50),
        m_hat=lambda q: 0.0, h_hat=lambda q: -0.5,
    )
    with pytest.raises(TailError, match="nonpositive variance"):
        estimate_at(fit, tail_fixture(), a=0.995, x=0.0)


def test_ces_at_least_cvar_when_correction_nonnegative():
    tail = tail_fixture(sigma=0.5, k=-0.25, sigma_b=0.48, k_b=-0.28,
                        k_mom=-0.3, m_n=2 * 0.09 + 0.002)
    for a in (0.95, 0.99, 0.999):
        est = estimate_at(unit_scale_fit(), tail, a=a, x=0.0)
        assert est.ces >= est.cvar
        if est.B_E >= 0:
            assert est.ces_bc >= est.cvar_bc


def test_affine_equivariance_full_pipeline():
    rng = np.random.default_rng(90)
    values = rng.standard_t(6, size=1500) / math.sqrt(6 / 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outs = {}
        for alpha in (1.0, 2.0):
            series = ReturnSeries(alpha * values, kind="raw")
            fit = fit_location_scale(series)
            sample = extract_tail(fit, choose_N(fit.residuals.size))
            tail = fit_tail(sample, bias_correction=False)
            outs[alpha] = estimate_at(fit, tail, a=0.99, x=alpha * values[-1])
    assert outs[2.0].cvar == pytest.approx(2.0 * outs[1.0].cvar, rel=0.05)
    assert outs[2.0].ces == pytest.approx(2.0 * outs[1.0].ces, rel=0.05)
