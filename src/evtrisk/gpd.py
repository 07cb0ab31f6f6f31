"""Generalized Pareto likelihood machinery and bias-corrected parameters.

Shape convention: G(u; sigma, k) = 1 - (1 - k u / sigma)^(1/k), so k < 0 is
the heavy (Frechet-type) tail and the support is (0, inf); for k > 0 the
support is (0, sigma/k).  For a standardized Student-t innovation with v
degrees of freedom the tail index is k0 = -1/v.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EstimationWarning, InputError, PoleError, TailError
from .tail import TailSample, rethreshold
# Kept importable: perfbench/spans.py patches evtrisk.gpd.smoothed_quantile by name.
from .tail import smoothed_quantile  # noqa: F401

K_DOMAIN = 0.9          # solver keeps k in (-K_DOMAIN, K_DOMAIN)
K_EXP_LIMIT = 1e-8      # below this |k| the exponential limit is used
RHO_CLAMP = (-20.0, -0.05)
RHO_FALLBACK = -2.0     # heavy-tail anchor used when the log argument degenerates
MLE_MAX_ITER = 200      # Newton iterations before the MLE gives up
MLE_GRAD_TOL = 1e-9     # sup-norm of the gradient accepted as converged
RHO_C = 0.25            # rho_hat's enlarged tail counts: round(c N log n) at c = RHO_C, RHO_C/2


@dataclass(frozen=True)
class GpdParams:
    """GPD scale and shape."""

    sigma: float
    k: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise InputError(f"GPD scale must be positive, got {self.sigma}")
        if not np.isfinite(self.k):
            raise InputError("GPD shape must be finite")


# Kept public: tests/test_acceptance.py draws GPD samples through it.
def gpd_quantile(p, params: GpdParams):
    p = np.asarray(p, dtype=float)
    sigma, k = params.sigma, params.k
    if abs(k) < K_EXP_LIMIT:
        return -sigma * np.log1p(-p)
    return sigma / k * (1.0 - (1.0 - p) ** k)


def _small_c_series(c, w, a):
    """phi, dll/dk and d2ll/dk2 per exceedance by their series in c = k w."""
    phi = 1.0 + c / 2.0 + c**2 / 3.0 + c**3 / 4.0 + c**4 / 5.0
    g2 = w / a - w * w * (0.5 + (2.0 / 3.0) * c + 0.75 * c**2 + 0.8 * c**3)
    h22 = w**2 / a**2 - w**3 * (2.0 / 3.0 + 1.5 * c + 2.4 * c**2 + (10.0 / 3.0) * c**3)
    return phi, g2, h22


def _loglik_grad_hess(z, log_sigma: float, k: float):
    """Log likelihood, gradient, and Hessian in (log sigma, k).

    Terms with k*z/sigma near zero are evaluated by series expansion; the
    naive forms lose the w/k cancellation and with it the last digits of
    the gradient near k = 0.
    """
    sigma = math.exp(log_sigma)
    w = z / sigma
    c = k * w
    a = 1.0 - c
    if np.any(a <= 0.0) or np.any(w < 0.0):
        return -np.inf, None, None

    # log density: -log sigma + (1/k - 1) log(1 - kw), with the stable
    # product form -(1-k) w phi(c) for small |c|, phi = -log(1-c)/c.  The
    # general forms are taken over every exceedance (at k = 0 they are
    # skipped) and the series then overwrite the entries with |c| < 1e-4.
    if k == 0.0:
        phi, g2, h22 = _small_c_series(c, w, a)
    else:
        loga = np.log1p(-c)
        with np.errstate(invalid="ignore"):      # 0/0 at z = 0, overwritten below
            phi = loga / -c
        g2 = -loga / k**2 - (1.0 / k - 1.0) * w / a
        h22 = 2.0 * loga / k**3 + 2.0 * w / (k**2 * a) - (1.0 / k - 1.0) * (w / a) ** 2
        small = np.abs(c) < 1e-4
        if small.any():
            phi[small], g2[small], h22[small] = _small_c_series(c[small], w[small], a[small])

    g1 = -1.0 + (1.0 - k) * w / a
    h11 = -(1.0 - k) * w / (a * a)
    h12 = w * (w - 1.0) / (a * a)

    rows = np.stack((w * phi, g1, g2, h11, h12, h22))
    ws, g1s, g2s, h11s, h12s, h22s = rows.sum(axis=1).tolist()
    ll = float(-log_sigma * z.size - (1.0 - k) * ws)
    return ll, np.array([g1s, g2s]), np.array([[h11s, h12s], [h12s, h22s]])


def _ascent_direction(grad, hess):
    """Newton direction, damped until the Hessian is negative definite."""
    try:
        eig = np.linalg.eigvalsh(hess)
        lam_max = float(eig.max())
        if lam_max > -1e-10:
            shift = lam_max + max(1e-6, 0.1 * abs(lam_max))
            hess = hess - shift * np.eye(2)
        return np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"GPD Newton step failed: {exc}") from exc


def _line_search(z, theta, direction, ll, gnorm):
    """Backtracking along one direction from theta: the first of 50 halved
    steps inside the search box that raises the likelihood, or keeps it
    within 1e-10 relative while the gradient sup-norm falls below 0.9 gnorm
    (near the optimum, where ascent is below float resolution).  Returns
    (theta, ll, grad, hess) there, or None."""
    t = 1.0
    for _ in range(50):
        cand = theta + t * direction
        if abs(cand[1]) < K_DOMAIN and abs(cand[0]) < 50.0:
            ll_new, g_new, h_new = _loglik_grad_hess(z, cand[0], cand[1])
            if g_new is not None and (
                ll_new > ll
                or (ll_new >= ll - 1e-10 * abs(ll)
                    and max(abs(g_new[0]), abs(g_new[1])) < 0.9 * gnorm)
            ):
                return cand, ll_new, g_new, h_new
        t *= 0.5
    return None


def gpd_mle(tail: TailSample):
    """Maximize the GPD log likelihood of the exceedances.

    Safeguarded Newton in (log sigma, k) with backtracking, started at
    moment-based values; the constant 1/N prefactor of the likelihood is
    dropped (it does not move the argmax).  Returns (params, loglik).
    """
    z = np.asarray(tail.exceedances, dtype=float)
    if z.size < 5:
        raise TailError(f"need at least 5 exceedances to fit the GPD, got {z.size}")

    k0 = -0.1
    sigma0 = float(z.mean())
    if tail.q_tilde > 0:
        k_mom, _ = moment_stats(tail)
        if -K_DOMAIN < k_mom < 0.0:
            k0 = max(k_mom, -0.85)
            sigma0 = -k0 * tail.q_tilde
    theta = np.array([math.log(sigma0), k0])

    ll, grad, hess = _loglik_grad_hess(z, theta[0], theta[1])
    if grad is None:
        raise ConvergenceError("starting point outside the GPD support")
    for _ in range(MLE_MAX_ITER):
        gnorm = max(abs(grad[0]), abs(grad[1]))
        if gnorm < MLE_GRAD_TOL:
            break
        found = _line_search(z, theta, _ascent_direction(grad, hess), ll, gnorm)
        if found is None:  # the fallbacks, scale only and then the gradient
            scale_only = np.array([grad[0] / max(abs(hess[0, 0]), 1e-8), 0.0])
            found = _line_search(z, theta, scale_only, ll, gnorm)
        if found is None:
            found = _line_search(z, theta, grad / max(np.linalg.norm(grad), 1.0), ll, gnorm)
        if found is None:
            break
        theta, ll, grad, hess = found
    else:
        raise ConvergenceError("GPD likelihood maximization did not converge")
    gnorm = max(abs(grad[0]), abs(grad[1]))
    if gnorm >= MLE_GRAD_TOL:
        # A maximum pinned at the shape boundary (data outside the heavy-tail
        # regime): the scale gradient vanishes while the shape gradient
        # points outward.  Flagged, not fatal.
        pinned = (
            K_DOMAIN - abs(theta[1]) < 0.02
            and grad[1] * np.sign(theta[1]) > 0
            and abs(grad[0]) < 1e-6
        )
        if not pinned:
            raise ConvergenceError(f"GPD gradient stalled at sup-norm {gnorm:.3e}")
    if abs(theta[1]) > K_DOMAIN - 0.02:
        warnings.warn(
            f"GPD shape estimate {theta[1]:.4f} sits at the search boundary; "
            "the fitted tail is outside the supported regime",
            EstimationWarning,
        )
    return GpdParams(math.exp(theta[0]), float(theta[1])), ll


def _log_moments(values, q: float):
    """(-mean log(v/q), mean log(v/q)^2) over the tail values v above the
    threshold q."""
    if q <= 0:
        raise TailError("moment statistics undefined for nonpositive threshold")
    if np.any(values <= 0):
        raise TailError("moment statistics undefined for nonpositive tail values")
    logs = np.log(values / q)
    return float(-logs.mean()), float(np.mean(logs * logs))


def moment_stats(tail: TailSample):
    """Tail log-moment statistics (k_mom, M_n) over the threshold.

    k_mom is minus the mean log ratio of the tail order statistics to the
    threshold; M_n is the mean squared log ratio.
    """
    return _log_moments(tail.exceedances + tail.q_tilde, tail.q_tilde)


def rho_hat(sample: TailSample) -> float:
    """Second-order parameter estimate from the log-moment statistics of the
    sample's residuals at two enlarged tail counts N(c) = round(c N log n)
    and N(c/2), c = RHO_C, each thresholded by the sample's own rule (see
    tail.rethreshold); clamped to [-20, -0.05].

    Falls back to -2 (the heavy-tail anchor) when the log argument is
    nonpositive; both fallback and clamping are reported as warnings.
    """
    n = sample.n
    counts = []
    for label, cc in (("c", RHO_C), ("c/2", RHO_C / 2.0)):
        count = int(math.floor(cc * sample.N * math.log(n) + 0.5))
        if count >= n:
            raise InputError(
                f"enlarged tail count N({label})={count} reaches the sample size n={n}; "
                f"use a smaller tail count than N={sample.N}"
            )
        counts.append(max(count, 10))
    moments = []
    for count in counts:
        wide = rethreshold(sample, count)
        # The N_s largest residuals themselves: exceedances + q_tilde rounds.
        moments.append(_log_moments(wide.residuals_sorted[-wide.N_s:], wide.q_tilde))
    (k_c, m_c), (k_h, m_h) = moments

    num = m_h - 2.0 * k_h * k_h
    den = m_c - 2.0 * k_c * k_c
    if den == 0.0 or num / den <= 0.0 or k_c == 0.0:
        warnings.warn(
            "second-order moment ratio degenerate; falling back to rho = -2",
            EstimationWarning,
        )
        return RHO_FALLBACK
    raw = -math.log(num / den) / (k_c * math.log(2.0))
    clamped = min(max(raw, RHO_CLAMP[0]), RHO_CLAMP[1])
    if clamped != raw:
        warnings.warn(
            f"rho estimate {raw:.4f} clamped to {clamped:.2f}", EstimationWarning
        )
    return clamped


def _check_pole(value: float, name: str):
    if abs(value) < 1e-12:
        raise PoleError(f"factor {name} vanishes")


def H_inv(k: float) -> np.ndarray:
    """Closed-form inverse of H(k): (1-k) [[2, 1], [1, 1-k]]."""
    if k >= 0.5:
        raise PoleError("H(k) requires k < 1/2")
    _check_pole(k, "k")
    return (1.0 - k) * np.array([[2.0, 1.0], [1.0, 1.0 - k]])


def Vb_matrix(k: float) -> np.ndarray:
    """5x5 covariance of the joint score/moment limit used by the corrected
    estimators."""
    if k >= 0.5:
        raise PoleError("Vb(k) requires k < 1/2")
    _check_pole(k - 1.0, "k - 1")
    om = 1.0 - k
    return np.array(
        [
            [
                1.0 / (1.0 - 2.0 * k),
                -1.0 / (om * (1.0 - 2.0 * k)),
                0.0,
                (4.0 * k**2 - 2.0 * k**3) / om**2,
                -k / om,
            ],
            [
                -1.0 / (om * (1.0 - 2.0 * k)),
                2.0 / (om * (1.0 - 2.0 * k)),
                0.0,
                (4.0 * k**3 - 6.0 * k**2) / om**2,
                k / om,
            ],
            [0.0, 0.0, k**2, 0.0, 0.0],
            [
                (4.0 * k**2 - 2.0 * k**3) / om**2,
                (4.0 * k**3 - 6.0 * k**2) / om**2,
                0.0,
                20.0 * k**4,
                -4.0 * k**3,
            ],
            [-k / om, k / om, 0.0, -4.0 * k**3, k**2],
        ]
    )


def A_matrix(k: float, rho: float) -> np.ndarray:
    """2x5 map from the joint limit to the corrected parameter limit."""
    if rho >= 0:
        raise PoleError("A(k, rho) requires rho < 0")
    _check_pole(k, "k")
    _check_pole(1.0 + rho * k, "1 + rho k")
    _check_pole((1.0 - rho) * k - 1.0, "(1 - rho) k - 1")
    om = 1.0 - k
    denom = k**3 * rho * ((1.0 - rho) * k - 1.0)
    pk = 1.0 + rho * k
    return np.array(
        [
            [
                1.0,
                0.0,
                om / (k * (1.0 - 2.0 * k)) + (1.0 + 2.0 * k) * pk**2 / denom,
                -(pk**2) / (2.0 * denom),
                -2.0 * pk**2 / (k**2 * rho * ((1.0 - rho) * k - 1.0)),
            ],
            [
                0.0,
                1.0,
                -1.0 / (om * (1.0 - 2.0 * k)) - (1.0 + 2.0 * k) * pk / denom,
                pk / (2.0 * denom),
                2.0 * pk / (k**2 * rho * ((1.0 - rho) * k - 1.0)),
            ],
        ]
    )


def d_hat(k: float, rho: float) -> float:
    """Second-order scaling d = 2 k^4 rho / (1 + rho k)^2."""
    if abs(1.0 + rho * k) < 1e-6:
        raise PoleError("1 + rho k vanishes in d")
    return 2.0 * k**4 * rho / (1.0 + rho * k) ** 2


@dataclass(kw_only=True)
class TailFit:
    """GPD fit plus the second-order statistics and bias-corrected
    parameters, built by keyword.

    The second-order fields (k_mom, M_n, rho_hat, d_hat, k_corr) feed only
    the bias corrections; they and params_bc default to None, the fit
    without bias correction.

    k_corr is the shape at which bias_correct_params evaluates its
    second-order factors, and d_hat is d at that shape.  The limit
    statements write these factors at the maximum likelihood shape (all
    shape estimators coincide asymptotically), but a usable finite-sample
    parameter correction must plug in the same moment-scale shape that
    generated the M_n - 2 k_mom^2 statistic; with the likelihood shape the
    k^4 factor in d collapses and the correction explodes.  fit_tail sets
    k_corr to the moment shape, matching the reported simulations.  The
    corrections downstream of the parameters (risk.q_eps_bc,
    risk.es_bias_term, risk.sigma3_b) evaluate d at the corrected shape
    params_bc.k instead.
    """

    params: GpdParams
    params_bc: GpdParams | None = None
    k_mom: float | None = None
    M_n: float | None = None
    rho_hat: float | None = None
    d_hat: float | None = None
    sample: TailSample
    loglik: float
    k_corr: float | None = None


def bias_correct_params(fit: TailFit) -> GpdParams:
    """Moment-based bias correction of (sigma, k) with the H^{-1} weights."""
    sigma, k = fit.params.sigma, fit.params.k
    rho, d = fit.rho_hat, fit.d_hat
    kc = fit.k_corr
    if abs(1.0 + rho * kc) < 1e-6:
        raise PoleError("1 + rho k vanishes in the bias correction")
    _check_pole(d, "d")
    inv_k = 1.0 / kc
    _check_pole(-inv_k - rho, "-1/k - rho")
    _check_pole(1.0 - inv_k - rho, "1 - 1/k - rho")
    weights = H_inv(kc) @ np.array([1.0, inv_k / (-inv_k - rho)])
    correction = (fit.M_n - 2.0 * fit.k_mom**2) / ((1.0 - inv_k - rho) * d)
    k_b = k - correction * weights[1]
    sigma_b = sigma * (1.0 - correction * weights[0])
    if sigma_b <= 0:
        raise TailError("bias-corrected scale is nonpositive")
    return GpdParams(float(sigma_b), float(k_b))


def fit_tail(
    sample: TailSample,
    rho: float | None = None,
    bias_correction: bool = True,
) -> TailFit:
    """Run the second stage on a tail sample: the GPD MLE and, with
    bias_correction, the moment statistics, second-order parameter (rho, or
    rho_hat when None), and bias-corrected parameters.

    The parameter correction evaluates its factors at the moment shape
    k_corr; the corrected risk estimators evaluate theirs at the corrected
    shape (see TailFit).
    """
    params, loglik = gpd_mle(sample)
    if not bias_correction:
        return TailFit(params=params, sample=sample, loglik=loglik)
    k_mom, m_n = moment_stats(sample)
    if rho is None:
        rho = rho_hat(sample)
    fit = TailFit(params=params, sample=sample, loglik=loglik, k_mom=k_mom, M_n=m_n,
                  rho_hat=float(rho), d_hat=d_hat(k_mom, rho), k_corr=k_mom)
    fit.params_bc = bias_correct_params(fit)
    return fit
