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
from .tail import TailSample, empirical_quantile, smoothed_quantile

K_DOMAIN = 0.9          # solver keeps k in (-K_DOMAIN, K_DOMAIN)
K_EXP_LIMIT = 1e-8      # below this |k| the exponential limit is used
RHO_CLAMP = (-20.0, -0.05)
RHO_FALLBACK = -2.0     # heavy-tail anchor used when the log argument degenerates


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

    @property
    def support_upper(self) -> float:
        return self.sigma / self.k if self.k > K_EXP_LIMIT else math.inf


def gpd_logpdf(z, params: GpdParams):
    """Log density; -inf outside the support so likelihoods stay comparable."""
    z = np.asarray(z, dtype=float)
    sigma, k = params.sigma, params.k
    out = np.full(z.shape, -np.inf)
    if abs(k) < K_EXP_LIMIT:
        ok = z >= 0
        out[ok] = -math.log(sigma) - z[ok] / sigma
    else:
        arg = 1.0 - k * z / sigma
        ok = (z >= 0) & (arg > 0)
        out[ok] = -math.log(sigma) + (1.0 / k - 1.0) * np.log(arg[ok])
    if out.ndim == 0:
        return float(out)
    return out


def gpd_cdf(z, params: GpdParams):
    z = np.asarray(z, dtype=float)
    sigma, k = params.sigma, params.k
    if abs(k) < K_EXP_LIMIT:
        return np.clip(1.0 - np.exp(-z / sigma), 0.0, 1.0)
    arg = np.maximum(1.0 - k * z / sigma, 0.0)
    return np.where(z <= 0, 0.0, 1.0 - arg ** (1.0 / k))


def gpd_quantile(p, params: GpdParams):
    p = np.asarray(p, dtype=float)
    sigma, k = params.sigma, params.k
    if abs(k) < K_EXP_LIMIT:
        return -sigma * np.log1p(-p)
    return sigma / k * (1.0 - (1.0 - p) ** k)


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

    small = np.abs(c) < 1e-4
    if k == 0.0:
        small = np.ones_like(c, dtype=bool)
    big = ~small
    loga = np.log1p(-c)

    # log density: -log sigma + (1/k - 1) log(1 - kw), with the stable
    # product form -(1-k) w phi(c) for small |c|, phi = -log(1-c)/c.
    phi = np.empty_like(w)
    np.divide(loga, -c, out=phi, where=big)
    cs = c[small]
    phi[small] = 1.0 + cs / 2.0 + cs**2 / 3.0 + cs**3 / 4.0 + cs**4 / 5.0
    ll = float(-log_sigma * z.size - (1.0 - k) * np.sum(w * phi))

    g1 = -1.0 + (1.0 - k) * w / a
    g2 = np.empty_like(w)
    ws, as_ = w[small], a[small]
    g2[small] = ws / as_ - ws * ws * (0.5 + (2.0 / 3.0) * cs + 0.75 * cs**2 + 0.8 * cs**3)

    h11 = -(1.0 - k) * w / (a * a)
    h12 = w * (w - 1.0) / (a * a)
    h22 = np.empty_like(w)
    h22[small] = ws**2 / as_**2 - ws**3 * (
        2.0 / 3.0 + 1.5 * cs + 2.4 * cs**2 + (10.0 / 3.0) * cs**3
    )
    if np.any(big):
        g2[big] = -loga[big] / k**2 - (1.0 / k - 1.0) * w[big] / a[big]
        h22[big] = (
            2.0 * loga[big] / k**3
            + 2.0 * w[big] / (k**2 * a[big])
            - (1.0 / k - 1.0) * (w[big] / a[big]) ** 2
        )

    grad = np.array([g1.sum(), g2.sum()])
    hess = np.array([[h11.sum(), h12.sum()], [h12.sum(), h22.sum()]])
    return ll, grad, hess


def _ascent_direction(grad, hess):
    """Newton direction, damped until the Hessian is negative definite."""
    eig = np.linalg.eigvalsh(hess)
    lam_max = float(eig.max())
    if lam_max > -1e-10:
        shift = lam_max + max(1e-6, 0.1 * abs(lam_max))
        hess = hess - shift * np.eye(2)
    return np.linalg.solve(hess, -grad)


def gpd_mle(tail: TailSample, max_iter: int = 200, grad_tol: float = 1e-9):
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
    for _ in range(max_iter):
        gnorm = np.max(np.abs(grad))
        if gnorm < grad_tol:
            break
        step = _ascent_direction(grad, hess)
        scale_only = np.array([grad[0] / max(abs(hess[0, 0]), 1e-8), 0.0])
        improved = False
        for direction in (step, scale_only, grad / max(np.linalg.norm(grad), 1.0)):
            t = 1.0
            for _ in range(50):
                cand = theta + t * direction
                if abs(cand[1]) < K_DOMAIN and abs(cand[0]) < 50.0:
                    ll_new, g_new, h_new = _loglik_grad_hess(z, cand[0], cand[1])
                    # Accept on likelihood ascent, or near the optimum on a
                    # gradient-norm contraction (ascent is below float
                    # resolution there).
                    if g_new is not None and (
                        ll_new > ll
                        or (ll_new >= ll - 1e-10 * abs(ll)
                            and np.max(np.abs(g_new)) < 0.9 * gnorm)
                    ):
                        theta, ll, grad, hess = cand, ll_new, g_new, h_new
                        improved = True
                        break
                t *= 0.5
            if improved:
                break
        if not improved:
            break
    else:
        raise ConvergenceError("GPD likelihood maximization did not converge")
    if np.max(np.abs(grad)) >= grad_tol:
        # A maximum pinned at the shape boundary (data outside the heavy-tail
        # regime): the scale gradient vanishes while the shape gradient
        # points outward.  Flagged, not fatal.
        pinned = (
            K_DOMAIN - abs(theta[1]) < 0.02
            and grad[1] * np.sign(theta[1]) > 0
            and abs(grad[0]) < 1e-6
        )
        if not pinned:
            raise ConvergenceError(
                f"GPD gradient stalled at sup-norm {np.max(np.abs(grad)):.3e}"
            )
    if abs(theta[1]) > K_DOMAIN - 0.02:
        warnings.warn(
            f"GPD shape estimate {theta[1]:.4f} sits at the search boundary; "
            "the fitted tail is outside the supported regime",
            EstimationWarning,
        )
    return GpdParams(math.exp(theta[0]), float(theta[1])), ll


def moment_stats(tail: TailSample):
    """Tail log-moment statistics (k_mom, M_n) over the threshold.

    k_mom is minus the mean log ratio of the tail order statistics to the
    threshold; M_n is the mean squared log ratio.
    """
    if tail.q_tilde <= 0:
        raise TailError("moment statistics undefined for nonpositive threshold")
    order_stats = tail.exceedances + tail.q_tilde
    if np.any(order_stats <= 0):
        raise TailError("moment statistics undefined for nonpositive tail values")
    logs = np.log(order_stats / tail.q_tilde)
    return float(-logs.mean()), float(np.mean(logs * logs))


def _moment_stats_at_count(residuals_sorted, count, n, h3, threshold_kind):
    a_level = 1.0 - count / n
    if threshold_kind == "empirical":
        q = empirical_quantile(residuals_sorted, a_level)
    else:
        q = smoothed_quantile(a_level, residuals_sorted, h3)
    if q <= 0:
        raise TailError(f"threshold at enlarged tail count {count} is nonpositive")
    above = residuals_sorted[residuals_sorted > q]
    if above.size == 0:
        raise TailError(f"no exceedances at enlarged tail count {count}")
    logs = np.log(above / q)
    return float(-logs.mean()), float(np.mean(logs * logs))


def rho_hat(
    residuals,
    N: int,
    n: int | None = None,
    c: float = 0.25,
    h3: float | None = None,
    threshold_kind: str = "smoothed",
) -> float:
    """Second-order parameter estimate from moment statistics at two
    enlarged tail counts N(c) = round(c N log n), clamped to [-20, -0.05].

    Falls back to -2 (the heavy-tail anchor) when the log argument is
    nonpositive; both fallback and clamping are reported as warnings.
    """
    residuals = np.asarray(residuals, dtype=float)
    srt = np.sort(residuals)
    if n is None:
        n = residuals.size
    if threshold_kind == "smoothed" and h3 is None:
        raise InputError("smoothed thresholds need the CDF bandwidth h3")
    counts = {}
    for label, cc in (("c", c), ("c/2", c / 2.0)):
        count = int(math.floor(cc * N * math.log(n) + 0.5))
        if count >= n:
            raise InputError(
                f"enlarged tail count N({label})={count} reaches the sample size; use a smaller c"
            )
        counts[label] = max(count, 10)
    k_c, m_c = _moment_stats_at_count(srt, counts["c"], n, h3, threshold_kind)
    k_h, m_h = _moment_stats_at_count(srt, counts["c/2"], n, h3, threshold_kind)

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


def H_matrix(k: float) -> np.ndarray:
    """Expected GPD information matrix scaled as in the limit theory."""
    if k >= 0.5:
        raise PoleError("H(k) requires k < 1/2")
    _check_pole(k, "k")
    return (1.0 / ((1.0 - 2.0 * k) * (1.0 - k))) * np.array(
        [[1.0 - k, -1.0], [-1.0, 2.0]]
    )


def H_inv(k: float) -> np.ndarray:
    """Closed-form inverse of H(k): (1-k) [[2, 1], [1, 1-k]]."""
    if k >= 0.5:
        raise PoleError("H(k) requires k < 1/2")
    _check_pole(k, "k")
    return (1.0 - k) * np.array([[2.0, 1.0], [1.0, 1.0 - k]])


def V2_matrix(k: float) -> np.ndarray:
    if k >= 0.5:
        raise PoleError("V2(k) requires k < 1/2")
    _check_pole(k, "k")
    _check_pole(k - 1.0, "k - 1")
    return np.array(
        [
            [
                (k * k - 4.0 * k + 2.0) / (2.0 * k - 1.0) ** 2,
                -1.0 / (k * (k - 1.0)),
            ],
            [
                -1.0 / (k * (k - 1.0)),
                (2.0 * k**3 - 2.0 * k**2 + 2.0 * k - 1.0)
                / (k**2 * (k - 1.0) ** 2 * (2.0 * k - 1.0)),
            ],
        ]
    )


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


@dataclass
class TailFit:
    """GPD fit plus the moment statistics and bias-corrected parameters.

    k_corr is the shape at which every second-order correction factor is
    evaluated.  The limit statements write these factors at the maximum
    likelihood shape (all shape estimators coincide asymptotically), but a
    usable finite-sample correction must plug in the same moment-scale shape
    that generated the M_n - 2 k_mom^2 statistic; with the likelihood shape
    the k^4 factor in d collapses and the correction explodes.  fit_tail
    sets k_corr to the moment shape, matching the reported simulations.
    """

    params: GpdParams
    params_bc: GpdParams | None
    k_mom: float
    M_n: float
    rho_hat: float
    d_hat: float
    sample: TailSample
    loglik: float
    k_corr: float = 0.0


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
    rho_c: float = 0.25,
    bias_correction: bool = True,
) -> TailFit:
    """Run the full second stage on a tail sample: MLE, moment statistics,
    second-order parameter, and bias-corrected parameters.

    The correction factors are evaluated at the moment shape (see TailFit).
    """
    params, loglik = gpd_mle(sample)
    k_mom, m_n = moment_stats(sample)
    if rho is None:
        rho = rho_hat(
            sample.residuals_sorted,
            sample.N,
            sample.n,
            c=rho_c,
            h3=sample.h3,
            threshold_kind=sample.threshold_kind,
        )
    fit = TailFit(
        params=params,
        params_bc=None,
        k_mom=k_mom,
        M_n=m_n,
        rho_hat=float(rho),
        d_hat=d_hat(k_mom, rho),
        sample=sample,
        loglik=loglik,
        k_corr=k_mom,
    )
    if bias_correction:
        fit.params_bc = bias_correct_params(fit)
    return fit
