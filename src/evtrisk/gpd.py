"""Generalized Pareto likelihood machinery and bias-corrected parameters.

Shape convention: G(u; sigma, k) = 1 - (1 - k u / sigma)^(1/k), so k < 0 is
the heavy (Frechet-type) tail and the support is (0, inf); for k > 0 the
support is (0, sigma/k).  For a standardized Student-t innovation with v
degrees of freedom the tail index is k0 = -1/v.

The MLE is a root in one dimension (Grimshaw 1993): at fixed theta = k/sigma
the likelihood peaks at sigma(theta) = mean(z phi(theta z)), phi(c) =
-log(1 - c)/c, and k = theta sigma, and gpd_mle finds where that profile's
score vanishes, starting from the probability-weighted moment fit (Hosking &
Wallis 1987), which lands near the root.  One profile evaluation is one
pass of phi over the exceedances and one reduction of its five means.  The
2-D Newton search it replaced is a test oracle.
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
K_START = (-0.85, -0.01)  # the MLE's starting shape is clamped to this negative range


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


def _phi(c):
    """1/(1 - c), phi(c) = -log(1 - c)/c, phi'(c) and phi''(c).

    phi' = (1/(1 - c) - phi)/c and phi'' = (1/(1 - c)^2 - 2 phi')/c cancel
    for small |c|; where |c| < 1e-4 (and at c = 0) their series in c are
    used instead.
    """
    inv_a = 1.0 / (1.0 - c)
    with np.errstate(divide="ignore", invalid="ignore"):  # c = 0, overwritten below
        phi = -np.log1p(-c) / c
        d1 = (inv_a - phi) / c
        d2 = (inv_a * inv_a - 2.0 * d1) / c
    small = np.abs(c) < 1e-4
    if small.any():
        cs = c[small]
        phi[small] = 1.0 + cs / 2.0 + cs**2 / 3.0 + cs**3 / 4.0 + cs**4 / 5.0
        d1[small] = 0.5 + (2.0 / 3.0) * cs + 0.75 * cs**2 + 0.8 * cs**3
        d2[small] = 2.0 / 3.0 + 1.5 * cs + 2.4 * cs**2 + (10.0 / 3.0) * cs**3
    return inv_a, phi, d1, d2


# Kept importable: tests/test_acceptance.py checks a fit's gradient through it.
def _loglik_grad_hess(z, log_sigma: float, k: float):
    """Log likelihood, gradient, and Hessian in (log sigma, k); the log
    density of one exceedance is -log sigma - (1 - k) w phi(k w), w = z/sigma."""
    w = z / math.exp(log_sigma)
    c = k * w
    if np.any(c >= 1.0) or np.any(w < 0.0):
        return -np.inf, None, None
    inv_a, phi, d1, d2 = _phi(c)
    ll = float(-log_sigma * z.size - (1.0 - k) * np.sum(w * phi))
    wa = w * inv_a
    h12 = np.sum(w * (w - 1.0) * inv_a * inv_a)
    grad = np.array([np.sum((1.0 - k) * wa - 1.0), np.sum(wa - w * w * d1)])
    hess = np.array([[-(1.0 - k) * np.sum(wa * inv_a), h12],
                     [h12, np.sum(wa * wa - w**3 * d2)]])
    return ll, grad, hess


def _profile(z, theta: float):
    """The profile likelihood at theta = k/sigma: (sigma, k, score, slope),
    or None where 1 - theta z reaches 0.

    sigma(theta) = mean(z phi(theta z)) and k = theta sigma maximize the
    likelihood at fixed theta, where l/N = -log sigma - 1 + k; score and
    slope are its first two derivatives in theta.
    """
    c = theta * z
    if c.max() >= 1.0:
        return None
    inv_a, phi, d1, d2 = _phi(c)
    # The five means in one reduction: pairwise per row, as np.mean sums.
    rows = np.empty((5, z.size))
    zi = np.multiply(z, inv_a, out=rows[2])
    np.multiply(z, phi, out=rows[0])
    np.multiply(z * z, d1, out=rows[1])
    np.multiply(zi, zi, out=rows[3])
    np.multiply(z**3, d2, out=rows[4])
    sigma, m1, m2, m3, m4 = (np.add.reduce(rows, axis=1) / z.size).tolist()
    ratio = m1 / sigma                                  # sigma'/sigma
    return sigma, theta * sigma, m2 - ratio, m3 - m4 / sigma + ratio * ratio


def _pwm_start(z) -> float:
    """theta = k/sigma of the probability-weighted moment fit (Hosking &
    Wallis 1987) to the ascending exceedances z, its shape clamped to
    K_START.

    With b0 = mean(z) and a1 = mean(z_(j) (N - j)/(N - 1)), the fit is
    k = (4 a1 - b0)/(b0 - 2 a1) and sigma = b0 (1 + k); b0 - 2 a1 <= 0
    (all exceedances equal, up to rounding) reads as an unbounded shape.
    TailSample holds its exceedances in ascending order; any other order
    would only move the start.
    """
    n = z.size
    b0 = float(np.add.reduce(z)) / n
    a1 = float(z @ np.arange(n - 1.0, -1.0, -1.0)) / (n * (n - 1.0))
    gap = b0 - 2.0 * a1
    k0 = (4.0 * a1 - b0) / gap if gap > 0.0 else math.inf
    k0 = min(max(k0, K_START[0]), K_START[1])
    return k0 / (b0 * (1.0 + k0))


def gpd_mle(tail: TailSample):
    """Maximize the GPD log likelihood of the exceedances through its
    profile in theta = k/sigma.  Returns (params, loglik).

    A safeguarded Newton iteration for the score's root, from theta =
    k0/sigma0 of the probability-weighted moment fit (_pwm_start), its
    shape clamped to the negative range K_START.  A negative start keeps
    theta below 0 < 1/max z, where the profile is defined; an unclamped
    positive one can lie past 1/max z, where the search for the bracket's
    left end stalls.  The bracket holds the points evaluated so far and
    the domain theta < 1/max z, |k(theta)| < K_DOMAIN (k rises with
    theta); a step out of it, or a nonnegative slope, bisects it instead.
    It stops inside the domain once N |score| / sigma < MLE_GRAD_TOL, the
    sup-norm of the gradient in (log sigma, k) there.
    Where the likelihood rises up to a domain end, the search stops at the
    first iterate inside the warning band |k| > K_DOMAIN - 0.02 whose score
    still points out of the domain, and returns it with an
    EstimationWarning; sigma is then the profile's sigma(theta), not the
    best scale at that fixed shape.  The step cap, or a bracket that closes
    without a root, raises ConvergenceError.
    """
    z = np.asarray(tail.exceedances, dtype=float)
    if z.size < 5:
        raise TailError(f"need at least 5 exceedances to fit the GPD, got {z.size}")

    theta = _pwm_start(z)
    top = 1.0 / float(z.max())
    lo, hi = -math.inf, top
    k = score = math.nan
    for _ in range(MLE_MAX_ITER):
        found = _profile(z, theta)
        if found is None or abs(found[1]) >= K_DOMAIN:
            rising, step = theta < 0.0, math.nan    # k(theta) has theta's sign
        else:
            sigma, k, score, slope = found
            if z.size * abs(score) < MLE_GRAD_TOL * sigma:
                break
            rising = score > 0.0
            if abs(k) > K_DOMAIN - 0.02 and rising == (theta > 0.0):
                break                               # in the warning band, heading out
            step = theta - score / slope if slope < 0.0 else math.nan
        if rising:
            lo = theta
        else:
            hi = theta
        if lo < step < hi:
            theta = step
        elif lo > -math.inf:
            theta = 0.5 * (lo + hi)
        else:                                       # no left end yet
            theta = 2.0 * theta - top               # doubles the distance to 1/max z
        if not lo < theta < hi:
            raise ConvergenceError(f"GPD profile score stalled at {score:.3e}")
    else:
        raise ConvergenceError("GPD likelihood maximization did not converge")
    if abs(k) > K_DOMAIN - 0.02:
        warnings.warn(
            f"GPD shape estimate {k:.4f} sits at the search boundary; "
            "the fitted tail is outside the supported regime",
            EstimationWarning,
        )
    return GpdParams(sigma, k), z.size * (-math.log(sigma) - 1.0 + k)


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
