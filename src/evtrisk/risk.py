"""Innovation tail quantile / expected shortfall estimators, their
bias-corrected versions, conditional CVaR/CES assembly, asymptotic variances,
confidence intervals, and the MSE crossover diagnostics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import EstimationWarning, InputError, PoleError, TailError
from .gpd import K_EXP_LIMIT, A_matrix, H_inv, TailFit, Vb_matrix, d_hat
from .smoothing import LocationScaleFit


def _extrapolation(q_tilde, sigma, k, ratio):
    """q_tilde + sigma/k (1 - ratio^k) with the logarithmic k -> 0 limit."""
    if abs(k) < K_EXP_LIMIT:
        return q_tilde - sigma * math.log(ratio)
    return q_tilde + sigma / k * (1.0 - ratio**k)


def _tail_ratio(a, tail: TailFit, n, N):
    n = tail.sample.n if n is None else n
    N = tail.sample.N if N is None else N
    if not a < 1.0:
        raise InputError(f"target level must be below 1, got {a}")
    a_n = 1.0 - N / n
    if a < a_n:
        raise InputError(
            f"target level {a} below threshold level {a_n:.6g}"
        )
    return (n / N) * (1.0 - a)


def q_eps(a: float, tail: TailFit, n: int | None = None, N: int | None = None) -> float:
    """Tail quantile of the innovation by GPD extrapolation above the
    threshold quantile."""
    ratio = _tail_ratio(a, tail, n, N)
    return _extrapolation(tail.sample.q_tilde, tail.params.sigma, tail.params.k, ratio)


def es_eps(a: float, tail: TailFit, n: int | None = None, N: int | None = None) -> float:
    """Innovation expected shortfall q(a) / (1 + k)."""
    k = tail.params.k
    if k <= -1.0:
        raise TailError("expected shortfall undefined (k <= -1)")
    return q_eps(a, tail, n, N) / (1.0 + k)


def q_eps_bc(a: float, tail: TailFit, n: int | None = None, N: int | None = None):
    """Bias-corrected tail quantile.

    Returns (value, B_q, Z_hat) where B_q is the extrapolation bias term and
    Z_hat = q_hat(a) / q_tilde(a_N) estimates the quantile growth constant.
    """
    if tail.params_bc is None:
        raise InputError("tail fit carries no bias-corrected parameters")
    q_tilde = tail.sample.q_tilde
    q_hat = q_eps(a, tail, n, N)
    z_hat = q_hat / q_tilde
    rho = tail.rho_hat
    dev = tail.M_n - 2.0 * tail.k_mom**2
    if dev == 0.0:
        b_q = 0.0
    else:
        # The extrapolation correction plugs the corrected shape into d: it
        # is the closest available stand-in for the true shape, and the one
        # choice whose corrected quantiles track the reported simulations.
        d = d_hat(tail.params_bc.k, rho)
        if d == 0.0:
            raise PoleError("d vanishes in the extrapolation correction")
        b_q = (z_hat**rho - 1.0) / (rho * d) * dev
    if 1.0 + b_q <= 0.0:
        raise TailError("bias correction out of range; rerun with --no-bias-correction")
    ratio = _tail_ratio(a, tail, n, N)
    sigma_b, k_b = tail.params_bc.sigma, tail.params_bc.k
    # (N / (n(1-a)))^{-k_b} (1 + B_q)^{-k_b} = (ratio / (1 + B_q))^{k_b}
    value = _extrapolation(q_tilde, sigma_b, k_b, ratio / (1.0 + b_q))
    return float(value), float(b_q), float(z_hat)


def es_bias_term(tail: TailFit, q_bc: float, z_hat: float) -> float:
    """Additive CES correction B_E applied to the innovation shortfall.

    Like the extrapolation correction, the k-dependent factors are
    evaluated at the corrected shape.
    """
    if tail.params_bc is None:
        raise InputError("tail fit carries no bias-corrected parameters")
    dev = tail.M_n - 2.0 * tail.k_mom**2
    if dev == 0.0:
        return 0.0
    k_b = tail.params_bc.k
    if abs(k_b) < 1e-12:
        raise PoleError("corrected shape vanishes in the shortfall correction")
    inv_k = 1.0 / k_b
    rho = tail.rho_hat
    d = d_hat(k_b, rho)
    for value, name in (
        (d, "d"),
        (1.0 + inv_k + rho, "1 + 1/k + rho"),
        (1.0 + inv_k, "1 + 1/k"),
    ):
        if abs(value) < 1e-10:
            raise PoleError(f"factor {name} vanishes in the shortfall correction")
    return q_bc * z_hat**rho * dev / (d * (1.0 + inv_k + rho) * (1.0 + inv_k))


# ---------------------------------------------------------------------------
# Asymptotic variance algebra.  All expressions are evaluated at a shape k,
# second-order parameter rho, and quantile growth constant Z.


def _cb(k: float, z: float) -> np.ndarray:
    inv_k = 1.0 / k
    return np.array(
        [
            -inv_k * (1.0 / z - 1.0),
            inv_k**2 * math.log(z) + inv_k**2 * (1.0 / z - 1.0),
        ]
    )


def _bvec(k: float) -> np.ndarray:
    return np.array(
        [(1.0 - k) / (k * (1.0 - 2.0 * k)), -1.0 / ((1.0 - k) * (1.0 - 2.0 * k))]
    )


def _v1(k: float) -> np.ndarray:
    off = -1.0 / ((k - 1.0) * (2.0 * k - 1.0))
    return np.array(
        [
            [1.0 / (1.0 - 2.0 * k), off, 0.0],
            [off, 2.0 / ((k - 1.0) * (2.0 * k - 1.0)), 0.0],
            [0.0, 0.0, k * k],
        ]
    )


def sigma1(k: float, z: float) -> float:
    """Asymptotic variance of the uncorrected tail quantile (relative scale)."""
    cb = _cb(k, z)
    hi = H_inv(k)
    cbh = cb @ hi
    cbhb = float(cbh @ _bvec(k))
    return float(
        k * k * (cbh @ cb + k * k * cbhb**2 + 2.0 * k / z * cbhb + z**-2)
    )


def _v_row(k: float, rho: float, z: float) -> np.ndarray:
    pk = 1.0 + rho * k
    zr = z**rho - 1.0
    return np.array(
        [
            0.0,
            0.0,
            1.0 / z + zr * (1.0 + 2.0 * k) * pk**2 / (k**3 * rho**2),
            -zr * pk**2 / (2.0 * k**3 * rho**2),
            -2.0 * zr * pk**2 / (k**2 * rho**2),
        ]
    )


def _cq(k: float, rho: float, z: float) -> np.ndarray:
    return k * (_cb(k, z) @ H_inv(k)) @ A_matrix(k, rho) + _v_row(k, rho, z)


def sigma1_b(k: float, rho: float, z: float) -> float:
    """Asymptotic variance of the bias-corrected tail quantile."""
    cq = _cq(k, rho, z)
    return float(cq @ Vb_matrix(k) @ cq)


def sigma2(k: float, z: float) -> float:
    """Asymptotic variance of the uncorrected innovation shortfall."""
    cb = _cb(k, z)
    hi = H_inv(k)
    cbh = cb @ hi
    row01 = hi[1]  # (0 1) H^{-1}
    b = _bvec(k)
    eta = np.array([cbh[0], cbh[1], float(cbh @ b) + 1.0 / (k * z)])
    theta = np.array([row01[0], row01[1], float(row01 @ b)])
    vec = k * eta - theta / (1.0 + k)
    return float(vec @ _v1(k) @ vec)


def _shortfall_row(k: float, rho: float, z: float) -> np.ndarray:
    return _cq(k, rho, z) - (H_inv(k)[1] @ A_matrix(k, rho)) / (1.0 + k)


def sigma2_b(k: float, rho: float, z: float) -> float:
    """Asymptotic variance of the bias-corrected innovation shortfall."""
    row = _shortfall_row(k, rho, z)
    return float(row @ Vb_matrix(k) @ row)


def sigma3_b(k: float, rho: float, z: float) -> float:
    """Asymptotic variance of the bias-corrected conditional shortfall."""
    d = d_hat(k, rho)
    denom = d * (rho + 1.0 / k + 1.0)
    if abs(denom) < 1e-12:
        raise PoleError("rho + 1/k + 1 vanishes in the shortfall variance")
    zr = z**rho
    upsilon = np.array(
        [
            0.0,
            0.0,
            zr * k * (-2.0 - 4.0 * k) / denom,
            k * zr / denom,
            4.0 * k * k * zr / denom,
        ]
    )
    row = _shortfall_row(k, rho, z) + upsilon
    return float(row @ Vb_matrix(k) @ row)


def _mu1_factor(k: float, rho: float, z: float) -> float:
    inv_k = 1.0 / k
    lead = (-inv_k - rho) * (z**rho - 1.0) / rho
    proj = float(_cb(k, z) @ H_inv(k) @ np.array([-inv_k - rho, inv_k]))
    return lead + proj / (1.0 - inv_k - rho)


def _mu2_factor(k: float, rho: float, z: float) -> float:
    inv_k = 1.0 / k
    lead = (-inv_k - rho) * (z**rho - 1.0) / rho
    adj = _cb(k, z) - np.array([0.0, 1.0 / (k * (1.0 + k))])
    proj = float(
        adj @ H_inv(k) @ np.array(
            [(-inv_k - rho) / (1.0 - inv_k - rho), inv_k / (1.0 - inv_k - rho)]
        )
    )
    tail_term = (inv_k + rho) / (1.0 + inv_k + rho) * z**rho
    return lead + proj + tail_term


def mse_crossover(k: float, rho: float, z: float):
    """Threshold constants (C1, C2) for the bias-variance tradeoff.

    |mu| above C1 (resp. C2) means bias correction lowers the asymptotic MSE
    of the conditional quantile (resp. shortfall) estimator.  Entries are
    None when the corrected variance is below the uncorrected one, in which
    case correction always wins.
    """
    s1, s1b = sigma1(k, z), sigma1_b(k, rho, z)
    s2, s3b = sigma2(k, z), sigma3_b(k, rho, z)

    def constant(gap, factor):
        if gap < 0:
            return None
        denom = -k * abs(factor)
        if abs(denom) < 1e-12:
            raise PoleError("crossover denominator vanishes")
        return math.sqrt(gap) / denom

    c1 = constant(s1b - s1, _mu1_factor(k, rho, z))
    c2 = constant(s3b - s2, _mu2_factor(k, rho, z))
    return c1, c2


def asymptotic_ci(
    estimate: float,
    kind: str,
    k: float,
    rho: float,
    z: float,
    N: int,
    level: float = 0.95,
):
    """Ratio-form confidence interval estimate / (1 +- z_a sqrt(Sigma/N)).

    kind selects the variance: "cvar" uses the corrected quantile variance,
    "ces" the corrected conditional-shortfall variance, "es" the corrected
    innovation-shortfall variance.  When 1 - z_a sqrt(Sigma/N) <= 0 the
    upper endpoint is +inf and a warning is raised.
    """
    if kind == "cvar":
        variance = sigma1_b(k, rho, z)
    elif kind == "ces":
        variance = sigma3_b(k, rho, z)
    elif kind == "es":
        variance = sigma2_b(k, rho, z)
    else:
        raise InputError(f"unknown interval kind {kind!r}")
    if variance < 0:
        raise PoleError(f"negative variance expression for {kind}")
    spread = stats.norm.ppf(0.5 + level / 2.0) * math.sqrt(variance / N)
    lo = estimate / (1.0 + spread)
    if 1.0 - spread <= 0.0:
        warnings.warn(
            "interval upper factor nonpositive; reporting a one-sided interval",
            EstimationWarning,
        )
        hi = math.inf
    else:
        hi = estimate / (1.0 - spread)
    return (lo, hi) if lo <= hi else (hi, lo)


@dataclass
class RiskEstimate:
    """Point estimates, corrections, variances, and intervals at one level."""

    a: float
    x: float
    m_x: float
    h_x: float
    q_eps: float
    es_eps: float
    cvar: float
    ces: float
    q_eps_bc: float | None = None
    es_eps_bc: float | None = None
    cvar_bc: float | None = None
    ces_bc: float | None = None
    B_q: float | None = None
    B_E: float | None = None
    Z_hat: float | None = None
    ci_cvar: tuple[float, float] | None = None
    ci_ces: tuple[float, float] | None = None
    sigma1_b: float | None = None
    sigma2_b: float | None = None
    sigma3_b: float | None = None


def estimate_at(
    fit: LocationScaleFit,
    tail: TailFit,
    a: float,
    x: float,
    bias_correction: bool = True,
    ci_level: float = 0.95,
) -> RiskEstimate:
    """Conditional CVaR and CES at query x from the fitted location and
    scale; see assemble."""
    return assemble(
        tail, a, x, float(fit.m_hat(x)), float(fit.h_hat(x)),
        bias_correction=bias_correction, ci_level=ci_level,
    )


def assemble(
    tail: TailFit,
    a: float,
    x: float,
    m_x: float,
    h_x: float,
    bias_correction: bool = True,
    ci_level: float = 0.95,
) -> RiskEstimate:
    """Assemble conditional CVaR and CES at query x for one target level
    from the location m_x and variance h_x at x.

    Uncorrected estimates are always produced; bias-corrected estimates,
    intervals, and variances are added unless disabled.  Variance
    expressions are evaluated at the corrected shape and the estimated
    second-order parameter, with Z_hat plugged in for the growth constant.
    """
    if h_x <= 0:
        raise TailError(f"nonpositive variance estimate at query x={x:.6g}")
    scale = math.sqrt(h_x)

    qe = q_eps(a, tail)
    ee = es_eps(a, tail)
    out = RiskEstimate(
        a=a, x=x, m_x=m_x, h_x=h_x,
        q_eps=qe, es_eps=ee,
        cvar=m_x + scale * qe, ces=m_x + scale * ee,
    )
    if not bias_correction:
        return out

    q_bc, b_q, z_hat = q_eps_bc(a, tail)
    k_b = tail.params_bc.k
    if k_b <= -1.0:
        raise TailError("expected shortfall undefined (k <= -1)")
    e_bc = q_bc / (1.0 + k_b)
    b_e = es_bias_term(tail, q_bc, z_hat)
    out.q_eps_bc, out.es_eps_bc = q_bc, e_bc
    out.B_q, out.B_E, out.Z_hat = b_q, b_e, z_hat
    out.cvar_bc = m_x + scale * q_bc
    out.ces_bc = m_x + scale * (e_bc + b_e)

    # Interval variances at the corrected shape: the coverage probabilities
    # of the reported simulations are only reproduced at this plug-in.
    rho, N = tail.rho_hat, tail.sample.N
    out.sigma1_b = sigma1_b(k_b, rho, z_hat)
    out.sigma2_b = sigma2_b(k_b, rho, z_hat)
    out.sigma3_b = sigma3_b(k_b, rho, z_hat)
    out.ci_cvar = asymptotic_ci(out.cvar_bc, "cvar", k_b, rho, z_hat, N, ci_level)
    out.ci_ces = asymptotic_ci(out.ces_bc, "ces", k_b, rho, z_hat, N, ci_level)
    return out
