"""Innovation tail quantile / expected shortfall estimators, their
bias-corrected versions, conditional CVaR/CES assembly, asymptotic variances,
confidence intervals, and the MSE crossover diagnostics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EstimationWarning, InputError, PoleError, TailError
from .gpd import K_EXP_LIMIT, A_matrix, H_inv, TailFit, Vb_matrix, d_hat
from .smoothing import LocationScaleFit

# Two-sided 95% normal quantile, the literal of scipy.special.ndtri(0.975):
# evtrisk does not depend on scipy, and tests/test_imports.py pins the value.
CI_Z = 1.959963984540054


def _extrapolation(q_tilde, sigma, k, ratio):
    """q_tilde + sigma/k (1 - ratio^k) with the logarithmic k -> 0 limit."""
    if abs(k) < K_EXP_LIMIT:
        return q_tilde - sigma * math.log(ratio)
    return q_tilde + sigma / k * (1.0 - ratio**k)


def _tail_ratio(a, tail: TailFit):
    n, N = tail.sample.n, tail.sample.N
    if not a < 1.0:
        raise InputError(f"target level must be below 1, got {a}")
    a_n = 1.0 - N / n
    if a < a_n:
        raise InputError(
            f"target level {a} below threshold level {a_n:.6g}"
        )
    return (n / N) * (1.0 - a)


def q_eps(a: float, tail: TailFit) -> float:
    """Tail quantile of the innovation by GPD extrapolation above the
    threshold quantile."""
    ratio = _tail_ratio(a, tail)
    return _extrapolation(tail.sample.q_tilde, tail.params.sigma, tail.params.k, ratio)


def es_eps(q: float, k: float) -> float:
    """Innovation expected shortfall q / (1 + k) from the tail quantile q."""
    if k <= -1.0:
        raise TailError("expected shortfall undefined (k <= -1)")
    return q / (1.0 + k)


def q_eps_bc(a: float, tail: TailFit):
    """Bias-corrected tail quantile.

    Returns (value, B_q, Z_hat) where B_q is the extrapolation bias term and
    Z_hat = q_hat(a) / q_tilde(a_N) estimates the quantile growth constant.
    """
    if tail.params_bc is None:
        raise InputError("tail fit carries no bias-corrected parameters")
    q_tilde = tail.sample.q_tilde
    q_hat = q_eps(a, tail)
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
    ratio = _tail_ratio(a, tail)
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


def sigma1(k: float, z: float) -> float:
    """Asymptotic variance of the uncorrected tail quantile (relative scale)."""
    hi = H_inv(k)  # before _cb, which divides by k: k = 0 raises PoleError
    cb = _cb(k, z)
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


def _corrected_rows(k: float, rho: float, z: float):
    """(cq, row, Vb(k)): the corrected quantile's row, the corrected
    shortfall's row (sigma3_b adds _upsilon to it) and the Vb(k) that
    weighs both.  H_inv, A_matrix and Vb_matrix are each evaluated once,
    and a pole raises in that order."""
    hi, am = H_inv(k), A_matrix(k, rho)
    cq = k * (_cb(k, z) @ hi) @ am + _v_row(k, rho, z)
    return cq, cq - (hi[1] @ am) / (1.0 + k), Vb_matrix(k)


def _upsilon(k: float, rho: float, z: float) -> np.ndarray:
    """What the CES correction adds to the shortfall row."""
    d = d_hat(k, rho)
    denom = d * (rho + 1.0 / k + 1.0)
    if abs(denom) < 1e-12:
        raise PoleError("rho + 1/k + 1 vanishes in the shortfall variance")
    zr = z**rho
    return np.array(
        [
            0.0,
            0.0,
            zr * k * (-2.0 - 4.0 * k) / denom,
            k * zr / denom,
            4.0 * k * k * zr / denom,
        ]
    )


def sigma1_b(k: float, rho: float, z: float) -> float:
    """Asymptotic variance of the bias-corrected tail quantile."""
    cq, _, vb = _corrected_rows(k, rho, z)
    return float(cq @ vb @ cq)


def sigma2(k: float, z: float) -> float:
    """Asymptotic variance of the uncorrected innovation shortfall."""
    hi = H_inv(k)  # before _cb, as in sigma1
    cbh = _cb(k, z) @ hi
    row01 = hi[1]  # (0 1) H^{-1}
    b = _bvec(k)
    eta = np.array([cbh[0], cbh[1], float(cbh @ b) + 1.0 / (k * z)])
    theta = np.array([row01[0], row01[1], float(row01 @ b)])
    vec = k * eta - theta / (1.0 + k)
    return float(vec @ Vb_matrix(k)[:3, :3] @ vec)


def sigma2_b(k: float, rho: float, z: float) -> float:
    """Asymptotic variance of the bias-corrected innovation shortfall."""
    _, row, vb = _corrected_rows(k, rho, z)
    return float(row @ vb @ row)


def sigma3_b(k: float, rho: float, z: float) -> float:
    """Asymptotic variance of the bias-corrected conditional shortfall."""
    _, row, vb = _corrected_rows(k, rho, z)
    row = row + _upsilon(k, rho, z)
    return float(row @ vb @ row)


def _mu_factors(k: float, rho: float, z: float):
    """The bias factors (mu1, mu2) of the conditional quantile and shortfall."""
    inv_k = 1.0 / k
    lead = (-inv_k - rho) * (z**rho - 1.0) / rho
    cb, hi = _cb(k, z), H_inv(k)
    weights = np.array([-inv_k - rho, inv_k])
    mu1 = lead + float(cb @ hi @ weights) / (1.0 - inv_k - rho)
    adj = cb - np.array([0.0, 1.0 / (k * (1.0 + k))])
    mu2 = (lead + float(adj @ hi @ (weights / (1.0 - inv_k - rho)))
           + (inv_k + rho) / (1.0 + inv_k + rho) * z**rho)
    return mu1, mu2


def mse_crossover(k: float, rho: float, z: float):
    """Threshold constants (C1, C2) for the bias-variance tradeoff.

    |mu| above C1 (resp. C2) means bias correction lowers the asymptotic MSE
    of the conditional quantile (resp. shortfall) estimator.  Entries are
    None when the corrected variance is below the uncorrected one, in which
    case correction always wins, and NaN, with a warning naming the
    constant, when its denominator vanishes.  At such a pole a gap below
    zero by at most 1e-9 of the larger variance is a rounding residue (at
    rho = -1 gap and factor are both residues of zero), so it reads NaN.
    A Z that is not finite and positive is an InputError and k = -1, where
    the shortfall factor divides by 1 + k, a PoleError, both raised before
    any division.
    """
    if not (math.isfinite(z) and z > 0):
        raise InputError(f"quantile growth constant Z must be finite and positive, got {z}")
    if abs(1.0 + k) < 1e-12:
        raise PoleError("factor 1 + k vanishes")
    s1, s1b = sigma1(k, z), sigma1_b(k, rho, z)
    s2, s3b = sigma2(k, z), sigma3_b(k, rho, z)
    mu1, mu2 = _mu_factors(k, rho, z)

    def constant(name, corrected, plain, factor):
        gap = corrected - plain
        denom = -k * abs(factor)
        pole = abs(denom) < 1e-12
        if gap < 0 and not (pole and -gap <= 1e-9 * max(corrected, plain)):
            return None
        if pole:
            warnings.warn(f"MSE crossover {name} undefined: crossover denominator vanishes",
                          EstimationWarning)
            return math.nan
        return math.sqrt(gap) / denom

    return constant("C1", s1b, s1, mu1), constant("C2", s3b, s2, mu2)


def asymptotic_ci(estimate: float, variance: float, N: int):
    """Ratio-form 95% confidence interval estimate / (1 +- z sqrt(Sigma/N))
    for the asymptotic variance Sigma of the estimate.

    When 1 - z sqrt(Sigma/N) <= 0 the upper endpoint is +inf and a warning
    is raised.
    """
    if variance < 0:
        raise PoleError("negative variance expression")
    spread = CI_Z * math.sqrt(variance / N)
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


def estimate_at(fit: LocationScaleFit, tail: TailFit, a: float, x: float) -> RiskEstimate:
    """Conditional CVaR and CES at query x for the one level a, from the
    fitted location and scale; see assemble.

    A harness that assembles several levels at one point asks m_hat and
    h_hat once and calls assemble per level instead.
    """
    return assemble(tail, a, x, float(fit.m_hat(x)), float(fit.h_hat(x)))


def assemble(tail: TailFit, a: float, x: float, m_x: float, h_x: float) -> RiskEstimate:
    """Assemble conditional CVaR and CES at query x for one target level
    from the location m_x and variance h_x at x.

    Uncorrected estimates are always produced.  The tail fit decides the
    rest: bias-corrected estimates, intervals, and variances are added
    exactly when it carries corrected parameters (params_bc).  Variance
    expressions are evaluated at the corrected shape and the estimated
    second-order parameter, with Z_hat plugged in for the growth constant.
    """
    if h_x <= 0:
        raise TailError(f"nonpositive variance estimate at query x={x:.6g}")
    scale = math.sqrt(h_x)

    qe = q_eps(a, tail)
    ee = es_eps(qe, tail.params.k)
    out = RiskEstimate(
        a=a, x=x, m_x=m_x, h_x=h_x,
        q_eps=qe, es_eps=ee,
        cvar=m_x + scale * qe, ces=m_x + scale * ee,
    )
    if tail.params_bc is None:
        return out

    q_bc, b_q, z_hat = q_eps_bc(a, tail)
    k_b = tail.params_bc.k
    e_bc = es_eps(q_bc, k_b)
    b_e = es_bias_term(tail, q_bc, z_hat)
    out.q_eps_bc, out.es_eps_bc = q_bc, e_bc
    out.B_q, out.B_E, out.Z_hat = b_q, b_e, z_hat
    out.cvar_bc = m_x + scale * q_bc
    out.ces_bc = m_x + scale * (e_bc + b_e)

    # Interval variances at the corrected shape: the coverage probabilities
    # of the reported simulations are only reproduced at this plug-in.
    # These are sigma1_b, sigma2_b and sigma3_b from one _corrected_rows
    # evaluation; a pole raises in the order those three raise.
    rho, N = tail.rho_hat, tail.sample.N
    cq, row, vb = _corrected_rows(k_b, rho, z_hat)
    row3 = row + _upsilon(k_b, rho, z_hat)
    out.sigma1_b = float(cq @ vb @ cq)
    out.sigma2_b = float(row @ vb @ row)
    out.sigma3_b = float(row3 @ vb @ row3)
    out.ci_cvar = asymptotic_ci(out.cvar_bc, out.sigma1_b, N)
    out.ci_ces = asymptotic_ci(out.ces_bc, out.sigma3_b, N)
    return out
