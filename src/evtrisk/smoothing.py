"""First-stage smoothing: Epanechnikov weights, rule-of-thumb bandwidths,
local-linear regression, and standardized residual construction.

The location-scale model is Y = m(X) + h(X)^{1/2} eps with IID standardized
innovations.  m is fit by local-linear regression of Y on X, h by a second
local-linear regression of the squared residuals on X, and the standardized
residuals are U / h^{1/2}(X) wherever the variance fit is positive, 0 elsewhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateFitError, EstimationWarning, InputError
from .ingest import ReturnSeries

# Local-linear plug-in constant for the Epanechnikov kernel:
# (R(K) / mu_2(K)^2)^{1/5} with R(K) = 3/5 and mu_2(K) = 1/5.
ROT_KERNEL_CONST = 15.0 ** 0.2

# Variance fits at or below this are treated as nonpositive when standardizing.
H_EPS = 1e-12


def _epan_weight(u):
    """Epanechnikov weight 0.75 (1 - u^2) on |u| <= 1, zero outside."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _epan_integrated(u):
    """Antiderivative of the Epanechnikov weight, rising from 0 at -1 to 1 at 1."""
    u = np.asarray(u, dtype=float)
    clipped = np.clip(u, -1.0, 1.0)
    return 0.75 * (clipped - clipped**3 / 3.0) + 0.5


def _nn_bandwidth(q, x, h):
    """Smallest bandwidth above h whose window holds 3 points, 2 distinct."""
    dist = np.sort(np.abs(x - q))
    if dist.size < 3:
        raise DegenerateFitError(f"fewer than 3 data points near query x={q:.6g}")
    radius = dist[2]
    inside = np.abs(x - q) <= radius
    while np.unique(x[inside]).size < 2:
        outside = dist[dist > radius]
        if outside.size == 0:
            raise DegenerateFitError(f"no distinct covariates around query x={q:.6g}")
        radius = outside[0]
        inside = np.abs(x - q) <= radius
    return max(h, 1.01 * radius)


def _ll_batch_1d(queries, x, y, h, strict=True, chunk=512):
    """Vectorized scalar-covariate local-linear fit at many query points.

    With strict=False, queries whose local design is degenerate at
    bandwidth h are refit with the bandwidth widened to cover the nearest
    neighbors instead of raising.
    """
    queries = np.atleast_1d(np.asarray(queries, dtype=float))
    levels = np.empty(queries.size)
    slopes = np.empty(queries.size)
    window = min(h, float(np.ptp(x)))  # effective covariate spread scale
    for start in range(0, queries.size, chunk):
        q = queries[start : start + chunk]
        xc = x[None, :] - q[:, None]
        w = _epan_weight(xc / h)
        npos = np.count_nonzero(w > 0.0, axis=1)
        s0 = w.sum(axis=1)
        s1 = (w * xc).sum(axis=1)
        s2 = (w * xc * xc).sum(axis=1)
        t0 = (w * y).sum(axis=1)
        t1 = (w * xc * y).sum(axis=1)
        det = s0 * s2 - s1 * s1
        with np.errstate(invalid="ignore", divide="ignore"):
            safe = np.maximum(s0, 1e-300)
            wvar = np.where(s0 > 0, s2 / safe - (s1 / safe) ** 2, 0.0)
        bad = (npos < 3) | (wvar <= 1e-13 * window * window)
        if np.any(bad):
            if strict:
                q_bad = q[np.argmax(bad)]
                raise DegenerateFitError(
                    f"degenerate local-linear fit at query x={q_bad:.6g} (bandwidth h={h:.6g})"
                )
            for j in np.flatnonzero(bad):
                hq = _nn_bandwidth(q[j], x, h)
                lv, sl = _ll_batch_1d(q[j], x, y, hq, strict=True)
                idx = start + j
                levels[idx], slopes[idx] = lv[0], sl[0]
        good = ~bad
        sl_idx = np.arange(start, start + q.size)[good]
        levels[sl_idx] = (s2[good] * t0[good] - s1[good] * t1[good]) / det[good]
        slopes[sl_idx] = (s0[good] * t1[good] - s1[good] * t0[good]) / det[good]
    return levels, slopes


def local_linear(query, data_x, data_y, h):
    """Local-linear fit at one scalar query point: returns (level, slope
    vector of shape (1,))."""
    if h <= 0:
        raise InputError(f"bandwidth must be positive, got {h}")
    x = np.asarray(data_x, dtype=float)
    y = np.asarray(data_y, dtype=float)
    levels, slopes = _ll_batch_1d(float(query), x, y, h)
    return float(levels[0]), np.array([slopes[0]])


def rot_bandwidth_regression(x, y) -> float:
    """Rule-of-thumb plug-in bandwidth from a global quartic pilot fit.

    A quartic polynomial is fit by OLS, its curvature and residual variance
    plug into the asymptotically optimal local-linear bandwidth with the
    Epanechnikov constant.  The result is floored at 1e-3 of the covariate
    range and capped at the range.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 10:
        raise InputError(f"need at least 10 points for the plug-in, got {n}")
    span = float(np.ptp(x))
    if span <= 0:
        raise InputError("covariate values are all equal")
    # Centered and scaled fit for conditioning; curvature mapped back below.
    mu, sd = x.mean(), x.std()
    z = (x - mu) / sd
    design = np.vander(z, 5, increasing=True)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    rss = float(np.sum((y - design @ coef) ** 2))
    sigma2 = rss / (n - 5)
    curvature = (2.0 * coef[2] + 6.0 * coef[3] * z + 12.0 * coef[4] * z * z) / sd**2
    curv_sum = float(np.sum(curvature**2))
    curv_ref = n * (float(np.std(y)) / span**2) ** 2
    if curv_sum <= 1e-12 * curv_ref:
        warnings.warn(
            "quartic pilot found no curvature; falling back to half the range",
            EstimationWarning,
        )
        return span / 2.0
    h = ROT_KERNEL_CONST * (sigma2 * span / curv_sum) ** 0.2
    return float(np.clip(h, 1e-3 * span, span))


def rot_bandwidth_density(x, n: int | None = None, delta: float = 0.01) -> float:
    """Interquartile-range bandwidth 0.79 R n^(-1/5 + delta) for CDF smoothing."""
    x = np.asarray(x, dtype=float)
    size = x.size if n is None else int(n)
    if size < 4:
        raise InputError(f"need at least 4 observations, got {size}")
    q25, q75 = np.percentile(x, [25.0, 75.0])
    r = float(q75 - q25)
    if r <= 0:
        raise InputError("interquartile range is zero (degenerate sample)")
    return 0.79 * r * size ** (-0.2 + delta)


@dataclass
class LocationScaleFit:
    """First-stage fit: location and scale evaluators plus residuals."""

    x: np.ndarray
    y: np.ndarray
    h1: float
    h2: float
    residuals: np.ndarray
    m_hat: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    h_hat: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    lag: int = 1


def _constant_evaluator(value: float):
    def evaluate(q):
        q = np.asarray(q, dtype=float)
        out = np.full(q.shape, value)
        return float(out) if out.ndim == 0 else out

    return evaluate


def fit_location_scale(
    series: ReturnSeries,
    lag: int = 1,
    h1: float | None = None,
    h2: float | None = None,
) -> LocationScaleFit:
    """Fit m and h on lagged values and build standardized residuals.

    The conditioning variable is the lag-th lagged observation, so the
    effective sample drops the first ``lag`` points.  Residuals are set to
    exactly 0 wherever the variance fit is nonpositive (below 1e-12).
    """
    if lag < 1:
        raise InputError("lag must be a positive integer")
    values = series.values
    n_eff = values.size - lag
    if n_eff <= 20:
        raise InputError(f"series too short for bandwidth plug-in: {values.size} points")
    x = values[:-lag]
    y = values[lag:]

    if np.ptp(x) == 0.0:
        if np.ptp(y) != 0.0:
            raise DegenerateFitError("conditioning values are all equal")
        # Constant series: perfect fit with zero variance everywhere; the
        # residual rule then maps every point to 0.
        level = float(y.mean())
        return LocationScaleFit(
            x=x,
            y=y,
            h1=1.0,
            h2=1.0,
            residuals=np.zeros(n_eff),
            m_hat=_constant_evaluator(level),
            h_hat=_constant_evaluator(0.0),
            lag=lag,
        )

    if h1 is None:
        h1 = rot_bandwidth_regression(x, y)
    # Non-strict evaluation: isolated covariates (routine under heavy-tailed
    # innovations) get a nearest-neighbor bandwidth floor instead of failing.
    m_at_x, _ = _ll_batch_1d(x, x, y, h1, strict=False)
    u = y - m_at_x
    u2 = u * u
    if h2 is None:
        h2 = rot_bandwidth_regression(x, u2)
    h_at_x, _ = _ll_batch_1d(x, x, u2, h2, strict=False)

    positive = h_at_x > H_EPS
    if not np.any(positive) and np.any(u2 > H_EPS**2):
        raise DegenerateFitError("variance fit is nonpositive at every sample point")
    residuals = np.zeros(n_eff)
    residuals[positive] = u[positive] / np.sqrt(h_at_x[positive])

    def m_hat(q):
        scalar = np.isscalar(q)
        levels, _ = _ll_batch_1d(q, x, y, h1, strict=False)
        return float(levels[0]) if scalar else levels

    def h_hat(q):
        scalar = np.isscalar(q)
        levels, _ = _ll_batch_1d(q, x, u2, h2, strict=False)
        return float(levels[0]) if scalar else levels

    return LocationScaleFit(
        x=x, y=y, h1=float(h1), h2=float(h2),
        residuals=residuals, m_hat=m_hat, h_hat=h_hat, lag=lag,
    )
