"""First-stage smoothing: Epanechnikov weights, rule-of-thumb bandwidths,
local-linear regression, and standardized residual construction.

The location-scale model is Y = m(X) + h(X)^{1/2} eps with IID standardized
innovations.  m is fit by local-linear regression of Y on X, h by a second
local-linear regression of the squared residuals on X, and the standardized
residuals are U / h^{1/2}(X) wherever the variance fit is positive, 0 elsewhere.

The local-linear sums are exact and need no pass over all n points per
query.  The Epanechnikov weight is a polynomial on its support, so the sums
s0..s2 and t0, t1 of a query are combinations of windowed power sums of the
covariate (powers up to 4) and of covariate times response (powers up to 3):
the "updating" method of Fan & Marron (1994) and Seifert, Brockmann, Engel &
Gasser (1994).  The design is sorted once, each query's window [q-h, q+h]
is found by binary search, and the queries are grouped into blocks of extent
at most h.  Each block recentres its power sums on the data of its middle
window; one global origin would lose about (span/h)^4 to cancellation.  A
fit at m queries costs O((n + m) log n) for the sorts and searches plus
O(n span/h) for the blocks' partial sums.  The dense fit it replaced, which
evaluates the kernel at every point for every query, is kept as the test
oracle ``local_linear_dense`` in tests/oracles.py.
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

# Undersmoothing exponent delta of the CDF bandwidth rate n^(-1/5 + delta).
DENSITY_RATE_DELTA = 0.01

# Variance fits at or below this are treated as nonpositive when standardizing.
H_EPS = 1e-12


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


def _first_inside(xs, start, inside):
    """First index of sorted xs at which the monotone test inside(values, rows)
    turns true, per row, searched from `start` one distinct value at a time."""
    b = start.copy()
    rows = np.arange(b.size)
    while True:
        back = b > 0
        back[back] = inside(xs[b[back] - 1], rows[back])
        ahead = b < xs.size
        ahead[ahead] = ~inside(xs[b[ahead]], rows[ahead])
        if not (back.any() or ahead.any()):
            return b
        b[back] = np.searchsorted(xs, xs[b[back] - 1], side="left")
        b[ahead] = np.searchsorted(xs, xs[b[ahead]], side="right")


def _support(xs, q, h):
    """Index range [lo, hi) of sorted xs with positive weight at each query.

    The weight is positive iff -1 < (x - q)/h < 1 in floating point, so the
    range is found by that test itself, starting from searchsorted on q -+ h.
    """
    lo = _first_inside(xs, np.searchsorted(xs, q - h), lambda v, r: (v - q[r]) / h > -1.0)
    hi = _first_inside(xs, np.searchsorted(xs, q + h), lambda v, r: (v - q[r]) / h >= 1.0)
    return lo, hi


def _partial_sums(terms, cuts):
    """Row sums of terms[:, :c] for each c in the nondecreasing cuts, from one
    sum per segment between consecutive distinct cuts."""
    prev = np.concatenate(([0], cuts[:-1]))
    grows = cuts > prev
    running = np.zeros((terms.shape[0], np.count_nonzero(grows) + 1))
    if grows.any():
        segments = np.add.reduceat(terms[:, : cuts[-1]], prev[grows], axis=1)
        np.cumsum(segments, axis=1, out=running[:, 1:])
    return running[:, np.cumsum(grows)]


def _window_moments(xs, ys, qs, lo, hi, h):
    """Epanechnikov local moments at sorted finite queries, about a centre
    near each query's data.

    Returns rows s0, s1, s2 (sums of w d^k), t0, t1 (sums of w d^k y) and the
    offset delta = q - c, where d = x - c and w = 0.75 (1 - ((x-q)/h)^2) over
    each query's support [lo, hi) of the sorted design xs.  Queries are
    grouped into blocks of extent at most h; a block's centre c is the mean
    of the design points in its middle query's window.  The weight is a
    polynomial in d,
    w = 0.75 ((1 - delta^2/h^2) + 2 delta d/h^2 - d^2/h^2), so every sum is a
    combination of the windowed power sums of d^p (p <= 4) and d^p y
    (p <= 3), taken from partial sums over the block's slice of the design.
    Centring per block keeps |d| and |delta| within a few h and c near the
    mass of every window in the block, so the sums lose about as much as the
    dense ones; one global centre would lose about (span/h)^4.
    """
    moments = np.zeros((6, qs.size))
    inv_h2 = 1.0 / (h * h)
    start = 0
    while start < qs.size:
        stop = int(np.searchsorted(qs, qs[start] + h, side="right"))
        blo, bhi = lo[start:stop], hi[start:stop]
        first, last = int(blo.min()), int(bhi.max())
        if last > first:
            mid = (start + stop - 1) // 2
            near = slice(lo[mid], hi[mid]) if hi[mid] > lo[mid] else slice(first, last)
            c = float(np.mean(xs[near]))
            d = xs[first:last] - c
            yv = ys[first:last]
            d2 = d * d
            terms = np.vstack((d, d2, d2 * d, d2 * d2, yv, d * yv, d2 * yv, d2 * d * yv))
            # Partial sums run outward from the first design point at or above
            # the block's middle.  Every query is within h/2 of the middle, so
            # that point splits every window of the block, and a window sum
            # never cancels terms from outside the window.
            a = int(np.searchsorted(xs, 0.5 * (qs[start] + qs[stop - 1]))) - first
            win = (_partial_sums(terms[:, a:], bhi - first - a)
                   + _partial_sums(terms[:, :a][:, ::-1], (first + a - blo)[::-1])[:, ::-1])
            xsum = [(bhi - blo).astype(float), *win[:4]]
            ysum = win[4:]
            delta = qs[start:stop] - c
            # w = w0 + w1 d - w2 d^2 on the support
            w0 = 0.75 * (1.0 - delta * delta * inv_h2)
            w1 = 1.5 * delta * inv_h2
            w2 = 0.75 * inv_h2
            moments[:, start:stop] = [
                *(w0 * xsum[k] + w1 * xsum[k + 1] - w2 * xsum[k + 2] for k in range(3)),
                *(w0 * ysum[k] + w1 * ysum[k + 1] - w2 * ysum[k + 2] for k in range(2)),
                delta,
            ]
        start = stop
    return moments


def _ll_sorted(queries, xs, ys, h, strict=True):
    """Local-linear fit at many queries on a design sorted by covariate.

    Queries whose window holds fewer than 3 points, or whose weighted
    covariate variance is negligible, are degenerate: with strict=True the
    first of them (in query order) raises, with strict=False each is refit
    with the bandwidth widened to cover its nearest neighbors.
    """
    queries = np.atleast_1d(np.asarray(queries, dtype=float))
    order = np.argsort(queries, kind="stable")
    qs = queries[order]
    lo, hi = _support(xs, qs, h)
    finite = np.flatnonzero(np.isfinite(qs))
    moments = np.zeros((6, qs.size))
    if finite.size:
        f0, f1 = finite[0], finite[-1] + 1
        moments[:, f0:f1] = _window_moments(xs, ys, qs[f0:f1], lo[f0:f1], hi[f0:f1], h)
    # A window of tied covariates has zero spread; its power sums would only
    # leave rounding noise in wvar.
    tied = (hi > lo) & (xs[np.maximum(hi - 1, 0)] == xs[np.minimum(lo, xs.size - 1)])
    rank = np.argsort(order)  # back to query order
    s0, s1, s2, t0, t1, delta = moments[:, rank]
    npos, tied = (hi - lo)[rank], tied[rank]

    window = min(h, float(np.ptp(xs)))  # effective covariate spread scale
    det = s0 * s2 - s1 * s1
    with np.errstate(invalid="ignore", divide="ignore"):
        safe = np.maximum(s0, 1e-300)
        wvar = np.where(s0 > 0, s2 / safe - (s1 / safe) ** 2, 0.0)
    bad = (npos < 3) | tied | (wvar <= 1e-13 * window * window)
    if strict and np.any(bad):
        q_bad = queries[np.argmax(bad)]
        raise DegenerateFitError(
            f"degenerate local-linear fit at query x={q_bad:.6g} (bandwidth h={h:.6g})"
        )
    levels = np.empty(queries.size)
    slopes = np.empty(queries.size)
    for j in np.flatnonzero(bad):
        hq = _nn_bandwidth(queries[j], xs, h)
        lv, sl = _ll_sorted(queries[j], xs, ys, hq, strict=True)
        levels[j], slopes[j] = lv[0], sl[0]
    good = ~bad
    # The line fit about c, evaluated at q = c + delta.
    slopes[good] = (s0[good] * t1[good] - s1[good] * t0[good]) / det[good]
    levels[good] = (s2[good] * t0[good] - s1[good] * t1[good]) / det[good] + slopes[good] * delta[good]
    return levels, slopes


# Kept public: tests/test_acceptance.py checks the fit through it.
def local_linear(query, data_x, data_y, h):
    """Local-linear fit at one scalar query point: returns (level, slope
    vector of shape (1,))."""
    if h <= 0:
        raise InputError(f"bandwidth must be positive, got {h}")
    x = np.asarray(data_x, dtype=float)
    order = np.argsort(x, kind="stable")
    ys = np.asarray(data_y, dtype=float)[order]
    levels, slopes = _ll_sorted(float(query), x[order], ys, h)
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
    try:
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError(f"quartic pilot fit failed: {exc}") from exc
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


def rot_bandwidth_density(x) -> float:
    """Interquartile-range bandwidth 0.79 R n^(-1/5 + delta) for CDF smoothing,
    with n the sample size and delta = DENSITY_RATE_DELTA."""
    x = np.asarray(x, dtype=float)
    if x.size < 4:
        raise InputError(f"need at least 4 observations, got {x.size}")
    q25, q75 = np.percentile(x, [25.0, 75.0])
    r = float(q75 - q25)
    if r <= 0:
        raise InputError("interquartile range is zero (degenerate sample)")
    return 0.79 * r * x.size ** (-0.2 + DENSITY_RATE_DELTA)


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


def _evaluator(xs, ys, h):
    """Local-linear curve of ys on the sorted design xs at bandwidth h, as a
    function of query points: a float for a scalar query, else an array."""

    def curve(q):
        scalar = np.isscalar(q)
        levels, _ = _ll_sorted(q, xs, ys, h, strict=False)
        return float(levels[0]) if scalar else levels

    return curve


def fit_location_scale(series: ReturnSeries, lag: int = 1) -> LocationScaleFit:
    """Fit m and h on lagged values and build standardized residuals.

    The conditioning variable is the lag-th lagged observation, so the
    effective sample drops the first ``lag`` points.  Residuals are set to
    exactly 0 wherever the variance fit is nonpositive (below 1e-12).  A
    constant series has no scale to standardize by and is rejected as
    input; a constant covariate under a varying response is a degenerate
    fit.
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
        if np.ptp(y) == 0.0:
            raise InputError(f"series is constant: all {values.size} values are equal")
        raise DegenerateFitError("conditioning values are all equal")

    h1 = rot_bandwidth_regression(x, y)
    # One stable sort of the design serves both sample passes and every
    # later m_hat/h_hat query.
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    # Non-strict evaluation: isolated covariates (routine under heavy-tailed
    # innovations) get a nearest-neighbor bandwidth floor instead of failing.
    m_at_x, _ = _ll_sorted(x, xs, ys, h1, strict=False)
    u = y - m_at_x
    u2 = u * u
    h2 = rot_bandwidth_regression(x, u2)
    u2s = u2[order]
    h_at_x, _ = _ll_sorted(x, xs, u2s, h2, strict=False)

    positive = h_at_x > H_EPS
    if not np.any(positive) and np.any(u2 > H_EPS**2):
        raise DegenerateFitError("variance fit is nonpositive at every sample point")
    residuals = np.zeros(n_eff)
    residuals[positive] = u[positive] / np.sqrt(h_at_x[positive])

    return LocationScaleFit(
        x=x, y=y, h1=float(h1), h2=float(h2), residuals=residuals,
        m_hat=_evaluator(xs, ys, h1), h_hat=_evaluator(xs, u2s, h2),
    )
