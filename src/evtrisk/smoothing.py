"""First-stage smoothing: Epanechnikov weights, rule-of-thumb bandwidths,
local-linear regression, and standardized residual construction.

The location-scale model is Y = m(X) + h(X)^{1/2} eps with IID standardized
innovations.  m is fit by local-linear regression of Y on X, h by a second
local-linear regression of the squared residuals on X, and the standardized
residuals are U / h^{1/2}(X) wherever the variance fit is positive, 0 elsewhere.
Both bandwidths, h1 for m and h2 for h, come from one quartic pilot
regression on X: its design is factored once per fit by a thin SVD and
solved for Y, then for U^2, with the minimum-norm semantics and cutoff of
np.linalg.lstsq.

The local-linear sums are exact and need no pass over all n points per
fitted point.  The Epanechnikov weight is a polynomial on its support, so
the sums s0..s2 and t0, t1 at a point q are combinations of windowed power
sums of the covariate (powers up to 4) and of covariate times response
(powers up to 3): the "updating" method of Fan & Marron (1994) and Seifert,
Brockmann, Engel & Gasser (1994).  The design is sorted once, and the
window of each of its points q, the points strictly between fl(q - h) and
fl(q + h), is found by one binary search per end: the rule
tail._cdf_sorted uses for the CDF's window.  It differs from the weight's
support -1 < (x - q)/h < 1 only at a point within rounding of an end, whose
weight is within rounding of 0.  The sorted points are grouped into blocks
of extent at most 2h.  Each block recentres its power sums on the data of
its middle window, since one global origin would lose about (span/h)^4 to
cancellation, and takes one prefix sum of them over the union of its
windows: a window's sums are the difference of two prefix values.  Blocks
start more than 2h apart and their unions span at most 4h, so each design
point enters at most two prefix sums, and the block path fits the n sample
points in O(n log n) for the sort and searches plus O(n) for the prefix
sums and a fixed cost for each of the at most span/(2h) + 1 blocks.  The
difference cancels the block's terms left of the window, so a window's sums
round at about eps times the size of the block's terms up to its end, not
of its own.  Against the dense fit, the levels of benchmark-like series move
by up to about 4e-14 of max|y| (about 1e-15 when each window's sums come
from its own terms only), and those of a few points next to a dense cluster
by about 5e-14.  Only the window sums are taken block by block; the
weights, the degeneracy test and the line solve run once over all points.
Every single query, such as m_hat(x), h_hat(x), local_linear(q, ...) or a
widened refit, goes through _ll_point: it fits the weighted line directly
over its window, with the moments about the window's mean, in
O(log n + w) for the w points of the window (README, "Performance", gives
its measured cost).  It agrees with the block path to rounding, not bit
for bit.  A degenerate point is refit with its bandwidth widened to reach
its nearest neighbours, whose radius is found on the sorted design in
O(log n + k) for the k points within it; only local_linear, the one-point
fit the acceptance suite checks, raises on a degenerate query instead.  The
dense fit, which evaluates the kernel at every point for every query, and
the full sort of the distances for the widening are kept as the test
oracles ``local_linear_dense`` and ``_nn_bandwidth`` in tests/oracles.py.
"""

from __future__ import annotations

import math
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

# Variance fits at or below this fraction of the mean squared residual are
# treated as nonpositive when standardizing: 1e-12 at returns of scale 0.01.
H_EPS = 1e-8


def _nn_bandwidth(q, xs, h):
    """Smallest bandwidth above h whose window holds 3 points, 2 distinct,
    on the sorted design xs.

    The distances |x - q| fall up to q's insertion point in xs and rise after
    it.  So the radius is read off a slice around that point, doubled until
    no point within the radius touches a cut end of it: O(log n + k) for k
    points within the radius.
    """
    n = xs.size
    if n < 3:
        raise DegenerateFitError(f"fewer than 3 data points near query x={q:.6g}")
    p = int(xs.searchsorted(q))
    k = 4
    a, b = max(p - k, 0), min(p + k, n)
    dist = np.abs(xs[a:b] - q)
    radius = np.sort(dist)[2]  # the 3 nearest lie within 3 places of p
    while True:
        if (a > 0 and dist[0] <= radius) or (b < n and dist[-1] <= radius):
            k *= 2
            a, b = max(p - k, 0), min(p + k, n)
            dist = np.abs(xs[a:b] - q)
            continue
        near = xs[a:b][dist <= radius]
        if near.size and near[0] != near[-1]:
            return max(h, 1.01 * radius)
        farther = dist[dist > radius]
        if farther.size == 0:
            raise DegenerateFitError(f"no distinct covariates around query x={q:.6g}")
        radius = farther.min()


def _support(xs, q, h):
    """Index range [lo, hi) of sorted xs strictly between the rounded ends
    fl(q - h) and fl(q + h) of the window of q, a point or an array of
    them, as in tail._cdf_sorted."""
    return xs.searchsorted(q - h, "right"), xs.searchsorted(q + h, "left")


def _window_sums(xs, ys, lo, hi, h):
    """Windowed power sums about a centre near each point of the sorted
    design xs.

    Returns the rows n, T0, S1, T1, S2, T2, S3, T3, S4, 0 of the sums of
    S_p = d^p and T_p = d^p y over each point's window [lo, hi) of xs, where
    d = x - c, and the centre c of each point.  The points are grouped into
    blocks of extent at most 2h; a block's centre c is the mean of the
    design points in its middle point's window.  Centring per block keeps
    |d| and |x - c| within 4h and c near the mass of every window in the
    block; one global centre would lose about (span/h)^4.  The block's terms
    over the union [first, last) of its windows are summed once into prefix
    sums P, with a zero column in front, and a window's sums are
    P[hi] - P[lo].  P[lo] holds the block's terms left of the window, which
    the difference cancels: a window's sums round at about eps times the
    size of P[hi], so the error relative to the window grows with the number
    of block points left of it over the number in it.  Where every window of
    a block is empty, the sums are 0 and the centre is the point itself.
    """
    sums = np.zeros((10, xs.size))
    sums[0] = hi - lo
    centres = xs.copy()
    start = 0
    while start < xs.size:
        stop = int(xs.searchsorted(xs[start] + 2.0 * h, side="right"))
        blo, bhi = lo[start:stop], hi[start:stop]
        first, last = int(blo[0]), int(bhi[-1])  # both ends rise with x
        if last > first:
            mid = (start + stop - 1) // 2
            near = slice(lo[mid], hi[mid]) if hi[mid] > lo[mid] else slice(first, last)
            c = float(np.add.reduce(xs[near]) / (near.stop - near.start))  # np.mean, bit for bit
            # Rows y, d, d y, d^2, d^2 y, d^3, d^3 y, d^4 over the block, after
            # a zero column, summed into prefix sums P: a window's sums are
            # P[hi] - P[lo].
            prefix = np.zeros((8, last - first + 1))
            terms = prefix[:, 1:]
            y, d, d2 = terms[0], terms[1], terms[3]
            y[:] = ys[first:last]
            np.subtract(xs[first:last], c, out=d)
            np.multiply(d, d, out=d2)
            np.multiply(terms[1:4:2], d2, out=terms[5::2])
            np.multiply(terms[1:7:2], y, out=terms[2:7:2])
            np.cumsum(terms, axis=1, out=terms)
            sums[1:9, start:stop] = prefix[:, bhi - first] - prefix[:, blo - first]
            centres[start:stop] = c
        start = stop
    return sums, centres


def _ll_sorted(xs, ys, h):
    """Local-linear levels at every point of the design xs, sorted by
    covariate, in that order.

    Points whose window holds fewer than 3 points, or whose weighted
    covariate variance is negligible, are degenerate: each is refit with the
    bandwidth widened to cover its nearest neighbors.

    Each point's moments s0, s1, s2 (sums of w d^k) and t0, t1 (sums of
    w d^k y) about its block centre c follow from its window sums: with
    delta = q - c at the point q, the weight w = 0.75 (1 - ((x-q)/h)^2) is
    w0 + w1 d - w2 d^2 with w0 = 0.75 (1 - delta^2/h^2), w1 = 1.5 delta/h^2
    and w2 = 0.75/h^2.  Past the block loop every step runs once over all
    points.
    """
    lo, hi = _support(xs, xs, h)
    sums, centres = _window_sums(xs, ys, lo, hi, h)

    window = min(h, float(xs[-1] - xs[0]))  # effective covariate spread scale
    inv_h2 = 1.0 / (h * h)
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = xs - centres
        w0 = 0.75 * (1.0 - delta * delta * inv_h2)
        w1 = 1.5 * delta * inv_h2
        w2 = 0.75 * inv_h2
        # The rows of sums are ordered so that three overlapping slices of
        # them give the moments s0, t0, s1, t1, s2.
        s0, t0, s1, t1, s2, _ = w0 * sums[:6] + w1 * sums[2:8] - w2 * sums[4:]
        safe = np.maximum(s0, 1e-300)
        wvar = np.where(s0 > 0, s2 / safe - (s1 / safe) ** 2, 0.0)
        # A window of tied covariates has zero spread; its power sums would
        # only leave rounding noise in wvar.  (An empty window has n = 0.)
        tied = xs.take(hi - 1, mode="clip") == xs.take(lo, mode="clip")
        bad = (sums[0] < 3) | tied | (wvar <= 1e-13 * window * window)
        # The line fit about c, evaluated at q = c + delta; degenerate
        # points are overwritten below.
        det = s0 * s2 - s1 * s1
        slopes = (s0 * t1 - s1 * t0) / det
        levels = (s2 * t0 - s1 * t1) / det + slopes * delta
    for j in np.flatnonzero(bad):
        q = float(xs[j])
        levels[j] = _ll_point(q, xs, ys, _nn_bandwidth(q, xs, h))[0]
    return levels


def _ll_point(q, xs, ys, h, strict=True):
    """(level, slope) of the local-linear fit at one query q: the weighted
    line fit over q's window, with the moments taken about the window's mean
    c.  About q, the moments of a far-extrapolated widened query would lose
    digits to cancellation; about c they stay within the window's spread.
    A degenerate query raises with strict=True and is refit at the widened
    bandwidth otherwise."""
    lo, hi = map(int, _support(xs, q, h))
    x, y = xs[lo:hi], ys[lo:hi]
    window = min(h, float(xs[-1] - xs[0]))
    if hi - lo >= 3 and x[0] != x[-1]:
        c = float(x.mean())
        d = x - c
        w = 0.75 * (1.0 - ((x - q) / h) ** 2)
        wd = w * d
        s0, s1, s2 = float(w.sum()), float(wd.sum()), float(wd @ d)
        if s0 > 0 and s2 / s0 - (s1 / s0) ** 2 > 1e-13 * window * window:
            t0, t1 = float(w @ y), float(wd @ y)
            det = s0 * s2 - s1 * s1
            slope = (s0 * t1 - s1 * t0) / det
            return (s2 * t0 - s1 * t1) / det + slope * (q - c), slope
    if strict:
        raise DegenerateFitError(
            f"degenerate local-linear fit at query x={q:.6g} (bandwidth h={h:.6g})"
        )
    return _ll_point(q, xs, ys, _nn_bandwidth(q, xs, h))


# Kept public: tests/test_acceptance.py checks the fit through it.
def local_linear(query, data_x, data_y, h):
    """Local-linear fit at one scalar query point: returns (level, slope
    vector of shape (1,)).  A degenerate query raises DegenerateFitError."""
    if h <= 0:
        raise InputError(f"bandwidth must be positive, got {h}")
    x = np.asarray(data_x, dtype=float)
    order = np.argsort(x, kind="stable")
    level, slope = _ll_point(float(query), x[order], np.asarray(data_y, dtype=float)[order], h)
    return level, np.array([slope])


def _quartic_pilot(x):
    """Rule-of-thumb plug-in bandwidth from a global quartic pilot fit, as a
    function of the response: the design in x is factored here, once, and
    each response is then solved against the factors.

    A quartic polynomial in the standardized covariate is fit by least
    squares, with np.linalg.lstsq's semantics: the minimum-norm solution,
    singular values at or below eps max(n, 5) times the largest treated as
    zero.  Its curvature and residual variance plug into the asymptotically
    optimal local-linear bandwidth with the Epanechnikov constant.  The
    result is floored at 1e-3 of the covariate range and capped at the
    range.  The caller, fit_location_scale, has checked that x holds more
    than 20 points and has a positive range.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    span = float(np.ptp(x))
    # Centered and scaled fit for conditioning; curvature mapped back below.
    mu, sd = x.mean(), x.std()
    z = (x - mu) / sd
    powers = np.empty((5, n))  # the rows 1, z, ..., z^4, built as np.vander builds them
    powers[0] = 1.0
    powers[1] = z
    for p in range(2, 5):
        np.multiply(powers[p - 1], z, out=powers[p])
    try:
        u, s, vt = np.linalg.svd(powers.T, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError(f"quartic pilot fit failed: {exc}") from exc
    keep = s > np.finfo(float).eps * n * s[0]
    u, back = u[:, keep], vt[keep].T / s[keep]

    def bandwidth(y) -> float:
        coef = back @ (u.T @ y)
        resid = y - coef @ powers
        sigma2 = float(resid @ resid) / (n - 5)
        curvature = (2.0 * coef[2] + 6.0 * coef[3] * z + 12.0 * coef[4] * z * z) / sd**2
        curv_sum = float(curvature @ curvature)
        spread = y - float(np.add.reduce(y)) / n
        curv_ref = float(spread @ spread) / span**4  # n var(y) / span^4
        if curv_sum <= 1e-12 * curv_ref:
            warnings.warn(
                "quartic pilot found no curvature; falling back to half the range",
                EstimationWarning,
            )
            return span / 2.0
        h = ROT_KERNEL_CONST * (sigma2 * span / curv_sum) ** 0.2
        return float(min(max(h, 1e-3 * span), span))

    return bandwidth


def _ascending(values):
    """values as a flat float array in ascending order.  An array already in
    that order is returned as it is: the check is one pass, a sort is not."""
    v = np.asarray(values, dtype=float).ravel()
    if not (v[1:] >= v[:-1]).all():  # a NaN fails the check and is sorted last
        v = np.sort(v)
    return v


def _quantile_linear(xs, q: float) -> float:
    """np.percentile's linear rule at q on the ascending xs: the value at
    index (n - 1) q, interpolated between its neighbours in the same
    floating-point steps, so the two agree bit for bit."""
    v = (xs.size - 1) * q  # below n - 1 for q < 1
    i = int(v)
    g = v - i
    a, b = float(xs[i]), float(xs[i + 1])
    return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g


def rot_bandwidth_density(x) -> float:
    """Interquartile-range bandwidth 0.79 R n^(-1/5 + delta) for CDF smoothing,
    with n the sample size and delta = DENSITY_RATE_DELTA.  The quartiles are
    np.percentile's, read off the values in ascending order; a NaN makes them
    NaN, as it does there."""
    xs = _ascending(x)
    if xs.size < 4:
        raise InputError(f"need at least 4 observations, got {xs.size}")
    r = _quantile_linear(xs, 0.75) - _quantile_linear(xs, 0.25)
    if np.isnan(xs[-1]):
        r = math.nan
    if r <= 0:
        raise InputError("interquartile range is zero (degenerate sample)")
    return 0.79 * r * xs.size ** (-0.2 + DENSITY_RATE_DELTA)


@dataclass
class LocationScaleFit:
    """First-stage fit: location and scale evaluators plus residuals."""

    x: np.ndarray
    y: np.ndarray
    h1: float
    h2: float
    residuals: np.ndarray
    # m_hat(q) and h_hat(q): the fitted location and variance at one query.
    m_hat: Callable[[float], float] = field(repr=False)
    h_hat: Callable[[float], float] = field(repr=False)


def _evaluator(xs, ys, h):
    """Local-linear curve of ys on the sorted design xs at bandwidth h, as a
    function of one query point; a degenerate query is refit at its widened
    bandwidth."""

    def curve(q: float) -> float:
        return _ll_point(float(q), xs, ys, h, strict=False)[0]

    return curve


def fit_location_scale(series: ReturnSeries, lag: int = 1) -> LocationScaleFit:
    """Fit m and h on lagged values and build standardized residuals.

    The conditioning variable is the lag-th lagged observation, so the
    effective sample drops the first ``lag`` points.  Residuals are set to
    exactly 0 wherever the variance fit is nonpositive (at or below H_EPS
    times the mean squared residual, so the rule is scale-free).  A
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

    pilot = _quartic_pilot(x)
    h1 = pilot(y)
    # One stable sort of the design serves both sample passes and every
    # later m_hat/h_hat query; the sorted fits are scattered back through it.
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    # Isolated covariates (routine under heavy-tailed innovations) get a
    # nearest-neighbor bandwidth floor instead of failing.
    m_at_x = np.empty(n_eff)
    m_at_x[order] = _ll_sorted(xs, ys, h1)
    u = y - m_at_x
    u2 = u * u
    h2 = pilot(u2)
    del pilot  # the design's factors are done with
    u2s = u2[order]
    h_at_x = np.empty(n_eff)
    h_at_x[order] = _ll_sorted(xs, u2s, h2)

    floor = H_EPS * float(np.mean(u2))
    positive = h_at_x > floor
    if not np.any(positive) and floor > 0.0:
        raise DegenerateFitError("variance fit is nonpositive at every sample point")
    residuals = np.zeros(n_eff)
    residuals[positive] = u[positive] / np.sqrt(h_at_x[positive])

    return LocationScaleFit(
        x=x, y=y, h1=float(h1), h2=float(h2), residuals=residuals,
        m_hat=_evaluator(xs, ys, h1), h_hat=_evaluator(xs, u2s, h2),
    )
