"""Bridge between the stages: smoothed residual CDF, threshold quantile,
exceedance extraction, the tail-count schedule N(n), and the one check of
the risk levels a that MC designs, backtests and their tests take.

The threshold quantile is a safeguarded Newton iteration on the smoothed
CDF with the kernel density as slope (see smoothed_quantile)."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, InputError, TailError
from .smoothing import LocationScaleFit, _ascending, rot_bandwidth_density

QUANTILE_TOL = 1e-10


def check_schedule_constant(c: float) -> None:
    """Reject a tail schedule constant that is not finite and positive."""
    if not (math.isfinite(c) and c > 0):
        raise InputError(f"tail schedule constant c must be finite and positive, got {c}")


def check_level(a) -> None:
    """Reject a level that is not a real number in (0, 1); a bool is not one."""
    if isinstance(a, bool) or not isinstance(a, numbers.Real):
        raise InputError(f"level {a!r} must be a real number in (0,1)")
    if not 0.0 < a < 1.0:
        raise InputError(f"level {a} outside (0,1)")


def check_levels(levels) -> None:
    """Reject a level set that is not a tuple or list of distinct levels,
    each checked by check_level."""
    if not isinstance(levels, (tuple, list)):
        raise InputError(f"levels must be a tuple or list, got {levels!r}")
    for a in levels:
        check_level(a)
        if levels.count(a) > 1:
            raise InputError(f"level {a} given more than once")


def choose_N(n: int, c: float = 0.7) -> int:
    """Tail count schedule round(c * n^0.79), clamped to [10, n/2]."""
    if n < 100:
        raise InputError(f"sample too small for the tail schedule: n={n}")
    check_schedule_constant(c)
    raw = int(math.floor(c * n**0.79 + 0.5))
    return min(max(raw, 10), n // 2)


def _cdf_sorted(u: float, rs: np.ndarray, h3: float, density: bool = False):
    """Smoothed CDF at u over the sorted residuals rs: the points at or below
    u - h3 weigh 1, those at or above u + h3 weigh 0, and only the window
    between them evaluates the integrated Epanechnikov kernel
    K(t) = 1/2 + 3/4 (t - t^3/3).  A window t that rounds just past +-1
    needs no clip: K'(+-1) = 0, so K moves by O(t_err^2) there.  With
    density=True it returns (F, f), the kernel density f summed over the
    same window; F is the same float either way."""
    i0 = int(rs.searchsorted(u - h3, "right"))
    i1 = int(rs.searchsorted(u + h3, "left"))
    t = (u - rs[i0:i1]) / h3
    cdf = (i0 + float(np.sum(0.5 + 0.75 * (t - t * t * t / 3.0)))) / rs.size
    if not density:
        return cdf
    return cdf, 0.75 * float(np.sum(1.0 - t * t)) / (rs.size * h3)


def smoothed_cdf(u: float, residuals, h3: float) -> float:
    """Kernel-smoothed empirical CDF of the residuals at the point u."""
    if h3 <= 0:
        raise InputError("CDF bandwidth must be positive")
    return _cdf_sorted(float(u), np.sort(np.asarray(residuals, dtype=float), axis=None), h3)


def smoothed_quantile(a: float, residuals, h3: float) -> float:
    """Invert the smoothed CDF to |F(q) - a| <= 1e-10 by a safeguarded Newton.

    The residuals are sorted once, or read as they are when already in
    ascending order; each CDF evaluation then binary-searches
    the kernel window [u - h3, u + h3] and sums the kernel over it, O(log n
    + w) for w residuals in the window in place of O(n).  The iteration
    starts from the empirical a-quantile and steps by Newton with the kernel
    density as slope; a step that leaves the bracket of the points evaluated
    so far, or meets a zero density, bisects the bracket instead.  It
    returns the first point whose F lies within 1e-10 of a: at the tail
    level 1 - N/n after about 5.5 evaluations, the bracket check included,
    in place of a bisection's 34.  The bracket [min - 10 h3, max + 10 h3],
    the step cap and both TailErrors are those of the O(n) bisection kept
    as ``smoothed_quantile_oracle`` in tests/oracles.py.  Where F rises
    through a, the two land within 2e-10 / f of each other, f the kernel
    density; where F equals a on a whole flat stretch, each may return any
    point of it (_build_sample rejects such a threshold).
    """
    if not 0.0 < a < 1.0:
        raise InputError(f"quantile level must be in (0,1), got {a}")
    if h3 is None or h3 <= 0:
        raise InputError("CDF bandwidth must be positive")
    rs = _ascending(residuals)
    lo = float(rs[0]) - 10.0 * h3
    hi = float(rs[-1]) + 10.0 * h3
    if _cdf_sorted(lo, rs, h3) > a or _cdf_sorted(hi, rs, h3) < a:
        raise TailError(f"no bracket for smoothed quantile at level {a}")
    u = float(rs[min(int(a * rs.size), rs.size - 1)])
    for _ in range(200):
        val, dens = _cdf_sorted(u, rs, h3, density=True)
        if abs(val - a) <= QUANTILE_TOL:
            return u
        if val < a:
            lo = u
        else:
            hi = u
        step = u + (a - val) / dens if dens > 0.0 else math.nan
        u = step if lo < step < hi else 0.5 * (lo + hi)
    if abs(_cdf_sorted(u, rs, h3) - a) > 1e-8:
        raise TailError(f"smoothed quantile did not converge at level {a}")
    return u


@dataclass
class TailSample:
    """Residual tail above a threshold quantile, ready for GPD fitting.

    threshold_kind records the threshold rule ("smoothed" kernel CDF
    inversion at bandwidth h3, or "empirical" order statistic); rethreshold
    applies the same rule at another tail count.  h3 is None for empirical
    thresholds.
    """

    residuals_sorted: np.ndarray
    n: int
    N: int
    a_N: float
    q_tilde: float
    N_s: int
    exceedances: np.ndarray
    h3: float | None
    threshold_kind: str


def empirical_quantile(values_sorted, a: float) -> float:
    """Order-statistic quantile: x_(na) if na is an integer, else x_([na]+1)."""
    n = values_sorted.size
    na = n * a
    idx = int(round(na)) if abs(na - round(na)) < 1e-9 else int(math.floor(na)) + 1
    idx = min(max(idx, 1), n)
    return float(values_sorted[idx - 1])


def _build_sample(residuals_sorted, N, h3, kind) -> TailSample:
    """The only place the threshold rule is decided: exceedances over the
    a_N = 1 - N/n quantile of the ascending residuals_sorted, the order
    statistic for kind "empirical", else the smoothed quantile at bandwidth
    h3.  The residuals are not sorted again here, nor in the quantile.
    Where the (n-N)-th and next smallest residuals lie more than 2 h3
    apart, F equals a_N on the whole stretch between their kernel windows,
    so every point of it meets the quantile's tolerance: such a threshold
    is not unique and is rejected."""
    n = residuals_sorted.size
    if not 0 < N < n:
        raise InputError(f"tail count N={N} must satisfy 0 < N < n={n}")
    a_N = 1.0 - N / n
    if kind == "empirical":
        q_tilde = empirical_quantile(residuals_sorted, a_N)
    else:
        q_tilde = smoothed_quantile(a_N, residuals_sorted, h3)
        if residuals_sorted[n - N] - residuals_sorted[n - N - 1] > 2.0 * h3:
            raise TailError(f"smoothed threshold at tail count {N} is not unique: "
                            f"F equals a_N across a residual gap wider than 2 h3")
    above = residuals_sorted[residuals_sorted > q_tilde]
    if above.size == 0:
        raise TailError(f"no exceedances above the threshold at tail count {N}")
    return TailSample(
        residuals_sorted=residuals_sorted,
        n=n,
        N=N,
        a_N=a_N,
        q_tilde=float(q_tilde),
        N_s=int(above.size),
        exceedances=above - q_tilde,
        h3=h3,
        threshold_kind=kind,
    )


def extract_tail_empirical(residuals, N: int) -> TailSample:
    """Exceedances over the empirical a_N-quantile (comparator construction)."""
    return _build_sample(np.sort(np.asarray(residuals, dtype=float)), N, None, "empirical")


def extract_tail(fit: LocationScaleFit, N: int) -> TailSample:
    """Tail of the standardized first-stage residuals above the smoothed
    a_N-quantile, at the interquartile-range bandwidth of those residuals.
    The residuals are fitted, not given: a zero interquartile range among
    them is a degenerate fit, not bad input.  The residuals are sorted once,
    for the bandwidth's quartiles and the threshold alike."""
    residuals_sorted = np.sort(fit.residuals)
    try:
        h3 = rot_bandwidth_density(residuals_sorted)
    except InputError as exc:
        raise DegenerateFitError(f"standardized residuals: {exc}") from exc
    return _build_sample(residuals_sorted, N, h3, "smoothed")


def rethreshold(sample: TailSample, N: int) -> TailSample:
    """The same residuals' tail at tail count N, under the sample's own
    threshold rule, read from its sorted residuals without a sort."""
    return _build_sample(sample.residuals_sorted, N, sample.h3, sample.threshold_kind)
