"""Bridge between the stages: smoothed residual CDF, threshold quantile,
exceedance extraction, and the tail-count schedule N(n).

The threshold quantile is a bisection on the smoothed CDF, replayed from a
few exact CDF evaluations near the root (see smoothed_quantile)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, TailError
from .smoothing import LocationScaleFit, rot_bandwidth_density

QUANTILE_TOL = 1e-10
# How far a computed F may step back as u rises, with room to spare (see
# smoothed_quantile), and the distance from the level beyond which a
# point's F decides the bisection's branch at every midpoint past it.
REPLAY_MARGIN = 1e-11
REPLAY_GAP = QUANTILE_TOL + REPLAY_MARGIN
LOCATE_STEPS = 10  # Newton evaluations before the replay


def check_schedule_constant(c: float) -> None:
    """Reject a tail schedule constant that is not finite and positive."""
    if not (math.isfinite(c) and c > 0):
        raise InputError(f"tail schedule constant c must be finite and positive, got {c}")


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


def _locate(a: float, rs: np.ndarray, h3: float, lo: float, hi: float):
    """(below, above): the nearest points that a few Newton steps on F, with
    the kernel density as slope, find on each side of the level with their
    exact F more than REPLAY_GAP below and above a, or -inf and inf where
    none was found.  The steps aim at a - 2 REPLAY_GAP until that side is
    within 3 REPLAY_GAP of a, then at a + 2 REPLAY_GAP; a step that leaves
    the bracket of the points evaluated so far bisects it instead."""
    below, above = -math.inf, math.inf
    f_below, f_above = -math.inf, math.inf
    points = []
    u = float(rs[min(int(a * rs.size), rs.size - 1)])
    for _ in range(LOCATE_STEPS):
        val, dens = _cdf_sorted(u, rs, h3, density=True)
        points.append((u, val))
        if val < a - REPLAY_GAP and u > below:
            below, f_below = u, val
        elif val > a + REPLAY_GAP and u < above:
            above, f_above = u, val
        if f_below < a - 3.0 * REPLAY_GAP:
            target = a - 2.0 * REPLAY_GAP
        elif f_above > a + 3.0 * REPLAY_GAP:
            target = a + 2.0 * REPLAY_GAP
        else:
            break
        left = max((p for p, v in points if v < target), default=lo)
        right = min((p for p, v in points if v > target), default=hi)
        step = u + (target - val) / dens if dens > 0.0 else math.nan
        u = step if left < step < right else 0.5 * (left + right)
    return below, above


def smoothed_quantile(a: float, residuals, h3: float) -> float:
    """Invert the smoothed CDF by bisection to |F(q) - a| <= 1e-10.

    The residuals are sorted once; each CDF evaluation then binary-searches
    the kernel window [u - h3, u + h3] and sums the kernel over it, O(log n
    + w) for w residuals in the window in place of O(n).  The bracket, the
    step cap and the acceptance tests are those of the O(n) bisection kept
    as ``smoothed_quantile_oracle`` in tests/oracles.py.  Its F agrees with
    the oracle's to a few ulps, so every step takes the oracle's branch
    unless F lands within rounding of a or of a +- 1e-10; on the seeded
    grid in tests/test_tail.py both accept the same float.

    The bisection is replayed, not run: ``_locate`` first evaluates F
    exactly at a few points near the root, and a midpoint at or beyond a
    point whose F lies more than REPLAY_GAP = 1e-10 + REPLAY_MARGIN from a
    takes that point's branch unevaluated.  Computed F steps back as u
    rises by at most the rounding of its kernel sum plus 0.75 delta^2, for
    delta the rounding of u +- h3 in units of h3, well below REPLAY_MARGIN
    wherever ulp(|lo| + |hi|) <= 1e-6 h3; elsewhere every midpoint is
    evaluated.  Only midpoints between the two nearest such points are
    evaluated, so every step, the accepted float and every TailError are
    those of the per-step bisection kept as ``smoothed_quantile_windowed``
    in tests/oracles.py, with about 10 evaluations in place of about 34.
    """
    if not 0.0 < a < 1.0:
        raise InputError(f"quantile level must be in (0,1), got {a}")
    if h3 is None or h3 <= 0:
        raise InputError("CDF bandwidth must be positive")
    rs = np.sort(np.asarray(residuals, dtype=float), axis=None)
    lo = float(rs[0]) - 10.0 * h3
    hi = float(rs[-1]) + 10.0 * h3
    if _cdf_sorted(lo, rs, h3) > a or _cdf_sorted(hi, rs, h3) < a:
        raise TailError(f"no bracket for smoothed quantile at level {a}")
    if math.ulp(abs(lo) + abs(hi)) <= 1e-6 * h3:
        below, above = _locate(a, rs, h3, lo, hi)
    else:
        below = above = math.nan  # no midpoint compares: each is evaluated
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            val = _cdf_sorted(mid, rs, h3)
            if abs(val - a) <= QUANTILE_TOL:
                return mid
            # Later midpoints lie in [lo, hi]; one at an end repeats it.
            if val < a:
                lo = below = mid
            else:
                hi = above = mid
    if abs(_cdf_sorted(mid, rs, h3) - a) > 1e-8:
        raise TailError(f"smoothed quantile did not converge at level {a}")
    return mid


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


def _build_sample(residuals, N, h3, kind) -> TailSample:
    """The only place the threshold rule is decided: exceedances over the
    a_N = 1 - N/n quantile, the order statistic for kind "empirical", else
    the smoothed quantile at bandwidth h3."""
    n = residuals.size
    if not 0 < N < n:
        raise InputError(f"tail count N={N} must satisfy 0 < N < n={n}")
    residuals_sorted = np.sort(residuals)
    a_N = 1.0 - N / n
    if kind == "empirical":
        q_tilde = empirical_quantile(residuals_sorted, a_N)
    else:
        q_tilde = smoothed_quantile(a_N, residuals_sorted, h3)
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


def extract_tail_smoothed(residuals, N: int, h3: float) -> TailSample:
    """Exceedances over the smoothed a_N-quantile at CDF bandwidth h3."""
    return _build_sample(np.asarray(residuals, dtype=float), N, h3, "smoothed")


def extract_tail_empirical(residuals, N: int) -> TailSample:
    """Exceedances over the empirical a_N-quantile (comparator construction)."""
    return _build_sample(np.asarray(residuals, dtype=float), N, None, "empirical")


def extract_tail(fit: LocationScaleFit, N: int) -> TailSample:
    """Tail of the standardized first-stage residuals above the smoothed
    a_N-quantile, at the interquartile-range bandwidth of the conditioning
    values."""
    return extract_tail_smoothed(fit.residuals, N, rot_bandwidth_density(fit.x))


def rethreshold(sample: TailSample, N: int) -> TailSample:
    """The same residuals' tail at tail count N, under the sample's own
    threshold rule."""
    return _build_sample(sample.residuals_sorted, N, sample.h3, sample.threshold_kind)
