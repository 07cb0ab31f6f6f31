"""Bridge between the stages: smoothed residual CDF, threshold quantile,
exceedance extraction, and the tail-count schedule N(n)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, TailError
from .smoothing import LocationScaleFit, _epan_integrated, rot_bandwidth_density

QUANTILE_TOL = 1e-10


def choose_N(n: int, c: float = 0.7) -> int:
    """Tail count schedule round(c * n^0.79), clamped to [10, n/2]."""
    if n < 100:
        raise InputError(f"sample too small for the tail schedule: n={n}")
    raw = int(math.floor(c * n**0.79 + 0.5))
    return min(max(raw, 10), n // 2)


def smoothed_cdf(u, residuals, h3: float):
    """Kernel-smoothed empirical CDF of the residuals evaluated at u."""
    if h3 <= 0:
        raise InputError("CDF bandwidth must be positive")
    residuals = np.asarray(residuals, dtype=float)
    if np.isscalar(u):
        return float(np.mean(_epan_integrated((u - residuals) / h3)))
    u = np.asarray(u, dtype=float)
    return np.mean(_epan_integrated((u[..., None] - residuals) / h3), axis=-1)


def smoothed_quantile(a: float, residuals, h3: float) -> float:
    """Invert the smoothed CDF by bisection to |F(q) - a| <= 1e-10."""
    if not 0.0 < a < 1.0:
        raise InputError(f"quantile level must be in (0,1), got {a}")
    residuals = np.asarray(residuals, dtype=float)
    lo = float(residuals.min()) - 10.0 * h3
    hi = float(residuals.max()) + 10.0 * h3
    if smoothed_cdf(lo, residuals, h3) > a or smoothed_cdf(hi, residuals, h3) < a:
        raise TailError(f"no bracket for smoothed quantile at level {a}")
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = smoothed_cdf(mid, residuals, h3)
        if abs(val - a) <= QUANTILE_TOL:
            return mid
        if val < a:
            lo = mid
        else:
            hi = mid
    if abs(smoothed_cdf(mid, residuals, h3) - a) > 1e-8:
        raise TailError(f"smoothed quantile did not converge at level {a}")
    return mid


@dataclass
class TailSample:
    """Residual tail above a threshold quantile, ready for GPD fitting.

    threshold_kind records how the threshold was obtained ("smoothed" kernel
    CDF inversion, or "empirical" order statistic); h3 is the CDF bandwidth
    where applicable.
    """

    residuals_sorted: np.ndarray
    n: int
    N: int
    a_N: float
    q_tilde: float
    N_s: int
    exceedances: np.ndarray
    h3: float | None = None
    threshold_kind: str = "smoothed"


def _build_sample(residuals_sorted, N, q_tilde, h3, kind) -> TailSample:
    n = residuals_sorted.size
    above = residuals_sorted[residuals_sorted > q_tilde]
    if above.size == 0:
        raise TailError("no exceedances above smoothed threshold")
    return TailSample(
        residuals_sorted=residuals_sorted,
        n=n,
        N=N,
        a_N=1.0 - N / n,
        q_tilde=float(q_tilde),
        N_s=int(above.size),
        exceedances=above - q_tilde,
        h3=h3,
        threshold_kind=kind,
    )


def extract_tail_smoothed(residuals, N: int, h3: float) -> TailSample:
    residuals = np.asarray(residuals, dtype=float)
    n = residuals.size
    if not 0 < N < n:
        raise InputError(f"tail count N={N} must satisfy 0 < N < n={n}")
    q_tilde = smoothed_quantile(1.0 - N / n, residuals, h3)
    return _build_sample(np.sort(residuals), N, q_tilde, h3, "smoothed")


def empirical_quantile(values_sorted, a: float) -> float:
    """Order-statistic quantile: x_(na) if na is an integer, else x_([na]+1)."""
    n = values_sorted.size
    na = n * a
    idx = int(round(na)) if abs(na - round(na)) < 1e-9 else int(math.floor(na)) + 1
    idx = min(max(idx, 1), n)
    return float(values_sorted[idx - 1])


def extract_tail_empirical(residuals, N: int) -> TailSample:
    """Exceedances over the empirical a_N-quantile (comparator construction)."""
    residuals = np.asarray(residuals, dtype=float)
    n = residuals.size
    if not 0 < N < n:
        raise InputError(f"tail count N={N} must satisfy 0 < N < n={n}")
    srt = np.sort(residuals)
    q = empirical_quantile(srt, 1.0 - N / n)
    return _build_sample(srt, N, q, None, "empirical")


def extract_tail(fit: LocationScaleFit, N: int, h3: float | None = None) -> TailSample:
    """Tail of the standardized first-stage residuals above the smoothed
    a_N-quantile; h3 defaults to the interquartile-range rule on the
    conditioning values."""
    if h3 is None:
        h3 = rot_bandwidth_density(fit.x)
    return extract_tail_smoothed(fit.residuals, N, h3)
