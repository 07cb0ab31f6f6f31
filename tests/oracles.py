"""Independent oracle implementations shared by the unit and acceptance
suites, written against the closed forms or as the slow paths that faster
code replaced.

Most oracles use nothing of the package but its error types, its series
containers and the constants, parameter type and pole check of
evtrisk.gpd.  Six build on package pieces that tests check on their own,
so that each compares one replaced step and not its inputs:
- ``load_prices_oracle`` parses dates with ``ingest._parse_date``
  (checked against ``parse_date_oracle``); it reads rows, as
  ``load_returns_oracle`` does, with ``_read_rows`` (checked against
  ``read_rows_oracle``);
- ``assembly_oracle`` recombines ``risk.q_eps``, ``risk.q_eps_bc`` and
  ``risk.es_bias_term`` (checked against fixtures, ``q_bc_oracle`` and
  ``b_e_oracle``) with its own interval algebra;
- ``rho_oracle`` takes its empirical thresholds from
  ``tail.empirical_quantile``;
- ``smoothed_quantile_windowed`` evaluates F with ``tail._cdf_sorted``
  (checked against ``smoothed_cdf_oracle``);
- ``gpd_mle_newton_oracle`` starts from ``gpd.moment_stats`` and steps by
  its own ``_ascent_direction`` over ``loglik_grad_hess_oracle``;
- ``simulate_oracle`` draws with ``mc._rng``, ``mc._t_quantile`` (checked
  against ``scipy.special.stdtrit``) and ``mc._t_std_factor``.

``smoothed_sample`` is a fixture builder, not an oracle: the package's
threshold rule (``tail._build_sample``) applied to given residuals at a
given bandwidth.
"""

import csv
import math
import warnings
from datetime import datetime
from fractions import Fraction

import numpy as np
from scipy import stats

from evtrisk import mc
from evtrisk.errors import (
    ConvergenceError,
    DegenerateFitError,
    EstimationWarning,
    InputError,
    PoleError,
    TailError,
)
from evtrisk.gpd import (
    K_DOMAIN,
    K_EXP_LIMIT,
    MLE_GRAD_TOL,
    MLE_MAX_ITER,
    GpdParams,
    _check_pole,
    moment_stats,
)
from evtrisk.ingest import PriceSeries, ReturnSeries, _parse_date
from evtrisk.risk import es_bias_term, q_eps, q_eps_bc
from evtrisk.tail import QUANTILE_TOL, _build_sample, _cdf_sorted, empirical_quantile


def gpd_loglik_grid(z, sigma_grid, k_grid):
    """Exhaustive log-likelihood evaluation over a (sigma, k) grid."""
    z = np.asarray(z, dtype=float)
    best = (-np.inf, None, None)
    for k in k_grid:
        arg = 1.0 - k * z[None, :] / sigma_grid[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            if abs(k) < 1e-12:
                ll = -np.log(sigma_grid)[:, None] - z[None, :] / sigma_grid[:, None]
            else:
                ll = -np.log(sigma_grid)[:, None] + (1.0 / k - 1.0) * np.log(arg)
        ll = np.where(arg > 0, ll, -np.inf).sum(axis=1)
        i = int(np.argmax(ll))
        if ll[i] > best[0]:
            best = (float(ll[i]), float(sigma_grid[i]), float(k))
    return best


def gpd_mle_grid_oracle(z, step=1e-3, refine_step=1e-4):
    """Grid search over sigma in [0.1, 5] x k in [-0.9, 0.5], then local
    refinement around the best cell."""
    sigma_grid = np.arange(0.1, 5.0 + step / 2, step)
    k_grid = np.arange(-0.9, 0.5 + step / 2, step)
    _, s_best, k_best = gpd_loglik_grid(z, sigma_grid, k_grid)
    s_ref = np.arange(s_best - 2 * step, s_best + 2 * step, refine_step)
    k_ref = np.arange(k_best - 2 * step, k_best + 2 * step, refine_step)
    _, s_best, k_best = gpd_loglik_grid(z, s_ref[s_ref > 0], k_ref)
    return s_best, k_best


def loglik_grad_hess_oracle(z, log_sigma, k):
    """The masked log likelihood, gradient and Hessian in (log sigma, k) that
    `gpd._loglik_grad_hess` replaced: the series and the general forms each
    evaluated on their own boolean subset of the exceedances."""
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


# GPD density, CDF and limit matrices.  No estimator path evaluates them;
# they are the reference forms that gpd_quantile, gpd_mle and H_inv are
# checked against.


def gpd_logpdf(z, params):
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


def gpd_cdf(z, params):
    z = np.asarray(z, dtype=float)
    sigma, k = params.sigma, params.k
    if abs(k) < K_EXP_LIMIT:
        return np.clip(1.0 - np.exp(-z / sigma), 0.0, 1.0)
    arg = np.maximum(1.0 - k * z / sigma, 0.0)
    return np.where(z <= 0, 0.0, 1.0 - arg ** (1.0 / k))


def H_matrix(k):
    """Expected GPD information matrix scaled as in the limit theory."""
    if k >= 0.5:
        raise PoleError("H(k) requires k < 1/2")
    _check_pole(k, "k")
    return (1.0 / ((1.0 - 2.0 * k) * (1.0 - k))) * np.array(
        [[1.0 - k, -1.0], [-1.0, 2.0]]
    )


def V2_matrix(k):
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


def h_inv_numeric(k):
    return np.linalg.inv(H_matrix(k))


def bias_correct_oracle(sigma, k_mle, k_corr, k_mom, m_n, rho):
    """Second transcription of the corrected-parameter display, assembled
    through the numeric inverse of the information matrix."""
    d = 2.0 * k_corr**4 * rho / (1.0 + rho * k_corr) ** 2
    dev = m_n - 2.0 * k_mom**2
    factor = dev / ((1.0 - 1.0 / k_corr - rho) * d)
    vec = np.array([1.0, (1.0 / k_corr) / (-1.0 / k_corr - rho)])
    hw = h_inv_numeric(k_corr) @ vec
    k_b = k_mle - factor * float(np.array([0.0, 1.0]) @ hw)
    sigma_b = sigma * (1.0 - factor * float(np.array([1.0, 0.0]) @ hw))
    return sigma_b, k_b


def q_bc_oracle(q_tilde, sigma_b, k_b, rho, d, z_hat, dev, n, N, a):
    """Second transcription of the corrected tail quantile."""
    b_q = (z_hat**rho - 1.0) / (rho * d) * dev
    big_ratio = N / (n * (1.0 - a))
    return (
        q_tilde
        * (
            1.0
            + sigma_b
            / (k_b * q_tilde)
            * (1.0 - big_ratio ** (-k_b) * (1.0 + b_q) ** (-k_b))
        ),
        b_q,
    )


def b_e_oracle(q_b, z_hat, dev, d, k, rho):
    return q_b * z_hat**rho * dev / (d * (1.0 + 1.0 / k + rho) * (1.0 + 1.0 / k))


def _cb_oracle(k, z):
    return np.array(
        [
            -(1.0 / k) * (1.0 / z - 1.0),
            k**-2 * np.log(z) + k**-2 * (1.0 / z - 1.0),
        ]
    )


def _vb_oracle(k):
    om = 1.0 - k
    r12 = -1.0 / (om * (1.0 - 2.0 * k))
    r14 = (4.0 * k**2 - 2.0 * k**3) / om**2
    r24 = (4.0 * k**3 - 6.0 * k**2) / om**2
    return np.array(
        [
            [1.0 / (1.0 - 2.0 * k), r12, 0, r14, -k / om],
            [r12, 2.0 / (om * (1.0 - 2.0 * k)), 0, r24, k / om],
            [0, 0, k**2, 0, 0],
            [r14, r24, 0, 20.0 * k**4, -4.0 * k**3],
            [-k / om, k / om, 0, -4.0 * k**3, k**2],
        ]
    )


def _a_oracle(k, rho):
    om = 1.0 - k
    pk = 1.0 + rho * k
    den = k**3 * rho * ((1.0 - rho) * k - 1.0)
    row1 = [
        1.0,
        0.0,
        om / (k * (1.0 - 2.0 * k)) + (1.0 + 2.0 * k) * pk**2 / den,
        -(pk**2) / (2.0 * den),
        -2.0 * pk**2 / (k**2 * rho * ((1.0 - rho) * k - 1.0)),
    ]
    row2 = [
        0.0,
        1.0,
        -1.0 / (om * (1.0 - 2.0 * k)) - (1.0 + 2.0 * k) * pk / den,
        pk / (2.0 * den),
        2.0 * pk / (k**2 * rho * ((1.0 - rho) * k - 1.0)),
    ]
    return np.array([row1, row2])


def sigma1_oracle(k, z):
    cb = _cb_oracle(k, z)
    hi = h_inv_numeric(k)
    b = np.array([(1.0 - k) / (k * (1.0 - 2.0 * k)), -1.0 / ((1.0 - k) * (1.0 - 2.0 * k))])
    cbh_b = float(cb @ hi @ b)
    return k**2 * (
        float(cb @ hi @ cb) + k**2 * cbh_b**2 + 2.0 * k * cbh_b / z + z**-2
    )


def cq_oracle(k, rho, z):
    pk = 1.0 + rho * k
    zr = z**rho - 1.0
    v = np.array(
        [
            0.0,
            0.0,
            1.0 / z + zr * (1.0 + 2.0 * k) * pk**2 / (k**3 * rho**2),
            -zr * pk**2 / (2.0 * k**3 * rho**2),
            -2.0 * zr * pk**2 / (k**2 * rho**2),
        ]
    )
    return k * (_cb_oracle(k, z) @ h_inv_numeric(k) @ _a_oracle(k, rho)) + v


def sigma1_b_oracle(k, rho, z):
    cq = cq_oracle(k, rho, z)
    return float(cq @ _vb_oracle(k) @ cq)


def sigma2_oracle(k, z):
    hi = h_inv_numeric(k)
    cb = _cb_oracle(k, z)
    b = np.array([(1.0 - k) / (k * (1.0 - 2.0 * k)), -1.0 / ((1.0 - k) * (1.0 - 2.0 * k))])
    eta = np.concatenate([cb @ hi, [float(cb @ hi @ b) + 1.0 / (k * z)]])
    theta = np.concatenate([hi[1], [float(hi[1] @ b)]])
    off = -1.0 / ((k - 1.0) * (2.0 * k - 1.0))
    v1 = np.array(
        [
            [1.0 / (1.0 - 2.0 * k), off, 0.0],
            [off, 2.0 / ((k - 1.0) * (2.0 * k - 1.0)), 0.0],
            [0.0, 0.0, k**2],
        ]
    )
    vec = k * eta - theta / (1.0 + k)
    return float(vec @ v1 @ vec)


def sigma2_b_oracle(k, rho, z):
    row = cq_oracle(k, rho, z) - (h_inv_numeric(k)[1] @ _a_oracle(k, rho)) / (1.0 + k)
    return float(row @ _vb_oracle(k) @ row)


def sigma3_b_oracle(k, rho, z):
    d = 2.0 * k**4 * rho / (1.0 + rho * k) ** 2
    den = d * (rho + 1.0 / k + 1.0)
    ups = np.array(
        [
            0.0,
            0.0,
            z**rho * k * (-2.0 - 4.0 * k) / den,
            k * z**rho / den,
            4.0 * k**2 * z**rho / den,
        ]
    )
    row = (
        cq_oracle(k, rho, z)
        - (h_inv_numeric(k)[1] @ _a_oracle(k, rho)) / (1.0 + k)
        + ups
    )
    return float(row @ _vb_oracle(k) @ row)


def crossover_oracle(k, rho, z):
    cb = _cb_oracle(k, z)
    hi = h_inv_numeric(k)
    inv_k = 1.0 / k
    mu1 = (-inv_k - rho) * (z**rho - 1.0) / rho + float(
        cb @ hi @ np.array([-inv_k - rho, inv_k])
    ) / (1.0 - inv_k - rho)
    c1 = np.sqrt(sigma1_b_oracle(k, rho, z) - sigma1_oracle(k, z)) / (-k * abs(mu1))
    adj = cb - np.array([0.0, 1.0 / (k * (1.0 + k))])
    mu2 = (
        (-inv_k - rho) * (z**rho - 1.0) / rho
        + float(
            adj
            @ hi
            @ np.array(
                [(-inv_k - rho) / (1.0 - inv_k - rho), inv_k / (1.0 - inv_k - rho)]
            )
        )
        + (inv_k + rho) / (1.0 + inv_k + rho) * z**rho
    )
    c2 = np.sqrt(sigma3_b_oracle(k, rho, z) - sigma2_oracle(k, z)) / (-k * abs(mu2))
    return c1, c2


def assembly_oracle(tail, a, m, h):
    """Second transcription of the conditional CVaR/CES assembly at location
    m and variance h: the innovation estimators are recombined by hand, with
    ratio-form 95% intervals at the corrected shape when the tail fit
    carries corrected parameters."""
    scale = math.sqrt(h)
    out = {
        "cvar": m + scale * q_eps(a, tail),
        "ces": m + scale * q_eps(a, tail) / (1.0 + tail.params.k),
    }
    if tail.params_bc is None:
        return out
    q_b, _, z_hat = q_eps_bc(a, tail)
    e_b = q_b / (1.0 + tail.params_bc.k)
    out["cvar_bc"] = m + scale * q_b
    out["ces_bc"] = m + scale * (e_b + es_bias_term(tail, q_b, z_hat))
    out["es_eps_bc"] = e_b
    k_ci, rho, n_tail = tail.params_bc.k, tail.rho_hat, tail.sample.N
    z95 = stats.norm.ppf(0.975)
    for key, est, variance in (
        ("ci_cvar", out["cvar_bc"], sigma1_b_oracle(k_ci, rho, z_hat)),
        ("ci_ces", out["ces_bc"], sigma3_b_oracle(k_ci, rho, z_hat)),
    ):
        spread = z95 * math.sqrt(variance / n_tail)
        hi = est / (1.0 - spread) if spread < 1.0 else math.inf
        out[key] = tuple(sorted((est / (1.0 + spread), hi)))
    return out


def epan_integrated(u):
    """Antiderivative of the Epanechnikov weight, rising from 0 at -1 to 1 at 1."""
    u = np.asarray(u, dtype=float)
    clipped = np.clip(u, -1.0, 1.0)
    return 0.75 * (clipped - clipped**3 / 3.0) + 0.5


def smoothed_cdf_oracle(u, residuals, h3):
    """The O(n) smoothed CDF that `tail.smoothed_cdf` replaced: the clipped
    integrated kernel averaged over every residual in the order given."""
    if h3 <= 0:
        raise InputError("CDF bandwidth must be positive")
    residuals = np.asarray(residuals, dtype=float)
    return float(np.mean(epan_integrated((float(u) - residuals) / h3)))


def smoothed_quantile_oracle(a, residuals, h3):
    """The bisection that `tail.smoothed_quantile` replaced, over
    `smoothed_cdf_oracle`, one O(n) pass per step, to |F(q) - a| <= 1e-10."""
    if not 0.0 < a < 1.0:
        raise InputError(f"quantile level must be in (0,1), got {a}")
    if h3 is None or h3 <= 0:
        raise InputError("CDF bandwidth must be positive")
    residuals = np.asarray(residuals, dtype=float)
    lo = float(residuals.min()) - 10.0 * h3
    hi = float(residuals.max()) + 10.0 * h3
    if smoothed_cdf_oracle(lo, residuals, h3) > a or smoothed_cdf_oracle(hi, residuals, h3) < a:
        raise TailError(f"no bracket for smoothed quantile at level {a}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = smoothed_cdf_oracle(mid, residuals, h3)
        if abs(val - a) <= 1e-10:
            return mid
        if val < a:
            lo = mid
        else:
            hi = mid
    if abs(smoothed_cdf_oracle(mid, residuals, h3) - a) > 1e-8:
        raise TailError(f"smoothed quantile did not converge at level {a}")
    return mid


def _moment_stats_at_count_oracle(residuals_sorted, count, n, h3, threshold_kind):
    a_level = 1.0 - count / n
    if threshold_kind == "empirical":
        q = empirical_quantile(residuals_sorted, a_level)
    else:
        q = smoothed_quantile_oracle(a_level, residuals_sorted, h3)
    if q <= 0:
        raise ValueError(f"threshold at enlarged tail count {count} is nonpositive")
    above = residuals_sorted[residuals_sorted > q]
    if above.size == 0:
        raise ValueError(f"no exceedances at enlarged tail count {count}")
    logs = np.log(above / q)
    return float(-logs.mean()), float(np.mean(logs * logs))


def rho_oracle(residuals, N, c, h3, threshold_kind):
    """Second transcription of the second-order estimate: each enlarged tail
    count thresholds the raw residuals directly, with the log moments
    written out again; fallback -2, clamp to [-20, -0.05]."""
    srt = np.sort(np.asarray(residuals, dtype=float))
    n = srt.size
    stats = [
        _moment_stats_at_count_oracle(
            srt, max(int(math.floor(cc * N * math.log(n) + 0.5)), 10), n, h3,
            threshold_kind,
        )
        for cc in (c, c / 2.0)
    ]
    (k_c, m_c), (k_h, m_h) = stats
    num = m_h - 2.0 * k_h * k_h
    den = m_c - 2.0 * k_c * k_c
    if den == 0.0 or num / den <= 0.0 or k_c == 0.0:
        return -2.0
    raw = -math.log(num / den) / (k_c * math.log(2.0))
    return min(max(raw, -20.0), -0.05)


def epan_weight(u):
    """Epanechnikov weight 0.75 (1 - u^2) on |u| <= 1, zero outside."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _nn_bandwidth(q, x, h):
    """Smallest bandwidth above h whose window holds 3 points, 2 distinct, by
    sorting all n distances |x - q|: the reference for the sorted-design
    search that replaced it.  Named as in evtrisk.smoothing, so a test can
    patch either module by the same name."""
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


def local_linear_dense(queries, x, y, h, strict=True, chunk=512):
    """The dense local-linear fit the windowed power-sum path replaced: the
    kernel evaluated at all n points for every query, in chunks of queries,
    with the same degeneracy test and nearest-neighbor fallback.  The weight
    0.75 (1 - ((x - q)/h)^2) counts on the window fl(q - h) < x < fl(q + h)
    that evtrisk.smoothing uses, and the 3-point test counts the points in
    that window.  The moments are taken about the window's mean, as
    ``smoothing._ll_point`` takes them: about q, a far-extrapolated widened
    query loses digits to cancellation."""
    queries = np.atleast_1d(np.asarray(queries, dtype=float))
    levels = np.empty(queries.size)
    slopes = np.empty(queries.size)
    window = min(h, float(np.ptp(x)))  # effective covariate spread scale
    for start in range(0, queries.size, chunk):
        q = queries[start : start + chunk]
        xc = x[None, :] - q[:, None]
        inside = (x > (q - h)[:, None]) & (x < (q + h)[:, None])
        w = np.where(inside, 0.75 * (1.0 - (xc / h) ** 2), 0.0)
        count = np.count_nonzero(inside, axis=1)
        with np.errstate(invalid="ignore"):  # an empty window has no mean
            c = np.where(inside, x, 0.0).sum(axis=1) / count
        d = x[None, :] - c[:, None]
        s0 = w.sum(axis=1)
        s1 = (w * d).sum(axis=1)
        s2 = (w * d * d).sum(axis=1)
        t0 = (w * y).sum(axis=1)
        t1 = (w * d * y).sum(axis=1)
        det = s0 * s2 - s1 * s1
        with np.errstate(invalid="ignore", divide="ignore"):
            safe = np.maximum(s0, 1e-300)
            wvar = np.where(s0 > 0, s2 / safe - (s1 / safe) ** 2, 0.0)
        bad = (count < 3) | (wvar <= 1e-13 * window * window)
        if np.any(bad):
            if strict:
                q_bad = q[np.argmax(bad)]
                raise DegenerateFitError(
                    f"degenerate local-linear fit at query x={q_bad:.6g} (bandwidth h={h:.6g})"
                )
            for j in np.flatnonzero(bad):
                hq = _nn_bandwidth(q[j], x, h)
                lv, sl = local_linear_dense(q[j], x, y, hq, strict=True)
                idx = start + j
                levels[idx], slopes[idx] = lv[0], sl[0]
        good = ~bad
        sl_idx = np.arange(start, start + q.size)[good]
        slopes[sl_idx] = (s0[good] * t1[good] - s1[good] * t0[good]) / det[good]
        levels[sl_idx] = ((s2[good] * t0[good] - s1[good] * t1[good]) / det[good]
                          + slopes[sl_idx] * (q[good] - c[good]))
    return levels, slopes


def local_linear_exact(q, x, y, h):
    """Local-linear (level, slope) at one query in exact rational arithmetic
    on the float inputs: the reference for badly conditioned extrapolations."""
    q, h = Fraction(float(q)), Fraction(float(h))
    s = [Fraction(0)] * 3
    t = [Fraction(0)] * 2
    for xi, yi in zip(x.tolist(), y.tolist()):
        e = Fraction(xi) - q
        if abs(e) < h:
            w = Fraction(3, 4) * (1 - (e / h) ** 2)
            for k in range(3):
                s[k] += w * e**k
            for k in range(2):
                t[k] += w * e**k * Fraction(yi)
    det = s[0] * s[2] - s[1] ** 2
    return float((s[2] * t[0] - s[1] * t[1]) / det), float((s[0] * t[1] - s[1] * t[0]) / det)


def variance_fn(y, variant):
    """The simulation design's variance functions h1 and h2, vectorized."""
    y = np.asarray(y, dtype=float)
    if variant == "h1":
        return 1.0 + 0.01 * y * y + 0.5 * np.sin(y)
    return 1.0 - 0.9 * np.exp(-2.0 * y * y)


def mean_recursion(y_prev, h, eps):
    """The design's observation equation y_t = sin(y_{t-1}/2) + sqrt(h_t) eps_t."""
    return np.sin(0.5 * np.asarray(y_prev)) + np.sqrt(h) * eps


def weibull_loglik(a_par, b, d, cens):
    """Censored Weibull log likelihood of durations d at scale a_par and shape
    b: censored durations contribute the survival term only."""
    if a_par <= 0 or b <= 0:
        return -math.inf
    u = a_par**b
    full = ~cens
    ll = -u * float(np.sum(d**b))
    ll += full.sum() * math.log(b) + (b - 1.0) * float(np.sum(np.log(d[full])))
    ll += full.sum() * b * math.log(a_par)
    return ll


def parse_date_oracle(text, row):
    """The strptime-first date parser that `ingest._parse_date` replaced."""
    for fmt in ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y"):
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise InputError(f"row {row}: cannot parse date {text!r}") from None


def read_rows_oracle(path, columns):
    """The csv.DictReader reading that `_read_rows` replaced:
    (data_row_number, {col: text}) for the requested columns."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"{path}: cannot open ({exc.strerror})") from None
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise InputError(f"{path}: empty file (header row required)")
        for col in columns:
            if col not in header:
                raise InputError(f"{path}: missing column {col!r} (header: {header})")
        for i, record in enumerate(reader, start=1):
            yield i, {col: (record.get(col) or "").strip() for col in columns}


def _read_rows(path, columns):
    """Yield (data_row_number, [text of each requested column]).

    Reads as `csv.DictReader` would: blank lines are skipped and not
    counted, a short row reads as blank, and a repeated header name means
    its last column.  A UTF-8 byte-order mark is dropped.  Text that is not
    UTF-8, and a quote left open or followed by more text in its field,
    raise `InputError`; a lenient reader would run an open quote on to the
    end of the file.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"{path}: cannot open ({exc.strerror})") from None
    with fh:
        reader = csv.reader(fh, strict=True)
        done = 0
        try:
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file (header row required)")
            index = {name: i for i, name in enumerate(header)}
            for col in columns:
                if col not in index:
                    raise InputError(f"{path}: missing column {col!r} (header: {header})")
            picks = [index[col] for col in columns]
            row = 0
            done = reader.line_num
            for fields in reader:
                done = reader.line_num
                if not fields:
                    continue
                row += 1
                yield row, [fields[i].strip() if i < len(fields) else "" for i in picks]
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise InputError(
                f"{path}: malformed CSV record from line {done + 1} ({exc}); check its quotes"
            ) from None


def load_prices_oracle(path, date_col="date", price_col="price"):
    """Load prices row by row, raising at the first fault in file order."""
    timestamps = []
    prices = []
    previous = None
    for row, (date_text, raw_price) in _read_rows(path, (date_col, price_col)):
        if not raw_price:
            raise InputError(f"row {row}: blank price")
        try:
            price = float(raw_price)
        except ValueError:
            raise InputError(f"row {row}: unparseable price {raw_price!r}") from None
        if not math.isfinite(price):
            raise InputError(f"row {row}: non-finite price {price!r}")
        if price <= 0:
            raise InputError(f"row {row}: non-positive price {price!r}")
        stamp = _parse_date(date_text, row)
        if previous is not None:
            if (stamp.tzinfo is None) != (previous.tzinfo is None):
                raise InputError(f"row {row}: dates with and without a UTC offset are mixed")
            if stamp <= previous:
                raise InputError(f"row {row}: timestamps not increasing")
        previous = stamp
        timestamps.append(date_text)
        prices.append(price)
    if len(prices) < 2:
        raise InputError(f"{path}: need at least 2 price rows, got {len(prices)}")
    return PriceSeries(tuple(timestamps), np.array(prices))


def load_returns_oracle(path, value_col="return"):
    """Load returns row by row, raising at the first fault in file order."""
    values = []
    for row, (raw,) in _read_rows(path, (value_col,)):
        if not raw:
            raise InputError(f"row {row}: blank value")
        try:
            value = float(raw)
        except ValueError:
            raise InputError(f"row {row}: unparseable value {raw!r}") from None
        if not math.isfinite(value):
            raise InputError(f"row {row}: non-finite value")
        values.append(value)
    if not values:
        raise InputError(f"{path}: no data rows")
    return ReturnSeries(np.array(values), kind="raw")


def smoothed_sample(residuals, N, h3):
    """Exceedances over the smoothed a_N-quantile of the residuals, in any
    order, at a given CDF bandwidth h3: the tail sample the package builds
    from a fit's residuals, without the fit."""
    return _build_sample(np.sort(np.asarray(residuals, dtype=float)), N, h3, "smoothed")


def smoothed_quantile_windowed(a, residuals, h3):
    """The bisection that `tail.smoothed_quantile` replaced, with one
    windowed `_cdf_sorted` evaluation at every midpoint."""
    if not 0.0 < a < 1.0:
        raise InputError(f"quantile level must be in (0,1), got {a}")
    if h3 is None or h3 <= 0:
        raise InputError("CDF bandwidth must be positive")
    rs = np.sort(np.asarray(residuals, dtype=float), axis=None)
    lo = float(rs[0]) - 10.0 * h3
    hi = float(rs[-1]) + 10.0 * h3
    if _cdf_sorted(lo, rs, h3) > a or _cdf_sorted(hi, rs, h3) < a:
        raise TailError(f"no bracket for smoothed quantile at level {a}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = _cdf_sorted(mid, rs, h3)
        if abs(val - a) <= QUANTILE_TOL:
            return mid
        if val < a:
            lo = mid
        else:
            hi = mid
    if abs(_cdf_sorted(mid, rs, h3) - a) > 1e-8:
        raise TailError(f"smoothed quantile did not converge at level {a}")
    return mid


def _ascent_direction(grad, hess):
    """Newton direction, damped until the Hessian is negative definite."""
    try:
        eig = np.linalg.eigvalsh(hess)
        lam_max = float(eig.max())
        if lam_max > -1e-10:
            shift = lam_max + max(1e-6, 0.1 * abs(lam_max))
            hess = hess - shift * np.eye(2)
        return np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"GPD Newton step failed: {exc}") from exc


def gpd_mle_newton_oracle(tail):
    """The damped Newton search in (log sigma, k) that the profile solver of
    `gpd.gpd_mle` replaced, over `loglik_grad_hess_oracle`: all three
    directions built at every step, sup-norms by np.max(np.abs(.)).  At a
    shape pinned at the domain boundary it returns the best scale at that
    shape.  Returns (params, loglik)."""
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

    ll, grad, hess = loglik_grad_hess_oracle(z, theta[0], theta[1])
    if grad is None:
        raise ConvergenceError("starting point outside the GPD support")
    for _ in range(MLE_MAX_ITER):
        gnorm = np.max(np.abs(grad))
        if gnorm < MLE_GRAD_TOL:
            break
        step = _ascent_direction(grad, hess)
        scale_only = np.array([grad[0] / max(abs(hess[0, 0]), 1e-8), 0.0])
        improved = False
        for direction in (step, scale_only, grad / max(np.linalg.norm(grad), 1.0)):
            t = 1.0
            for _ in range(50):
                cand = theta + t * direction
                if abs(cand[1]) < K_DOMAIN and abs(cand[0]) < 50.0:
                    ll_new, g_new, h_new = loglik_grad_hess_oracle(z, cand[0], cand[1])
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
    if np.max(np.abs(grad)) >= MLE_GRAD_TOL:
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


def _variance_at(y, variant):
    """The variance function h1 or h2 at one float: `variance_fn`'s
    formulas, with math.sin, which gives np.sin's values, and np.exp,
    because math.exp differs from it in the last bit for about 5% of
    arguments."""
    if variant == "h1":
        return 1.0 + 0.01 * y * y + 0.5 * math.sin(y)
    return 1.0 - 0.9 * float(np.exp(-2.0 * y * y))


def simulate_oracle(design, rep=0):
    """The loop `mc._simulate` replaced: one `_variance_at` call and one
    floor test per step, and once more for the variance one step past the
    path.  Returns (y, eps, h, h_next) of the kept window."""
    u = mc._rng(design.seed, rep).random(mc.BURN_IN + design.n)
    eps = mc._t_quantile(design.v, u) / mc._t_std_factor(design.v)
    y, h = [], []
    y_prev, h_prev = 0.0, 0.0
    for e in eps.tolist():
        h_t = _variance_at(y_prev, design.variant) + design.theta * h_prev
        if design.variant == "h2":
            h_t = max(h_t, mc.H2_FLOOR)
        y_prev, h_prev = math.sin(0.5 * y_prev) + math.sqrt(h_t) * e, h_t
        y.append(y_prev)
        h.append(h_t)
    h_next = _variance_at(y_prev, design.variant) + design.theta * h_prev
    if design.variant == "h2":
        h_next = max(h_next, mc.H2_FLOOR)
    return (np.array(y[mc.BURN_IN:]), eps[mc.BURN_IN:], np.array(h[mc.BURN_IN:]), h_next)
