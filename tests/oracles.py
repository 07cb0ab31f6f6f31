"""Independent oracle implementations shared by the unit and acceptance
suites.  Everything here is written against the closed forms directly,
without reusing the package's own composition paths."""

import math

import numpy as np

from evtrisk.risk import asymptotic_ci, es_bias_term, es_eps, q_eps, q_eps_bc


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


def h_inv_numeric(k):
    h = (1.0 / ((1.0 - 2.0 * k) * (1.0 - k))) * np.array([[1.0 - k, -1.0], [-1.0, 2.0]])
    return np.linalg.inv(h)


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


def assembly_oracle(tail, a, m, h, bias_correction=True):
    """Second transcription of the conditional CVaR/CES assembly at location
    m and variance h: the innovation estimators are recombined by hand, with
    ratio-form 95% intervals at the corrected shape."""
    scale = math.sqrt(h)
    out = {
        "cvar": m + scale * q_eps(a, tail),
        "ces": m + scale * es_eps(a, tail),
    }
    if not bias_correction:
        return out
    q_b, _, z_hat = q_eps_bc(a, tail)
    e_b = q_b / (1.0 + tail.params_bc.k)
    out["cvar_bc"] = m + scale * q_b
    out["ces_bc"] = m + scale * (e_b + es_bias_term(tail, q_b, z_hat))
    out["es_eps_bc"] = e_b
    k_ci = tail.params_bc.k
    out["ci_cvar"] = asymptotic_ci(
        out["cvar_bc"], "cvar", k_ci, tail.rho_hat, z_hat, tail.sample.N
    )
    out["ci_ces"] = asymptotic_ci(
        out["ces_bc"], "ces", k_ci, tail.rho_hat, z_hat, tail.sample.N
    )
    return out
