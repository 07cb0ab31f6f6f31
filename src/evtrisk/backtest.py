"""Rolling out-of-sample forecasting and validation tests: violation
coverage, duration-based independence and conditional-coverage tests, and a
one-sided bootstrap test on expected-shortfall residuals."""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import EstimationWarning, EvtriskError, InputError
from .gpd import fit_tail
from .ingest import ReturnSeries
from .risk import assemble
from .smoothing import fit_location_scale
from .tail import choose_N, extract_tail

WEIBULL_B_RANGE = (1e-2, 10.0)


@dataclass(frozen=True)
class BacktestConfig:
    """Rolling backtest configuration."""

    m: int = 1500
    n: int = 1000
    a_levels: tuple[float, ...] = (0.95, 0.99, 0.995)
    N: int | None = None
    seed: int = 0
    B_boot: int = 9999

    def __post_init__(self):
        if self.n >= self.m:
            raise InputError("window length n must be below the total length m")
        for a in self.a_levels:
            if not 0.0 < a < 1.0:
                raise InputError(f"level {a} outside (0,1)")
        if self.n > 100:
            n_eff = self.n - 1
            a_min = 1.0 - self.tail_count(n_eff) / n_eff
            for a in self.a_levels:
                if a <= a_min:
                    raise InputError(
                        f"level {a} at or below the threshold level {a_min:.4g}"
                    )

    def tail_count(self, n_eff: int) -> int:
        # Default schedule round(n^0.79), i.e. the c=1 rule.
        return self.N if self.N is not None else choose_N(n_eff, 1.0)


@dataclass
class RollingForecasts:
    """Per-step forecasts aligned with the evaluation sample."""

    steps: np.ndarray                      # indices t; forecast targets Y_{t+1}
    cvar: dict[float, np.ndarray]
    ces: dict[float, np.ndarray]
    sqrt_h: np.ndarray
    carried: np.ndarray                    # True where a failed window reused
    n_failures: int


def _forecast_window(args):
    values, t, n, N_cfg, a_levels = args
    window = ReturnSeries(values[t - n + 1 : t + 1], kind="raw")
    try:
        fit = fit_location_scale(window, lag=1)
        n_eff = fit.residuals.size
        sample = extract_tail(fit, N_cfg if N_cfg is not None else choose_N(n_eff, 1.0))
        tail = fit_tail(sample, bias_correction=False)
        x = float(values[t])
        m_x = float(fit.m_hat(x))
        h_x = float(fit.h_hat(x))
        out = {}
        for a in a_levels:
            est = assemble(tail, a, x, m_x, h_x, bias_correction=False)
            out[a] = (est.cvar, est.ces)
        return t, out, math.sqrt(h_x), None
    except EvtriskError as exc:
        return t, None, math.nan, f"{type(exc).__name__}: {exc}"


def rolling_forecast(
    series: ReturnSeries, cfg: BacktestConfig, threads: int = 1
) -> RollingForecasts:
    """Fit the pipeline on each length-n window and forecast one step ahead.

    A failed window carries the previous step's forecast forward and is
    flagged; the flag count lets users discard tainted runs.
    """
    values = series.values
    if values.size < cfg.m:
        raise InputError(f"series has {values.size} observations, need m={cfg.m}")
    steps = np.arange(cfg.n - 1, cfg.m - 1)
    jobs = [(values, t, cfg.n, cfg.N, cfg.a_levels) for t in steps]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(_forecast_window, jobs, chunksize=8))
    else:
        raw = [_forecast_window(job) for job in jobs]
    raw.sort(key=lambda item: item[0])

    cvar = {a: np.full(steps.size, np.nan) for a in cfg.a_levels}
    ces = {a: np.full(steps.size, np.nan) for a in cfg.a_levels}
    sqrt_h = np.full(steps.size, np.nan)
    carried = np.zeros(steps.size, dtype=bool)
    failures = 0
    for i, (_, out, scale, err) in enumerate(raw):
        if err is None:
            for a in cfg.a_levels:
                cvar[a][i], ces[a][i] = out[a]
            sqrt_h[i] = scale
        else:
            failures += 1
            carried[i] = True
            if i > 0:
                for a in cfg.a_levels:
                    cvar[a][i] = cvar[a][i - 1]
                    ces[a][i] = ces[a][i - 1]
                sqrt_h[i] = sqrt_h[i - 1]
    if failures == steps.size:
        first_error = next(err for _, _, _, err in raw if err is not None)
        raise InputError(f"every window failed; first error: {first_error}")
    if failures:
        warnings.warn(
            f"{failures} of {steps.size} windows failed; forecasts carried forward",
            EstimationWarning,
        )
    return RollingForecasts(steps, cvar, ces, sqrt_h, carried, failures)


def coverage_test(violations, a: float):
    """Two-sided normal test of the violation count against (m-n)(1-a)."""
    viol = np.asarray(violations, dtype=bool)
    if viol.size == 0:
        raise InputError("empty violation sequence")
    w = int(viol.sum())
    t = viol.size
    z = (w - t * (1.0 - a)) / math.sqrt(t * (1.0 - a) * a)
    return w, float(2.0 * stats.norm.sf(abs(z)))


def _durations(viol: np.ndarray):
    """Durations between violations with first/last censoring flags."""
    positions = np.flatnonzero(viol) + 1  # 1-based step of each violation
    durations = [float(positions[0])]
    censored = [not viol[0]]
    for gap in np.diff(positions):
        durations.append(float(gap))
        censored.append(False)
    if positions[-1] < viol.size:
        durations.append(float(viol.size - positions[-1]))
        censored.append(True)
    return np.array(durations), np.array(censored, dtype=bool)


def _weibull_loglik(a_par: float, b: float, d: np.ndarray, cens: np.ndarray) -> float:
    if a_par <= 0 or b <= 0:
        return -math.inf
    u = a_par**b
    full = ~cens
    ll = -u * float(np.sum(d**b))
    ll += full.sum() * math.log(b) + (b - 1.0) * float(np.sum(np.log(d[full])))
    ll += full.sum() * b * math.log(a_par)
    return ll


def _weibull_profile_loglik(b: float, d: np.ndarray, cens: np.ndarray) -> float:
    """Shape-profiled log likelihood: the scale solves in closed form."""
    n_full = int((~cens).sum())
    sb = float(np.sum(d**b))
    if sb <= 0 or n_full == 0:
        return -math.inf
    u = n_full / sb
    full = ~cens
    return (
        n_full * math.log(b)
        + (b - 1.0) * float(np.sum(np.log(d[full])))
        + n_full * math.log(u)
        - n_full
    )


def _weibull_profile_score(b: float, d: np.ndarray, cens: np.ndarray) -> float:
    """Derivative of the profiled log likelihood in the shape b.

    n_f/b + sum_full log d - n_f sum d^b log d / sum d^b, where the d^b sums
    run over the censored durations too.
    """
    full = ~cens
    n_full = int(full.sum())
    log_d = np.log(d)
    db = d**b
    ratio = float(np.sum(db * log_d)) / float(np.sum(db))
    return n_full / b + float(np.sum(log_d[full])) - n_full * ratio


def _maximize_weibull(d: np.ndarray, cens: np.ndarray):
    """Safeguarded 1-D Newton on the profiled shape, bisection fallback."""
    lo, hi = WEIBULL_B_RANGE
    g_lo = _weibull_profile_score(lo, d, cens)
    g_hi = _weibull_profile_score(hi, d, cens)
    if g_lo <= 0:
        b_star = lo
    elif g_hi >= 0:
        b_star = hi
    else:
        a_, b_ = lo, hi
        b_star = 0.5 * (a_ + b_)
        for _ in range(100):
            b_star = 0.5 * (a_ + b_)
            g = _weibull_profile_score(b_star, d, cens)
            if abs(g) < 1e-10 or (b_ - a_) < 1e-12:
                break
            if g > 0:
                a_ = b_star
            else:
                b_ = b_star
    ll = _weibull_profile_loglik(b_star, d, cens)
    n_full = int((~cens).sum())
    a_star = (n_full / float(np.sum(d**b_star))) ** (1.0 / b_star)
    return a_star, b_star, ll


def duration_tests(violations, a: float):
    """Duration-based LR tests (p_ind, p_cc) against a Weibull alternative.

    Null for independence: exponential durations with a free rate; null for
    conditional coverage: exponential durations with rate 1 - a (mean gap
    1/(1-a)).  First and last durations are censored.  Returns (None, None)
    when fewer than two violations make the likelihood unusable.
    """
    viol = np.asarray(violations, dtype=bool)
    if int(viol.sum()) < 2:
        return None, None
    d, cens = _durations(viol)
    n_full = int((~cens).sum())
    total = float(d.sum())
    if n_full == 0 or total <= 0:
        return None, None
    try:
        lam = n_full / total
        ll_exp = _weibull_loglik(lam, 1.0, d, cens)
        ll_cc = _weibull_loglik(1.0 - a, 1.0, d, cens)
        _, _, ll_weib = _maximize_weibull(d, cens)
        if not np.isfinite(ll_weib):
            return None, None
        t_ind = max(2.0 * (ll_weib - ll_exp), 0.0)
        t_cc = max(2.0 * (ll_weib - ll_cc), 0.0)
        return float(stats.chi2.sf(t_ind, 1)), float(stats.chi2.sf(t_cc, 2))
    except (ValueError, OverflowError, ZeroDivisionError):
        return None, None


def es_bootstrap_test(exceed_residuals, B_boot: int = 9999, seed: int = 0):
    """One-sided bootstrap test that the shortfall residuals have mean zero
    against mean > 0 (shortfall underestimation).

    Resamples are drawn from the residuals re-centered at zero; the p-value
    uses the (1 + count) / (B + 1) convention.  Returns None when fewer than
    two residuals are available.
    """
    res = np.asarray(exceed_residuals, dtype=float)
    if res.size < 2:
        return None
    nr = res.size
    mean = float(res.mean())
    sd = float(res.std(ddof=1))
    if sd == 0.0:
        warnings.warn("zero-variance shortfall residuals", EstimationWarning)
        return 1.0 / (B_boot + 1.0) if mean > 0 else 1.0
    t_obs = mean / (sd / math.sqrt(nr))
    centered = res - mean
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, nr, size=(B_boot, nr))
    samples = centered[idx]
    means = samples.mean(axis=1)
    sds = samples.std(axis=1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = means / (sds / math.sqrt(nr))
    degenerate = sds == 0.0
    t_star[degenerate] = np.where(means[degenerate] > 0, math.inf, -math.inf)
    t_star[degenerate & (means == 0.0)] = 0.0
    return float((1.0 + np.sum(t_star >= t_obs)) / (B_boot + 1.0))


@dataclass
class LevelReport:
    a: float
    violations: int
    n_evaluated: int
    expected: float
    coverage_p: float
    t_ind_p: float | None
    t_cc_p: float | None
    es_p: float | None
    violation_steps: list[int] = field(default_factory=list)


@dataclass
class BacktestReport:
    config: BacktestConfig
    n_forecasts: int
    n_failed_windows: int
    levels: dict[float, LevelReport]
    forecasts: RollingForecasts


def run_backtest(
    series: ReturnSeries, cfg: BacktestConfig, threads: int = 1
) -> BacktestReport:
    """Roll the estimator through the sample and run all three tests.

    The tests see only steps with a finite forecast: windows that fail
    before any window has succeeded have nothing to carry forward.
    """
    forecasts = rolling_forecast(series, cfg, threads=threads)
    levels = {}
    for j, a in enumerate(cfg.a_levels):
        ok = np.isfinite(forecasts.cvar[a])
        steps = forecasts.steps[ok]
        realized = series.values[steps + 1]
        viol = realized > forecasts.cvar[a][ok]
        w, p_cov = coverage_test(viol, a)
        p_ind, p_cc = duration_tests(viol, a)
        ces, sqrt_h = forecasts.ces[a][ok], forecasts.sqrt_h[ok]
        residuals = (realized[viol] - ces[viol]) / sqrt_h[viol]
        residuals = residuals[np.isfinite(residuals)]
        es_p = es_bootstrap_test(residuals, cfg.B_boot, cfg.seed + j)
        levels[a] = LevelReport(
            a=a,
            violations=w,
            n_evaluated=int(viol.size),
            expected=float(viol.size * (1.0 - a)),
            coverage_p=p_cov,
            t_ind_p=p_ind,
            t_cc_p=p_cc,
            es_p=es_p,
            violation_steps=[int(t) for t in steps[viol]],
        )
    return BacktestReport(
        config=cfg,
        n_forecasts=int(forecasts.steps.size),
        n_failed_windows=forecasts.n_failures,
        levels=levels,
        forecasts=forecasts,
    )
