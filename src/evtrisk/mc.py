"""Monte Carlo engine: data generation from the nonlinear location-scale
recursion, the estimator battery (full pipeline and oracle-input
comparators), and bias / spread / RMSE / coverage summaries.

A design simulates Y_t = sin(Y_{t-1}/2) + h_t^{1/2} eps_t with
h_t = h_i(Y_{t-1}) + theta h_{t-1}, variant h1(y) = 1 + 0.01 y^2 + 0.5 sin(y)
or h2(y) = 1 - 0.9 exp(-2 y^2) (floored at H2_FLOOR), and unit-variance
Student-t(v) innovations drawn from a counter-based stream per replication.
`_simulate` writes h1/h2 out in one loop per variant, which runs one step
past the path for the next-step variance; `_t_risk_std` is the one
transcription of the innovation's quantile and tail mean.  Each
replication scores both estimator arms against the exact conditional
CVaR/CES at the path's last observation, built from the path's own
next-step variance.

The innovations and the truths take the Student-t quantile from
`_t_quantile`, in numpy for integer v (see its docstring), so no part of
the simulation imports scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EvtriskError, InputError, run_jobs
from .gpd import fit_tail
from .ingest import ReturnSeries
from .risk import assemble
# Kept importable: perfbench/spans.py patches evtrisk.mc.estimate_at by name.
from .risk import estimate_at  # noqa: F401
from .smoothing import fit_location_scale
from .tail import check_levels, choose_N, extract_tail, extract_tail_empirical

BURN_IN = 1000
H2_FLOOR = 1e-8
TRIM_FRACTION = 0.025
# _t_quantile solves for t in the tail form where p = min(u, 1 - u) is below
# T_TAIL_P / v: above it the centre form's 1 - A cancels to at most about
# 1e-14 relative (v <= 30).  A value stops after a step below T_STEP_TOL
# relative, which Newton's method leaves at about T_STEP_TOL^2.
T_TAIL_P = 0.05
T_STEP_TOL = 1e-9
T_MAX_STEPS = 50
# The largest v a design may take: _t_quantile is checked against scipy's
# stdtrit for v = 3 to T_V_MAX, and its cost grows with v // 2.
T_V_MAX = 30


@dataclass(frozen=True)
class McDesign:
    """One simulation experiment design."""

    n: int = 1000
    variant: str = "h1"
    theta: float = 0.0
    v: int = 3
    reps: int = 200
    seed: int = 0
    a_levels: tuple[float, ...] = (0.95, 0.99, 0.999)
    c: float = 0.7

    def __post_init__(self):
        for name in ("n", "reps", "seed", "v"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"design field {name} must be an integer, got {value!r}")
        if self.n < 200:
            raise InputError("design needs n >= 200")
        if self.reps < 1:
            raise InputError("design needs reps >= 1")
        if self.seed < 0:
            raise InputError(f"design field seed must be non-negative, got {self.seed}")
        # The variance recursion h_t = h_i(y) + theta h_{t-1} is stationary for
        # theta in [0, 1); a negative theta can drive h1's variance below 0.
        if not (isinstance(self.theta, (int, float)) and 0.0 <= self.theta < 1.0):
            raise InputError(f"design field theta must be a real number in [0, 1), got {self.theta!r}")
        if self.v <= 2:
            raise InputError("Student-t innovations need v > 2 for unit variance")
        if self.v > T_V_MAX:
            raise InputError(
                f"design field v must be at most {T_V_MAX}, got {self.v}: the simulator's "
                f"Student-t quantile is verified for v = 3 to {T_V_MAX}")
        if self.variant not in ("h1", "h2"):
            raise InputError(f"unknown variance variant {self.variant!r}")
        check_levels(self.a_levels)
        choose_N(self.n, self.c)  # rejects a bad schedule constant before any replication

    @property
    def k0(self) -> float:
        return -1.0 / self.v


def _rng(seed: int, rep: int) -> np.random.Generator:
    """Counter-based Philox substream for one replication; replications are
    independent of execution order."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.Philox(seq))


def _t_std_factor(v: int) -> float:
    """Standard deviation of t(v): dividing by it gives unit variance."""
    return math.sqrt(v / (v - 2.0))


def _t_quantile(v: int, u: np.ndarray) -> np.ndarray:
    """Student-t(v) quantile at the uniforms u, a 1-d array in [0, 1], for an
    integer v >= 2; u = 0 gives -inf and u = 1/2 gives 0.

    With theta = arctan(t / sqrt v), c = cos theta, s = sin theta and
    x = c^2, Abramowitz & Stegun 26.7.3-4 give P(|T| < t) as a finite series:
    A = (2/pi) (theta + s c S(x)) for odd v and A = s S(x) for even v, where
    S(x) = sum_{j < m} a_j x^j, m = v // 2, a_0 = 1 and
    a_j = a_{j-1} (2j - 1 + v % 2) / (2j + v % 2).  The terms past S sum to
    the tail P(T > t) = k s c^v R(x), R(x) = sum_i (a_{m+i} / a_m) x^i, with
    k = a_m / pi for odd v and a_m / 2 for even v; dA/dtheta = 2 v k c^(v-1).

    With p = min(u, 1 - u): where p >= T_TAIL_P / v, Halley's method solves
    A = 1 - 2p for theta from below, from the larger of two lower bounds,
    the tangent at 0 and the root of the tail's leading term k c^v.  Below
    it 1 - A would cancel, so Newton's method solves
    log(k s c^v R(x)) = log p for log c from that leading term; R is summed
    to rounding at the largest x the tail reaches, (T_TAIL_P / (v k))^(2/v).
    Each value stops once its own step is below T_STEP_TOL relative, so no
    value depends on the others in u.  Against scipy.special.stdtrit the
    relative difference is at most 1.5e-14 for v <= 30 and grows with v
    (6e-14 at v = 100, 9e-13 at v = 1000), as does the cost: S has v // 2
    terms.
    """
    odd, m = v % 2, v // 2
    a = np.cumprod([1.0] + [(2 * j - 1 + odd) / (2 * j + odd) for j in range(1, m + 1)])
    k = a[m] / (math.pi if odd else 2.0)
    p = np.minimum(u, 1.0 - u)
    t = np.where(p == 0.0, math.inf, math.nan)

    centre = p >= T_TAIL_P / v
    target = 1.0 - 2.0 * p[centre]

    def halley(theta):
        c, s = np.cos(theta), np.sin(theta)
        x, series = c * c, np.zeros_like(c)
        for coef in a[m - 1::-1]:
            series = series * x + coef
        A = 2.0 / math.pi * (theta + s * c * series) if odd else s * series
        step = (target - A) / (2.0 * v * k * c ** (v - 1))
        # Halley's correction of the Newton step, with A''/A' = -(v - 1) s / c.
        return step / (1.0 - 0.5 * (v - 1) * step * s / c)

    start = np.arccos(np.minimum((p[centre] / k) ** (1.0 / v), 1.0))
    theta = _converge(halley, np.maximum(target / (2.0 * v * k), start))
    t[centre] = math.sqrt(v) * np.tan(theta)

    tail = ~centre & (p > 0.0)
    x_max = (T_TAIL_P / (v * k)) ** (2.0 / v)
    terms = math.ceil(math.log(0.5 * np.finfo(float).eps * (1.0 - x_max)) / math.log(x_max))
    b = np.cumprod([1.0] + [(v + 2 * i - 1) / (v + 2 * i) for i in range(1, terms)])
    log_pk = np.log(p[tail] / k)

    def newton(log_c):
        x = np.exp(2.0 * log_c)
        r = (np.power.outer(x, np.arange(terms, dtype=float)) * b).sum(axis=-1)
        return (log_pk - 0.5 * np.log1p(-x) - v * log_c - np.log(r)) * (1.0 - x) * r / v

    log_c = log_pk / v
    c = np.exp(_converge(newton, log_c - np.exp(2.0 * log_c) / (2.0 * (v + 2))))
    t[tail] = math.sqrt(v) * np.sqrt(1.0 - c * c) / c
    return np.copysign(t, u - 0.5)


def _converge(step, z: np.ndarray) -> np.ndarray:
    """z + step(z), repeated for each element until its last step was at
    most T_STEP_TOL times its value; quadratic or faster convergence leaves
    it at rounding then."""
    live = np.ones(z.shape, dtype=bool)
    for _ in range(T_MAX_STEPS):
        dz = step(z)
        z = np.where(live, z + dz, z)
        live &= np.abs(dz) > T_STEP_TOL * np.abs(z)
        if not live.any():
            return z
    raise ConvergenceError("Student-t quantile iteration did not converge")


def _t_pdf(c, v: int):
    """Student-t(v) density at c."""
    log_pdf = (math.lgamma(0.5 * (v + 1)) - math.lgamma(0.5 * v)
               - 0.5 * (np.log(v) + np.log(np.pi)) - (v + 1) / 2 * np.log1p(c * c / v))
    return np.exp(log_pdf)


@functools.lru_cache(maxsize=64)
def _t_risk_std(a: float, v: int) -> tuple[float, float]:
    """(quantile, tail mean E[eps | eps > quantile]) of the unit-variance
    Student-t innovation at level a.

    Every replication of a design asks for the same few (a, v) pairs.
    """
    scale = _t_std_factor(v)
    c = _t_quantile(v, np.array([a]))[0]
    raw = _t_pdf(c, v) * (v + c * c) / ((v - 1.0) * (1.0 - a))
    return float(c / scale), float(raw / scale)


@dataclass
class SimPath:
    """Kept window of one simulated path plus the state needed for truths."""

    y: np.ndarray
    eps: np.ndarray
    h: np.ndarray
    h_next: float


def _simulate(design: McDesign, rep: int) -> SimPath:
    """One path of the design's recursion, written out per variance function
    with local names.  math.sin gives np.sin's values; np.exp is kept
    because math.exp differs from it in the last bit for about 5% of
    arguments.  The loop takes one step past the path, on a zero
    innovation: its variance is h_next, and its observation is dropped."""
    u = _rng(design.seed, rep).random(BURN_IN + design.n)
    eps = _t_quantile(design.v, u) / _t_std_factor(design.v)
    steps = eps.tolist() + [0.0]
    y, h = [], []
    y_append, h_append = y.append, h.append
    sin, sqrt, exp, theta = math.sin, math.sqrt, np.exp, design.theta
    y_prev, h_prev = 0.0, 0.0
    if design.variant == "h1":
        for e in steps:
            h_t = 1.0 + 0.01 * y_prev * y_prev + 0.5 * sin(y_prev) + theta * h_prev
            y_prev, h_prev = sin(0.5 * y_prev) + sqrt(h_t) * e, h_t
            y_append(y_prev)
            h_append(h_t)
    else:
        for e in steps:
            h_t = max(1.0 - 0.9 * float(exp(-2.0 * y_prev * y_prev)) + theta * h_prev, H2_FLOOR)
            y_prev, h_prev = sin(0.5 * y_prev) + sqrt(h_t) * e, h_t
            y_append(y_prev)
            h_append(h_t)
    return SimPath(
        y=np.array(y[BURN_IN:-1]), eps=eps[BURN_IN:], h=np.array(h[BURN_IN:-1]), h_next=h[-1]
    )


def true_risk(design: McDesign, x: float, a: float, h_next: float):
    """Exact conditional quantile and shortfall at query x, the path's last
    observation, whose next-step variance along the path is h_next."""
    scale = math.sqrt(h_next)
    m = math.sin(0.5 * x)
    q_eps, e_eps = _t_risk_std(a, design.v)
    return m + scale * q_eps, m + scale * e_eps


# Row keys: (target, estimator, level).  Parameter targets use level None.
# Estimators: "pipeline" fits m and h nonparametrically; "oracle" uses the
# true mean, variance, and innovations (the benchmark construction).


def _record(records: dict, arm: str, design: McDesign, tail_fit, x, m_x, h_x, h_next):
    """Rows of one estimator arm and its "_bc" twin: the four parameter rows,
    then four rows per design level, assembled at the path's query point x
    from the arm's location m_x and variance h_x there.  A row is (estimate,
    truth, coverage): only the "_bc" CVaR and CES rows have an interval, so
    only they carry whether it covers the truth, and run_experiment gives
    an ECP to these rows alone."""
    bc = arm + "_bc"
    sigma_n_true = -design.k0 * _t_risk_std(tail_fit.sample.a_N, design.v)[0]
    records[("sigma_N", arm, None)] = (tail_fit.params.sigma, sigma_n_true, None)
    records[("k0", arm, None)] = (tail_fit.params.k, design.k0, None)
    records[("sigma_N", bc, None)] = (tail_fit.params_bc.sigma, sigma_n_true, None)
    records[("k0", bc, None)] = (tail_fit.params_bc.k, design.k0, None)
    for a in design.a_levels:
        est = assemble(tail_fit, a, x, m_x, h_x)
        q_true, e_true = true_risk(design, x, a, h_next)
        records[("cvar", arm, a)] = (est.cvar, q_true, None)
        records[("ces", arm, a)] = (est.ces, e_true, None)
        records[("cvar", bc, a)] = (
            est.cvar_bc, q_true, est.ci_cvar[0] <= q_true <= est.ci_cvar[1],
        )
        records[("ces", bc, a)] = (
            est.ces_bc, e_true, est.ci_ces[0] <= e_true <= est.ci_ces[1],
        )


def _replicate(design: McDesign, rep: int) -> dict:
    path = _simulate(design, rep)
    x_query = float(path.y[-1])
    records: dict = {}

    # Full pipeline on the observed series.
    series = ReturnSeries(path.y, kind="raw")
    fit = fit_location_scale(series, lag=1)
    N = choose_N(fit.residuals.size, design.c)
    tail_fit = fit_tail(extract_tail(fit, N))
    _record(records, "pipeline", design, tail_fit, x_query,
            float(fit.m_hat(x_query)), float(fit.h_hat(x_query)), path.h_next)

    # Oracle-input comparator: true innovations, empirical threshold,
    # true mean and variance in the conditional assembly.
    o_sample = extract_tail_empirical(path.eps, choose_N(path.eps.size, design.c))
    o_fit = fit_tail(o_sample)
    _record(records, "oracle", design, o_fit, x_query,
            math.sin(0.5 * x_query), path.h_next, path.h_next)
    return records


def _replicate_star(args):
    design, rep = args
    try:
        return rep, _replicate(design, rep), None
    except EvtriskError as exc:
        return rep, None, f"{type(exc).__name__}: {exc}"


@dataclass
class McRow:
    """Summary for one estimator on one target."""

    target: str
    estimator: str
    a: float | None
    B: float
    S: float
    R: float
    rel_R: float
    ecp: float | None


@dataclass
class McResult:
    design: McDesign
    rows: list[McRow]
    n_failures: int
    failures: list[tuple[int, str]]


def summarize(errors: np.ndarray):
    """Bias, spread, RMSE after trimming TRIM_FRACTION of the errors from
    each end; R^2 = B^2 + S^2 exactly."""
    cut = int(math.floor(TRIM_FRACTION * errors.size))
    kept = np.sort(errors)[cut:errors.size - cut]
    b = float(kept.mean())
    s = float(kept.std(ddof=0))
    return b, s, math.hypot(b, s)


def run_experiment(design: McDesign, threads: int) -> McResult:
    """Run every replication, aggregate per-estimator summaries.

    Replication failures are recorded and excluded from bias summaries; a
    failed replication counts as non-coverage.  The run aborts when more
    than 5% of replications fail.
    """
    jobs = [(design, rep) for rep in range(design.reps)]
    raw = run_jobs(_replicate_star, jobs, threads, chunksize=4)

    failures = [(rep, msg) for rep, _, msg in raw if msg is not None]
    successes = [(rep, rec) for rep, rec, msg in raw if msg is None]
    if len(failures) > 0.05 * design.reps:
        detail = "; ".join(msg for _, msg in failures[:3])
        raise ConvergenceError(
            f"{len(failures)}/{design.reps} replications failed ({detail} ...)"
        )

    # Every replication records the same keys in the same order (_record).
    rows = []
    r_by_key = {}
    for key in successes[0][1]:
        triples = [rec[key] for _, rec in successes]
        errors = np.array([est - true for est, true, _ in triples])
        b, s, r = summarize(errors)
        covered = [cov for _, _, cov in triples if cov is not None]
        # A row has an ECP when _record gave it a coverage; failed
        # replications count as non-coverage: divide by all reps.
        ecp = sum(bool(c) for c in covered) / design.reps if covered else None
        r_by_key[key] = r
        rows.append(McRow(key[0], key[1], key[2], b, s, r, math.nan, ecp))

    for row in rows:
        group = [
            r_by_key[key]
            for key in r_by_key
            if key[0] == row.target and key[2] == row.a
        ]
        best = min(group)
        row.rel_R = row.R / best if best > 0 else math.nan

    return McResult(
        design=design,
        rows=rows,
        n_failures=len(failures),
        failures=failures,
    )


NAMED_DESIGNS = {
    # Parameter-recovery table design: n=1000, quadratic-variance variant,
    # heavy t(3) innovations.
    "table1": McDesign(n=1000, variant="h1", theta=0.0, v=3),
    # Same design with the lighter t(6) innovation (the companion
    # risk-measure tables report both).
    "table23": McDesign(n=1000, variant="h1", theta=0.0, v=6),
    # Coverage-probability run at the deepest level.
    "table4": McDesign(n=1000, variant="h1", theta=0.0, v=3, a_levels=(0.999,)),
}


def named_design(name: str) -> McDesign:
    if name not in NAMED_DESIGNS:
        raise InputError(
            f"unknown design {name!r}; choose from {sorted(NAMED_DESIGNS)} or a JSON file"
        )
    return NAMED_DESIGNS[name]
