"""Monte Carlo engine: data generation from the nonlinear location-scale
recursion, the estimator battery (full pipeline and oracle-input
comparators), and bias / spread / RMSE / coverage summaries."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats

from .errors import ConvergenceError, EvtriskError, InputError
from .gpd import fit_tail
from .ingest import ReturnSeries
from .risk import assemble, estimate_at
from .smoothing import fit_location_scale
from .tail import choose_N, extract_tail, extract_tail_empirical

BURN_IN = 1000
H2_FLOOR = 1e-8
TRIM_FRACTION = 0.025


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
    rho_c: float = 0.25

    def __post_init__(self):
        if self.n < 200:
            raise InputError("design needs n >= 200")
        if self.reps < 1:
            raise InputError("design needs reps >= 1")
        if self.v <= 2:
            raise InputError("Student-t innovations need v > 2 for unit variance")
        if self.variant not in ("h1", "h2"):
            raise InputError(f"unknown variance variant {self.variant!r}")
        for a in self.a_levels:
            if not 0.0 < a < 1.0:
                raise InputError(f"level {a} outside (0,1)")

    @property
    def k0(self) -> float:
        return -1.0 / self.v


def _rng(seed: int, rep: int) -> np.random.Generator:
    """Counter-based Philox substream for one replication; replications are
    independent of execution order."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.Philox(seq))


def _t_std_factor(v: int) -> float:
    return math.sqrt(v / (v - 2.0))


def t_quantile_std(a, v: int):
    """Quantile of the unit-variance Student-t innovation."""
    return stats.t.ppf(a, v) / _t_std_factor(v)


def t_tail_mean_std(a: float, v: int) -> float:
    """E[eps | eps > q(a)] for the unit-variance Student-t innovation."""
    c = stats.t.ppf(a, v)
    raw = stats.t.pdf(c, v) * (v + c * c) / ((v - 1.0) * (1.0 - a))
    return raw / _t_std_factor(v)


def mean_fn(y):
    return np.sin(0.5 * np.asarray(y, dtype=float))


def variance_fn(y, variant: str):
    y = np.asarray(y, dtype=float)
    if variant == "h1":
        return 1.0 + 0.01 * y * y + 0.5 * np.sin(y)
    return 1.0 - 0.9 * np.exp(-2.0 * y * y)


@dataclass
class SimPath:
    """Kept window of one simulated path plus the state needed for truths."""

    y: np.ndarray
    eps: np.ndarray
    h: np.ndarray
    h_next: float


def _simulate(design: McDesign, rep: int = 0, innovations=None) -> SimPath:
    total = BURN_IN + design.n
    if innovations is None:
        u = _rng(design.seed, rep).random(total)
        eps = stats.t.ppf(u, design.v) / _t_std_factor(design.v)
    else:
        eps = np.asarray(innovations, dtype=float)
        if eps.size != total:
            raise InputError(f"need {total} innovations (burn-in included)")
    y = np.empty(total)
    h = np.empty(total)
    y_prev, h_prev = 0.0, 0.0
    for t in range(total):
        h_t = float(variance_fn(y_prev, design.variant)) + design.theta * h_prev
        if design.variant == "h2":
            h_t = max(h_t, H2_FLOOR)
        y[t] = math.sin(0.5 * y_prev) + math.sqrt(h_t) * eps[t]
        h[t] = h_t
        y_prev, h_prev = y[t], h_t
    h_next = float(variance_fn(y[-1], design.variant)) + design.theta * h[-1]
    if design.variant == "h2":
        h_next = max(h_next, H2_FLOOR)
    return SimPath(
        y=y[BURN_IN:], eps=eps[BURN_IN:], h=h[BURN_IN:], h_next=h_next
    )


def simulate_dgp(design: McDesign, rep: int = 0, innovations=None) -> ReturnSeries:
    """Generate one sample from the design (burn-in discarded)."""
    return ReturnSeries(_simulate(design, rep, innovations).y, kind="raw")


def true_risk(design: McDesign, x: float, a: float, h_next: float | None = None):
    """Exact conditional quantile and shortfall at query x.

    For theta = 0 the conditional variance is the closed form h_i(x); for
    theta > 0 pass the next-step variance known along the simulated path.
    """
    if h_next is None:
        if design.theta != 0.0:
            raise InputError("theta != 0 needs the path variance h_next")
        h_next = float(variance_fn(x, design.variant))
    scale = math.sqrt(h_next)
    m = math.sin(0.5 * x)
    return (
        m + scale * float(t_quantile_std(a, design.v)),
        m + scale * t_tail_mean_std(a, design.v),
    )


# Row keys: (target, estimator, level).  Parameter targets use level None.
# Estimators: "pipeline" fits m and h nonparametrically; "oracle" uses the
# true mean, variance, and innovations (the benchmark construction).


def _replicate(design: McDesign, rep: int) -> dict:
    path = _simulate(design, rep)
    x_query = float(path.y[-1])
    records: dict = {}

    # Full pipeline on the observed series.
    series = ReturnSeries(path.y, kind="raw")
    fit = fit_location_scale(series, lag=1)
    n_eff = fit.residuals.size
    N = choose_N(n_eff, design.c)
    sample = extract_tail(fit, N)
    tail_fit = fit_tail(sample, rho_c=design.rho_c)

    sigma_n_true = -design.k0 * float(t_quantile_std(sample.a_N, design.v))
    records[("sigma_N", "pipeline", None)] = (tail_fit.params.sigma, sigma_n_true, None)
    records[("k0", "pipeline", None)] = (tail_fit.params.k, design.k0, None)
    records[("sigma_N", "pipeline_bc", None)] = (
        tail_fit.params_bc.sigma, sigma_n_true, None,
    )
    records[("k0", "pipeline_bc", None)] = (tail_fit.params_bc.k, design.k0, None)

    for a in design.a_levels:
        est = estimate_at(fit, tail_fit, a, x_query)
        q_true, e_true = true_risk(design, x_query, a, h_next=path.h_next)
        records[("cvar", "pipeline", a)] = (est.cvar, q_true, None)
        records[("ces", "pipeline", a)] = (est.ces, e_true, None)
        records[("cvar", "pipeline_bc", a)] = (
            est.cvar_bc, q_true, est.ci_cvar[0] <= q_true <= est.ci_cvar[1],
        )
        records[("ces", "pipeline_bc", a)] = (
            est.ces_bc, e_true, est.ci_ces[0] <= e_true <= est.ci_ces[1],
        )

    # Oracle-input comparator: true innovations, empirical threshold,
    # true mean and variance in the conditional assembly.
    n_full = path.eps.size
    n_oracle = choose_N(n_full, design.c)
    o_sample = extract_tail_empirical(path.eps, n_oracle)
    o_fit = fit_tail(o_sample, rho_c=design.rho_c)
    sigma_n_oracle = -design.k0 * float(t_quantile_std(o_sample.a_N, design.v))
    records[("sigma_N", "oracle", None)] = (o_fit.params.sigma, sigma_n_oracle, None)
    records[("k0", "oracle", None)] = (o_fit.params.k, design.k0, None)
    records[("sigma_N", "oracle_bc", None)] = (
        o_fit.params_bc.sigma, sigma_n_oracle, None,
    )
    records[("k0", "oracle_bc", None)] = (o_fit.params_bc.k, design.k0, None)

    m_true = math.sin(0.5 * x_query)
    for a in design.a_levels:
        est = assemble(o_fit, a, x_query, m_true, path.h_next)
        q_true, e_true = true_risk(design, x_query, a, h_next=path.h_next)
        records[("cvar", "oracle", a)] = (est.cvar, q_true, None)
        records[("ces", "oracle", a)] = (est.ces, e_true, None)
        records[("cvar", "oracle_bc", a)] = (
            est.cvar_bc, q_true, est.ci_cvar[0] <= q_true <= est.ci_cvar[1],
        )
        records[("ces", "oracle_bc", a)] = (
            est.ces_bc, e_true, est.ci_ces[0] <= e_true <= est.ci_ces[1],
        )
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
    n_used: int


@dataclass
class McResult:
    design: McDesign
    rows: list[McRow]
    n_failures: int
    failures: list[tuple[int, str]]
    truths: dict[float, np.ndarray] = field(default_factory=dict)


def _trimmed_errors(errors: np.ndarray, fraction: float = TRIM_FRACTION) -> np.ndarray:
    cut = int(math.floor(fraction * errors.size))
    if cut == 0:
        return np.sort(errors)
    return np.sort(errors)[cut:-cut]


def summarize(errors: np.ndarray, trim: float = TRIM_FRACTION):
    """Bias, spread, RMSE after symmetric trimming; R^2 = B^2 + S^2 exactly."""
    kept = _trimmed_errors(errors, trim)
    b = float(kept.mean())
    s = float(kept.std(ddof=0))
    return b, s, math.hypot(b, s), kept.size


def run_experiment(design: McDesign, threads: int = 1) -> McResult:
    """Run every replication, aggregate per-estimator summaries.

    Replication failures are recorded and excluded from bias summaries; a
    failed replication counts as non-coverage.  The run aborts when more
    than 5% of replications fail.
    """
    jobs = [(design, rep) for rep in range(design.reps)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(_replicate_star, jobs, chunksize=4))
    else:
        raw = [_replicate_star(job) for job in jobs]
    raw.sort(key=lambda item: item[0])

    failures = [(rep, msg) for rep, _, msg in raw if msg is not None]
    successes = [(rep, rec) for rep, rec, msg in raw if msg is None]
    if len(failures) > 0.05 * design.reps:
        detail = "; ".join(msg for _, msg in failures[:3])
        raise ConvergenceError(
            f"{len(failures)}/{design.reps} replications failed ({detail} ...)"
        )

    keys: list = []
    for _, rec in successes:
        for key in rec:
            if key not in keys:
                keys.append(key)

    rows = []
    r_by_key = {}
    for key in keys:
        triples = [rec[key] for _, rec in successes if key in rec]
        errors = np.array([est - true for est, true, _ in triples])
        b, s, r, used = summarize(errors)
        covered = [cov for _, _, cov in triples if cov is not None]
        if key[0] in ("cvar", "ces") and key[1].endswith("_bc"):
            # failed replications count as non-coverage: divide by all reps
            ecp = sum(bool(c) for c in covered) / design.reps
        else:
            ecp = None
        r_by_key[key] = r
        rows.append(McRow(key[0], key[1], key[2], b, s, r, math.nan, ecp, used))

    for row in rows:
        group = [
            r_by_key[key]
            for key in r_by_key
            if key[0] == row.target and key[2] == row.a
        ]
        best = min(group)
        row.rel_R = row.R / best if best > 0 else math.nan

    truths = {}
    for a in design.a_levels:
        key = ("cvar", "pipeline", a)
        truths[a] = np.array(
            [[rec[key][1], rec[("ces", "pipeline", a)][1]] for _, rec in successes]
        )
    return McResult(
        design=design,
        rows=rows,
        n_failures=len(failures),
        failures=failures,
        truths=truths,
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


def named_design(name: str, reps: int, seed: int) -> McDesign:
    if name not in NAMED_DESIGNS:
        raise InputError(
            f"unknown design {name!r}; choose from {sorted(NAMED_DESIGNS)} or a JSON file"
        )
    return replace(NAMED_DESIGNS[name], reps=reps, seed=seed)
