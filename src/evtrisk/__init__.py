"""Two-stage nonparametric estimation of extreme conditional value-at-risk
and expected shortfall: local-linear location/scale fits feed a generalized
Pareto tail fit on standardized residuals, with bias-corrected estimators,
asymptotic confidence intervals, a Monte Carlo harness, and a rolling
backtesting suite."""

from .backtest import (
    BacktestConfig,
    BacktestReport,
    coverage_test,
    duration_tests,
    es_bootstrap_test,
    rolling_forecast,
    run_backtest,
)
from .errors import (
    ConvergenceError,
    DegenerateFitError,
    EstimationWarning,
    EvtriskError,
    InputError,
    PoleError,
    TailError,
)
from .gpd import (
    A_matrix,
    GpdParams,
    H_inv,
    TailFit,
    Vb_matrix,
    bias_correct_params,
    fit_tail,
    gpd_mle,
    gpd_quantile,
    moment_stats,
    rho_hat,
)
from .ingest import PriceSeries, ReturnSeries, load_prices, load_returns, to_returns
from .mc import McDesign, McResult, run_experiment, true_risk
from .risk import (
    RiskEstimate,
    assemble,
    asymptotic_ci,
    es_eps,
    estimate_at,
    mse_crossover,
    q_eps,
    q_eps_bc,
    sigma1,
    sigma1_b,
    sigma2,
    sigma2_b,
    sigma3_b,
)
from .smoothing import (
    LocationScaleFit,
    fit_location_scale,
    local_linear,
    rot_bandwidth_density,
)
from .tail import TailSample, choose_N, extract_tail, smoothed_cdf, smoothed_quantile

__version__ = "0.1.0"
