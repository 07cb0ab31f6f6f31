"""Seeded input generator for the benchmark.

Prices follow the paper's nonlinear location-scale recursion
Y_t = sin(Y_{t-1}/2) + h(Y_{t-1})^{1/2} eps_t with the quadratic-variance
variant h(y) = 1 + 0.01 y^2 + 0.5 sin(y) and unit-variance Student-t
innovations.  The recursion lives here, not in evtrisk.mc, so a change to
the package's simulator cannot change the inputs of any workload.
"""

from __future__ import annotations

import datetime
import math

import numpy as np

BURN_IN = 1000
# Daily log returns of real prices have a standard deviation near 1%.
RETURN_SCALE = 0.01
START_DATE = datetime.date(2000, 1, 3)


def simulate_returns(seed, n: int, v: int) -> np.ndarray:
    """n loss-convention returns from the h1 recursion with t(v) innovations.

    seed is an int or a tuple of ints (a seed and a substream index).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    eps = rng.standard_t(v, size=BURN_IN + n) / math.sqrt(v / (v - 2.0))
    y = np.empty(BURN_IN + n)
    y_prev = 0.0
    for t, e in enumerate(eps.tolist()):
        h = 1.0 + 0.01 * y_prev * y_prev + 0.5 * math.sin(y_prev)
        y_prev = math.sin(0.5 * y_prev) + math.sqrt(h) * e
        y[t] = y_prev
    return RETURN_SCALE * y[BURN_IN:]


def price_csv(returns: np.ndarray) -> str:
    """Dated price CSV whose loss-convention log returns are `returns`."""
    log_prices = math.log(100.0) - np.concatenate(([0.0], np.cumsum(returns)))
    lines = ["date,price"]
    for i, lp in enumerate(log_prices.tolist()):
        day = START_DATE + datetime.timedelta(days=i)
        lines.append(f"{day.isoformat()},{math.exp(lp)!r}")
    return "\n".join(lines) + "\n"


def write_prices(path, seed, n: int, v: int) -> None:
    """Write a CSV of n + 1 dated prices (n returns) for one seed."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(price_csv(simulate_returns(seed, n, v)))
