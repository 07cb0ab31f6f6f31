"""What importing and running the package loads of scipy, and the scipy
kernels it calls.

`import evtrisk`, `import evtrisk.cli` and a whole `estimate` command load
no scipy module: an `estimate` run as a fresh process would otherwise spend
most of its wall time importing it.  `mc` and `backtest` import
`scipy.special` inside the functions that call it, and `run_experiment`
imports it before it forks its pool so that the workers inherit it.
`risk.CI_Z` is the literal of `special.ndtri(0.975)`, pinned bit for bit.
Each special kernel called gives bit for bit what its `scipy.stats`
counterpart gives; `scipy.stats` costs about a second to import.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from evtrisk.mc import _t_pdf, _t_risk_std
from evtrisk.risk import CI_Z

SRC = Path(__file__).resolve().parent.parent / "src"
LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


def _run_python(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter on this src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=300)
    return out.stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    # No scipy module at all, scipy.stats included, after either import.
    code = (f"import sys, evtrisk; {LOADED_SCIPY}; "
            f"import evtrisk.cli; {LOADED_SCIPY}")
    assert _run_python(code).split() == ["[]", "[]"]


def test_estimate_command_loads_no_scipy(tmp_path):
    rng = np.random.default_rng(5)
    data = tmp_path / "returns.csv"
    data.write_text("return\n" + "\n".join(repr(float(v)) for v in rng.standard_t(4, 600)),
                    encoding="utf-8")
    code = ("import sys\n"
            "from evtrisk.cli import main\n"
            f"assert main(['estimate', '--returns', {str(data)!r}, '--no-timestamp',\n"
            f"             '--out', {str(tmp_path / 'report.json')!r}]) == 0\n"
            f"{LOADED_SCIPY}\n")
    # The last line; the command prints its one-line summary before it.
    assert _run_python(code).splitlines()[-1] == "[]"


def test_pooled_mc_loads_scipy_special_in_the_parent():
    # The parent imports scipy.special before it forks the pool, so the
    # workers inherit it instead of each importing it again.
    code = ("import sys\n"
            "from evtrisk.mc import McDesign, run_experiment\n"
            "before = 'scipy.special' in sys.modules\n"
            "run_experiment(McDesign(reps=8), threads=2)\n"
            "print(before, 'scipy.special' in sys.modules)\n")
    assert _run_python(code).split() == ["False", "True"]


def test_ci_z_is_the_normal_quantile_bitwise():
    assert np.float64(CI_Z).tobytes() == special.ndtri(0.975).tobytes()


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_normal_kernels_match_stats():
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.normal(0.0, 3.0, 20000), [0.0, 8.0, 40.0, np.inf]])
    assert _same(2.0 * special.ndtr(-np.abs(z)), 2.0 * stats.norm.sf(np.abs(z)))
    assert CI_Z == stats.norm.ppf(0.975)


@pytest.mark.parametrize("df", [1, 2])
def test_chi2_survival_matches_stats(df):
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.exponential(5.0, 20000), [0.0, 1e-300, np.inf]])
    assert _same(special.chdtrc(df, x), stats.chi2.sf(x, df))


@pytest.mark.parametrize("v", [3, 4, 5, 6, 8, 10, 30])
def test_student_t_kernels_match_stats(v):
    rng = np.random.default_rng(13)
    # u = 0 is left out: stdtrit gives +inf there and t.ppf -inf.  The
    # simulator's uniforms hit 0 with probability 2**-53 per draw.
    u = np.concatenate([rng.random(20000), 10.0 ** -rng.uniform(1, 16, 2000),
                        1.0 - 10.0 ** -rng.uniform(1, 16, 2000)])
    assert _same(special.stdtrit(v, u), stats.t.ppf(u, v))
    levels = np.linspace(0.5, 0.9999, 2000)
    c = stats.t.ppf(levels, v)
    assert _same(_t_pdf(c, v), stats.t.pdf(c, v))
    for a in (0.95, 0.99, 0.995, 0.999):
        c = stats.t.ppf(a, v)
        raw = stats.t.pdf(c, v) * (v + c * c) / ((v - 1.0) * (1.0 - a))
        scale = math.sqrt(v / (v - 2.0))
        assert _t_risk_std(a, v) == (float(c / scale), float(raw / scale))
