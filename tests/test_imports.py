"""The package imports scipy.special, not scipy.stats, and each special
kernel it calls gives bit for bit what its scipy.stats counterpart gives."""

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


def test_cli_import_leaves_scipy_stats_unloaded():
    # Importing scipy.stats costs about a second, more than many commands spend working.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = ("import sys, evtrisk.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
