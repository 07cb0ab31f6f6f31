"""evtrisk runs without scipy, and its own forms of the normal tail, the
chi-square survival functions and the Student-t density and tail mean agree
with scipy's.

No command imports scipy: one fresh interpreter, in which any scipy import
fails, runs `import evtrisk.cli`, an `estimate`, `mc` and `backtest`
commands at one and two threads, and finds no scipy module loaded after
them.  Two smaller checks, under the same block, cover `import evtrisk.cli`
alone and an `estimate` alone.  `risk.CI_Z` is the literal of `special.ndtri(0.975)`, pinned bit for
bit.  The backtest's p-values, the simulator's density and its truths are
checked against scipy to a relative tolerance; the Student-t quantile has
its own test in test_mc.py.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from evtrisk.backtest import _chi2_sf, _two_sided_normal_p
from evtrisk.mc import _t_pdf, _t_risk_std
from evtrisk.risk import CI_Z

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter on this src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=300)
    return out.stdout


# A None entry in sys.modules makes every import of scipy raise
# ImportError, in the parent and in the pool workers it forks.
BLOCK_SCIPY = "import sys\nsys.modules['scipy'] = None\n"
LOADED_SCIPY = ("print(sorted(name for name, module in sys.modules.items()\n"
                "            if name.startswith('scipy') and module is not None))\n")


def _returns_file(tmp_path: Path, n: int) -> Path:
    rng = np.random.default_rng(5)
    data = tmp_path / "returns.csv"
    data.write_text("return\n" + "\n".join(repr(float(v)) for v in rng.standard_t(4, n)),
                    encoding="utf-8")
    return data


def test_cli_import_leaves_scipy_stats_unloaded():
    # No scipy module at all, scipy.stats included, after either import.
    code = f"{BLOCK_SCIPY}import evtrisk\n{LOADED_SCIPY}import evtrisk.cli\n{LOADED_SCIPY}"
    assert _run_python(code).splitlines() == ["[]", "[]"]


def test_estimate_command_loads_no_scipy(tmp_path):
    data = _returns_file(tmp_path, 600)
    code = (f"{BLOCK_SCIPY}"
            "from evtrisk.cli import main\n"
            f"assert main(['estimate', '--returns', {str(data)!r}, '--no-timestamp',\n"
            f"             '--out', {str(tmp_path / 'report.json')!r}]) == 0\n"
            f"{LOADED_SCIPY}")
    # The last line; the command prints its one-line summary before it.
    assert _run_python(code).splitlines()[-1] == "[]"


def test_no_command_loads_scipy(tmp_path):
    data = _returns_file(tmp_path, 650)
    out = str(tmp_path / "out")
    commands = [
        ["estimate", "--returns", str(data), "--no-timestamp", "--out", out],
        *(["mc", "--design", "table1", "--reps", "8", "--threads", threads, "--out", out]
          for threads in ("1", "2")),
        *(["backtest", "--returns", str(data), "--m", "650", "--n", "500", "--a", "0.95,0.99",
           "--B-boot", "99", "--no-timestamp", "--threads", threads, "--out", out]
          for threads in ("1", "2")),
    ]
    code = (f"{BLOCK_SCIPY}"
            "from evtrisk.cli import main\n"
            f"print([main(argv) for argv in {commands!r}])\n"
            f"{LOADED_SCIPY}")
    # The last two lines; each command prints its one-line summary before them.
    assert _run_python(code).splitlines()[-2:] == ["[0, 0, 0, 0, 0]", "[]"]


def test_ci_z_is_the_normal_quantile_bitwise():
    assert np.float64(CI_Z).tobytes() == special.ndtri(0.975).tobytes()


def test_normal_kernels_match_stats():
    # Measured: at most 260 ulps (2.9e-14 relative) from 2 ndtr(-|z|), at
    # z = 10.9; there the rounding of the argument alone moves erfc by about
    # z^2 ulps, and both forms are that far from the exact value.
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.normal(0.0, 3.0, 20000), [0.0, 8.0, 40.0, np.inf]])
    closed = np.array([_two_sided_normal_p(value) for value in z])
    np.testing.assert_allclose(closed, 2.0 * special.ndtr(-np.abs(z)), rtol=1e-13, atol=0)
    np.testing.assert_allclose(closed, 2.0 * stats.norm.sf(np.abs(z)), rtol=1e-13, atol=0)
    assert CI_Z == stats.norm.ppf(0.975)


@pytest.mark.parametrize("df", [1, 2])
def test_chi2_survival_matches_stats(df):
    # Measured: at most 159 ulps (df = 1) and 15 ulps (df = 2) from
    # chdtrc; against 40-digit values the closed forms are the closer ones.
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.exponential(5.0, 20000), [0.0, 1e-300, np.inf]])
    closed = np.array([_chi2_sf(df, value) for value in x])
    np.testing.assert_allclose(closed, special.chdtrc(df, x), rtol=1e-13, atol=0)
    np.testing.assert_allclose(closed, stats.chi2.sf(x, df), rtol=1e-13, atol=0)


@pytest.mark.parametrize("v", [3, 4, 5, 6, 8, 10, 30])
def test_student_t_kernels_match_stats(v):
    # Measured: the density within 3.8e-15, the quantile within 8.1e-15 and
    # the tail mean within 3.9e-14 (v = 30: the tail mean's relative error is
    # the quantile's times (v - 1) c^2 / (v + c^2), up to 10 there).
    levels = np.linspace(0.5, 0.9999, 2000)
    c = stats.t.ppf(levels, v)
    np.testing.assert_allclose(_t_pdf(c, v), stats.t.pdf(c, v), rtol=1e-14, atol=0)
    scale = math.sqrt(v / (v - 2.0))
    for a in np.linspace(0.9, 0.9999, 200):
        c = stats.t.ppf(a, v)
        raw = stats.t.pdf(c, v) * (v + c * c) / ((v - 1.0) * (1.0 - a))
        np.testing.assert_allclose(_t_risk_std(float(a), v), (c / scale, raw / scale),
                                   rtol=1e-13, atol=0)
