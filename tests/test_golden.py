"""Golden outputs: the committed reports of tests/golden/ against a fresh
build of the same commands.

Strings and integers must match exactly, floats to a relative REL_TOL.
Bytes cannot be pinned: the CI matrix resolves its own numpy per Python
version, whose sums may round differently.  REL_TOL was measured: with the
dense local-linear oracle in place of the windowed fit, which moves stage 1
by rounding only, every output stays within 1.3e-11 of the committed one
(the largest change is in a Monte Carlo bias cell).  No backtest step of
these inputs has a variance fit near 0 (the smallest h(x) is 3.6e-5),
where rounding has been seen to move a forecast by 7.1e-10.  A change
meant to move outputs rewrites them with scripts/update_golden.py.
"""

import importlib.util
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("update_golden", ROOT / "scripts" / "update_golden.py")
update_golden = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(update_golden)

REL_TOL = 1e-8


def _mismatches(got, want, where=""):
    """Every place where got differs from want, as (location, got, want):
    floats to REL_TOL, everything else exactly."""
    if isinstance(want, float) and isinstance(got, float):
        same = math.isclose(got, want, rel_tol=REL_TOL) or (math.isnan(got) and math.isnan(want))
        return [] if same else [(where, got, want)]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, dict) and isinstance(got, dict) and set(got) == set(want):
        return [m for key in want for m in _mismatches(got[key], want[key], f"{where}[{key!r}]")]
    return [] if type(got) is type(want) and got == want else [(where, got, want)]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    update_golden.build(out)
    return out


@pytest.mark.parametrize("name", update_golden.OUTPUTS)
def test_output_matches_golden(built, name):
    want = update_golden.load(update_golden.GOLDEN / name)
    got = update_golden.load(built / name)
    assert _mismatches(got, want) == []


def test_float_moves_counts_and_sizes_the_moved_floats():
    old = {"a": [1.0, 2.0, "x", 3], "b": math.nan}
    assert update_golden.float_moves(old, old) == (0, 0.0)
    assert update_golden.float_moves({"a": [1.0, 2.5, "x", 3], "b": math.nan}, old) == (1, 0.25)
    assert update_golden.float_moves({"a": [1.0, 2.0, "y", 3], "b": math.nan}, old) is None
    assert update_golden.float_moves({"a": [1.0, 2.0, "x", 3]}, old) is None
