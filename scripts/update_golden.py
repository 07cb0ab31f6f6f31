#!/usr/bin/env python3
"""Rewrite the golden outputs in tests/golden/ from its committed inputs.

A change meant to move outputs runs this script, so the diff of
tests/golden/ shows every number that moved.  tests/test_golden.py builds
the same outputs into a temporary directory with `build` and compares them
with the committed ones.

The inputs were written once with perfbench/gen.py: prices.csv is
write_prices(path, 5, 1499, 4), 1500 dated prices, and returns.csv holds
simulate_returns(6, 2000, 3) under a `return` header.

Example:
    PYTHONPATH=src python scripts/update_golden.py
"""

import contextlib
import io
import os
import pathlib

from evtrisk.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"

# Output file name and the command that writes it; input paths are relative
# to the inputs' directory, so the reports name them the same everywhere.
COMMANDS = (
    ("estimate.json", ["estimate", "--returns", "returns.csv"]),
    ("estimate_no_bc.json", ["estimate", "--returns", "returns.csv", "--no-bias-correction"]),
    ("estimate_fixed.json",
     ["estimate", "--returns", "returns.csv", "--N", "150", "--rho", "-1.0", "--a", "0.995"]),
    ("estimate_prices.json", ["estimate", "--prices", "prices.csv"]),
    ("mc_table1.csv",
     ["mc", "--design", "table1", "--reps", "12", "--seed", "3", "--threads", "1"]),
    ("backtest.json",
     ["backtest", "--prices", "prices.csv", "--m", "500", "--n", "400", "--a", "0.99",
      "--B-boot", "99", "--seed", "4", "--threads", "1",
      "--dump-forecasts", "{out}/backtest_forecasts.csv"]),
    # Two levels: one forecast file per level, named by the level, and a
    # bootstrap seed per level.
    ("backtest_two.json",
     ["backtest", "--prices", "prices.csv", "--m", "500", "--n", "400", "--a", "0.95,0.99",
      "--B-boot", "99", "--seed", "4", "--threads", "1",
      "--dump-forecasts", "{out}/backtest_two_forecasts.csv"]),
)
OUTPUTS = tuple(name for name, _ in COMMANDS) + (
    "backtest_forecasts.csv", "backtest_two_forecasts_a0.95.csv", "backtest_two_forecasts_a0.99.csv")


def build(out_dir):
    """Run every command on the inputs in GOLDEN, writing OUTPUTS into
    out_dir.  The commands' own stdout is discarded."""
    out_dir = pathlib.Path(out_dir).resolve()
    here = os.getcwd()
    os.chdir(GOLDEN)
    try:
        for name, argv in COMMANDS:
            argv = [arg.format(out=out_dir) for arg in argv] + ["--out", str(out_dir / name)]
            if argv[0] != "mc":
                argv.append("--no-timestamp")
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(argv)
            if status != 0:
                raise RuntimeError(f"evtrisk {' '.join(argv)} exited with {status}")
    finally:
        os.chdir(here)


if __name__ == "__main__":
    build(GOLDEN)
    print(f"wrote {len(OUTPUTS)} outputs to {GOLDEN}")
