#!/usr/bin/env python3
"""Rewrite the golden outputs in tests/golden/ from its committed inputs.

A change meant to move outputs runs this script, so the diff of
tests/golden/ shows every number that moved.  For each output the script
prints how many numbers moved and the largest relative move against the
file it overwrites.  tests/test_golden.py builds the same outputs into a
temporary directory with `build` and compares them, read with `load`, with
the committed ones.

The inputs were written once with perfbench/gen.py: prices.csv is
write_prices(path, 5, 1499, 4), 1500 dated prices, and returns.csv holds
simulate_returns(6, 2000, 3) under a `return` header.

Example:
    PYTHONPATH=src python scripts/update_golden.py
"""

import contextlib
import csv
import io
import json
import math
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


def _cell(text):
    """A CSV field as an int, a float or the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def load(path):
    """An output as data: a JSON report parsed, a CSV file as rows of ints,
    floats and strings."""
    path = pathlib.Path(path)
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, newline="", encoding="utf-8") as fh:
        return [[_cell(field) for field in row] for row in csv.reader(fh)]


def float_moves(new, old):
    """(count, largest) over the floats that differ between two loaded
    outputs, largest being the greatest |new - old| / |old|; None where the
    two differ in anything but float values."""
    if isinstance(new, float) and isinstance(old, float):
        if new == old or (math.isnan(new) and math.isnan(old)):
            return 0, 0.0
        return 1, abs(new - old) / abs(old) if old else math.inf
    if isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        pairs = zip(new, old)
    elif isinstance(new, dict) and isinstance(old, dict) and new.keys() == old.keys():
        pairs = ((new[key], old[key]) for key in old)
    else:
        return (0, 0.0) if type(new) is type(old) and new == old else None
    count, largest = 0, 0.0
    for pair in pairs:
        moved = float_moves(*pair)
        if moved is None:
            return None
        count, largest = count + moved[0], max(largest, moved[1])
    return count, largest


if __name__ == "__main__":
    before = {name: load(GOLDEN / name) for name in OUTPUTS if (GOLDEN / name).exists()}
    build(GOLDEN)
    for name in OUTPUTS:
        if name not in before:
            print(f"{name}: new file")
            continue
        moved = float_moves(load(GOLDEN / name), before[name])
        if moved is None:
            print(f"{name}: changed beyond its float values")
        else:
            print(f"{name}: {moved[0]} numbers moved, largest relative move {moved[1]:.2g}")
    print(f"wrote {len(OUTPUTS)} outputs to {GOLDEN}")
