"""The benchmark's four workloads.

Each workload is closed-loop and runs in the benchmark process: the next
unit of work starts when the previous one finishes.  A unit is one CLI
command run in-process through ``evtrisk.cli.main`` (``estimate_long``,
``mc_table1``, ``backtest_rolling``) or one tail count of the library sweep
(``tail_sweep``).  A unit reports how many operations it did, which of them
failed and why, and a signature of its output for the determinism checks.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import evtrisk.cli
import gen

POOL_THREADS = 2
ESTIMATE_RETURNS = 8000
BACKTEST_RETURNS = 1500
BACKTEST_FLAGS = ["--m", "1500", "--n", "1000", "--a", "0.95,0.99,0.995"]
BACKTEST_LEVELS = ("0.95", "0.99", "0.995")
# Large enough that the CLI's abort at more than 5% failed replications is
# not tripped by chance in a chunk (about 1.5% of replications fail).
MC_CHUNK_REPS = 240
MC_ACCURACY = ("cvar", "pipeline_bc", "0.99")
SWEEP_RETURNS = 8000
SWEEP_COUNTS = 40
SWEEP_LEVELS = (0.99, 0.995, 0.999)
WARMUP_RETURNS = 600

# Failure categories that mean the program emitted a malformed or
# non-finite result, not that the estimator declined or was incoherent.
# They make the run incorrect.
HARD_FAILURES = frozenset({
    "exit1", "nonfinite", "nonfinite_summary", "ecp_out_of_range",
    "missing_accuracy_row", "bad_test_statistic",
})


def program_failure(category: str) -> bool:
    """Whether a failed check means the program failed the operation outright:
    a non-zero exit, or a malformed or non-finite result.  The other checks
    (an incoherent estimate, a CI that misses its point, a replication or
    window the program itself reports as failed) count only in fail_ratio."""
    return category.startswith("exit") or category in HARD_FAILURES


@dataclass
class UnitResult:
    """What one unit of work did."""

    ops: int
    failures: collections.Counter = field(default_factory=collections.Counter)
    signature: object = None
    accuracy: tuple | None = None   # (trimmed RMSE, ECP) of one MC chunk

    @property
    def failed(self) -> int:
        """Operations the program failed outright (see `program_failure`)."""
        return min(sum(n for cat, n in self.failures.items() if program_failure(cat)),
                   self.ops)

    @property
    def flagged(self) -> int:
        """Operations that failed any output check: fail_ratio's numerator."""
        return min(sum(self.failures.values()), self.ops)


def run_cli(argv) -> tuple[int, str]:
    """evtrisk.cli.main(argv) in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = evtrisk.cli.main(argv)
    return code, buf.getvalue()


def _number(value) -> float:
    """A report value as a float; the CLI writes non-finite floats as text."""
    return float(value) if value is not None else math.nan


def risk_failures(cvar, ces, cvar_bc=None, ces_bc=None, ci_cvar=None, ci_ces=None):
    """Names of the output checks one CVaR/CES estimate fails."""
    failed = []
    values = [cvar, ces] + ([cvar_bc, ces_bc] if cvar_bc is not None else [])
    if not all(math.isfinite(v) for v in values):
        return ["nonfinite"]
    if cvar > ces:
        failed.append("cvar_above_ces")
    if cvar_bc is not None and cvar_bc > ces_bc:
        failed.append("cvar_bc_above_ces_bc")
    for ci, point in ((ci_cvar, cvar_bc), (ci_ces, ces_bc)):
        if ci is not None and not ci[0] <= point <= ci[1]:
            failed.append("ci_misses_estimate")
            break
    return failed


def warm_up(workdir: str) -> None:
    """One small estimate, so lazy imports and first-call set-up are paid."""
    path = os.path.join(workdir, "warmup.csv")
    gen.write_prices(path, 0, WARMUP_RETURNS, 3)
    run_cli(["estimate", "--prices", path, "--no-timestamp"])


class Workload:
    """Base class: `prepare` builds inputs, `unit(i)` does unit i of work."""

    name = ""
    threads = 1               # worker count of the timed run
    timed_per_op = False      # each unit is exactly one operation

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self, k: int = 0) -> None:
        """Build the inputs; set-up k of a run's repeated set-ups."""
        raise NotImplementedError

    def unit(self, i: int, threads: int) -> UnitResult:
        raise NotImplementedError

    def unit_key(self, i: int):
        """Units with the same key must give byte-identical outputs."""
        return i

    def trace_units(self) -> int:
        """How many units the traced run does."""
        return 1

    def instrument(self, tracer) -> None:
        """Trace inputs built before tracing began (none by default)."""

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


class EstimateLong(Workload):
    name = "estimate_long"
    timed_per_op = True

    def prepare(self, k=0):
        self.prices = self.path("estimate_prices.csv")
        gen.write_prices(self.prices, self.seed, ESTIMATE_RETURNS, 3)

    def unit_key(self, i):
        return 0

    def unit(self, i, threads):
        code, text = run_cli(
            ["estimate", "--prices", self.prices, "--a", "0.99", "--no-timestamp"]
        )
        if code != 0:
            return UnitResult(1, collections.Counter({f"exit{code}": 1}), code)
        report = json.loads(text)
        est, ci = report["estimates"], report["intervals"]
        failed = risk_failures(
            _number(est["cvar"]), _number(est["ces"]),
            _number(est["cvar_bc"]), _number(est["ces_bc"]),
            [_number(v) for v in ci["cvar_bc"]], [_number(v) for v in ci["ces_bc"]],
        )
        return UnitResult(1, collections.Counter(failed[:1]), text)


class McTable1(Workload):
    name = "mc_table1"
    threads = POOL_THREADS

    def prepare(self, k=0):
        pass  # the CLI simulates its own replications from --seed

    def unit(self, i, threads):
        out = self.path("results.csv")
        chunk_seed = self.seed * 1000 + i
        code, text = run_cli(
            ["mc", "--design", "table1", "--reps", str(MC_CHUNK_REPS),
             "--seed", str(chunk_seed), "--threads", str(threads), "--out", out]
        )
        if code != 0:
            return UnitResult(
                MC_CHUNK_REPS, collections.Counter({f"exit{code}": MC_CHUNK_REPS}), code
            )
        failures = collections.Counter()
        n_failed = int(text.rsplit("(", 1)[1].split()[0])
        if n_failed:
            failures["failed_replication"] = n_failed
        with open(out, encoding="utf-8") as fh:
            body = fh.read()
        rows = list(csv.DictReader(io.StringIO(body)))
        accuracy = None
        for row in rows:
            if not all(math.isfinite(float(row[k])) for k in ("B", "S", "R")):
                failures["nonfinite_summary"] += 1
            if row["ECP"] and not 0.0 <= float(row["ECP"]) <= 1.0:
                failures["ecp_out_of_range"] += 1
            if (row["target"], row["estimator"], row["a"]) == MC_ACCURACY:
                accuracy = (float(row["R"]), float(row["ECP"]))
        if accuracy is None:
            failures["missing_accuracy_row"] += 1
        return UnitResult(MC_CHUNK_REPS, failures, body, accuracy)


class BacktestRolling(Workload):
    name = "backtest_rolling"
    threads = POOL_THREADS

    def prepare(self, k=0):
        self.prices = self.path("backtest_prices.csv")
        gen.write_prices(self.prices, self.seed, BACKTEST_RETURNS, 6)

    def unit_key(self, i):
        return 0

    def unit(self, i, threads):
        report_path = self.path("backtest.json")
        dump = self.path("forecasts.csv")
        code, _ = run_cli(
            ["backtest", "--prices", self.prices, *BACKTEST_FLAGS,
             "--threads", str(threads), "--no-timestamp",
             "--out", report_path, "--dump-forecasts", dump]
        )
        windows = int(BACKTEST_FLAGS[1]) - int(BACKTEST_FLAGS[3])
        if code != 0:
            return UnitResult(windows, collections.Counter({f"exit{code}": windows}), code)
        with open(report_path, encoding="utf-8") as fh:
            body = fh.read()
        report = json.loads(body)
        failures = collections.Counter()
        if report["failed_windows"]:
            failures["carried_window"] = report["failed_windows"]
        for level in report["levels"].values():
            pvalues = [level[k] for k in ("coverage_p", "t_ind_p", "t_cc_p", "es_p")]
            if not 0 <= level["violations"] <= report["n_forecasts"] or any(
                p is not None and not 0.0 <= _number(p) <= 1.0 for p in pvalues
            ):
                failures["bad_test_statistic"] += 1
        nonfinite = np.zeros(windows, dtype=bool)
        above = np.zeros(windows, dtype=bool)
        signature = [body]
        for a in BACKTEST_LEVELS:
            with open(self.path(f"forecasts_a{a}.csv"), encoding="utf-8") as fh:
                text = fh.read()
            signature.append(text)
            rows = list(csv.DictReader(io.StringIO(text)))
            for j, row in enumerate(rows):
                cvar, ces = float(row["cvar"]), float(row["ces"])
                if not (math.isfinite(cvar) and math.isfinite(ces)):
                    nonfinite[j] = True
                elif cvar > ces:
                    above[j] = True
        for name, flags in (("nonfinite", nonfinite), ("cvar_above_ces", above)):
            if flags.any():
                failures[name] = int(flags.sum())
        return UnitResult(windows, failures, tuple(signature))


class TailSweep(Workload):
    name = "tail_sweep"
    timed_per_op = True

    def prepare(self, k=0):
        """Set-up k fits stage 1 on its own series; the sweep cycles over them,
        so one run averages the sweep's cost over several inputs."""
        if k == 0:
            self.inputs = []
        returns = gen.simulate_returns((self.seed, k), SWEEP_RETURNS, 3)
        fit = evtrisk.smoothing.fit_location_scale(evtrisk.ingest.ReturnSeries(returns))
        self.inputs.append((fit, float(returns[-1])))
        n = fit.residuals.size
        lo, hi = evtrisk.tail.choose_N(n, 0.3), evtrisk.tail.choose_N(n, 1.0)
        self.counts = np.unique(np.linspace(lo, hi, SWEEP_COUNTS).round().astype(int))

    def _input(self, i):
        """(input index, tail count) of unit i: whole sweeps, input by input."""
        return (i // len(self.counts)) % len(self.inputs), int(self.counts[i % len(self.counts)])

    def unit_key(self, i):
        return self._input(i)

    def trace_units(self):
        return len(self.counts)

    def instrument(self, tracer):
        self.inputs = [(tracer.trace_queries(fit), x) for fit, x in self.inputs]

    def unit(self, i, threads):
        k, count = self._input(i)
        fit, x = self.inputs[k]
        try:
            sample = evtrisk.tail.extract_tail(fit, count)
            tail = evtrisk.gpd.fit_tail(sample)
            ests = [evtrisk.risk.estimate_at(fit, tail, a, x) for a in SWEEP_LEVELS]
        except evtrisk.EvtriskError as exc:
            return UnitResult(1, collections.Counter([type(exc).__name__]), type(exc).__name__)
        failed = []
        for e in ests:
            failed += risk_failures(e.cvar, e.ces, e.cvar_bc, e.ces_bc, e.ci_cvar, e.ci_ces)
        signature = tuple((e.cvar, e.ces, e.cvar_bc, e.ces_bc, *e.ci_cvar, *e.ci_ces)
                          for e in ests)
        return UnitResult(1, collections.Counter(failed[:1]), signature)


WORKLOADS = {w.name: w for w in (EstimateLong, McTable1, BacktestRolling, TailSweep)}
