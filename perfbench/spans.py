"""Span recording around the package's layer boundaries, from outside it.

The package is not instrumented.  For the length of a traced run,
``Tracer.installed()`` replaces the names that consumer modules look up at
call time (``evtrisk.mc.fit_location_scale``, ``evtrisk.gpd.gpd_mle``, ...)
with wrappers that record one span per call, and restores them afterwards.
A span is ``[name, start, end, parent_index, op_id, error]``; the layer is
the part of the name before the first dot.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import statistics
import time
import types
import warnings

LAYERS = ("cli", "ingest", "smoothing", "tail", "gpd", "risk", "mc", "backtest")

# (module, attribute, span name).  Every consumer module that imports a
# layer function by name gets its own entry, because it looks the name up
# in its own globals.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_prices", "ingest.load"),
    ("cli", "to_returns", "ingest.returns"),
    ("cli", "fit_location_scale", "smoothing.fit"),
    ("cli", "extract_tail", "tail.extract"),
    ("cli", "fit_tail", "gpd.fit_tail"),
    ("cli", "estimate_at", "risk.estimate"),
    ("cli", "run_experiment", "mc.run"),
    ("cli", "run_backtest", "backtest.run"),
    ("tail", "extract_tail", "tail.extract"),
    ("tail", "smoothed_quantile", "tail.quantile"),
    ("gpd", "smoothed_quantile", "tail.quantile"),
    ("gpd", "fit_tail", "gpd.fit_tail"),
    ("gpd", "gpd_mle", "gpd.mle"),
    ("gpd", "rho_hat", "gpd.rho"),
    ("risk", "estimate_at", "risk.estimate"),
    ("mc", "_simulate", "mc.simulate"),
    ("mc", "_replicate", "mc.replicate"),
    ("mc", "fit_location_scale", "smoothing.fit"),
    ("mc", "extract_tail", "tail.extract"),
    ("mc", "extract_tail_empirical", "tail.extract"),
    ("mc", "fit_tail", "gpd.fit_tail"),
    ("mc", "estimate_at", "risk.estimate"),
    ("backtest", "rolling_forecast", "backtest.rolling"),
    ("backtest", "_forecast_window", "backtest.window"),
    ("backtest", "fit_location_scale", "smoothing.fit"),
    ("backtest", "extract_tail", "tail.extract"),
    ("backtest", "fit_tail", "gpd.fit_tail"),
    ("backtest", "coverage_test", "backtest.tests"),
    ("backtest", "duration_tests", "backtest.tests"),
    ("backtest", "es_bootstrap_test", "backtest.bootstrap"),
)

# Modules whose EstimationWarnings are counted, by the module's own layer.
WARNING_MODULES = ("smoothing", "gpd", "risk", "backtest")

NAME, START, END, PARENT, OP, ERROR = range(6)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder for one single-process traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.failures: collections.Counter = collections.Counter()
        self.warnings: collections.Counter = collections.Counter()

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        """Record the enclosed block as one span; op tags it and its children."""
        outer_op = self.op
        if op is not None:
            self.op = op
        index = len(self.spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.spans.append(record)
        self.stack.append(index)
        record[START] = time.perf_counter()
        try:
            yield record
        except Exception as exc:
            record[ERROR] = type(exc).__name__
            # Count a failure once, in the innermost layer it left.
            if not hasattr(exc, "_perfbench_layer"):
                exc._perfbench_layer = layer_of(name)
                self.failures[(layer_of(name), type(exc).__name__)] += 1
            raise
        finally:
            record[END] = time.perf_counter()
            self.stack.pop()
            self.op = outer_op

    def wrap(self, name: str, fn):
        span = self.span

        def traced(*args, **kwargs):
            before = sum(self.failures.values())
            with span(name):
                result = fn(*args, **kwargs)
            if name == "smoothing.fit":
                return self.trace_queries(result)
            if name == "backtest.window" and result[3] is not None:
                # A window catches its own EvtriskError and returns it as
                # text; count it here unless a deeper layer already did.
                if sum(self.failures.values()) == before:
                    self.failures[("backtest", result[3].split(":", 1)[0])] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def trace_queries(self, fit):
        """The fit with its m_hat/h_hat evaluators traced as smoothing queries."""
        return dataclasses.replace(
            fit,
            m_hat=self.wrap("smoothing.query", fit.m_hat),
            h_hat=self.wrap("smoothing.query", fit.h_hat),
        )

    def _counting_warnings(self, layer: str):
        shim = types.ModuleType("warnings")
        shim.__dict__.update(warnings.__dict__)
        counts = self.warnings

        def warn(message, category=None, stacklevel=1, **kwargs):
            counts[layer] += 1
            warnings.warn(message, category, stacklevel + 1, **kwargs)

        shim.warn = warn
        return shim

    @contextlib.contextmanager
    def installed(self, package):
        """Patch the layer boundaries of `package` (the imported evtrisk)."""
        saved = []
        try:
            for module_name, attr, span_name in TARGETS:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            for module_name in WARNING_MODULES:
                module = getattr(package, module_name)
                saved.append((module, "warnings", module.warnings))
                module.warnings = self._counting_warnings(module_name)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - union_length(children.get(i, ()), span[START], span[END])
        for i, span in enumerate(spans)
    ]


def span_cost(calls: int = 20000) -> float:
    """Seconds a traced call costs more than a plain one, per span."""
    tracer = Tracer()
    plain = len
    traced = tracer.wrap("bench.noop", len)
    arg = ()
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            plain(arg)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(arg)
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


TIMINGS = {
    # metric: (span name, self time instead of duration, call-count metric)
    "smoothing.fit_s": ("smoothing.fit", False, "smoothing.fit_calls"),
    "smoothing.query_s": ("smoothing.query", False, "smoothing.query_calls"),
    "tail.extract_s": ("tail.extract", False, "tail.extract_calls"),
    "tail.quantile_s": ("tail.quantile", False, "tail.quantile_calls"),
    "gpd.mle_s": ("gpd.mle", False, "gpd.mle_calls"),
    "gpd.rho_self_s": ("gpd.rho", True, "gpd.rho_calls"),
    "gpd.fit_tail_self_s": ("gpd.fit_tail", True, "gpd.fit_tail_calls"),
    "risk.estimate_self_s": ("risk.estimate", True, "risk.estimate_calls"),
    "mc.simulate_s": ("mc.simulate", False, "mc.simulate_calls"),
    "mc.replicate_s": ("mc.replicate", False, "mc.replicate_calls"),
    "mc.aggregate_s": ("mc.run", True, "mc.run_calls"),
    "backtest.window_s": ("backtest.window", False, "backtest.window_calls"),
    "backtest.tests_s": ("backtest.tests", False, "backtest.tests_calls"),
    "backtest.bootstrap_s": ("backtest.bootstrap", False, "backtest.bootstrap_calls"),
    "ingest.load_s": ("ingest.load", False, "ingest.load_calls"),
    "cli.self_s": ("cli.main", True, "cli.main_calls"),
}


def per_layer_catalogue() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), in BENCHMARK.json's order."""
    catalogue = {}
    for metric, (_, _, calls) in TIMINGS.items():
        catalogue[metric] = ("s", "lower")
        catalogue[calls] = ("count", "lower")
    for layer in LAYERS:
        catalogue[f"{layer}.share"] = ("fraction", "lower")
    for layer in LAYERS:
        catalogue[f"{layer}.failed"] = ("count", "lower")
    for layer in WARNING_MODULES:
        catalogue[f"{layer}.warnings"] = ("count", "lower")
    catalogue["mc.pool_efficiency"] = ("fraction", "higher")
    catalogue["backtest.pool_efficiency"] = ("fraction", "higher")
    catalogue["smoothing.fit_scaling_8000_over_1000"] = ("ratio", "lower")
    catalogue["trace.overhead_frac"] = ("fraction", "lower")
    catalogue["trace.unattributed_frac"] = ("fraction", "lower")
    # Traced operations that failed an output check (fail_ratio's numerator).
    catalogue["checks.flagged"] = ("count", "lower")
    return catalogue


def layer_metrics(tracer: Tracer, root: str, per_span_cost: float) -> dict[str, float]:
    """Per-layer metrics from the spans under the `root`-named op spans.

    Shares divide each layer's self time by the total op time; the op
    spans' own self time is the unattributed part.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    total = sum(s[END] - s[START] for s in spans if s[NAME] == root)
    out: dict[str, float] = {}
    for metric, (span_name, use_self, calls) in TIMINGS.items():
        values = [
            selfs[i] if use_self else s[END] - s[START]
            for i, s in enumerate(spans)
            if s[NAME] == span_name
        ]
        out[metric] = _median(values)
        out[calls] = len(values)
    layer_self = collections.Counter()
    for i, s in enumerate(spans):
        layer_self[layer_of(s[NAME])] += selfs[i]
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / total if total else 0.0
    for layer in LAYERS:
        out[f"{layer}.failed"] = sum(
            n for (lay, _), n in tracer.failures.items() if lay == layer
        )
    for layer in WARNING_MODULES:
        out[f"{layer}.warnings"] = tracer.warnings[layer]
    root_self = sum(selfs[i] for i, s in enumerate(spans) if s[NAME] == root)
    out["trace.unattributed_frac"] = root_self / total if total else 0.0
    out["trace.overhead_frac"] = len(spans) * per_span_cost / total if total else 0.0
    return out
