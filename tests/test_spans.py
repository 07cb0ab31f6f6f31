"""The benchmark's traced run (perfbench/spans.py) patches evtrisk's layer
boundaries by module and attribute name.  These tests load that file as it
is and fail when a rename or a moved call leaves one of its targets behind."""

import importlib
import pathlib
import types
import warnings

import numpy as np

import evtrisk
import evtrisk.cli  # noqa: F401  (a traced module the package does not import)
from oracles import smoothed_sample

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # Compiled in memory: nothing is written next to the benchmark's files.
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


spans = _load_spans()


def test_span_targets_resolve():
    missing = [
        f"evtrisk.{module}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not hasattr(importlib.import_module(f"evtrisk.{module}"), attr)
    ]
    assert missing == []


def test_tracer_installs_and_restores():
    originals = {
        (module, attr): getattr(getattr(evtrisk, module), attr)
        for module, attr, _ in spans.TARGETS
    }
    rng = np.random.default_rng(8)
    sample = smoothed_sample(rng.standard_t(5, size=400), 40, h3=0.3)
    tracer = spans.Tracer()
    with tracer.installed(evtrisk):
        for (module, attr), original in originals.items():
            patched = getattr(getattr(evtrisk, module), attr)
            assert patched is not original
            assert patched.__wrapped__ is original
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evtrisk.gpd.rho_hat(sample)
    for (module, attr), original in originals.items():
        assert getattr(getattr(evtrisk, module), attr) is original
    # rho re-thresholds at two enlarged counts through the tail layer.
    names = [span[spans.NAME] for span in tracer.spans]
    assert names == ["gpd.rho", "tail.quantile", "tail.quantile"]
