"""Exception and warning types shared across the package, and the job
runner of the Monte Carlo and backtest harnesses, which carries each job's
warnings back from its pool worker."""

import functools
import warnings


class EvtriskError(Exception):
    """Base class for all evtrisk failures."""


class InputError(EvtriskError):
    """Invalid user input: bad file, bad flag value, violated precondition."""


class DegenerateFitError(EvtriskError):
    """Singular local design or degenerate sample in the first stage."""


class TailError(EvtriskError):
    """Tail construction or tail-moment precondition failed."""


class ConvergenceError(EvtriskError):
    """Iterative solver did not converge."""


class PoleError(EvtriskError):
    """Closed-form expression evaluated at a pole of one of its factors."""


class EstimationWarning(UserWarning):
    """Non-fatal estimation issue: fallbacks, clamps, boundary solutions."""


def _recording_warnings(fn, job):
    """(fn(job), the warnings it issued)."""
    with warnings.catch_warnings(record=True) as caught:
        return fn(job), caught


def run_jobs(fn, jobs, threads: int, chunksize: int) -> list:
    """[fn(job) for job in jobs], on a pool of min(threads, len(jobs)) worker
    processes when that is above 1, else in this process.  The pool starts
    all of its workers at once, busy or not, so it gets no more than there
    are jobs.  A worker's warnings would stay in the worker: each job
    returns its own, and they are issued here, in job order and under this
    process's filters, as if raised here at any thread count.
    warn_explicit keeps their origin and, unlike warnings.warn, is not
    counted again by the benchmark's tracer (perfbench/spans.py)."""
    call = functools.partial(_recording_warnings, fn)
    workers = min(threads, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(call, jobs, chunksize=chunksize))
    else:
        done = [call(job) for job in jobs]
    registry = {}  # a "default" filter shows a repeated warning once per call
    for _, caught in done:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, registry=registry)
    return [result for result, _ in done]
