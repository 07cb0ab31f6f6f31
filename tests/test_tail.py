import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    smoothed_cdf_oracle,
    smoothed_quantile_oracle,
    smoothed_quantile_windowed,
    smoothed_sample,
)
from evtrisk import tail
from evtrisk.errors import InputError, TailError
from evtrisk.gpd import RHO_C
from evtrisk.ingest import ReturnSeries
from evtrisk.smoothing import fit_location_scale, rot_bandwidth_density
from evtrisk.tail import (
    choose_N,
    empirical_quantile,
    extract_tail,
    extract_tail_empirical,
    smoothed_cdf,
    smoothed_quantile,
)


def test_choose_N_published_schedule():
    assert choose_N(1000, 0.7) == 164
    assert choose_N(2000, 0.7) == 284
    assert choose_N(4000, 0.7) == 491
    assert choose_N(1000, 1.0) == 234


def test_choose_N_clamps():
    assert choose_N(100, 0.01) == 10
    assert choose_N(100, 10.0) == 50
    with pytest.raises(InputError):
        choose_N(99)


# ---------------------------------------------------------------- smoothed CDF


def test_smoothed_cdf_saturates():
    res = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    assert smoothed_cdf(2.0 + 0.5, res, h3=0.5) == pytest.approx(1.0)
    assert smoothed_cdf(-2.0 - 0.5, res, h3=0.5) == pytest.approx(0.0)


def test_smoothed_cdf_symmetry_at_zero():
    res = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    assert smoothed_cdf(0.0, res, h3=0.5) == pytest.approx(0.5)


def test_smoothed_cdf_matches_density_quadrature():
    rng = np.random.default_rng(8)
    res = rng.standard_normal(40)
    h3 = 0.4

    def density(y):
        u = (y - res[:, None]) / h3
        w = np.where(np.abs(u) <= 1, 0.75 * (1 - u * u), 0.0)
        return w.sum(axis=0) / (res.size * h3)

    nodes, weights = np.polynomial.legendre.leggauss(5)

    def integral_to(u):
        # piecewise quadrature with breakpoints at every kernel edge
        kinks = np.concatenate([res - h3, res + h3, [u]])
        kinks = np.unique(kinks[kinks <= u])
        total = 0.0
        for a, b in zip(kinks[:-1], kinks[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            total += half * float(weights @ density(mid + half * nodes))
        return total

    for u in (-1.3, -0.2, 0.4, 1.7):
        assert smoothed_cdf(u, res, h3) == pytest.approx(integral_to(u), abs=1e-8)


def test_smoothed_cdf_monotone_random_pairs():
    rng = np.random.default_rng(9)
    res = rng.standard_normal(200)
    pairs = rng.uniform(-4, 4, size=(1000, 2))
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    f_lo = np.array([smoothed_cdf(u, res, 0.3) for u in lo])
    f_hi = np.array([smoothed_cdf(u, res, 0.3) for u in hi])
    assert np.all(f_hi >= f_lo - 1e-12)


# ---------------------------------------------------------------- quantile


def test_smoothed_quantile_symmetric_median():
    res = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    assert smoothed_quantile(0.5, res, 0.5) == pytest.approx(0.0, abs=1e-9)


def test_smoothed_quantile_defining_property():
    rng = np.random.default_rng(10)
    res = rng.standard_normal(300)
    for a in (0.9, 0.95, 0.99):
        q = smoothed_quantile(a, res, 0.25)
        assert smoothed_cdf(q, res, 0.25) == pytest.approx(a, abs=1e-10)


def test_smoothed_quantile_statistical_accuracy():
    rng = np.random.default_rng(11)
    res = rng.standard_normal(10_000)
    q = smoothed_quantile(0.95, res, 0.1)
    assert q == pytest.approx(1.6449, abs=0.05)


def test_smoothed_quantile_level_validation():
    with pytest.raises(InputError):
        smoothed_quantile(1.2, np.arange(5.0), 0.5)
    # A hand-built TailSample defaults to a "smoothed" rule with h3 None.
    with pytest.raises(InputError, match="bandwidth"):
        smoothed_quantile(0.5, np.arange(5.0), None)


# Samples per (tail index, zero block) at each n: 84 cases per sample set,
# 2100 cases in all.
_GRID_SAMPLES = {300: 10, 1000: 8, 4000: 4, 8000: 3}


def _quantile_or_error(fn, a, res, h3):
    try:
        return fn(a, res, h3)
    except TailError as exc:
        return f"TailError: {exc}"


def _assert_meets_bisection(reference, a, res, h3):
    """smoothed_quantile against a bisection to the same tolerance: the same
    TailError, else |F(q) - a| <= 1e-10 at the returned q, and q meets the
    bisection's root q_b.  Where F equals a on a whole flat stretch (a = i/n
    and the i-th and (i+1)-th smallest residuals lie more than 2 h3 apart)
    every point of it passes, so the two need only lie on the same stretch:
    no residual strictly between them, hence the same exceedances.
    Elsewhere the root is unique, and |F(q) - F(q_b)| <= 2e-10 puts q within
    2e-10 / f of q_b, f the smaller kernel density of the two (measured on
    this grid: at most 0.94 of that distance)."""
    expect = _quantile_or_error(reference, a, res, h3)
    got = _quantile_or_error(smoothed_quantile, a, res, h3)
    if isinstance(expect, str) or isinstance(got, str):
        assert got == expect
        return
    rs = np.sort(res)
    val, dens = tail._cdf_sorted(got, rs, h3, density=True)
    assert abs(val - a) <= tail.QUANTILE_TOL
    i = round(a * rs.size)
    flat = abs(i / rs.size - a) <= tail.QUANTILE_TOL and 0 < i < rs.size
    if flat and rs[i] - rs[i - 1] > 2.0 * h3:
        lo, hi = sorted((got, expect))
        assert not np.any((rs > lo) & (rs < hi))
    else:
        dens = min(dens, tail._cdf_sorted(expect, rs, h3, density=True)[1])
        assert abs(got - expect) <= 2.0 * tail.QUANTILE_TOL / dens


@pytest.mark.parametrize("n", sorted(_GRID_SAMPLES))
def test_smoothed_quantile_equals_on_bisection_oracle(n):
    """The Newton quantile meets the O(n) bisection's root (see
    _assert_meets_bisection): t(3/4/6) residuals, with and without a block
    of exact zeros (stage 1 writes 0 where the variance fit is not
    positive), at the pipeline's bandwidth and a hundredth of it, at the
    tail level 1 - N/n, rho_hat's two enlarged-count levels and four fixed
    levels."""
    rng = np.random.default_rng(1300 + n)
    N = choose_N(n)
    counts = [max(int(math.floor(cc * N * math.log(n) + 0.5)), 10) for cc in (RHO_C, RHO_C / 2)]
    levels = [1.0 - N / n] + [1.0 - c / n for c in counts] + [0.5, 0.9, 0.95, 0.99]
    cases = 0
    for v in (3, 4, 6):
        for zero_block in (False, True):
            for _ in range(_GRID_SAMPLES[n]):
                res = rng.standard_t(v, size=n)
                if zero_block:
                    start = rng.integers(0, n - n // 10)
                    res[start:start + n // 10] = 0.0
                h3 = rot_bandwidth_density(rng.standard_t(v, size=n))
                for bw in (h3, 0.01 * h3):
                    for a in levels:
                        _assert_meets_bisection(smoothed_quantile_oracle, a, res, bw)
                        cases += 1
    assert cases == 84 * _GRID_SAMPLES[n]


# Samples per (tail index, residual kind) at each n: 24 cases per sample,
# 10368 cases in all.
_REPLAY_SAMPLES = {300: 24, 1000: 14, 4000: 6, 8000: 4}


@pytest.mark.parametrize("n", sorted(_REPLAY_SAMPLES))
def test_smoothed_quantile_replays_windowed_bisection(n):
    """The Newton quantile meets the per-step windowed bisection's root (see
    _assert_meets_bisection): t(3/4/6) residuals, plain, with a block of
    exact zeros, or rounded to a 0.01 tick, at 0.01, 1 and 3 times the
    pipeline's bandwidth, at the tail level 1 - N/n, rho_hat's two
    enlarged-count levels and five fixed levels from 0.5 to 0.999."""
    rng = np.random.default_rng(2000 + n)
    N = choose_N(n)
    counts = [max(int(math.floor(cc * N * math.log(n) + 0.5)), 10) for cc in (RHO_C, RHO_C / 2)]
    levels = [1.0 - N / n] + [1.0 - c / n for c in counts] + [0.5, 0.9, 0.95, 0.99, 0.999]
    cases = 0
    for v in (3, 4, 6):
        for kind in ("plain", "zeros", "tick"):
            for _ in range(_REPLAY_SAMPLES[n]):
                res = rng.standard_t(v, size=n)
                if kind == "zeros":
                    start = rng.integers(0, n - n // 10)
                    res[start:start + n // 10] = 0.0
                elif kind == "tick":
                    res = np.round(res, 2)
                h3 = rot_bandwidth_density(rng.standard_t(v, size=n))
                for bw in (0.01 * h3, h3, 3.0 * h3):
                    for a in levels:
                        _assert_meets_bisection(smoothed_quantile_windowed, a, res, bw)
                        cases += 1
    assert cases == 216 * _REPLAY_SAMPLES[n]


@pytest.mark.parametrize("res, h3, a, message", [
    # Every residual rounds to its own window's end: F jumps from 0 to 1.
    (np.full(100, 1e20), 1.0, 0.5, "no bracket"),
    # A block of ties at 4 under a bandwidth near the float spacing there:
    # F rises by more than 1e-8 from one float to the next, at two
    # bandwidths.
    (np.concatenate((np.linspace(-4.0, 3.0, 150), np.full(150, 4.0))), 2e-9, 0.7,
     "did not converge"),
    (np.concatenate((np.linspace(-4.0, 3.0, 150), np.full(150, 4.0))), 2e-10, 0.7,
     "did not converge"),
])
def test_smoothed_quantile_replay_raises_as_windowed_bisection(res, h3, a, message):
    expect = _quantile_or_error(smoothed_quantile_windowed, a, res, h3)
    assert expect.startswith("TailError") and message in expect
    assert _quantile_or_error(smoothed_quantile, a, res, h3) == expect


@pytest.mark.parametrize("n", [1000, 8000])
def test_tail_level_quantile_makes_few_cdf_evaluations(monkeypatch, n):
    """A quantile at the tail level 1 - N/n evaluates F at most 6 times,
    the bracket check included (the measured maximum on these samples); the
    per-step bisection takes about 34."""
    calls = []
    cdf = tail._cdf_sorted

    def counted(*args, **kwargs):
        calls.append(args[0])
        return cdf(*args, **kwargs)

    monkeypatch.setattr(tail, "_cdf_sorted", counted)
    rng = np.random.default_rng(20 + n)
    a = 1.0 - choose_N(n) / n
    most = 0
    for _ in range(20):
        res = rng.standard_t(3, size=n)
        calls.clear()
        smoothed_quantile(a, res, rot_bandwidth_density(res))
        most = max(most, len(calls))
    assert most <= 6


@given(
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=200),
    st.floats(1e-3, 10.0),
    st.floats(-60.0, 60.0),
    st.floats(-60.0, 60.0),
)
@settings(max_examples=300, deadline=None)
def test_smoothed_cdf_matches_oracle_and_is_monotone(residuals, h3, u, v):
    # Monotone up to rounding: a sum of n terms can step back by an ulp,
    # at the oracle as well.
    lo, hi = min(u, v), max(u, v)
    f_lo, f_hi = smoothed_cdf(lo, residuals, h3), smoothed_cdf(hi, residuals, h3)
    assert abs(f_lo - smoothed_cdf_oracle(lo, residuals, h3)) <= 1e-13
    assert abs(f_hi - smoothed_cdf_oracle(hi, residuals, h3)) <= 1e-13
    assert -1e-13 <= f_lo <= f_hi + 1e-13 <= 1.0 + 2e-13


# ---------------------------------------------------------------- tail extraction


def test_extract_tail_ramp_fixture():
    res = np.arange(1.0, 101.0)
    sample = smoothed_sample(res, N=10, h3=1.0)
    assert sample.q_tilde == pytest.approx(90.0, abs=1.5)
    assert 7 <= sample.N_s <= 13
    assert np.all(sample.exceedances > 0)
    assert np.all(np.diff(sample.exceedances) >= 0)
    assert sample.N_s == np.sum(res > sample.q_tilde)


def test_extract_tail_shift_equivariance():
    rng = np.random.default_rng(12)
    res = rng.standard_normal(500)
    s0 = smoothed_sample(res, N=50, h3=0.3)
    s1 = smoothed_sample(res + 5.0, N=50, h3=0.3)
    assert s1.q_tilde == pytest.approx(s0.q_tilde + 5.0, abs=1e-7)
    np.testing.assert_allclose(s1.exceedances, s0.exceedances, atol=1e-7)


def test_extract_tail_degenerate_sample():
    with pytest.raises(TailError):
        smoothed_sample(np.zeros(100), N=10, h3=0.5)


def test_extract_tail_rejects_a_threshold_on_a_flat_stretch():
    # The 90th and 91st of 100 residuals lie 5 apart.  Under h3 = 0.5 the
    # smoothed F equals a_N = 0.9 on all of (0.5, 4.5), so every point there
    # passes the quantile's tolerance; under h3 = 2.6 the kernel windows
    # overlap and the threshold is unique.
    res = np.concatenate((np.linspace(-3.0, 0.0, 90), np.linspace(5.0, 8.0, 10)))
    with pytest.raises(TailError, match="not unique"):
        smoothed_sample(res, N=10, h3=0.5)
    sample = smoothed_sample(res, N=10, h3=2.6)
    assert 0.0 < sample.q_tilde < 5.0 and sample.N_s == 10


def test_extract_tail_counts_match():
    rng = np.random.default_rng(13)
    res = rng.standard_t(6, size=1500)
    sample = smoothed_sample(res, N=150, h3=0.2)
    assert sample.N_s == np.sum(res > sample.q_tilde)
    assert sample.exceedances.size == sample.N_s
    assert sample.a_N == pytest.approx(1 - 150 / 1500)


def test_ns_over_n_containment_iid():
    # stochastic exceedance count stays within a factor two of N
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        res = rng.standard_normal(2000)
        sample = smoothed_sample(res, N=choose_N(2000), h3=0.15)
        assert 0.5 <= sample.N_s / sample.N <= 2.0


def test_extract_tail_from_fit():
    rng = np.random.default_rng(14)
    fit = fit_location_scale(ReturnSeries(rng.standard_normal(600), kind="raw"))
    sample = extract_tail(fit, N=60)
    assert sample.n == fit.residuals.size
    assert sample.N == 60
    assert sample.h3 is not None


def test_tail_samples_sort_once_and_keep_every_bit(monkeypatch):
    # extract_tail sorts the residuals once, for the bandwidth and the
    # threshold; the quantile and a re-thresholded sample read that copy.
    # Every field equals the path that sorted in each step and took the
    # quartiles with np.percentile.
    rng = np.random.default_rng(15)
    fit = fit_location_scale(ReturnSeries(rng.standard_t(4, 1000), kind="raw"))
    res = fit.residuals
    q25, q75 = np.percentile(res, [25.0, 75.0])
    h3 = 0.79 * float(q75 - q25) * res.size ** (-0.19)
    sorts = []
    sort = np.sort
    monkeypatch.setattr(np, "sort", lambda *a, **k: sorts.append(1) or sort(*a, **k))
    got = extract_tail(fit, N=100)
    wide = tail.rethreshold(got, 250)
    monkeypatch.undo()
    assert len(sorts) == 1
    for sample, N in ((got, 100), (wide, 250)):
        want = smoothed_sample(rng.permutation(res), N, h3)
        for name in ("q_tilde", "N_s", "h3", "a_N"):
            assert getattr(sample, name) == getattr(want, name), name
        np.testing.assert_array_equal(sample.exceedances, want.exceedances)
        np.testing.assert_array_equal(sample.residuals_sorted, want.residuals_sorted)
        assert smoothed_quantile(sample.a_N, rng.permutation(res), h3) == sample.q_tilde


def test_empirical_quantile_order_statistic():
    values = np.arange(1.0, 11.0)
    # n a integer: x_(na)
    assert empirical_quantile(values, 0.8) == 8.0
    # fractional: x_([na]+1)
    assert empirical_quantile(values, 0.83) == 9.0


def test_extract_tail_empirical_top_block():
    values = np.arange(1.0, 101.0)
    sample = extract_tail_empirical(values, N=10)
    assert sample.q_tilde == 90.0
    assert sample.N_s == 10
    np.testing.assert_allclose(sample.exceedances, np.arange(1.0, 11.0))


@given(st.integers(min_value=100, max_value=100_000))
@settings(max_examples=30, deadline=None)
def test_choose_N_bounds(n):
    value = choose_N(n)
    assert 10 <= value <= n // 2
