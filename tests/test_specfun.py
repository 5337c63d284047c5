"""Accuracy targets checked against extended-precision references.

Each function is compared on >= 1000 log-spaced points to an mpmath
reference at 50 significant digits; the spot values quoted in the unit
examples are frozen from small independent series oracles implemented
here in mpmath directly.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cslbounds.specfun import (
    _ASYMPTOTIC_FACTORS,
    _SERIES_DENOMS,
    _SQRT_2PI,
    _ie,
    i0e,
    i1e,
)
from cslbounds.kspace import _j1_array, _sinc2_array

mp.mp.dps = 50

# Accuracy targets of the specfun module docstring (i0e, i1e) and of the kspace one (the oracle's kernels).
IE_REL_TOL = 1e-12  # i0e, i1e: relative, on [0, 1e8]
J1_ABS_TOL_LOW = 2e-15  # _j1_array: absolute, on [0, 1e3]
J1_ABS_TOL_HIGH = 1e-13  # _j1_array: absolute, on (1e3, 1e6]
# _sinc2_array: absolute.  Its series branch (x^2 < 1e-6) is (1 - x^2/6)^2,
# which leaves out x^4/120 inside the square: up to 1.7e-14 near the switch.
SINC2_ABS_TOL = 2e-14


def mp_series_i0(x):
    """Power-series oracle sum (x/2)^(2k) / (k!)^2 in extended precision."""
    x = mp.mpf(x)
    total = term = mp.mpf(1)
    for k in range(1, 200):
        term *= (x / 2) ** 2 / k**2
        total += term
        if term < mp.mpf(10) ** (-60) * total:
            break
    return total


def mp_series_i1(x):
    x = mp.mpf(x)
    total = term = x / 2
    for k in range(1, 200):
        term *= (x / 2) ** 2 / (k * (k + 1))
        total += term
        if term < mp.mpf(10) ** (-60) * total:
            break
    return total


def mp_series_j1(x):
    x = mp.mpf(x)
    total = term = x / 2
    for k in range(1, 300):
        term *= -((x / 2) ** 2) / (k * (k + 1))
        total += term
        if abs(term) < mp.mpf(10) ** (-60):
            break
    return total


def j1(x):
    return float(_j1_array(np.array([x]))[0])


def sinc2(x):
    return float(_sinc2_array(np.array([x]))[0])


GRID_WIDE = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 1100)])


def test_i0e_contract_1000_points():
    worst = 0.0
    for x in GRID_WIDE:
        ref = float(mp.exp(-x) * mp.besseli(0, mp.mpf(x)))
        worst = max(worst, abs(i0e(float(x)) - ref) / ref)
    assert worst <= IE_REL_TOL


def test_i1e_contract_1000_points():
    worst = 0.0
    for x in GRID_WIDE:
        ref = mp.exp(-x) * mp.besseli(1, mp.mpf(x))
        if ref == 0:
            worst = max(worst, abs(i1e(float(x))))
        else:
            worst = max(worst, abs(i1e(float(x)) - float(ref)) / float(ref))
    assert worst <= IE_REL_TOL


def test_i0e_at_zero():
    assert i0e(0.0) == 1.0


def test_i0e_at_one_vs_series_oracle():
    ref = float(mp.exp(-1) * mp_series_i0(1))
    assert i0e(1.0) == pytest.approx(ref, rel=1e-14)


def test_i0e_asymptote_at_1e6():
    # 1/sqrt(2 pi x) leading behavior; first correction is ~1.25e-7 there
    x = 1e6
    assert i0e(x) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * x), rel=1e-6)


def test_i0e_no_overflow_anywhere():
    for x in (1e100, 1e200, 1e308):
        v = i0e(x)
        assert math.isfinite(v) and v > 0.0


def test_i1e_at_zero():
    assert i1e(0.0) == 0.0


def test_i1e_at_one_vs_series_oracle():
    ref = float(mp.exp(-1) * mp_series_i1(1))
    assert i1e(1.0) == pytest.approx(ref, rel=1e-14)


@given(st.floats(min_value=0.0, max_value=1e8))
def test_i1e_below_i0e(x):
    assert i1e(x) <= i0e(x)


def test_scaled_bessels_monotone_decreasing():
    # e^-x I0 decreases everywhere; e^-x I1 rises to a peak at
    # x = 1.5451... and decreases beyond it, so the check starts at 2.
    xs = np.geomspace(1.0, 1e8, 400)
    v0 = [i0e(x) for x in xs]
    assert all(a > b for a, b in zip(v0, v0[1:]))
    xs1 = np.geomspace(2.0, 1e8, 400)
    v1 = [i1e(x) for x in xs1]
    assert all(a > b for a, b in zip(v1, v1[1:]))
    assert i1e(1.5451272579925427) > max(i1e(1.0), i1e(2.0))


@pytest.mark.parametrize("fn", [i0e, i1e])
def test_scaled_bessel_domain_errors(fn):
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            fn(bad)
        with pytest.raises(ValueError):
            fn(np.array([1.0, bad]))


def straddle(switch):
    """Log grid across a branch switch, with the switch value itself."""
    return np.sort(np.append(np.geomspace(switch / 4.0, switch * 4.0, 60), switch))


@pytest.mark.parametrize("order,fn", [(0, i0e), (1, i1e)])
def test_scaled_bessels_as_arrays_straddling_branch_switches(order, fn):
    # x = 20 is the series/asymptotic switch, x = 1e3 splits the asymptotic
    # series by step count; x = 1 is the radial bracket's switch
    beside = [math.nextafter(switch, side) for switch in (20.0, 1e3) for side in (0.0, math.inf)]
    xs = np.concatenate([[0.0], straddle(1.0), straddle(20.0), straddle(1e3), beside, [1e300]])
    got = fn(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    for x, g in zip(xs, got):
        ref = mp.exp(-x) * mp.besseli(order, mp.mpf(x))
        if ref == 0:
            assert g == 0.0
        else:
            assert abs(g - float(ref)) / float(ref) <= IE_REL_TOL, f"x={x}"
    singles = [fn(float(x)) for x in xs]
    assert all(type(v) is float for v in singles)
    assert np.array_equal(got, singles)


def _changes_sum(term, total, j):
    (t0, t1), (s0, s1) = term[:, j].tolist(), total[:, j].tolist()
    return abs(t0) > 1e-18 * abs(s0) or abs(t1) > 1e-18 * abs(s1)


def reference_ie(x):
    """e^-x I0 and e^-x I1 by the loop _ie replaced, kept as its reference.

    Every element of a branch steps as far as that branch's slowest one
    (the largest x of the power series, the smallest of the asymptotic
    one), testing that element for convergence after every step.
    """
    out = np.empty((2, x.size))
    small = x <= 20.0
    xs, xa = x[small], x[~small]
    term = np.vstack([np.ones_like(xs), 0.5 * xs])
    total = term.copy()
    q = 0.25 * xs * xs
    for k in range(1, 81):
        if not xs.size or not _changes_sum(term, total, int(np.argmax(xs))):
            break
        term *= q / np.array([[k * k], [k * (k + 1)]], dtype=float)
        total += term
    out[:, small] = np.exp(-xs) * total
    term, total, w = np.ones((2, xa.size)), np.ones((2, xa.size)), 0.125 / xa
    for k in range(1, 40):
        if not xa.size:
            break
        term *= np.array([[(2 * k - 1) ** 2 / k], [((2 * k - 1) ** 2 - 4) / k]]) * w
        total += term
        if not _changes_sum(term, total, int(np.argmin(xa))):
            break
    out[:, ~small] = total / (_SQRT_2PI * np.sqrt(xa))
    return out


SWITCHES = [0.0, 20.0, 1e3, *(math.nextafter(s, d) for s in (20.0, 1e3) for d in (0.0, math.inf))]
# the range the closed forms reach, any finite x >= 0, and the branch switches
bessel_args = st.one_of(
    st.floats(min_value=-6.0, max_value=17.0).map(lambda e: 10.0**e),
    st.floats(min_value=0.0, max_value=sys.float_info.max),
    st.sampled_from(SWITCHES),
)


@settings(derandomize=True, max_examples=200)
@given(st.lists(bessel_args, min_size=1, max_size=40).map(np.array))
@example(np.array(SWITCHES))
@example(np.geomspace(1e16, 1.0, 1462))  # a scan's descending grid, as the survey benchmark meets it
def test_ie_equals_its_per_step_checked_reference_bit_for_bit(x):
    assert np.array_equal(_ie(x), reference_ie(x))


def own_steps(term, factor, limit=80):
    """Each column's own step count: the first step after which _changes_sum's rule says its sum is done."""
    total, steps = term.copy(), np.zeros(term.shape[1], dtype=int)
    for k in range(1, limit + 1):
        term = term * factor(k)
        total = total + term
        changes = (np.abs(term) > 1e-18 * np.abs(total)).any(axis=0)
        steps[(steps == 0) & ~changes] = k
    assert steps.all(), "a series did not settle"
    return steps


def dense(lo, hi):
    """2e5 evenly spaced and 2e4 log-spaced points over [lo, hi]."""
    with np.errstate(over="ignore"):  # geomspace's intermediate powers overflow near the float max
        return np.concatenate([np.linspace(lo, hi, 200_000), np.geomspace(max(lo, 1e-300), hi, 20_000)])


def test_each_bessel_group_steps_exactly_its_slowest_elements_count():
    # recount every element's steps by its own rule: each group's fixed count must be the largest of them,
    # enough for every element and no step longer than needed
    xs = dense(0.0, 20.0)
    q = 0.25 * xs * xs
    series = own_steps(np.stack([np.ones_like(xs), 0.5 * xs]), lambda k: q / np.array([[k * k], [k * (k + 1)]]))
    # the asymptotic group's dense points, both sides of 1e3 included
    xa = np.concatenate([dense(math.nextafter(20.0, math.inf), 1e3), dense(math.nextafter(1e3, math.inf), sys.float_info.max)])
    asymptotic = own_steps(np.ones((2, xa.size)), lambda k: np.array([[(2 * k - 1) ** 2], [(2 * k - 1) ** 2 - 4]]) / (8 * k) / xa)
    assert [series.max(), asymptotic.max()] == [len(_SERIES_DENOMS), len(_ASYMPTOTIC_FACTORS)] == [36, 34]


def test_j1_contract_low_range():
    # dense across the branch switches at x = 4 and x = 30
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 1100), np.linspace(3.0, 40.0, 371)])
    ref = np.array([float(mp.besselj(1, mp.mpf(x))) for x in xs])
    assert np.max(np.abs(_j1_array(xs) - ref)) <= J1_ABS_TOL_LOW


def test_j1_contract_high_range():
    xs = np.geomspace(1e3, 1e6, 300)
    ref = np.array([float(mp.besselj(1, mp.mpf(x))) for x in xs])
    assert np.max(np.abs(_j1_array(xs) - ref)) <= J1_ABS_TOL_HIGH


def test_j1_at_zero():
    assert j1(0.0) == 0.0


def test_j1_at_one_vs_series_oracle():
    ref = float(mp_series_j1(1))
    assert ref == pytest.approx(0.4400505857449335, rel=1e-15)
    assert j1(1.0) == pytest.approx(ref, rel=1e-12)


def test_j1_first_zero_bracketed():
    # series oracle puts the first positive zero near 3.8317
    assert float(mp_series_j1("3.8316")) > 0.0 > float(mp_series_j1("3.8318"))
    assert j1(3.8316) > 0.0 > j1(3.8318)


def test_sinc_half_against_reference():
    xs = np.concatenate([np.geomspace(1e-12, 1e4, 1100), [0.0]])
    ref = np.array([float((mp.sin(mp.mpf(x)) / mp.mpf(x)) ** 2) if x != 0.0 else 1.0 for x in xs])
    assert np.max(np.abs(_sinc2_array(xs) - ref)) <= SINC2_ABS_TOL


def test_sinc_half_at_zero():
    assert sinc2(0.0) == 1.0


def test_sinc_half_at_pi():
    assert sinc2(math.pi) <= 1e-30


def test_sinc_half_taylor_branch():
    x = 1e-9
    assert abs(sinc2(x) - (1.0 - x * x / 6.0) ** 2) <= 1e-18


@given(st.floats(min_value=0.0, max_value=1e6))
def test_sinc_half_even(x):
    assert sinc2(-x) == sinc2(x)
