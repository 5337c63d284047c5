"""Closed-form force-noise PSDs: frozen values, branch oracles, properties."""

import ast
import copy
import math
import pathlib
import pickle
import re
import sys
import warnings
from fractions import Fraction
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cslbounds import (
    BAR_VARIANTS,
    HBAR,
    M_NUCLEON,
    CslBoundsError,
    CslParams,
    Cube,
    Cylinder,
    HalfCylinderBar,
    MassArrangement,
    MeasuredNoise,
    Readout,
    ResonantBar,
    SpectrumSeries,
    axial_factor,
    characteristic_dimension,
    cube_pair_force_psd,
    cylinder_pair_force_psd,
    ellis_ratio,
    exclusion_curve,
    force_psd_by_quadrature,
    lambda_max,
    load_detector_config,
    measured_force_psd,
    pair_correlation_factor,
)
from cslbounds import cslnoise
from cslbounds.cslnoise import (
    MIN_CORRELATION_LENGTH,
    _cube_bracket,
    _radial_bracket,
    _Record,
    bar_force_psd,
    force_noise_psd,
    forced_separation,
)
from cslbounds.detector import ARCHETYPES
from cslbounds.specfun import i0e, i1e

mp.mp.dps = 60

LIGO_GEOM = Cylinder(radius=0.17, length=0.20, mass=40.0)
LISA_GEOM = Cube(side=0.046, mass=1.928)
AURIGA_GEOM = HalfCylinderBar(radius=0.3, length=3.0, mass=2300.0)

exponents = st.floats(min_value=-8.0, max_value=2.0)


def log_uniform(lo, hi):
    """Floats 10^e for e uniform in [lo, hi]."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


# --- extended-precision oracles ----------------------------------------------


def mp_axial(a, L, rc):
    a, L, rc = mp.mpf(a), mp.mpf(L), mp.mpf(rc)
    u = 1 / (4 * rc * rc)
    return (
        1
        - mp.exp(-(L**2) * u)
        - mp.exp(-(a**2) * u)
        + mp.exp(-((a + L) ** 2) * u) / 2
        + mp.exp(-((a - L) ** 2) * u) / 2
    )


def mp_radial_bracket(x):
    x = mp.mpf(x)
    return 1 - mp.exp(-x) * (mp.besseli(0, x) + mp.besseli(1, x))


def mp_cube_bracket(z):
    z = mp.mpf(z)
    return 1 - mp.exp(-z * z) - mp.sqrt(mp.pi) * z * mp.erf(z)


def mp_q2(mass, rc):
    """(hbar N rc)^2 for a body of N nucleons, in mpmath so that no reference underflows."""
    return (mp.mpf(HBAR) * mp.mpf(mass) / mp.mpf(M_NUCLEON) * mp.mpf(rc)) ** 2


def mp_cylinder_pair(geometry, separation, arm_count, rc):
    """The cylinder-pair closed form at unit collapse rate, from its formula."""
    rc, L, R = (mp.mpf(v) for v in (rc, geometry.length, geometry.radius))
    bracket = mp_radial_bracket(R**2 / (2 * rc**2))
    return arm_count * 4 * mp_q2(geometry.mass, rc) / (L**2 * R**2) * mp_axial(separation, L, rc) * bracket


def mp_cube_pair(geometry, separation, rc):
    """The cube-pair closed form at unit collapse rate, from its formula."""
    rc, side = mp.mpf(rc), mp.mpf(geometry.side)
    bracket = mp_cube_bracket(side / (2 * rc))
    return 16 * mp_q2(geometry.mass, rc) * rc**2 / side**6 * mp_axial(separation, side, rc) * bracket**2


def mp_bar(geometry, variant, rc):
    """Either bar closed form at unit collapse rate, from its whole-bar formula."""
    rc, L, R = (mp.mpf(v) for v in (rc, geometry.length, geometry.radius))
    e4, e16 = mp.exp(-(L**2) / (4 * rc**2)), mp.exp(-(L**2) / (16 * rc**2))
    axial = mp.mpf(3) / 2 - e4 / 2 - e16 if variant == "printed" else mp.mpf(3) / 2 + e4 / 2 - 2 * e16
    return 4 * mp_q2(geometry.mass, rc) / (L**2 * R**2) * axial * mp_radial_bracket(R**2 / (2 * rc**2))


def mp_closed_form(det, rc, variant="rederived"):
    """A detector's closed form at unit collapse rate, from its formula."""
    geometry, arrangement = det.geometry, det.arrangement
    if isinstance(geometry, Cube):
        return mp_cube_pair(geometry, arrangement.separation, rc)
    if isinstance(geometry, HalfCylinderBar):
        return mp_bar(geometry, variant, rc)
    return mp_cylinder_pair(geometry, arrangement.separation, arrangement.arm_count, rc)


# --- pair correlation factor --------------------------------------------------


def test_pair_correlation_zero_separation_identity():
    # f_corr(0, L) = e^{-L^2/4rc^2} - 1, cancelling the standalone axial term
    L, rc = 0.2, 0.05
    expected = math.exp(-(L * L) / (4 * rc * rc)) - 1.0
    assert pair_correlation_factor(0.0, L, rc) == pytest.approx(expected, rel=1e-15)


def test_pair_correlation_underflows_to_zero_for_tiny_rc():
    # combined exponents ~ -1e11: no overflow, clean underflow to 0
    assert pair_correlation_factor(0.376, 0.046, 1e-7) == 0.0


def test_pair_correlation_vanishing_length_limit():
    # L -> 0: (1/2) e^{-a^2/4rc^2} (1 + 1 - 2) = 0
    a, rc = 1.0, 0.3
    tiny = 1e-12
    assert abs(pair_correlation_factor(a, tiny, rc)) <= 1e-12


def test_pair_correlation_domain_errors():
    with pytest.raises(ValueError):
        pair_correlation_factor(math.nan, 1.0, 1.0)
    with pytest.raises(ValueError):
        pair_correlation_factor(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        pair_correlation_factor(1.0, 1.0, 0.0)
    # a subnormal r_c: 1/r_c overflows, as for the axial factor
    with pytest.raises(ValueError, match=r"^r_c must be >= 2\.2250738585072014e-308 m, got 1e-310$"):
        pair_correlation_factor(1.0, 1.0, 1e-310)
    # these once returned nan: a NaN separation or length, or an infinite length (0 * inf)
    params = CslParams(1.0, 1e-3)
    for call, message in (
        (lambda: axial_factor(math.nan, 0.2, 1e-3), "separation must be finite and >= 0, got nan"),
        (lambda: axial_factor(0.376, math.nan, 1e-3), "length must be finite and > 0, got nan"),
        (lambda: axial_factor(0.0, math.inf, 1.0), "length must be finite and > 0, got inf"),
        (lambda: axial_factor(math.inf, math.inf, 1.0), "separation must be finite and >= 0, got inf"),
        (lambda: pair_correlation_factor(0.0, math.inf, 1.0), "length must be finite and > 0, got inf"),
        (lambda: pair_correlation_factor(math.inf, math.inf, 1.0), "separation must be finite and >= 0, got inf"),
        (lambda: cylinder_pair_force_psd(params, LIGO_GEOM, math.nan), "separation must be finite and >= 0, got nan"),
        (lambda: cube_pair_force_psd(params, LISA_GEOM, math.nan), "separation must be finite and >= 0, got nan"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@given(exponents, exponents, exponents)
def test_pair_correlation_bounded(ea, el, er):
    # three Gaussians of weight 1/2, 1/2, -1 keep the factor in [-1, 1]
    value = pair_correlation_factor(10.0**ea, 10.0**el, 10.0**er)
    assert -1.0 <= value <= 1.0


@given(st.floats(min_value=1e-6, max_value=1e3), st.floats(min_value=1e-9, max_value=1e-3))
def test_pair_correlation_far_separated_masses_vanish(a, scale):
    # a >= 1e3 rc with L <= a/2: every exponent is <= -(a/2rc)^2/4 <= -62500
    rc = a * scale / 1e3 if scale > 1e-6 else a * 1e-9
    rc = min(rc, a / 1e3)
    assert abs(pair_correlation_factor(a, a / 2.0, rc)) <= 1e-12


# --- axial factor ---------------------------------------------------------------


def test_axial_factor_zero_separation_suppression():
    for L, rc in [(0.2, 0.01), (0.2, 1.0), (0.046, 1e-7), (3.0, 100.0)]:
        assert abs(axial_factor(0.0, L, rc)) <= 1e-12


@pytest.mark.parametrize(
    "a,L",
    [(0.376, 0.046), (4000.0, 0.2), (1.5, 1.5), (0.046, 0.046)],
)
def test_axial_factor_matches_extended_precision_through_branch_switch(a, L):
    # log grid straddling the series/direct switch at (a+L)^2/(4 rc^2) = 0.5
    switch_rc = (a + L) / math.sqrt(2.0)
    for rc in np.geomspace(switch_rc / 300.0, switch_rc * 300.0, 61):
        ref = float(mp_axial(a, L, rc))
        got = axial_factor(a, L, float(rc))
        assert got == pytest.approx(ref, rel=2e-11, abs=0.0), f"rc={rc}"


@given(exponents, exponents, exponents)
@example(2.0, -7.0, 1.5)  # the four-exponential form gave -1.4e-17 here
def test_axial_factor_nonnegative(ea, el, er):
    assert axial_factor(10.0**ea, 10.0**el, 10.0**er) >= 0.0


def test_axial_factor_matches_extended_precision_over_13_decades():
    # fixed-seed log-uniform sample of (a, L, rc) over [1e-9, 1e4]^3; the
    # true factor spans ~1e-54 to 1, so the reference needs 250 digits
    rng = np.random.default_rng(2016)
    sample = 10.0 ** rng.uniform(-9.0, 4.0, size=(1500, 3))
    worst = 0.0
    with mp.workdps(250):
        for a, L, rc in sample:
            ref = mp_axial(a, L, rc)
            worst = max(worst, float(abs(axial_factor(float(a), float(L), float(rc)) - ref) / ref))
    assert worst <= 1e-14


def test_axial_factor_array_matches_scalar_calls():
    grid = np.geomspace(1e-9, 1e4, 301)
    for fn in (axial_factor, pair_correlation_factor):
        values = fn(0.376, 0.046, grid)
        assert isinstance(values, np.ndarray) and values.shape == grid.shape
        assert type(fn(0.376, 0.046, 1e-3)) is float
        assert np.array_equal(values, [fn(0.376, 0.046, float(rc)) for rc in grid]), fn.__name__


def test_axial_factor_rejects_nonpositive_rc_in_array():
    with pytest.raises(ValueError):
        axial_factor(0.376, 0.046, np.array([1e-3, 0.0]))
    with pytest.raises(ValueError):
        axial_factor(1.5, 1.5, np.array([1e-3, 1e-310]))


def test_axial_factor_limits_where_u_overflows():
    # 1/4rc^2 overflows below rc ~ 1e-154; the limits are 1 for a != L,
    # 3/2 for a = L and 0 at zero separation
    assert axial_factor(0.376, 0.046, 1e-160) == 1.0
    assert axial_factor(1.5, 1.5, 1e-160) == 1.5
    assert axial_factor(0.0, 0.046, 1e-160) == 0.0


def test_axial_factor_equals_one_plus_corrections():
    # widely separated masses, rc far below every scale: factor -> 1
    assert axial_factor(4000.0, 0.2, 1e-7) == pytest.approx(1.0, rel=1e-12)


# --- bracket branches -----------------------------------------------------------


def test_radial_bracket_matches_extended_precision():
    for x in np.geomspace(1e-8, 1e12, 101):
        ref = float(mp_radial_bracket(x))
        assert _radial_bracket(np.array([x]))[0] == pytest.approx(ref, rel=2e-15, abs=0.0), f"x={x}"


def test_cube_bracket_matches_extended_precision():
    for z in np.geomspace(1e-8, 1e4, 101):
        ref = float(mp_cube_bracket(z))
        assert _cube_bracket(np.array([z]))[0] == pytest.approx(ref, rel=2e-15, abs=0.0), f"z={z}"


def straddle(switch):
    """Log grid across a branch switch, with the switch value itself."""
    return np.sort(np.append(np.geomspace(switch / 4.0, switch * 4.0, 60), switch))


def test_brackets_as_arrays_straddling_branch_switches():
    # one array per switch (radial series at x = 1, i0e/i1e at x = 20,
    # cube series at z = 1), so both branches run in the same call
    for xs in (straddle(1.0), straddle(20.0)):
        got = _radial_bracket(xs)
        for x, g in zip(xs, got):
            assert g == pytest.approx(float(mp_radial_bracket(x)), rel=2e-15, abs=0.0), f"x={x}"
    zs = straddle(1.0)
    for z, g in zip(zs, _cube_bracket(zs)):
        assert g == pytest.approx(float(mp_cube_bracket(z)), rel=2e-15, abs=0.0), f"z={z}"


# the range the closed forms reach, any finite argument >= 0, and the branch switches
BRANCH_SWITCHES = [0.0, 1.0, 20.0, 1e3, cslnoise._ERF_ONE]
bracket_args = st.one_of(
    st.floats(min_value=-6.0, max_value=17.0).map(lambda e: 10.0**e),
    st.floats(min_value=0.0, max_value=sys.float_info.max),
    st.sampled_from([*BRANCH_SWITCHES, *(math.nextafter(s, math.inf) for s in BRANCH_SWITCHES[1:])]),
)


@settings(derandomize=True, max_examples=100)
@given(st.lists(bracket_args, min_size=1, max_size=40).map(np.array))
@example(np.array([*BRANCH_SWITCHES, *(math.nextafter(s, 0.0) for s in BRANCH_SWITCHES[1:])]))
def test_arrays_take_each_elements_float_value_bit_for_bit(x):
    # each element steps past its own convergence when its group needs more
    # steps, and the cube bracket calls erf only below the cut
    for fn in (i0e, i1e):
        assert np.array_equal(fn(x), [fn(v) for v in x.tolist()]), fn.__name__
    with np.errstate(all="ignore"):  # the closed forms' policy: z^2 overflows past z ~ 1e154
        for fn in (_radial_bracket, _cube_bracket):
            assert np.array_equal(fn(x), [fn(np.array([v]))[0] for v in x.tolist()]), fn.__name__


def test_erf_rounds_to_one_from_the_cube_bracket_cut_up():
    cut = cslnoise._ERF_ONE
    assert math.erf(math.nextafter(cut, 0.0)) < 1.0
    above = [cut]
    while len(above) < 2000:
        above.append(math.nextafter(above[-1], math.inf))
    above += [*np.geomspace(cut, 1e308, 2000).tolist(), sys.float_info.max, math.inf]
    assert all(math.erf(z) == 1.0 for z in above)
    # so the bracket is its formula with math.erf at every z, on both sides of the cut
    zs = np.concatenate([straddle(cut), [math.nextafter(cut, 0.0)], np.geomspace(1.0, 1e6, 200)])
    erf = np.fromiter(map(math.erf, zs), dtype=float)
    assert np.array_equal(_cube_bracket(zs), 1.0 - np.exp(-zs * zs) - math.sqrt(math.pi) * zs * erf)


def mp_bracket_at(bracket, t, digits_per_decade):
    """An mpmath bracket at t, with digits added for the cancellation below t = 1."""
    with mp.workdps(60 + math.ceil(digits_per_decade * max(0.0, -math.log10(t)))):
        return float(bracket(t))


@given(log_uniform(-300.0, 6.0))
@example(1.0)
@example(math.nextafter(1.0, 0.0))
@example(5e-3)
@example(20.0)
def test_radial_bracket_accuracy_contract(x):
    # 1 - e^-x (I0 + I1) ~ x/2 keeps about -log10(x) fewer digits than its terms
    assert _radial_bracket(np.array([x]))[0] == pytest.approx(mp_bracket_at(mp_radial_bracket, x, 1), rel=2e-15, abs=0.0)


@given(log_uniform(-150.0, 6.0))
@example(1.0)
@example(math.nextafter(1.0, 0.0))
@example(0.1)
def test_cube_bracket_accuracy_contract(z):
    # 1 - e^{-z^2} - sqrt(pi) z erf(z) ~ -z^2 keeps about -2 log10(z) fewer digits than its terms
    assert _cube_bracket(np.array([z]))[0] == pytest.approx(mp_bracket_at(mp_cube_bracket, z, 2), rel=2e-15, abs=0.0)


def test_brackets_array_matches_scalar_calls():
    xs = np.concatenate([straddle(1.0), straddle(20.0)])
    assert np.array_equal(_radial_bracket(xs), [_radial_bracket(np.array([x]))[0] for x in xs])
    zs = straddle(1.0)
    assert np.array_equal(_cube_bracket(zs), [_cube_bracket(np.array([z]))[0] for z in zs])


def test_cube_bracket_nonpositive():
    for z in np.geomspace(1e-8, 1e4, 31):
        assert _cube_bracket(np.array([z]))[0] <= 0.0


# --- closed forms ----------------------------------------------------------------


def test_zero_collapse_rate_gives_zero_everywhere():
    params = CslParams(0.0, 1e-7)
    assert cylinder_pair_force_psd(params, LIGO_GEOM, 4000.0, 2) == 0.0
    assert cube_pair_force_psd(params, LISA_GEOM, 0.376) == 0.0
    assert bar_force_psd(params, AURIGA_GEOM, "printed") == 0.0
    assert bar_force_psd(params, AURIGA_GEOM, "rederived") == 0.0


# hbar^2 m^2 rc^4 (cube) and hbar^2 m^2 rc^2 (cylinders) underflow below
# about 1e-65 and 1e-130 m; the PSD only becomes subnormal below 7e-151 m
TINY_RCS = [1e-64, 1e-70, 1e-100, 1e-140, 1e-150]


def test_cylinder_pair_small_rc_asymptote():
    # rc << R, L, a: both brackets -> 1 and the two-arm PSD approaches
    # 8 hbar^2 m^2 rc^2 / (L^2 R^2 m0^2)
    m, L, R = (mp.mpf(v) for v in (LIGO_GEOM.mass, LIGO_GEOM.length, LIGO_GEOM.radius))
    for rc in [1e-7, *TINY_RCS]:
        expected = float(8 * mp.mpf(HBAR) ** 2 * m**2 * mp.mpf(rc) ** 2 / (L**2 * R**2 * mp.mpf(M_NUCLEON) ** 2))
        got = cylinder_pair_force_psd(CslParams(1.0, rc), LIGO_GEOM, 4000.0, 2)
        assert got == pytest.approx(expected, rel=1e-5, abs=0.0), f"rc={rc}"


def test_cylinder_pair_zero_separation():
    assert cylinder_pair_force_psd(CslParams(1.0, 0.05), LIGO_GEOM, 0.0, 1) == 0.0


def test_cube_pair_small_rc_asymptote():
    # rc <= L/100: e^{-L^2/4rc^2}, erfc(L/2rc) and the pair correlation
    # vanish, leaving 4 pi hbar^2 m^2 rc^2 (1 - 2 rc/(sqrt(pi) L))^2 / (L^4 m0^2);
    # the correction is 2.2% at rc = L/100
    m, side = mp.mpf(LISA_GEOM.mass), mp.mpf(LISA_GEOM.side)
    for rc in [*np.geomspace(1e-8, LISA_GEOM.side / 100.0, 12).tolist(), *TINY_RCS]:
        r = mp.mpf(rc)
        leading = 4 * mp.pi * mp.mpf(HBAR) ** 2 * m**2 * r**2 / (side**4 * mp.mpf(M_NUCLEON) ** 2)
        expected = float(leading * (1 - 2 * r / (mp.sqrt(mp.pi) * side)) ** 2)
        got = cube_pair_force_psd(CslParams(1.0, rc), LISA_GEOM, 0.376)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0), f"rc={rc}"


def test_cube_pair_spot_value_at_standard_length():
    # frozen from the small-rc asymptote at rc = 1e-7 (agrees to ~5e-12)
    got = cube_pair_force_psd(CslParams(1.0, 1e-7), LISA_GEOM, 0.376)
    assert got == pytest.approx(4.2081e-22, rel=1e-4, abs=0.0)


def test_cube_pair_huge_rc_suppressed():
    # uniform noise cannot drive relative motion
    lam = 1.0
    near = cube_pair_force_psd(CslParams(lam, 0.02), LISA_GEOM, 0.376)
    far = cube_pair_force_psd(CslParams(lam, 1e3), LISA_GEOM, 0.376)
    assert far < 1e-12 * near


def test_bar_variants_agree_for_small_rc():
    for rc in [1e-3, 1e-9, *TINY_RCS]:
        params = CslParams(1.0, rc)
        printed = bar_force_psd(params, AURIGA_GEOM, "printed")
        rederived = bar_force_psd(params, AURIGA_GEOM, "rederived")
        assert printed > 0.0 and printed == pytest.approx(rederived, rel=1e-12, abs=0.0), f"rc={rc}"


def test_bar_variants_differ_for_large_rc():
    params = CslParams(1.0, 1.0)
    printed = bar_force_psd(params, AURIGA_GEOM, "printed")
    rederived = bar_force_psd(params, AURIGA_GEOM, "rederived")
    assert printed > 2.0 * rederived


def test_bar_large_rc_decay_orders():
    # printed axial ~ 3 L^2/16rc^2 (linear), rederived ~ 3 (L^2/16rc^2)^2
    L = AURIGA_GEOM.length
    for rc in (50.0, 100.0, 200.0):
        v = L * L / (16.0 * rc * rc)
        params = CslParams(1.0, rc)
        ratio_printed = bar_force_psd(params, AURIGA_GEOM, "printed") / bar_force_psd(params, AURIGA_GEOM, "rederived")
        assert ratio_printed == pytest.approx((3.0 * v) / (3.0 * v * v), rel=0.05)


def test_printed_bar_matches_extended_precision_over_13_decades():
    # The radial bracket switches from its Taylor series to 1 - (i0e + i1e)
    # at x = R^2/2rc^2 = 1 (rc = R/sqrt(2) = 0.21 m for AURIGA), where
    # neither branch cancels; the dense block straddles that switch, and
    # the grid reaches 1e-150 m, where the PSD is still a normal double.
    rc_switch = AURIGA_GEOM.radius / math.sqrt(2.0)
    grid = np.concatenate(
        [np.geomspace(1e-150, 1e-9, 60), np.geomspace(1e-9, 1e4, 261), np.geomspace(rc_switch / 1.1, rc_switch * 1.1, 200)]
    )
    got = bar_force_psd(CslParams(1.0, grid), AURIGA_GEOM, "printed")
    ref = np.array([float(mp_bar(AURIGA_GEOM, "printed", rc)) for rc in grid])
    assert np.max(np.abs(got - ref) / ref) <= 4e-15


DETECTORS = {name: load_detector_config(name) for name in ("ligo", "lisa_pathfinder", "auriga")}


@pytest.mark.parametrize("name, variant", [("ligo", None), ("lisa_pathfinder", None), *(("auriga", v) for v in BAR_VARIANTS)])
@given(rc=log_uniform(-140.0, 4.0))
# where x = R^2/2rc^2 or z = side/2rc meets the series window (x = 1, z = 1)
# and where the narrower windows were (x = 5e-3, z = 0.1): LIGO, LISA, AURIGA
@example(rc=0.17 / math.sqrt(2.0))
@example(rc=1.7)
@example(rc=0.023)
@example(rc=0.23)
@example(rc=0.3 / math.sqrt(2.0))
@example(rc=3.0)
def test_closed_form_accuracy_contract(name, variant, rc):
    # below 1e-140 m the PSD nears the subnormal range (about 7e-151 m)
    det = DETECTORS[name]
    got = force_noise_psd(CslParams(1.0, rc), det.geometry, det.arrangement, variant)
    assert got == pytest.approx(float(mp_closed_form(det, rc, variant or "rederived")), rel=4e-15, abs=0.0)


@pytest.mark.parametrize("kind", ["cylinder", "cube", "bar"])
@given(
    size=log_uniform(-3.0, 3.0),
    radius=log_uniform(-3.0, 3.0),
    separation=log_uniform(-3.0, 4.0),
    arm_count=st.sampled_from([1, 2]),
    variant=st.sampled_from(BAR_VARIANTS),
    rc=log_uniform(-140.0, 4.0),
)
def test_drawn_geometries_accuracy_contract(kind, size, radius, separation, arm_count, variant, rc):
    # the contract above, through force_noise_psd, for bodies other than the
    # bundled ones; a bar takes its forced separation and one arm, a cube one arm
    if kind == "cylinder":
        geometry, arrangement = Cylinder(radius, size, 40.0), MassArrangement(separation, arm_count)
        ref = mp_cylinder_pair(geometry, separation, arm_count, rc)
    elif kind == "cube":
        geometry, arrangement = Cube(size, 1.928), MassArrangement(separation)
        ref = mp_cube_pair(geometry, separation, rc)
    else:
        geometry = HalfCylinderBar(radius, size, 2300.0)
        arrangement = MassArrangement(forced_separation(geometry))
        ref = mp_bar(geometry, variant, rc)
    got = force_noise_psd(CslParams(1.0, rc), geometry, arrangement, variant)
    if sys.float_info.min <= float(ref) <= sys.float_info.max:  # a subnormal or inf reference states no contract
        assert got == pytest.approx(float(ref), rel=4e-15, abs=0.0)


def read_golden(name):
    """(r_c, lambda_max) rows of a golden scan file."""
    lines = (pathlib.Path(__file__).parent / "golden" / f"{name}_scan.csv").read_text().splitlines()
    return [tuple(map(float, line.split(","))) for line in lines if line[:1].isdigit()]


@pytest.mark.parametrize("name", DETECTORS)
def test_golden_files_match_extended_precision(name):
    # every golden lambda_max against S_meas / (2 S_model) with the model in mpmath
    det = DETECTORS[name]
    s_meas = mp.mpf(measured_force_psd(det, det.noise_entry()))
    rows = read_golden(name)
    assert len(rows) == 200
    worst = max(abs(lam - s_meas / (2 * mp_closed_form(det, rc))) / lam for rc, lam in rows)
    assert worst <= 4e-15


@pytest.mark.parametrize("rc", [7e-155, 1e-160, 1e-300, MIN_CORRELATION_LENGTH])
def test_closed_forms_silent_where_scaled_lengths_overflow(rc):
    # R^2/2rc^2, L^2/16rc^2 and (L/2rc)^2 overflow below rc ~ 1e-154, and
    # the printed bar's 4 L^2/16rc^2 below 1.09e-154; inf is their right
    # limit.  At 7e-155 m the PSD is a subnormal, below it 0, and neither
    # comes with a warning.
    params = CslParams(1.0, rc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [
            cylinder_pair_force_psd(params, LIGO_GEOM, 4000.0, 2),
            cube_pair_force_psd(params, LISA_GEOM, 0.376),
            *(bar_force_psd(params, AURIGA_GEOM, variant) for variant in BAR_VARIANTS),
        ]
    refs = [
        mp_cylinder_pair(LIGO_GEOM, 4000.0, 2, rc),
        mp_cube_pair(LISA_GEOM, 0.376, rc),
        *(mp_bar(AURIGA_GEOM, variant, rc) for variant in BAR_VARIANTS),
    ]
    for value, ref in zip(got, refs):
        if rc == 7e-155:  # a subnormal keeps about 8 significant digits
            assert value > 0.0 and value == pytest.approx(float(ref), rel=1e-6, abs=0.0)
        else:
            assert value == 0.0


def test_closed_forms_silent_over_the_whole_accepted_domain():
    # every overflow on the way to an underflowing PSD is a right limit,
    # also a 10 m cube's side/2rc, which overflows near the smallest rc
    params = CslParams(1.0, np.geomspace(MIN_CORRELATION_LENGTH, 1e4, 20_000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cylinder_pair_force_psd(params, LIGO_GEOM, 4000.0, 2)
        cube_pair_force_psd(params, LISA_GEOM, 0.376)
        assert np.all(np.isfinite(cube_pair_force_psd(params, Cube(side=10.0, mass=1000.0), 100.0)))
        for variant in BAR_VARIANTS:
            bar_force_psd(params, AURIGA_GEOM, variant)


@pytest.mark.parametrize(
    "geometry, separation, arm_count",
    [(Cube(side=1e60, mass=1.928), 0.376, 1), (Cube(side=1e-60, mass=1.928), 0.376, 1), (Cylinder(1e-90, 1e-90, 40.0), 4000.0, 2)],
)
def test_closed_forms_right_at_extreme_body_sizes(geometry, separation, arm_count):
    # side^6 overflows or vanishes here, and so does L^2 R^2: dividing by
    # either once raised OverflowError or ZeroDivisionError
    rc = np.geomspace(1e-9, 1e3, 13)
    got = force_noise_psd(CslParams(1.0, rc), geometry, MassArrangement(separation, arm_count))
    with mp.workdps(300):
        if isinstance(geometry, Cube):
            ref = np.array([float(mp_cube_pair(geometry, separation, r)) for r in rc])
        else:
            ref = np.array([float(mp_cylinder_pair(geometry, separation, arm_count, r)) for r in rc])
    assert np.all(ref > 0.0) and np.all(np.isfinite(ref))
    assert np.max(np.abs(got - ref) / ref) <= 2e-15


def test_closed_forms_right_where_the_axial_factor_underflows():
    # lengths and separations of ~1e-90 m at rc = 1 m: each term of the
    # axial factor multiplies two factors ~1e-181, so the factor itself
    # underflows to 0, while the PSDs are ~1e-190; the references cancel
    # to ~1e-362, hence 400 digits
    params, tiny = CslParams(1.0, 1.0), 1e-90
    bar = HalfCylinderBar(radius=tiny, length=tiny, mass=2300.0)
    cylinder = Cylinder(radius=tiny, length=tiny, mass=40.0)
    cube = Cube(side=tiny, mass=1.928)
    got = [
        bar_force_psd(params, bar, "rederived"),
        cylinder_pair_force_psd(params, cylinder, 2.0 * tiny),
        cube_pair_force_psd(params, cube, 1.5 * tiny),
    ]
    with mp.workdps(400):
        refs = [mp_bar(bar, "rederived", 1.0), mp_cylinder_pair(cylinder, 2.0 * tiny, 1, 1.0), mp_cube_pair(cube, 1.5 * tiny, 1.0)]
    for value, ref in zip(got, refs):
        assert value == pytest.approx(float(ref), rel=4e-15, abs=0.0)


def test_bar_rejects_unknown_variant():
    with pytest.raises(ValueError):
        bar_force_psd(CslParams(1.0, 1.0), AURIGA_GEOM, "guessed")


def test_force_noise_psd_dispatch(ligo, lisa, auriga):
    params = CslParams(1.0, 1e-7)
    assert force_noise_psd(params, ligo.geometry, ligo.arrangement) == cylinder_pair_force_psd(
        params, ligo.geometry, 4000.0, 2
    )
    assert force_noise_psd(params, lisa.geometry, lisa.arrangement) == cube_pair_force_psd(
        params, lisa.geometry, 0.376
    )
    assert force_noise_psd(params, auriga.geometry, auriga.arrangement) == bar_force_psd(
        params, auriga.geometry, "rederived"
    )


@pytest.mark.parametrize("variant", ["printed", "rederived"])
def test_closed_forms_accept_rc_arrays(ligo, lisa, auriga, variant):
    grid = np.geomspace(1e-9, 1e2, 50)
    for det in (ligo, lisa, auriga):
        values = force_noise_psd(CslParams(1.0, grid), det.geometry, det.arrangement, variant)
        assert values.shape == grid.shape
        single = [force_noise_psd(CslParams(1.0, float(rc)), det.geometry, det.arrangement, variant) for rc in grid]
        assert all(type(v) is float for v in single)
        assert np.array_equal(values, single), det.name


def test_csl_params_array_is_a_read_only_copy():
    grid = np.geomspace(1e-9, 1e2, 5)
    params = CslParams(1.0, grid)
    grid[0] = -1.0
    assert params.correlation_length[0] == 1e-9
    with pytest.raises(ValueError):
        params.correlation_length[0] = 2.0
    # a 0-d array is a scalar: stored as a float, not as the caller's array
    rc = np.array(1e-7)
    params = CslParams(1.0, rc)
    rc[()] = 5.0
    assert type(params.correlation_length) is float and params.correlation_length == 1e-7


def test_bar_arrangement_forced():
    assert AURIGA_GEOM.halves() == Cylinder(radius=0.3, length=1.5, mass=1150.0)
    assert forced_separation(AURIGA_GEOM) == 1.5
    assert forced_separation(LIGO_GEOM) is None and forced_separation(LISA_GEOM) is None


def test_rod_bodies_share_one_declaration_and_stay_distinct_types():
    cylinder, bar = Cylinder(0.3, 3.0, 2300.0), HalfCylinderBar(0.3, 3.0, 2300.0)
    fields = ["radius", "length", "mass", "density"]
    for body, kind in ((cylinder, Cylinder), (bar, HalfCylinderBar)):
        assert not {"__dataclass_fields__", "__init__", "__post_init__", "volume"} & vars(kind).keys()
        assert list(kind._fields) == fields
        assert repr(body) == f"{kind.__name__}(radius=0.3, length=3.0, mass=2300.0, density=None)"
        assert body == kind(radius=0.3, length=3.0, mass=2300.0) and hash(body) == hash(kind(0.3, 3.0, 2300.0))
        assert body.volume == math.pi * 0.3 * 0.3 * 3.0
        for name in fields:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(body, name, 1.0)
        with pytest.raises(AttributeError):
            body.foo = 1
        with pytest.raises(ValueError, match=r"^length must be finite and > 0, got -3\.0$"):
            kind(0.3, -3.0, 2300.0)
    assert bar != cylinder and cylinder != bar and not isinstance(bar, Cylinder)


def _value_types(base):
    for kind in base.__subclasses__():
        if not kind.__name__.startswith("_"):
            yield kind
        yield from _value_types(kind)


def _each_value_type_once():
    values = [CslParams(1.0, 1e-7), CslParams(1.0, np.geomspace(1e-9, 1e-6, 4)), LIGO_GEOM, LISA_GEOM, AURIGA_GEOM]
    values.append(SpectrumSeries([10.0, 20.0], [1e-22, 2e-22], "strain"))
    values.append(force_psd_by_quadrature(CslParams(1.0, 1e-7), LISA_GEOM, MassArrangement(1.0)))
    for name in ("ligo", "lisa_pathfinder", "auriga"):
        det = load_detector_config(name)
        values += [det, det.arrangement, det.response, det.readout, det.noise[0], ARCHETYPES[type(det.geometry)]]
        values += [ellis_ratio(det, det.noise[0]), exclusion_curve(det, det.noise[0], [1e-8, 1e-7, 1e-6])]
    return values


def test_value_types_are_slotted_and_survive_pickle_and_copy():
    values = _each_value_type_once()
    assert {type(v) for v in values} == set(_value_types(_Record))
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        arrays = [name for name in value._fields if isinstance(getattr(value, name), np.ndarray)]
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(clone) is type(value) and repr(clone) == repr(value)
            for name in value._fields:  # archetype too, which == leaves out
                assert np.array_equal(getattr(clone, name), getattr(value, name)), (type(value).__name__, name)
            assert not any(getattr(clone, name).flags.writeable for name in arrays)
            assert clone == value and hash(clone) == hash(value)
            for name in (*value._fields[:1], "foo"):
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                    setattr(clone, name, None)


@settings(derandomize=True, max_examples=20)
@given(st.lists(log_uniform(-9.0, 2.0), min_size=1, max_size=6, unique=True).map(sorted))
@example([1e-7, 1e-6])
def test_array_values_compare_and_hash_by_their_values(rcs):
    # == and hash once met an array of several entries as a truth value (ValueError) or a key (TypeError)
    ligo = load_detector_config("ligo")
    curve = exclusion_curve(ligo, ligo.noise[0], rcs)
    moved = [*rcs[:-1], rcs[-1] * 2.0]
    pairs = [
        (curve, exclusion_curve(ligo, ligo.noise[0], np.array(rcs)), exclusion_curve(ligo, ligo.noise[0], moved)),
        (CslParams(1.0, rcs), CslParams(1.0, np.array(rcs)), CslParams(1.0, moved)),
        (SpectrumSeries(rcs, rcs, "strain"), SpectrumSeries(np.array(rcs), rcs, "strain"), SpectrumSeries(rcs, moved, "strain")),
    ]
    for value, same, other in pairs:
        assert value == same and hash(value) == hash(same)
        assert value != other and other != value
    assert CslParams(1.0, rcs[:1]) != CslParams(1.0, rcs[0])  # a one-point grid is not a scalar


def test_no_module_imports_dataclasses():
    # value types build on cslnoise._Record: creating a dataclass costs about a millisecond at every start
    package = pathlib.Path(cslnoise.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            names += [node.module] if isinstance(node, ast.ImportFrom) else []
            assert "dataclasses" not in names, path.name


@pytest.mark.parametrize(
    "call",
    [
        lambda g: force_noise_psd(CslParams(1.0, 1e-7), g, MassArrangement(1.0)),
        characteristic_dimension,
        lambda g: force_psd_by_quadrature(CslParams(1.0, 1e-7), g, MassArrangement(1.0)),
    ],
    ids=["force_noise_psd", "characteristic_dimension", "force_psd_by_quadrature"],
)
def test_unsupported_geometry_is_a_type_error(call):
    with pytest.raises(TypeError, match=r"^unsupported geometry object$"):
        call(object())


def test_cylinder_pair_rejects_a_third_arm():
    with pytest.raises(ValueError, match=r"^arm_count must be 1 or 2, got 3$"):
        cylinder_pair_force_psd(CslParams(1.0, 1e-7), LIGO_GEOM, 4000.0, arm_count=3)


def test_negative_zero_collapse_rate_is_stored_as_positive_zero():
    # -0.0 passes the >= 0 check; stored as such it made every PSD -0.0
    params = CslParams(-0.0, 1e-7)
    assert type(params.collapse_rate) is float and math.copysign(1.0, params.collapse_rate) == 1.0
    assert math.copysign(1.0, cylinder_pair_force_psd(params, LIGO_GEOM, 4000.0, 2)) == 1.0
    assert type(CslParams(1, 1e-7).collapse_rate) is float


# --- properties ------------------------------------------------------------------


@given(
    st.floats(min_value=1e-20, max_value=1e10),
    st.floats(min_value=-8.0, max_value=2.0),
)
def test_linearity_in_collapse_rate_exact(lam, rc_exp):
    rc = 10.0**rc_exp
    single = cylinder_pair_force_psd(CslParams(lam, rc), LIGO_GEOM, 4000.0, 2)
    double = cylinder_pair_force_psd(CslParams(2.0 * lam, rc), LIGO_GEOM, 4000.0, 2)
    assert double == 2.0 * single
    single_c = cube_pair_force_psd(CslParams(lam, rc), LISA_GEOM, 0.376)
    double_c = cube_pair_force_psd(CslParams(2.0 * lam, rc), LISA_GEOM, 0.376)
    assert double_c == 2.0 * single_c
    for variant in ("printed", "rederived"):
        assert bar_force_psd(CslParams(2.0 * lam, rc), AURIGA_GEOM, variant) == 2.0 * bar_force_psd(
            CslParams(lam, rc), AURIGA_GEOM, variant
        )


@given(st.floats(min_value=1e-3, max_value=1e5), st.floats(min_value=-8.0, max_value=2.0))
def test_mass_square_scaling_exact(mass, rc_exp):
    rc = 10.0**rc_exp
    params = CslParams(1.0, rc)
    base = cylinder_pair_force_psd(params, Cylinder(0.17, 0.2, mass), 4000.0, 2)
    doubled = cylinder_pair_force_psd(params, Cylinder(0.17, 0.2, 2.0 * mass), 4000.0, 2)
    assert doubled == 4.0 * base


@given(st.floats(min_value=-7.0, max_value=1.0))
def test_outputs_nonnegative(rc_exp):
    params = CslParams(1.0, 10.0**rc_exp)
    assert cylinder_pair_force_psd(params, LIGO_GEOM, 4000.0, 2) >= 0.0
    assert cube_pair_force_psd(params, LISA_GEOM, 0.376) >= 0.0
    assert bar_force_psd(params, AURIGA_GEOM, "rederived") >= 0.0


def test_close_pair_suppression():
    # correlated kicks cancel: at a = rc/10 the pair PSD is down by
    # ~3 a^2/4rc^2 <= 7.5e-3 relative to the uncorrelated regime a = 10 rc
    # (the exact constant depends on L/rc; 1e-3 needs a <~ rc/28)
    for rc in (0.01, 0.1, 1.0):
        params = CslParams(1.0, rc)
        near = cube_pair_force_psd(params, LISA_GEOM, rc / 10.0)
        far = cube_pair_force_psd(params, LISA_GEOM, 10.0 * rc)
        assert near <= 7.5e-3 * far
        nearer = cube_pair_force_psd(params, LISA_GEOM, rc / 30.0)
        assert nearer <= 1e-3 * far


# --- geometry validation -----------------------------------------------------------


def test_density_consistency_accepted():
    Cylinder(radius=0.17, length=0.2, mass=40.0, density=2200.0)  # 0.13% off
    HalfCylinderBar(radius=0.3, length=3.0, mass=2300.0, density=2700.0)  # 0.43% off


def test_density_inconsistency_rejected():
    with pytest.raises(ValueError, match="inconsistent"):
        Cylinder(radius=0.17, length=0.2, mass=40.0, density=3000.0)


def test_geometry_dimension_validation():
    with pytest.raises(ValueError):
        Cube(side=-0.046, mass=1.928)
    with pytest.raises(ValueError):
        Cylinder(radius=0.17, length=0.0, mass=40.0)
    with pytest.raises(ValueError):
        Cube(side=0.046, mass=0.0)


def test_arrangement_validation():
    with pytest.raises(ValueError, match=r"^separation must be finite and >= 0, got -1\.0$"):
        MassArrangement(separation=-1.0)
    with pytest.raises(ValueError):
        MassArrangement(separation=1.0, arm_count=3)


def test_csl_params_validation():
    with pytest.raises(ValueError, match=r"^collapse_rate must be finite and >= 0, got -1\.0$"):
        CslParams(-1.0, 1e-7)
    with pytest.raises(ValueError):
        CslParams(1.0, 0.0)
    with pytest.raises(ValueError, match=r"^collapse_rate must be finite and >= 0, got nan$"):
        CslParams(math.nan, 1e-7)
    for bad in (0.0, -1e-7, math.nan, math.inf, 1e-310, 5e-324):
        with pytest.raises(ValueError, match="correlation_length"):
            CslParams(1.0, np.array([1e-7, bad]))
        # a float takes a fast path past the array check: every form of a scalar gets the same message
        message = f"correlation_length must be finite and >= {MIN_CORRELATION_LENGTH!r} m, got {bad!r}"
        for form in (bad, np.float64(bad), np.array([bad]), np.array(bad)):
            with pytest.raises(ValueError) as info:
                CslParams(1.0, form)
            assert str(info.value) == message, form
    # subnormal r_c: 1/r_c overflows, so the smallest normal double is the floor
    with pytest.raises(ValueError, match="got 1e-310"):
        CslParams(1.0, 1e-310)
    assert CslParams(1.0, MIN_CORRELATION_LENGTH).correlation_length == np.finfo(float).tiny
    with pytest.raises(ValueError):
        CslParams(1.0, np.ones((2, 2)))


@pytest.mark.parametrize(
    "rate, rc, message",
    [
        (1.0, "1e-7", "correlation_length must be a real number or a 1-d array of them, got str"),
        (1.0, b"1e-7", "correlation_length must be a real number or a 1-d array of them, got bytes"),
        (1.0, None, "correlation_length must be a real number or a 1-d array of them, got NoneType"),
        (1.0, True, "correlation_length must be a real number or a 1-d array of them, got bool"),
        (1.0, np.array([True]), "correlation_length must be a real number or a 1-d array of them, got ndarray"),
        (1.0, ["1e-7"], "correlation_length must be a real number or a 1-d array of them, got list"),
        (1.0, 1e-7 + 0j, "correlation_length must be a real number or a 1-d array of them, got complex"),
        (np.array([1.0, 2.0]), 1e-7, "collapse_rate must be a real number, got ndarray"),
        ("1", 1e-7, "collapse_rate must be a real number, got str"),
        (None, 1e-7, "collapse_rate must be a real number, got NoneType"),
        (True, 1e-7, "collapse_rate must be a real number, got bool"),
    ],
)
def test_csl_params_rejects_what_is_not_a_real_number(rate, rc, message):
    # numpy once parsed "1e-7" into a point at 1e-7 m, and None became nan
    with pytest.raises(TypeError) as info:
        CslParams(rate, rc)
    assert str(info.value) == message


def test_csl_params_keeps_every_real_number_type():
    assert CslParams(np.float64(2.0), np.float64(1e-7)) == CslParams(2.0, 1e-7)
    assert CslParams(2, np.int64(1)) == CslParams(Fraction(2), 1.0)
    assert CslParams(1.0, [1e-7, 1e-6]) == CslParams(1.0, np.array([1e-7, 1e-6]))
    for params in (CslParams(np.float64(2.0), np.float64(1e-7)), CslParams(2, np.array(1))):
        assert type(params.collapse_rate) is float and type(params.correlation_length) is float


def test_bar_halves_are_checked_when_the_bar_is_built():
    # the bar is valid, its halves are not: length/2 and mass/2 round to 0; no later call names a length it was not given
    with pytest.raises(ValueError, match=r"^half-cylinder length must be finite and > 0, got 0\.0$"):
        HalfCylinderBar(1e150, 5e-324, 1.0)
    with pytest.raises(ValueError, match=r"^half-cylinder mass must be finite and > 0, got 0\.0$"):
        HalfCylinderBar(0.3, 3.0, 5e-324)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Cylinder(True, 0.2, 40.0), "radius must be a real number, got bool"),
        (lambda: Cylinder(0.17, 0.2, np.True_), "mass must be a real number, got bool"),
        (lambda: Cube(0.046, True), "mass must be a real number, got bool"),
        (lambda: HalfCylinderBar(0.3, True, 2300.0), "length must be a real number, got bool"),
        (lambda: MassArrangement(True), "separation must be a real number, got bool"),
        (lambda: MassArrangement(0.0, arm_count=True), "arm_count must be a real number, got bool"),
        (lambda: cylinder_pair_force_psd(CslParams(1.0, 1e-7), LIGO_GEOM, 4000.0, True), "arm_count must be a real number, got bool"),
        (lambda: MeasuredNoise("n", "force", True), "noise psd must be a real number, got bool"),
        (lambda: MeasuredNoise("n", "force", 1.0, csl_fraction=True), "csl_fraction must be a real number, got bool"),
        (lambda: MeasuredNoise("n", "force", 1.0, frequency_hz=np.True_), "frequency_hz must be a real number, got bool"),
        (lambda: ResonantBar(True, 3.0), "omega0 must be a real number, got bool"),
        (lambda: Readout("strain", True), "arm_length must be a real number, got bool"),
        (lambda: axial_factor(True, 0.2, 1e-7), "separation must be a real number, got bool"),
        (lambda: CslParams(1.0, [True, 1e-7]), "correlation_length must be a real number or a 1-d array of them, got list"),
        (lambda: CslParams(1.0, (1e-7, np.True_)), "correlation_length must be a real number or a 1-d array of them, got tuple"),
    ],
)
def test_a_bool_is_not_a_number_to_any_value_type(build, message):
    # numpy and math take True for 1: each of these once went through with it
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("state", ["raise", "warn"])
def test_results_do_not_depend_on_the_callers_numpy_error_state(state):
    # each public entry sets one float-error policy of its own, so the caller's
    # np.seterr changes no bit, and raises or warns nothing
    grid = np.geomspace(MIN_CORRELATION_LENGTH, 1e300, 401)

    def outcome(call):
        try:
            value = call()
        except CslBoundsError as exc:
            return repr(exc)
        fields = [getattr(value, name) for name in value._fields] if isinstance(value, _Record) else [value]
        return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in fields]

    calls = []
    for name, det in DETECTORS.items():
        noise = det.noise_entry()
        for variant in BAR_VARIANTS if name == "auriga" else (None,):
            calls.append(partial(exclusion_curve, det, noise, np.geomspace(1e-9, 1e2, 200), variant))
            calls += [partial(lambda_max, det, noise, rc, variant) for rc in (1e-300, 1e-150, 1e-7, 1e300)]
        calls += [partial(force_psd_by_quadrature, CslParams(1.0, rc), det.geometry, det.arrangement) for rc in (1e-300, 1e-7, 1e-3)]
    for a, L in ((0.0, 0.2), (4000.0, 0.2), (0.376, 0.046), (1.5, 3.0), (1e-90, 1e-90)):
        calls += [partial(f, a, L, rc) for f in (axial_factor, pair_correlation_factor) for rc in (grid, 1e-7)]
    calls += [partial(f, x) for f in (i0e, i1e) for x in (1e-300, 1e-160, 0.5, 30.0, 1e300, np.geomspace(1e-300, 1e300, 401))]
    expected = [outcome(call) for call in calls]
    with warnings.catch_warnings(), np.errstate(all=state):
        warnings.simplefilter("error")
        assert [outcome(call) for call in calls] == expected
