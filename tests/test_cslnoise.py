"""Closed-form force-noise PSDs: frozen values, branch oracles, properties."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cslbounds import (
    BAR_VARIANTS,
    HBAR,
    M_NUCLEON,
    CslParams,
    Cube,
    Cylinder,
    HalfCylinderBar,
    MassArrangement,
    axial_factor,
    bar_force_psd,
    cube_pair_force_psd,
    cylinder_pair_force_psd,
    force_noise_psd,
    forced_separation,
    pair_correlation_factor,
)
from cslbounds.cslnoise import _cube_bracket, _radial_bracket

mp.mp.dps = 60

LIGO_GEOM = Cylinder(radius=0.17, length=0.20, mass=40.0)
LISA_GEOM = Cube(side=0.046, mass=1.928)
AURIGA_GEOM = HalfCylinderBar(radius=0.3, length=3.0, mass=2300.0)

exponents = st.floats(min_value=-8.0, max_value=2.0)


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


def mp_printed_bar(geometry, rc):
    """The printed bar closed form at unit collapse rate, from its formula."""
    rc, L, R, m = (mp.mpf(v) for v in (rc, geometry.length, geometry.radius, geometry.mass))
    prefactor = 4 * mp.mpf(HBAR) ** 2 * m**2 * rc**2 / (L**2 * R**2 * mp.mpf(M_NUCLEON) ** 2)
    axial = mp.mpf(3) / 2 - mp.exp(-(L**2) / (4 * rc**2)) / 2 - mp.exp(-(L**2) / (16 * rc**2))
    return prefactor * axial * mp_radial_bracket(R**2 / (2 * rc**2))


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
        assert got == pytest.approx(ref, rel=2e-11), f"rc={rc}"


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
    values = axial_factor(0.376, 0.046, grid)
    assert isinstance(values, np.ndarray) and values.shape == grid.shape
    assert type(axial_factor(0.376, 0.046, 1e-3)) is float
    assert np.array_equal(values, [axial_factor(0.376, 0.046, float(rc)) for rc in grid])


def test_axial_factor_rejects_nonpositive_rc_in_array():
    with pytest.raises(ValueError):
        axial_factor(0.376, 0.046, np.array([1e-3, 0.0]))


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
        assert _radial_bracket(float(x)) == pytest.approx(ref, rel=5e-12), f"x={x}"


def test_cube_bracket_matches_extended_precision():
    for z in np.geomspace(1e-8, 1e4, 101):
        ref = float(mp_cube_bracket(z))
        assert _cube_bracket(float(z)) == pytest.approx(ref, rel=5e-13), f"z={z}"


def straddle(switch):
    """Log grid across a branch switch, with the switch value itself."""
    return np.sort(np.append(np.geomspace(switch / 4.0, switch * 4.0, 60), switch))


def test_brackets_as_arrays_straddling_branch_switches():
    # one array per switch (radial series at x = 5e-3, i0e/i1e at x = 20,
    # cube series at z = 0.1), so both branches run in the same call
    for xs in (straddle(5e-3), straddle(20.0)):
        got = _radial_bracket(xs)
        for x, g in zip(xs, got):
            assert g == pytest.approx(float(mp_radial_bracket(x)), rel=5e-12), f"x={x}"
    zs = straddle(0.1)
    for z, g in zip(zs, _cube_bracket(zs)):
        assert g == pytest.approx(float(mp_cube_bracket(z)), rel=5e-13), f"z={z}"


def test_brackets_array_matches_scalar_calls():
    xs = np.concatenate([straddle(5e-3), straddle(20.0)])
    assert np.array_equal(_radial_bracket(xs), [_radial_bracket(float(x)) for x in xs])
    zs = straddle(0.1)
    assert np.array_equal(_cube_bracket(zs), [_cube_bracket(float(z)) for z in zs])
    assert type(_radial_bracket(1.0)) is float and type(_cube_bracket(1.0)) is float


def test_cube_bracket_nonpositive():
    for z in np.geomspace(1e-8, 1e4, 31):
        assert _cube_bracket(float(z)) <= 0.0


# --- closed forms ----------------------------------------------------------------


def test_zero_collapse_rate_gives_zero_everywhere():
    params = CslParams(0.0, 1e-7)
    assert cylinder_pair_force_psd(params, LIGO_GEOM, 4000.0, 2) == 0.0
    assert cube_pair_force_psd(params, LISA_GEOM, 0.376) == 0.0
    assert bar_force_psd(params, AURIGA_GEOM, "printed") == 0.0
    assert bar_force_psd(params, AURIGA_GEOM, "rederived") == 0.0


def test_cylinder_pair_small_rc_asymptote():
    # rc << R, L, a: both brackets -> 1 and the two-arm PSD approaches
    # 8 hbar^2 m^2 rc^2 / (L^2 R^2 m0^2)
    rc = 1e-7
    expected = 8.0 * HBAR**2 * LIGO_GEOM.mass**2 * rc**2 / (LIGO_GEOM.length**2 * LIGO_GEOM.radius**2 * M_NUCLEON**2)
    got = cylinder_pair_force_psd(CslParams(1.0, rc), LIGO_GEOM, 4000.0, 2)
    assert got == pytest.approx(expected, rel=1e-5)


def test_cylinder_pair_zero_separation():
    assert cylinder_pair_force_psd(CslParams(1.0, 0.05), LIGO_GEOM, 0.0, 1) == 0.0


def test_cube_pair_small_rc_asymptote():
    # rc <= L/100: PSD within 1% of 4 pi hbar^2 m^2 rc^2 / (L^4 m0^2)
    for rc in np.geomspace(1e-8, LISA_GEOM.side / 100.0, 12):
        expected = 4.0 * math.pi * HBAR**2 * LISA_GEOM.mass**2 * rc**2 / (LISA_GEOM.side**4 * M_NUCLEON**2)
        got = cube_pair_force_psd(CslParams(1.0, float(rc)), LISA_GEOM, 0.376)
        assert got == pytest.approx(expected, rel=0.01), f"rc={rc}"


def test_cube_pair_spot_value_at_standard_length():
    # frozen from the small-rc asymptote at rc = 1e-7 (agrees to ~5e-12)
    got = cube_pair_force_psd(CslParams(1.0, 1e-7), LISA_GEOM, 0.376)
    assert got == pytest.approx(4.2081e-22, rel=1e-4)


def test_cube_pair_huge_rc_suppressed():
    # uniform noise cannot drive relative motion
    lam = 1.0
    near = cube_pair_force_psd(CslParams(lam, 0.02), LISA_GEOM, 0.376)
    far = cube_pair_force_psd(CslParams(lam, 1e3), LISA_GEOM, 0.376)
    assert far < 1e-12 * near


def test_bar_variants_agree_for_small_rc():
    params = CslParams(1.0, 1e-3)
    printed = bar_force_psd(params, AURIGA_GEOM, "printed")
    rederived = bar_force_psd(params, AURIGA_GEOM, "rederived")
    assert printed == pytest.approx(rederived, rel=1e-12)


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
    # The radial bracket's direct branch cancels just above its series
    # switch at x = R^2/2rc^2 = 5e-3 (rc = 3 m for AURIGA): the error
    # reaches 1.1e-13 for rc in (2.1, 3) m and stays within 5.5e-14 elsewhere.
    rc_switch = AURIGA_GEOM.radius / math.sqrt(2.0 * 5e-3)
    grid = np.concatenate([np.geomspace(1e-9, 1e4, 261), np.geomspace(rc_switch / 1.1, rc_switch, 200)])
    got = bar_force_psd(CslParams(1.0, grid), AURIGA_GEOM, "printed")
    ref = np.array([float(mp_printed_bar(AURIGA_GEOM, rc)) for rc in grid])
    assert np.max(np.abs(got - ref) / ref) <= 2e-13


@pytest.mark.parametrize("rc", [1e-160, 1e-300])
def test_closed_forms_silent_where_scaled_lengths_overflow(rc):
    # R^2/2rc^2, L^2/16rc^2 and (L/2rc)^2 overflow below rc ~ 1e-154;
    # inf is their right limit, and the PSD underflows to 0 without a warning
    params = CslParams(1.0, rc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cylinder_pair_force_psd(params, LIGO_GEOM, 4000.0, 2) == 0.0
        assert cube_pair_force_psd(params, LISA_GEOM, 0.376) == 0.0
        for variant in BAR_VARIANTS:
            assert bar_force_psd(params, AURIGA_GEOM, variant) == 0.0


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


def test_bar_arrangement_forced():
    assert forced_separation(AURIGA_GEOM) == 1.5
    assert forced_separation(LIGO_GEOM) is None and forced_separation(LISA_GEOM) is None


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
    with pytest.raises(ValueError):
        MassArrangement(separation=-1.0)
    with pytest.raises(ValueError):
        MassArrangement(separation=1.0, arm_count=3)


def test_csl_params_validation():
    with pytest.raises(ValueError):
        CslParams(-1.0, 1e-7)
    with pytest.raises(ValueError):
        CslParams(1.0, 0.0)
    with pytest.raises(ValueError):
        CslParams(math.nan, 1e-7)
    for bad in (0.0, -1e-7, math.nan, math.inf):
        with pytest.raises(ValueError, match="correlation_length"):
            CslParams(1.0, np.array([1e-7, bad]))
    with pytest.raises(ValueError):
        CslParams(1.0, np.ones((2, 2)))
