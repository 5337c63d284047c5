"""k-space quadrature oracle: internal machinery and cross-checks.

The literal-integration tests rebuild the defining integrals on dense
uniform grids (trapezoid sums, no mode splitting, no averaged tails) at
parameter points where that is tractable, certifying the oracle's mode
decomposition and tail handling against the raw definition.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from cslbounds import (
    HBAR,
    M_NUCLEON,
    CslParams,
    Cube,
    Cylinder,
    HalfCylinderBar,
    MassArrangement,
    QuadratureError,
    cube_pair_force_psd,
    force_psd_by_quadrature,
    forced_separation,
)
from cslbounds import kspace
from cslbounds.specfun import _j1_array, _sinc2_array

LISA_GEOM = Cube(side=0.046, mass=1.928)
LISA_ARR = MassArrangement(separation=0.376, arm_count=1)


def literal_axial(separation, ell, rc, n=2**21):
    """Dense trapezoid of sinc^2(k l/2) (1 - cos(a k)) k^2 e^{-rc^2 k^2} on the half line."""
    k = np.linspace(0.0, 60.0 / rc, n)
    f = _sinc2_array(0.5 * ell * k) * (1.0 - np.cos(separation * k)) * k * k * np.exp(-((rc * k) ** 2))
    return float(np.trapezoid(f, k))


def literal_slab(side, rc, n=2**21):
    k = np.linspace(0.0, 60.0 / rc, n)
    f = _sinc2_array(0.5 * side * k) * np.exp(-((rc * k) ** 2))
    return float(np.trapezoid(f, k))


def literal_radial(radius, rc, n=2**21):
    k = np.linspace(0.0, 60.0 / rc, n)[1:]
    j = _j1_array(radius * k)
    f = k * (2.0 * j / (radius * k)) ** 2 * np.exp(-((rc * k) ** 2))
    return float(np.trapezoid(f, k)) * 2.0 * math.pi


def assemble(lam, rc, mass, axial_half, perp_full, arms, ell):
    prefactor = HBAR**2 * lam * rc**3 / (2.0 * math.pi**1.5 * M_NUCLEON**2) * mass**2
    return prefactor * (2.0 * axial_half) * perp_full * arms


def test_quadrature_matches_literal_integration_cube():
    # rc large enough that every oscillation is resolvable on a dense grid
    rc = 0.05
    params = CslParams(1.0, rc)
    result = force_psd_by_quadrature(params, LISA_GEOM, LISA_ARR)
    ax = literal_axial(0.376, 0.046, rc)
    slab = literal_slab(0.046, rc)
    literal = assemble(1.0, rc, 1.928, ax, (2.0 * slab) ** 2, 1, 0.046)
    assert result.value == pytest.approx(literal, rel=1e-6)


def test_quadrature_matches_literal_integration_cylinder():
    rc = 0.5
    geom = Cylinder(radius=0.3, length=1.5, mass=1150.0)
    arr = MassArrangement(separation=1.5, arm_count=1)
    result = force_psd_by_quadrature(CslParams(1.0, rc), geom, arr)
    ax = literal_axial(1.5, 1.5, rc)
    rad = literal_radial(0.3, rc)
    literal = assemble(1.0, rc, 1150.0, ax, rad, 1, 1.5)
    assert result.value == pytest.approx(literal, rel=1e-6)


def test_cos_gauss_moment_against_analytic_and_mpmath():
    # ~48 oscillation periods inside the Gaussian window, value well alive
    rc, freq = 0.02, 0.1
    budget = kspace._Budget(2**24)
    value, err = kspace._cos_gauss_moment(freq, rc, 0.0, budget)
    analytic = 0.5 * math.sqrt(math.pi) / rc * math.exp(-((freq / (2.0 * rc)) ** 2))
    assert value == pytest.approx(analytic, rel=1e-12, abs=0.0)
    mp.mp.dps = 30
    ref = mp.quad(lambda k: mp.cos(freq * k) * mp.exp(-((rc * k) ** 2)), [0, 200, 3000])
    assert value == pytest.approx(float(ref), rel=1e-12, abs=0.0)
    assert err < 1e-8 * abs(value)


def test_radial_tail_matches_full_resolution(monkeypatch):
    # s = rc/R = 0.005 puts the Gaussian cutoff at z = 12000, beyond the
    # default resolved phase of 6000; raising the resolved phase removes
    # the averaged tail entirely and must not move the value
    geom = Cylinder(radius=1.0, length=1.0, mass=1.0)
    arr = MassArrangement(separation=1.0, arm_count=1)
    params = CslParams(1.0, 0.005)
    with_tail = force_psd_by_quadrature(params, geom, arr)
    monkeypatch.setattr(kspace, "_RESOLVED_PHASE", 15000.0)
    brute = force_psd_by_quadrature(params, geom, arr)
    assert with_tail.value == pytest.approx(brute.value, rel=1e-7)


def test_slab_tail_matches_full_resolution(monkeypatch):
    geom = Cube(side=1.0, mass=1.0)
    arr = MassArrangement(separation=1.0, arm_count=1)
    params = CslParams(1.0, 0.005)
    with_tail = force_psd_by_quadrature(params, geom, arr)
    monkeypatch.setattr(kspace, "_RESOLVED_PHASE", 15000.0)
    brute = force_psd_by_quadrature(params, geom, arr)
    assert with_tail.value == pytest.approx(brute.value, rel=1e-7)


def test_cube_agrees_with_closed_form_at_standard_length():
    params = CslParams(1.0, 1e-7)
    quad = force_psd_by_quadrature(params, LISA_GEOM, LISA_ARR)
    closed = cube_pair_force_psd(params, LISA_GEOM, 0.376)
    assert quad.value == pytest.approx(closed, rel=1e-4)
    assert quad.rel_error <= 1e-6


def test_zero_collapse_rate_short_circuits():
    result = force_psd_by_quadrature(CslParams(0.0, 1e-7), LISA_GEOM, LISA_ARR)
    assert result == kspace.QuadratureResult(0.0, 0.0, 0)


def test_zero_separation_is_exactly_zero():
    result = force_psd_by_quadrature(CslParams(1.0, 0.1), LISA_GEOM, MassArrangement(0.0, 1))
    assert result.value == 0.0 and result.rel_error == 0.0


def test_bar_dispatch_equals_explicit_half_cylinders(auriga):
    params = CslParams(1.0, 0.3)
    bar = force_psd_by_quadrature(params, auriga.geometry, auriga.arrangement)
    halves = Cylinder(radius=0.3, length=1.5, mass=1150.0)
    manual = force_psd_by_quadrature(params, halves, MassArrangement(1.5, 1))
    assert bar.value == manual.value


def test_diffusion_rate_bar_default_arrangement(auriga):
    # the bar config leaves separation_m out; the archetype table supplies L/2
    assert auriga.arrangement == MassArrangement(forced_separation(auriga.geometry), 1)
    params = CslParams(1.0, 0.3)
    eta = force_psd_by_quadrature(params, auriga.geometry, auriga.arrangement).value / HBAR**2
    explicit = force_psd_by_quadrature(params, auriga.geometry, MassArrangement(1.5, 1)).value / HBAR**2
    assert eta == explicit


def test_bar_rejects_wrong_separation():
    bar = HalfCylinderBar(radius=0.3, length=3.0, mass=2300.0)
    with pytest.raises(ValueError, match="separation"):
        force_psd_by_quadrature(CslParams(1.0, 0.1), bar, MassArrangement(1.0, 1))


def test_budget_exhaustion_raises_with_context():
    with pytest.raises(QuadratureError) as excinfo:
        force_psd_by_quadrature(CslParams(1.0, 1e-7), LISA_GEOM, LISA_ARR, max_evaluations=2000)
    assert excinfo.value.evaluations is not None
    assert excinfo.value.evaluations <= 2000


def test_arm_count_scales_linearly():
    params = CslParams(1.0, 0.01)
    geom = Cylinder(radius=0.17, length=0.2, mass=40.0)
    one = force_psd_by_quadrature(params, geom, MassArrangement(4000.0, 1))
    two = force_psd_by_quadrature(params, geom, MassArrangement(4000.0, 2))
    assert two.value == pytest.approx(2.0 * one.value, rel=1e-12)


def test_close_pair_suppression_by_quadrature():
    rc = 0.05
    params = CslParams(1.0, rc)
    near = force_psd_by_quadrature(params, LISA_GEOM, MassArrangement(rc / 10.0, 1))
    far = force_psd_by_quadrature(params, LISA_GEOM, MassArrangement(10.0 * rc, 1))
    assert near.value <= 7.5e-3 * far.value


def test_reported_error_is_honest_for_cancelling_modes():
    # rc = 1 m: the mode sum cancels to ~6e-5 of the zero mode, the
    # regime the error accounting exists for
    params = CslParams(1.0, 1.0)
    result = force_psd_by_quadrature(params, LISA_GEOM, LISA_ARR)
    closed = cube_pair_force_psd(params, LISA_GEOM, 0.376)
    assert result.value == pytest.approx(closed, rel=1e-5)
    assert abs(result.value - closed) / closed <= max(result.rel_error, 1e-10) * 50
