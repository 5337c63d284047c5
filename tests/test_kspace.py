"""k-space quadrature oracle: internal machinery and cross-checks.

The literal-integration tests rebuild the defining integrals on dense
uniform grids (trapezoid sums, no dropped modes, no averaged tails) at
parameter points where that is tractable, certifying the oracle's axial
routes and tail handling against the raw definition.
"""

import ast
import functools
import math
import os
import subprocess
import sys
import time
import tracemalloc
import typing
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

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
    load_detector_config,
    measured_force_psd,
)
import cslbounds
from cslbounds import kspace
from cslbounds.cslnoise import MIN_CORRELATION_LENGTH, force_noise_psd, forced_separation
from cslbounds.kspace import _j1_array, _sinc2_array
from conftest import log_uniform, read_golden

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
    assert result.value == pytest.approx(literal, rel=1e-6, abs=0.0)


def test_quadrature_matches_literal_integration_cylinder():
    rc = 0.5
    geom = Cylinder(radius=0.3, length=1.5, mass=1150.0)
    arr = MassArrangement(separation=1.5, arm_count=1)
    result = force_psd_by_quadrature(CslParams(1.0, rc), geom, arr)
    ax = literal_axial(1.5, 1.5, rc)
    rad = literal_radial(0.3, rc)
    literal = assemble(1.0, rc, 1150.0, ax, rad, 1, 1.5)
    assert result.value == pytest.approx(literal, rel=1e-6, abs=0.0)


def with_examples(values):
    """Hypothesis's @example for each of the values, a tuple of arguments or one argument."""

    def decorate(test):
        for value in values:
            test = example(*value)(test) if isinstance(value, tuple) else example(value)(test)
        return test

    return decorate


def axial_reference(separation, length, rc):
    """sum_b c_b (sqrt(pi)/2) e^{-(b/rc)^2/4} at 40 digits, the value of the axial mode sum."""
    with mp.workdps(40):
        a, l, r = mp.mpf(separation), mp.mpf(length), mp.mpf(rc)
        modes = [(0, 1), (l, -1), (a, -1), (a + l, 0.5), (abs(a - l), 0.5)]
        return mp.sqrt(mp.pi) / 2 * mp.fsum(c * mp.exp(-((b / r) ** 2) / 4) for b, c in modes)


EDGE = 2.0 * kspace._K_CUTOFF  # rad per r_c from which a mode may leave the integrand


@given(log_uniform(-3.0, 4.0), log_uniform(-3.0, 1.0), log_uniform(-8.0, 4.0))
@example(EDGE, 1e-3, 1.0)  # the separation mode at the edge, d below it: the product
@example(EDGE + 1.0, 1.0, 1.0)  # d at the edge: 2 sin^2(l u/2r_c) is left
@example(1.5, 1.5, 0.05)  # a bar's halves, both modes past the edge: the constant 3/2
@example(2.0, 1.0, 0.05)  # both modes past the edge, d below it: 1 + cos(d u)/2
def test_axial_mode_sum_error_is_certified(separation, length, rc):
    value, err = kspace._axial_mode_sum(separation, length, rc, kspace._Budget(kspace.BUDGET))
    assert abs(value - float(axial_reference(separation, length, rc))) <= err


def axial_pass(name, p, q=0.0):
    """The factor, the fastest mode in rad per u and the cosine modes (b, c) of an axial pass's integrand, at mpmath's precision.

    "sin2 factor" is 2 sin^2(p u) = 1 - cos(2p u), "mean" 1 + cos(p u)/2 and "product" 4 sin^2(p u) sin^2(q u).
    """
    p_, q_ = mp.mpf(p), mp.mpf(q)
    if name == "sin2 factor":
        return functools.partial(kspace._sin2, p), 2.0 * p, [(0, 1), (2 * p_, -1)]
    if name == "mean":
        return functools.partial(kspace._cosine_mean, p), p, [(0, 1), (p_, 0.5)]
    modes = [(0, 1), (2 * p_, -1), (2 * q_, -1), (2 * abs(p_ - q_), 0.5), (2 * (p_ + q_), 0.5)]
    return functools.partial(kspace._sin2_product, p, q), 2.0 * (p + q), modes


def factor_mp(name, p, q, u):
    """An axial pass's factor at u in mpmath."""
    if name == "sin2 factor":
        return 2 * mp.sin(p * u) ** 2
    if name == "mean":
        return 1 + mp.cos(p * u) / 2
    return 4 * (mp.sin(p * u) * mp.sin(q * u)) ** 2


@pytest.mark.parametrize("name, p, q", [("sin2 factor", 0.5, 0.0), ("mean", 10.0, 0.0), ("product", 0.5, 2.0)])
def test_axial_passes_against_analytic_and_mpmath(name, p, q):
    # each integrand well alive; int_0^inf cos(b u) e^{-u^2} du = (sqrt(pi)/2) e^{-b^2/4}, and what lies past U is
    # below 4 e^{-U^2} / 2U, 1e-22 of each value
    with mp.workdps(30):
        factor, fastest, modes = axial_pass(name, p, q)
        analytic = float(mp.sqrt(mp.pi) / 2 * mp.fsum(c * mp.exp(-b * b / 4) for b, c in modes))
        quad = float(mp.quad(lambda u: factor_mp(name, p, q, u) * mp.exp(-u * u), mp.linspace(0, kspace._K_CUTOFF, 29)))
    value, err = kspace._axial_pass(factor, fastest, kspace._Budget(kspace.BUDGET), name)
    assert value == pytest.approx(analytic, rel=1e-12, abs=0.0)
    assert value == pytest.approx(quad, rel=1e-12, abs=0.0)
    assert err < 1e-8 * value


@given(
    st.sampled_from(["sin2 factor", "mean", "product"]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@example("sin2 factor", 0.0, 0.0)  # 1e-8 rad per u: the far pair of a 1 um body at r_c = 50 m
@example("mean", float(np.nextafter(1.0, 0.0)), 0.0)  # d one ulp below 2U, the fastest mean pass
@example("product", 0.0, 0.0)  # both factors at 1e-6: the bulk 4 (hl ha)^2 is 4e-24
@example("product", float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 0.0)))  # hl = ha below U, a bar's halves
def test_axial_pass_error_is_certified(name, s, t):
    # each pass on its route's domain: 2 sin^2(h u) and the product's hl, ha below U, the mean's d below 2U, drawn
    # log-uniform from 1e-8 (1e-6 for the product, whose modes cancel to 4 (hl ha)^2 in the reference) against the
    # windowed moments int_0^U cos(b u) e^{-u^2} du = (sqrt(pi)/2) e^{-b^2/4} Re erf(U + i b/2) at 60 digits
    lo, top = (-6.0 if name == "product" else -8.0), math.log10(EDGE if name == "mean" else kspace._K_CUTOFF)
    p, q = (10.0 ** (lo + (top - lo) * x) for x in (s, t))
    with mp.workdps(60):
        factor, fastest, modes = axial_pass(name, p, q)
        u = mp.mpf(kspace._K_CUTOFF)
        reference = mp.sqrt(mp.pi) / 2 * mp.fsum(c * mp.exp(-b * b / 4) * mp.re(mp.erf(u + 0.5j * b)) for b, c in modes)
    value, err = kspace._axial_pass(factor, fastest, kspace._Budget(kspace.BUDGET), name)
    assert abs(value - float(reference)) <= err


def test_oracle_imports_only_types_from_the_closed_forms():
    # the oracle stays independent of cslnoise: it may share its types, never
    # a function; its J1 and sinc^2 kernels are its own, so it imports nothing from specfun
    imported = {}  # module as written ("." for the package itself) -> names
    for node in ast.walk(ast.parse(Path(kspace.__file__).read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name, []).append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            imported.setdefault("." * node.level + (node.module or ""), []).extend(a.name for a in node.names)
    assert [m for m in imported if "cslnoise" in m] == [".cslnoise"]
    assert not {"cslnoise", "specfun"} & set(imported.get(".", []))
    for name in imported[".cslnoise"]:  # a class or a union of classes
        obj = getattr(cslbounds.cslnoise, name)
        assert all(isinstance(t, type) for t in typing.get_args(obj) or [obj]), name
    assert [m for m in imported if "specfun" in m] == []


def test_radial_tail_matches_full_resolution(monkeypatch):
    # s = rc/R = 0.005 puts the Gaussian cutoff at z = 12000, beyond the
    # default resolved phase of 6000; raising the resolved phase removes
    # the averaged tail entirely and must not move the value
    geom = Cylinder(radius=1.0, length=1.0, mass=1.0)
    arr = MassArrangement(separation=1.0, arm_count=1)
    params = CslParams(1.0, 0.005)
    with_tail = force_psd_by_quadrature(params, geom, arr)
    # a table cache of their own: the raised phase keys tables by widths nothing else uses
    monkeypatch.setattr(kspace, "_TABLES", {})
    monkeypatch.setattr(kspace, "_RESOLVED_PHASE", 15000.0)
    brute = force_psd_by_quadrature(params, geom, arr)
    assert with_tail.value == pytest.approx(brute.value, rel=1e-7, abs=0.0)


def test_slab_tail_matches_full_resolution(monkeypatch):
    geom = Cube(side=1.0, mass=1.0)
    arr = MassArrangement(separation=1.0, arm_count=1)
    params = CslParams(1.0, 0.005)
    with_tail = force_psd_by_quadrature(params, geom, arr)
    # a table cache of their own: the raised phase keys tables by widths nothing else uses
    monkeypatch.setattr(kspace, "_TABLES", {})
    monkeypatch.setattr(kspace, "_RESOLVED_PHASE", 15000.0)
    brute = force_psd_by_quadrature(params, geom, arr)
    assert with_tail.value == pytest.approx(brute.value, rel=1e-7, abs=0.0)


def test_cube_agrees_with_closed_form_at_standard_length():
    params = CslParams(1.0, 1e-7)
    quad = force_psd_by_quadrature(params, LISA_GEOM, LISA_ARR)
    closed = cube_pair_force_psd(params, LISA_GEOM, 0.376)
    assert quad.value == pytest.approx(closed, rel=1e-4, abs=0.0)
    assert quad.rel_error <= 1e-6


def test_zero_collapse_rate_short_circuits():
    result = force_psd_by_quadrature(CslParams(0.0, 1e-7), LISA_GEOM, LISA_ARR)
    assert result == kspace.QuadratureResult(0.0, 0.0, 0)


@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_unsupported_geometry_is_rejected_at_any_rate(rate):
    # the geometry is checked before the zero-rate result, as the closed form checks it
    for psd in (force_psd_by_quadrature, force_noise_psd):
        with pytest.raises(TypeError, match="^unsupported geometry str$"):
            psd(CslParams(rate, 1e-7), "not a body", MassArrangement(0.1))


def test_zero_separation_is_exactly_zero():
    result = force_psd_by_quadrature(CslParams(1.0, 0.1), LISA_GEOM, MassArrangement(0.0, 1))
    assert result.value == 0.0 and result.rel_error == 0.0


def test_bar_dispatch_equals_explicit_half_cylinders(auriga):
    # halves() skips the checks a constructed Cylinder runs: no result may tell the two apart
    halves = Cylinder(radius=0.3, length=1.5, mass=1150.0)
    for rc in np.geomspace(1e-3, 10.0, 9):  # the bar's r_c in the oracle benchmark
        params = CslParams(1.0, float(rc))
        bar = force_psd_by_quadrature(params, auriga.geometry, auriga.arrangement)
        manual = force_psd_by_quadrature(params, halves, MassArrangement(1.5, 1))
        assert (bar.value, bar.rel_error, bar.evaluations) == (manual.value, manual.rel_error, manual.evaluations), rc


def test_diffusion_rate_bar_default_arrangement(auriga):
    # the bar config leaves separation_m out; forced_separation supplies L/2
    assert auriga.arrangement == MassArrangement(forced_separation(auriga.geometry), 1)
    params = CslParams(1.0, 0.3)
    eta = force_psd_by_quadrature(params, auriga.geometry, auriga.arrangement).value / HBAR**2
    explicit = force_psd_by_quadrature(params, auriga.geometry, MassArrangement(1.5, 1)).value / HBAR**2
    assert eta == explicit


def test_bar_result_builds_its_halves_once(monkeypatch, auriga):
    # the arrangement check reads length/2 off the bar; only the model itself builds the halves
    calls = []
    halves = HalfCylinderBar.halves

    def counting(bar):
        calls.append(bar)
        return halves(bar)

    monkeypatch.setattr(HalfCylinderBar, "halves", counting)
    params = CslParams(1.0, 0.3)
    force_psd_by_quadrature(params, auriga.geometry, auriga.arrangement)
    assert len(calls) == 1
    force_noise_psd(params, auriga.geometry, auriga.arrangement)
    assert len(calls) == 2


@given(log_uniform(-300.0, 300.0))
@example(3.0)
@example(float(np.nextafter(3.0, 0.0)))
def test_forced_separation_is_the_halves_length(length):
    bar = HalfCylinderBar(radius=0.3, length=length, mass=2300.0)
    assert forced_separation(bar) == bar.halves().length


def test_bar_rejects_wrong_separation():
    bar = HalfCylinderBar(radius=0.3, length=3.0, mass=2300.0)
    with pytest.raises(ValueError, match="separation"):
        force_psd_by_quadrature(CslParams(1.0, 0.1), bar, MassArrangement(1.0, 1))


def test_budget_exhaustion_raises_with_context(monkeypatch):
    monkeypatch.setattr(kspace, "BUDGET", 2000)
    with pytest.raises(QuadratureError) as excinfo:
        force_psd_by_quadrature(CslParams(1.0, 1e-7), LISA_GEOM, LISA_ARR)
    assert excinfo.value.evaluations is not None
    assert excinfo.value.evaluations <= 2000
    # a NaN at the last node of every pass never meets its target: it doubles until the budget ends, with the NaN achieved
    with pytest.raises(QuadratureError) as excinfo:
        kspace._adaptive(kspace._gauss, nan_at_last_node, *MODE_LEVEL0, kspace._Budget(2000), "NaN")
    assert str(excinfo.value) == "evaluation budget exhausted while integrating NaN (achieved nan)"
    assert excinfo.value.evaluations == 31 * (4 + 8 + 16 + 32)


@pytest.mark.parametrize("geometry", [LISA_GEOM, HalfCylinderBar(radius=0.3, length=3.0, mass=2300.0)])
def test_single_arm_geometries_reject_two_arms(geometry):
    # the same error as the closed forms' dispatch, never a silent single
    # arm, nor a bar whose halves sit anywhere but length/2 apart
    cases = [(MassArrangement(forced_separation(geometry) or 0.376, 2), "single")]
    if isinstance(geometry, HalfCylinderBar):
        cases.append((MassArrangement(5.0, 1), "separation"))
    for arrangement, match in cases:
        with pytest.raises(ValueError, match=match) as oracle:
            force_psd_by_quadrature(CslParams(1.0, 0.1), geometry, arrangement)
        with pytest.raises(ValueError) as closed:
            force_noise_psd(CslParams(1.0, 0.1), geometry, arrangement)
        assert str(oracle.value) == str(closed.value)


@pytest.mark.parametrize("rc", [np.array([1e-7, 1e-6]), np.array([1e-7])])
def test_oracle_rejects_an_array_of_correlation_lengths(rc):
    # it once ended in numpy's "truth value of an array is ambiguous" or a TypeError
    with pytest.raises(ValueError, match="takes one correlation length"):
        force_psd_by_quadrature(CslParams(1.0, rc), LISA_GEOM, LISA_ARR)


# lisa_pathfinder's cosine-mode sum once cancelled to exactly 0.0 here: the smallest r_c of np.geomspace(100, 1e4,
# 100_000) where it did, the first of 7 667 there; all of them lie in the product route's domain
CANCELLED_RC = 517.4961689908563
# a 1 nm cube 20 m from its partner at r_c = 1 m: its 2 sin^2 remainder, about 2e-19, is too small for the e^{-U^2}
# charge of the dropped modes, so the oracle raises (a cosine-mode sum once cancelled to exactly 0.0 here)
NANO_CUBE, NANO_ARR = Cube(side=1e-9, mass=1.928), MassArrangement(separation=20.0)


def bundled(name):
    det = load_detector_config(name)
    return det.geometry, det.arrangement, True


def drawn_body(kind, size, radius, separation, arm_count):
    """A body pair as the closed-form contract draws them: a bar takes its forced separation and one arm, a cube one arm."""
    if kind == "cylinder":
        return Cylinder(radius, size, 40.0), MassArrangement(separation, arm_count), False
    if kind == "cube":
        return Cube(size, 1.928), MassArrangement(separation), False
    bar = HalfCylinderBar(radius, size, 2300.0)
    return bar, MassArrangement(forced_separation(bar)), False


# (geometry, arrangement, bundled): a bundled config, or a drawn body of 1 mm to 1 km
BODIES = st.one_of(
    st.sampled_from(["ligo", "lisa_pathfinder", "auriga"]).map(bundled),
    st.builds(
        drawn_body,
        st.sampled_from(["cylinder", "cube", "bar"]),
        log_uniform(-3.0, 3.0),
        log_uniform(-3.0, 3.0),
        log_uniform(-3.0, 4.0),
        st.sampled_from([1, 2]),
    ),
)


def axial_span(geometry, arrangement):
    """separation + length, the fastest cosine mode's frequency; a bar's axial factor is that of its halves."""
    if isinstance(geometry, HalfCylinderBar):
        geometry = geometry.halves()
    return arrangement.separation + (geometry.side if isinstance(geometry, Cube) else geometry.length)


@given(BODIES, log_uniform(0.0, 308.0))
@example(bundled("lisa_pathfinder"), CANCELLED_RC)  # the mode sum cancelled to exactly 0.0 here; the product does not
@example((NANO_CUBE, NANO_ARR, False), 1.0)  # the charge of the dropped modes misses REL_TOL
@example(bundled("ligo"), 1e78)  # the last decade of ligo's product route: the PSD is a subnormal
@example(bundled("ligo"), 1e150)  # an unscaled, unbounded product underflowed to 0.0 +- 0.0 here
@example(bundled("lisa_pathfinder"), 1e78)  # where the product's bulk is subnormal, its estimate never converges
@example(bundled("auriga"), 1e308)
@example(bundled("ligo"), sys.float_info.max)
def test_oracle_certifies_an_exact_zero_only_where_the_coefficients_cancel(body, rc):
    # every body drawn has a separation > 0: its PSD is positive, or the oracle says it missed REL_TOL; the
    # bundled bodies' PSD stays above 0.0 up to the largest r_c, a drawn one may underflow from about 1e77 m
    geometry, arrangement, is_bundled = body
    try:
        result = force_psd_by_quadrature(CslParams(1.0, rc), geometry, arrangement)
    except QuadratureError:
        return
    assert result.rel_error > 0.0
    assert result.value > 0.0 or not is_bundled


def test_an_underflowing_axial_factor_stops_the_oracle_at_no_cost():
    # lisa_pathfinder at 1e78 m: the axial factor's bulk, 4 (la/4r_c^2)^2, is no normal double, so its 0.0 is charged
    # inf and the radial or slab factor does not run after it; a cosine-mode sum once charged its nodes here
    det = load_detector_config("lisa_pathfinder")
    budget = kspace._Budget(kspace.BUDGET)
    assert kspace._axial_mode_sum(det.arrangement.separation, det.geometry.side, 1e78, budget) == (0.0, math.inf)
    with pytest.raises(QuadratureError) as info:
        force_psd_by_quadrature(CslParams(1.0, 1e78), det.geometry, det.arrangement)
    assert str(info.value) == "quadrature reached relative error inf, above the target 1.000e-06"
    assert (info.value.achieved_rel_error, info.value.evaluations) == (math.inf, budget.used) == (math.inf, 0)


@given(BODIES, st.floats(min_value=0.0, max_value=1.0))
@example(bundled("ligo"), 1.0)
@example(bundled("lisa_pathfinder"), 0.0)
@example(bundled("auriga"), 0.0)
def test_oracle_certifies_every_rc_of_the_product_domain(body, t):
    # log-uniform r_c from (separation + length)/2U, where the product route starts, to 1e4 m: the cosine modes
    # once cancelled there from 562 m (ligo), 5.6 m (lisa_pathfinder) and 70 m (auriga); the closed forms
    # hold 4e-15 against mpmath
    geometry, arrangement, _ = body
    lo = axial_span(geometry, arrangement) / EDGE
    rc = lo * (1e4 / lo) ** t
    while axial_span(geometry, arrangement) / rc >= EDGE:  # one ulp or two past the seam
        rc = math.nextafter(rc, math.inf)
    result = force_psd_by_quadrature(CslParams(1.0, rc), geometry, arrangement)
    closed = force_noise_psd(CslParams(1.0, rc), geometry, arrangement, "rederived")
    assert abs(closed - result.value) <= (result.rel_error + 4e-15) * result.value


# each seam of the axial routes at r_c = 1 m: (separation, length) from x > 0 and a mode at `edge`, a float next to 2U,
# and the factor integrated below and above the edge (None for a constant)
SEAMS = {
    "d: product, one factor": (lambda x, edge: (edge + x, x), ("_sin2_product", "_sin2")),
    "l: one factor, constant 1": (lambda x, edge: (edge + EDGE + x, edge), ("_sin2", None)),
    "l = a: product, constant 3/2": (lambda x, edge: (edge, edge), ("_sin2_product", None)),
    "l: product, 1 + cos(d u)/2": (lambda x, edge: (edge + x, edge), ("_sin2_product", "_cosine_mean")),
    "d: 1 + cos(d u)/2, constant 1": (lambda x, edge: (EDGE + x + edge, EDGE + x), ("_cosine_mean", None)),
}


@given(st.sampled_from(sorted(SEAMS)), log_uniform(-3.0, math.log10(13.0)))
@with_examples([(seam, x) for seam in sorted(SEAMS) for x in (0.2, 0.046, 1.5)])  # the bundled lengths
def test_the_axial_routes_agree_at_their_seams(seam, x):
    pair, routes = SEAMS[seam]
    axial_pass, sides = kspace._axial_pass, []
    for edge in (math.nextafter(EDGE, 0.0), math.nextafter(EDGE, math.inf)):
        separation, length = pair(x, edge)
        assume(edge in (length, abs(separation - length)))  # a sum can round one ulp off the edge
        taken = []

        def spy(factor, *args):
            taken.append(factor.func.__name__)
            return axial_pass(factor, *args)

        with mock.patch.object(kspace, "_axial_pass", spy):
            sides.append((*kspace._axial_mode_sum(separation, length, 1.0, kspace._Budget(kspace.BUDGET)), *(taken or [None])))
    (below, below_err, below_route), (above, above_err, above_route) = sides
    assert (below_route, above_route) == routes
    assert abs(below - above) <= below_err + above_err


@given(
    st.sampled_from(["cylinder", "cube"]),
    log_uniform(-6.0, 2.0),
    log_uniform(-3.0, 3.0),
    log_uniform(-3.0, 4.0),
    st.sampled_from([1, 2]),
    st.floats(min_value=0.0, max_value=1.0),
)
@example("cube", 1e-6, 1.0, 1e4, 1, 0.0)  # the 1 um cube at 10 km, at r_c = 1 m: a cosine-mode sum once missed REL_TOL
@example("cube", 1e-6, 1.0, 1e4, 1, 1.0)
@example("cylinder", 1e-6, 0.25, 1e4, 2, 0.0)
def test_oracle_certifies_the_far_mode_domain(kind, length, radius, separation, arm_count, t):
    # (a - l)/r_c >= 2U, where every mode that carries a leaves the integrand, and l/r_c >= 1e-6: r_c log-uniform
    # over the six decades below the smaller of (a - l)/2U and 1e6 l; the closed forms hold 4e-15 against mpmath
    assume(separation > length)
    geometry, arrangement, _ = drawn_body(kind, length, radius, separation, arm_count)
    rc = min((separation - length) / EDGE, 1e6 * length) * 1e-6**t
    while (separation - length) / rc < EDGE or length / rc < 1e-6:  # one ulp or two past an edge
        rc = math.nextafter(rc, 0.0)
    result = force_psd_by_quadrature(CslParams(1.0, rc), geometry, arrangement)
    closed = force_noise_psd(CslParams(1.0, rc), geometry, arrangement, "rederived")
    assert abs(closed - result.value) <= (result.rel_error + 4e-15) * result.value


SWEEP_53 = [(name, np.geomspace(1e-4 if name == "auriga" else 1e-9, 1e4, 53)) for name in ("ligo", "lisa_pathfinder", "auriga")]


def test_every_rc_of_the_53_point_sweep_is_certified():
    # 35 of these 159 points once raised QuadratureError; the bar's closed form is the rederived one
    closed = []
    for name, rcs in SWEEP_53:
        det = load_detector_config(name)
        closed += force_noise_psd(CslParams(1.0, rcs), det.geometry, det.arrangement, "rederived").tolist()
    results = sweep(SWEEP_53)
    assert len(results) == len(closed) == 159
    assert all(abs(c - r.value) <= (r.rel_error + 4e-15) * r.value for c, r in zip(closed, results))


def test_closed_forms_hold_the_oracle_from_1e4_m_to_where_the_psd_turns_subnormal():
    # rest ~ rc^-6 leaves the normal range near 1e53 m while the PSD ~ rc^-4 stays normal to 1e73-1e75 m: the
    # closed forms once lost digits from there (ligo -17.7% at 1e55 m, 0.0 from 1e58 m). Past the normal range
    # the oracle's value is subnormal or uncertified, and the closed form must be subnormal too, so that the
    # callers report an underflow
    rcs = np.geomspace(1e4, 1e76, 289)
    for name in ("ligo", "lisa_pathfinder", "auriga"):
        det = load_detector_config(name)
        closed = force_noise_psd(CslParams(1.0, rcs), det.geometry, det.arrangement, "rederived").tolist()
        normal = []
        for rc, c in zip(rcs.tolist(), closed):
            try:
                result = force_psd_by_quadrature(CslParams(1.0, rc), det.geometry, det.arrangement)
            except QuadratureError:
                result = None
            if result is not None and result.value >= sys.float_info.min:
                assert abs(c - result.value) <= (result.rel_error + 4e-15) * result.value, (name, rc)
                normal.append(rc)
            else:
                assert c < sys.float_info.min, (name, rc)
        assert normal == rcs[: len(normal)].tolist() and normal[-1] >= 1e73, name


@pytest.mark.parametrize("name", ["ligo", "lisa_pathfinder", "auriga"])
def test_golden_files_hold_the_oracle(name):
    # the model PSD each golden lambda_max was inverted from, S_meas / (2 lambda), against the independent
    # quadrature at every row: within its certified relative error + 4e-15, as for the closed forms
    det = load_detector_config(name)
    s_meas = measured_force_psd(det, det.noise_entry())
    rows = read_golden(name)
    assert len(rows) == 200
    for rc, lam in rows:
        result = force_psd_by_quadrature(CslParams(1.0, rc), det.geometry, det.arrangement)
        assert abs(s_meas / (2.0 * lam) - result.value) <= (result.rel_error + 4e-15) * result.value, (name, rc)


def test_arm_count_scales_linearly():
    params = CslParams(1.0, 0.01)
    geom = Cylinder(radius=0.17, length=0.2, mass=40.0)
    one = force_psd_by_quadrature(params, geom, MassArrangement(4000.0, 1))
    two = force_psd_by_quadrature(params, geom, MassArrangement(4000.0, 2))
    assert two.value == pytest.approx(2.0 * one.value, rel=1e-12, abs=0.0)


def test_close_pair_suppression_by_quadrature():
    rc = 0.05
    params = CslParams(1.0, rc)
    near = force_psd_by_quadrature(params, LISA_GEOM, MassArrangement(rc / 10.0, 1))
    far = force_psd_by_quadrature(params, LISA_GEOM, MassArrangement(10.0 * rc, 1))
    assert near.value <= 7.5e-3 * far.value


def test_reported_error_is_honest_for_cancelling_modes():
    # rc = 1 m: the axial factor's cosine modes cancel to ~6e-5 of each, which
    # its nonnegative sin^2 product integrates without cancelling
    params = CslParams(1.0, 1.0)
    result = force_psd_by_quadrature(params, LISA_GEOM, LISA_ARR)
    closed = cube_pair_force_psd(params, LISA_GEOM, 0.376)
    assert result.value == pytest.approx(closed, rel=1e-5, abs=0.0)
    assert abs(result.value - closed) / closed <= max(result.rel_error, 1e-10) * 50


def test_gauss_kronrod_rule():
    # the n Gauss-Legendre nodes plus n + 1 more, exact through degree 3n + 1: these properties define
    # the Kronrod extension uniquely.  Each moment is summed in mpmath, so only the tabulated constants'
    # rounding shows: the same rule computed in floating point by Laurie's algorithm misses them (4.6e-16, 1.4e-16)
    n = 15
    nodes, kronrod = kspace._NODES, kspace._WEIGHTS
    gauss = kronrod - kspace._WEIGHTS_DIFF
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.size == 2 * n + 1 and np.all(np.diff(nodes) > 0.0) and np.all(kronrod > 0.0)
    assert np.all(nodes == -nodes[::-1]) and nodes[n] == 0.0
    assert np.all(kronrod == kronrod[::-1]) and np.all(gauss == gauss[::-1])
    assert np.max(np.abs(nodes[1::2] - gauss_nodes)) <= 1e-15
    assert np.max(np.abs(gauss[1::2] - gauss_weights)) <= 1e-14 and np.all(gauss[::2] == 0.0)
    with mp.workdps(50):
        x = [mp.mpf(float(v)) for v in nodes]
        for weights, degrees, bound in ((kronrod, 3 * n + 2, 1e-16), (gauss, 2 * n, 5e-17)):
            w = [mp.mpf(float(v)) for v in weights]
            for degree in range(degrees):
                exact = 0 if degree % 2 else mp.mpf(2) / (degree + 1)
                assert abs(mp.fsum(a * b**degree for a, b in zip(w, x)) - exact) <= bound, degree


# One accepted pass per integral: 31 nodes on each radial or slab panel and on each axial pass's panels.
ONE_PASS = {
    ("ligo", 1e-7): 31 * 478,  # the whole 6000 of phase; the axial factor is the constant 1
    ("lisa_pathfinder", 1e-7): 31 * 478,
    ("auriga", 1e-3): 31 * 168,  # U/s = 2100 rounded up to 168 level-0 panels; the halves' axial factor is 3/2
    ("lisa_pathfinder", 1e-2): 31 * (11 + 4),  # U/s = 16.1 on 11 level-3 panels; the length factor's 2 sin^2
}


@pytest.mark.parametrize("config, rc", list(ONE_PASS))
def test_quadrature_cost_is_one_pass_per_panel_count(config, rc):
    # a doubling of even the cheapest integral, an axial pass's 4 panels, would add 8 x 31 = 248 evaluations
    det = load_detector_config(config)
    result = force_psd_by_quadrature(CslParams(1.0, rc), det.geometry, det.arrangement)
    assert result.evaluations <= ONE_PASS[config, rc] + 4 * 31


def radial_reference(s):
    """int_0^inf J1(z)^2 e^{-(s z)^2} dz / z = (1 - e^{-x} (I0(x) + I1(x))) / 2, x = 1/2s^2."""
    with mp.workdps(30):
        x = 1 / (2 * mp.mpf(s) ** 2)
        return 0.5 * (1 - mp.exp(-x) * (mp.besseli(0, x) + mp.besseli(1, x)))


def slab_reference(s):
    """int_0^inf sinc^2(u) e^{-(s u)^2} du = (pi/2) erf(1/s) - (sqrt(pi)/2) s (1 - e^{-1/s^2})."""
    with mp.workdps(30):
        s = mp.mpf(s)
        return mp.pi / 2 * mp.erf(1 / s) - mp.sqrt(mp.pi) / 2 * s * (1 - mp.exp(-1 / s**2))


W1 = math.ldexp(kspace._RESOLVED_PHASE / kspace._LEVEL0_PANELS, -1)  # panel width of level 1


def s_at(zres):
    """The smallest s whose resolved range U/s is at most zres: zres exactly where some s gives it."""
    s = kspace._K_CUTOFF / zres
    while kspace._K_CUTOFF / s > zres:
        s = float(np.nextafter(s, math.inf))
    while kspace._K_CUTOFF / np.nextafter(s, 0.0) <= zres:
        s = float(np.nextafter(s, 0.0))
    return s


def s_past(zres, edges):
    """The largest s whose range U/s, past zres, is rounded up to `edges` panels of level 1."""
    s = s_at(zres)
    while math.ceil(kspace._K_CUTOFF / s / W1) < edges:
        s = float(np.nextafter(s, 0.0))
    return s


# s = U/6000, the smallest whose resolved range is at most the whole 6000; the 1/z^2 tail is closed-form below it
S_FULL = s_at(kspace._RESOLVED_PHASE)
# Edges of the first pass: the range 6000 of s = U/6000 (the whole level 0
# and the closed-form tail just below it, 478 level-0 panels and the window
# charge at it); a range of 8 level-1 panels, the longest not past them (no
# s gives exactly 8 for U = 7); a range just past 8 panels, rounded up by
# almost a whole panel to 9; and one just past 7, whose round-up to 8 is the
# largest share.
BOUNDARY_S = [
    float(np.nextafter(S_FULL, 0.0)),
    S_FULL,
    s_at(8 * W1),
    s_past(8 * W1, 9),
    s_past(7 * W1, 8),
]


def test_boundary_s_lie_on_their_edges():
    below, above, exact, past8, past7 = (kspace._K_CUTOFF / s for s in BOUNDARY_S)
    assert below > kspace._RESOLVED_PHASE >= above
    assert exact <= 8 * W1 < kspace._K_CUTOFF / np.nextafter(BOUNDARY_S[2], 0.0) and 8 * W1 - exact < 1e-12 * W1
    assert math.ceil(past8 / W1) == 9 and past8 - 8 * W1 < 1e-12 * W1
    assert math.ceil(past7 / W1) == 8 and past7 - 7 * W1 < 1e-12 * W1


@given(st.floats(min_value=-300.0, max_value=math.log10(6000.0)).map(lambda e: 10.0**e), st.integers(min_value=2, max_value=1000))
@example(7 * W1, 8)
@example(8 * W1, 8)
@example(kspace._RESOLVED_PHASE, 8)
def test_first_level_is_the_coarsest_with_enough_panels(span, least):
    # at 7 W1 the rule's two sides tie: 7 panels of level 1 fall short, 14 of level 2 do not
    w0 = kspace._RESOLVED_PHASE / kspace._LEVEL0_PANELS
    level = kspace._level(span, least, w0)
    assert math.ceil(span / math.ldexp(w0, -level)) >= least
    assert level == 0 or math.ceil(span / math.ldexp(w0, 1 - level)) < least


def test_mode_first_level_is_the_coarsest_with_enough_panels():
    # an axial pass's level k lays 4 2^k panels over [0, U]; ties at least = 5, 9, 17 and 33
    for least in range(4, 35):  # the least 4 to the 34 of a mode at 60 rad per r_c
        level = kspace._level(kspace._K_CUTOFF, least, kspace._MODE_GRID[0])
        assert 4 << level >= least and (level == 0 or 4 << (level - 1) < least), least
    assert level == 4
    # a mode below 2U rad per r_c needs at most 8 panels: level 1
    fastest = int(2.0 * kspace._K_CUTOFF * kspace._K_CUTOFF / kspace._MODE_PANEL_PHASE) + 1
    assert fastest == 8 and kspace._level(kspace._K_CUTOFF, fastest, kspace._MODE_GRID[0]) == 1


RESOLVED_GRID = (kspace._RESOLVED_PHASE / kspace._LEVEL0_PANELS, kspace._LEVEL0_PANELS)
# grid, span and least count of a first pass on the whole of the axial passes' level 0
MODE_LEVEL0 = (kspace._MODE_GRID, kspace._K_CUTOFF, kspace._MODE_GRID[1])


def ones(x):
    return np.ones_like(x)


def recorded_passes(grid, span, least, doubled):
    """hi of _adaptive over [0, span] on a fresh table of ones, and the nodes each of its passes saw.

    Every pass of ones meets the target, but a NaN factor on the first
    pass forces one doubling when doubled is set.
    """
    seen = []

    def factor(x):
        seen.append(np.array(x))
        return np.full(x.size, math.nan if doubled and len(seen) == 1 else 1.0)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(kspace, "_TABLES", {})
        _, _, hi = kspace._adaptive(ones, factor, grid, span, least, kspace._Budget(kspace.BUDGET), "ones")
    return hi, seen


@given(st.sampled_from([kspace._MODE_GRID, RESOLVED_GRID]), log_uniform(-300.0, 0.0), st.integers(min_value=2, max_value=200))
@example(RESOLVED_GRID, float(np.nextafter(9 * RESOLVED_GRID[0], math.inf)) / kspace._RESOLVED_PHASE, 2)
@example(RESOLVED_GRID, 1.0, 8)
@example(kspace._MODE_GRID, 1.0, 4)
def test_first_pass_lays_whole_panels_from_0_to_hi(grid, fraction, least):
    # span is a fraction of the level's end (U for the modes, 6000 for the rest), which no caller passes
    end = grid[0] * grid[1]
    span = fraction * end
    hi, (first,) = recorded_passes(grid, span, least, doubled=False)
    panels, rest = divmod(first.size, kspace._NODES.size)
    level = round(math.log2(grid[0] * panels / hi))
    width = math.ldexp(grid[0], -level)
    # at least `least` whole panels of one level's width, laid from 0 up to hi
    assert rest == 0 and panels >= least and level >= 0 and panels * width == hi
    assert 0.0 < first.min() < width and hi - width < first.max() < hi
    # span / width may round down onto a whole count: hi is then one ulp short of span, whose tail starts at hi
    assert hi >= span or hi == end or span - hi <= math.ulp(span)
    assert hi - span < width
    # a forced doubling halves the panels over the same [0, hi]
    doubled_hi, (again, second) = recorded_passes(grid, span, least, doubled=True)
    assert doubled_hi == hi and np.array_equal(again, first)
    assert second.size == 2 * first.size and 0.0 < second.min() < 0.5 * width and hi - 0.5 * width < second.max() < hi


@given(st.floats(min_value=-12.0, max_value=4.0).map(lambda e: 10.0**e))
@example(10.0 ** math.log10(MIN_CORRELATION_LENGTH / 0.3))
@with_examples(BOUNDARY_S)
def test_radial_integral_error_is_certified(s):
    value, err = kspace._disc_radial_integral(1.0, s, kspace._Budget(kspace.BUDGET))
    assert abs(value - float(radial_reference(s))) <= err


@given(st.floats(min_value=-12.0, max_value=4.0).map(lambda e: 10.0**e))
@example(10.0 ** math.log10(MIN_CORRELATION_LENGTH / 0.046))
@with_examples([0.5 * s for s in BOUNDARY_S])
def test_slab_integral_error_is_certified(rc):
    # side = 1 m: the integral is in u = k side/2, at s = 2 rc/side
    value, err = kspace._slab_integral(1.0, rc, kspace._Budget(kspace.BUDGET))
    assert abs(value - 2.0 * float(slab_reference(2.0 * rc))) <= err


def sweep(points, before_each=lambda: None):
    """The oracle at each (config, r_c), in order."""
    results = []
    for name, rcs in points:
        det = load_detector_config(name)
        for rc in rcs:
            before_each()
            results.append(force_psd_by_quadrature(CslParams(1.0, float(rc)), det.geometry, det.arrangement))
    return results


class CountingTables(dict):
    """kspace._TABLES that counts each fill or growth of a table, per shape."""

    def __init__(self):
        super().__init__()
        self.writes = {}

    def __setitem__(self, key, value):
        self.writes[key[0]] = self.writes.get(key[0], 0) + 1
        super().__setitem__(key, value)

    def of(self, shape):
        """The tables of one shape."""
        return [table for (key, _), table in self.items() if key is shape]


def count_kernel_calls(monkeypatch, kernel):
    """Route kspace's kernel through a recorder; returns the list of argument sizes."""
    sizes = []
    inner = getattr(kspace, kernel)

    def counting(x):
        sizes.append(x.size)
        return inner(x)

    monkeypatch.setattr(kspace, kernel, counting)
    return sizes


def body_scale(geometry):
    """The length r of s = r_c / r: the radius, or half the cube's side."""
    return 0.5 * geometry.side if isinstance(geometry, Cube) else geometry.radius


@pytest.mark.parametrize(
    "configs, kernel",
    [(("ligo", "auriga"), "_j1_array"), (("lisa_pathfinder",), "_sinc2_array"), (("ligo", "lisa_pathfinder", "auriga"), "_gauss")],
)
def test_shape_is_tabulated_once_per_table_fill(monkeypatch, configs, kernel):
    # r_c falling from 10 R (5 sides for the cube) to 1e-12 m, across R U/6000
    # (side U/12000), after 40 r_c falling from R U/120 to R U/6000 whose
    # ranges lengthen from 120 to 6000 on level 0.  J1(z)^2 / z in z = kR does
    # not depend on R, so ligo and auriga share tables, and every config's
    # axial passes share those of e^{-u^2}.
    points = []
    for name in configs:
        r = body_scale(load_detector_config(name).geometry)
        edges = r * kspace._K_CUTOFF / 120, r * S_FULL
        points.append((name, np.concatenate([np.geomspace(*edges, 40), np.geomspace(10 * r, 1e-12, 25)])))
    tables = CountingTables()
    monkeypatch.setattr(kspace, "_TABLES", tables)
    sizes = count_kernel_calls(monkeypatch, kernel)
    # the table key: J1(z)^2 / z, or the kernel itself, looked up after the recorder went in
    key = kspace._j1_squared_over_z if kernel == "_j1_array" else getattr(kspace, kernel)
    shared = sweep(points)
    # one call per fill or growth, each evaluating only the new nodes
    assert len(sizes) == tables.writes[key]
    assert sum(sizes) == sum(x.size for x, _ in tables.of(key))
    # a table at least doubles when it grows, so from its first pass's least panels (8; a mode's level 0
    # lays 4) to n it is written at most 1 + log2(n / least) times
    least = kspace._MODE_GRID[1] if kernel == "_gauss" else 8
    assert len(sizes) <= sum(1 + math.log2(x.size / (least * kspace._NODES.size)) for x, _ in tables.of(key))
    fresh = sweep(points, before_each=tables.clear)
    assert len(sizes) == tables.writes[key]
    # same values, errors and costs, bit for bit
    assert shared == fresh


def linspace_nodes(lo, hi, panels):
    """Half-width of `panels` equal panels on linspace(lo, hi, panels + 1) and their Kronrod nodes, panel by panel."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * float(edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    return half, (centers[:, None] + half * kspace._NODES[None, :]).ravel()


def shape_afresh(monkeypatch, whole_range):
    """Route kspace's table reads to the same nodes with the shape evaluated on them at once.

    Appends to whole_range, for each pass over the whole level 0, whether
    its nodes are those of linspace(0, 6000, 479) (radial and slab) or
    linspace(0, U, 5) (axial passes).
    """
    tabulated = kspace._shape_nodes

    def afresh(shape, grid, level, panels):
        half, x, _ = tabulated(shape, grid, level, panels)
        if level == 0 and panels == grid[1]:
            reach = kspace._K_CUTOFF if grid == kspace._MODE_GRID else kspace._RESOLVED_PHASE
            linspace_half, linspace_x = linspace_nodes(0.0, reach, panels)
            whole_range.append(half == linspace_half and np.array_equal(x, linspace_x))
        x = np.array(x)
        return half, x, shape(x)

    monkeypatch.setattr(kspace, "_shape_nodes", afresh)


def no_moment_route(monkeypatch):
    """Send every radial and slab integral down the direct route: each pass evaluates its factor on the nodes."""
    monkeypatch.setattr(kspace, "_moment_pass", lambda *args: None)


@pytest.mark.parametrize("s", [1e-9, 1e-4, 1e-2, 0.05])
def test_tables_change_no_bit_of_the_radial_and_slab_integrals(monkeypatch, s):
    whole_range = []

    def integrals():
        # side = 2 m: the slab's s is rc, and its 2/side scale is 1
        return (
            kspace._disc_radial_integral(1.0, s, kspace._Budget(kspace.BUDGET)),
            kspace._slab_integral(2.0, s, kspace._Budget(kspace.BUDGET)),
        )

    def cold_warm_afresh(m):
        # the moment tables too are built afresh, from the shape on the same nodes
        m.setattr(kspace, "_TABLES", {})
        m.setattr(kspace, "_MOMENTS", {})
        cold = integrals()
        warm = integrals()
        m.setattr(kspace, "_MOMENTS", {})
        shape_afresh(m, whole_range)
        assert cold == warm == integrals()

    with monkeypatch.context() as m:  # s hi <= 1 takes the moment route, whose tables read the whole level 0
        cold_warm_afresh(m)
    assert len(whole_range) == (2 if s * kspace._RESOLVED_PHASE <= 1.0 else 0) and all(whole_range)
    whole_range.clear()
    with monkeypatch.context() as m:
        no_moment_route(m)
        cold_warm_afresh(m)
    # s <= U/6000: the direct route's first pass spans the whole of level 0
    assert len(whole_range) == (2 if s <= S_FULL else 0) and all(whole_range)


def test_tables_change_no_bit_of_the_axial_passes(monkeypatch):
    # a 2 sin^2 factor and a product on the whole of level 0, a mean of 1 + cos(10 u)/2 on level 1, and one
    # 2 sin^2(15 u) started on level 0, which doubles
    cases = [("sin2 factor", 0.5, 0.0), ("mean", 10.0, 0.0), ("product", 0.5, 2.0)]

    def passes():
        results = []
        for name, p, q in cases:
            factor, fastest, _ = axial_pass(name, p, q)
            budget = kspace._Budget(kspace.BUDGET)
            results.append((kspace._axial_pass(factor, fastest, budget, name), budget.used))
        budget = kspace._Budget(kspace.BUDGET)
        doubled = kspace._adaptive(kspace._gauss, functools.partial(kspace._sin2, 15.0), *MODE_LEVEL0, budget, "doubled")
        results.append((doubled, budget.used))
        return results

    whole_range = []
    monkeypatch.setattr(kspace, "_TABLES", {})
    cold = passes()
    warm = passes()
    with monkeypatch.context() as m:
        shape_afresh(m, whole_range)
        reference = passes()
    assert cold == warm == reference
    # the 2 sin^2 factor, the product and the doubled pass's first lie on the whole level 0
    assert whole_range == [True, True, True]
    # one pass each, but the doubled one: 4 panels on level 0, 8 on level 1, then 4 + 8 from level 0
    assert [used for _, used in cold] == [31 * 4, 31 * 8, 31 * 4, 31 * (4 + 8)]


@functools.cache
def table_nodes(grid, level):
    """The Kronrod nodes of grid's whole level `level`, laid by _shape_nodes on a table of their own."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kspace, "_TABLES", {})
        return kspace._shape_nodes(ones, grid, level, grid[1] << level)[1]


# each factor as formed in one new array, and the expression it was before, kept as its reference
FACTORS = {
    "cutoff": (lambda p, q: functools.partial(kspace._cutoff, p), lambda p, q, x: np.exp(-((p * x) ** 2))),
    "mean": (lambda p, q: functools.partial(kspace._cosine_mean, p), lambda p, q, x: 1.0 + 0.5 * np.cos(p * x)),
    "sin2 factor": (lambda p, q: functools.partial(kspace._sin2, p), lambda p, q, x: 2.0 * np.sin(p * x) ** 2),
    "sin2": (lambda p, q: functools.partial(kspace._sin2_product, p, q), lambda p, q, x: (2.0 * np.sin(p * x) * np.sin(q * x)) ** 2),
}
FACTOR_PARAMETER = st.one_of(st.just(0.0), log_uniform(-300.0, 300.0))


@given(
    st.sampled_from(sorted(FACTORS)),
    st.sampled_from([(kspace._MODE_GRID, level) for level in range(3)] + [(RESOLVED_GRID, level) for level in range(2)]),
    FACTOR_PARAMETER,
    FACTOR_PARAMETER,
)
@example("cutoff", (RESOLVED_GRID, 0), 0.0, 0.0)
@example("cutoff", (RESOLVED_GRID, 0), 1e160, 0.0)  # (s z)^2 overflows to inf past z = 1.3e-6
@example("mean", (kspace._MODE_GRID, 0), 0.0, 0.0)
@example("sin2 factor", (kspace._MODE_GRID, 1), 5e-7, 0.0)  # the far pair of a 1 um body at r_c = 1 m
@example("sin2", (kspace._MODE_GRID, 1), 0.5, 0.5)  # a bar's halves: hl = ha
def test_each_factor_is_its_old_expression_in_a_new_array(name, table, p, q):
    x = table_nodes(*table)
    factor, old = FACTORS[name]
    with np.errstate(all="ignore"):
        new, reference = factor(p, q)(x), old(p, q, x)
    # bit for bit, NaN and the sign of zero included; _adaptive writes the shape into the new array
    assert new.dtype == reference.dtype and new.tobytes() == reference.tobytes()
    assert new.flags.writeable and not np.shares_memory(new, x)


def test_table_cache_is_bounded(monkeypatch):
    tables = {}
    monkeypatch.setattr(kspace, "_TABLES", tables)
    configs = [load_detector_config(name) for name in ("ligo", "lisa_pathfinder", "auriga")]
    for rc in np.geomspace(1e-12, 1e4, 200):
        for det in configs:
            force_psd_by_quadrature(CslParams(1.0, float(rc)), det.geometry, det.arrangement)
    # J1^2 and sinc^2: levels 0 up to the first level of the shortest range U/s, at r_c = 1e4 m on the
    # smallest body (24 levels: the cube's sinc^2); e^{-u^2}: levels 0 up to the first level of the fastest
    # axial pass, a product, whose modes lie below 6U when neither factor averages to 1 (at most one of l and a
    # reaches 2U, and d does not), on at least 6U U / 4 pi panels
    w0 = kspace._RESOLVED_PHASE / kspace._LEVEL0_PANELS
    levels = 1 + max(kspace._level(kspace._K_CUTOFF * body_scale(det.geometry) / 1e4, 8, w0) for det in configs)
    fastest = int(3.0 * EDGE * kspace._K_CUTOFF / kspace._MODE_PANEL_PHASE) + 1
    axial_levels = 1 + kspace._level(kspace._K_CUTOFF, fastest, kspace._MODE_GRID[0])
    shapes = [shape for shape, _ in tables]
    assert set(shapes) == {kspace._j1_squared_over_z, kspace._sinc2_array, kspace._gauss}
    assert levels == 24 and all(shapes.count(shape) <= levels for shape in shapes)
    assert axial_levels == 4 and shapes.count(kspace._gauss) <= axial_levels
    # every node inside [0, _RESOLVED_PHASE] and, for e^{-u^2}, inside [0, U]; all of them together within 1 MB
    assert sum(x.nbytes + v.nbytes for x, v in tables.values()) <= 1_000_000
    assert all(x.max() < kspace._K_CUTOFF for (shape, _), (x, _) in tables.items() if shape is kspace._gauss)
    assert all(x.max() < kspace._RESOLVED_PHASE and not x.flags.writeable and not v.flags.writeable for x, v in tables.values())


ORACLE_POINTS = [
    # the oracle benchmark job: 9 r_c per config over the validate default ranges
    ("ligo", np.geomspace(1e-8, 1.0, 9)),
    ("lisa_pathfinder", np.geomspace(1e-8, 1.0, 9)),
    ("auriga", np.geomspace(1e-3, 10.0, 9)),
]


def test_second_oracle_sweep_evaluates_no_shape(monkeypatch):
    # the recorders go in first: the slab's and the modes' tables are keyed by the kernel itself
    monkeypatch.setattr(kspace, "_TABLES", {})
    calls = [count_kernel_calls(monkeypatch, kernel) for kernel in ("_j1_array", "_sinc2_array", "_gauss")]
    first = sweep(ORACLE_POINTS)
    assert all(calls)
    for sizes in calls:
        sizes.clear()
    assert sweep(ORACLE_POINTS) == first
    assert calls == [[], [], []]


# the axial routes' merge edges: separation 0 (every coefficient cancels), = length (d = 0), = 2 length (d = l),
# >> length, and a bar's halves (separation = their length), from r_c where both factors average to a constant,
# through the 1 + cos(d u)/2, 2 sin^2 and product routes, to where the product underflows
MERGE_EDGES = [
    *((Cube(0.046, 1.928), MassArrangement(a)) for a in (0.0, 0.046, 0.092, 1e4)),
    *((Cylinder(0.25, 0.2, 40.0), MassArrangement(a, 2)) for a in (0.0, 0.2, 0.4, 1e4)),
    (HalfCylinderBar(0.3, 3.0, 2300.0), MassArrangement(1.5)),
]
MERGE_RCS = [1e-9, 1e-6, 1e-3, 0.01, 0.1, 1.0, 10.0, 100.0, 1e4, 1e80]


def oracle_outcomes(bodies, rcs, before_each=lambda: None):
    """(value, rel_error, evaluations) in hex of the oracle at each body and r_c, or its QuadratureError's message, achieved error and evaluations."""
    out = []
    for geometry, arrangement in bodies:
        for rc in rcs:
            before_each()
            try:
                r = force_psd_by_quadrature(CslParams(1.0, rc), geometry, arrangement)
                out.append((r.value.hex(), r.rel_error.hex(), r.evaluations))
            except QuadratureError as exc:
                out.append((str(exc), repr(exc.achieved_rel_error), exc.evaluations))
    return out


def test_tables_change_no_result_at_the_merge_edges(monkeypatch):
    monkeypatch.setattr(kspace, "_TABLES", {})
    monkeypatch.setattr(kspace, "_MOMENTS", {})

    def empty_tables():
        kspace._TABLES.clear()
        kspace._MOMENTS.clear()

    cold = oracle_outcomes(MERGE_EDGES, MERGE_RCS, empty_tables)
    assert oracle_outcomes(MERGE_EDGES, MERGE_RCS) == cold
    n = len(MERGE_RCS)
    rows = [cold[i : i + n] for i in range(0, len(cold), n)]
    # separation 0 is the exact zero at no cost; every other body certifies to 1e4 m and stops at 1e80 m, where
    # the product's bulk underflows, at no cost either
    assert rows[0] == rows[4] == [("0x0.0p+0", "0x0.0p+0", 0)] * n
    underflow = ("quadrature reached relative error inf, above the target 1.000e-06", "inf", 0)
    for row in rows[1:4] + rows[5:]:
        assert row[-1] == underflow
        assert all(value.startswith("0x") and evaluations > 0 for value, _, evaluations in row[:-1])


def first_pass(grid, span, least):
    """The level, panel count and end hi of _adaptive's first pass, laid as it lays them."""
    level = kspace._level(span, least, grid[0])
    width = math.ldexp(grid[0], -level)
    panels = min(math.ceil(span / width), grid[1] << level)
    return level, panels, panels * width


def nan_at_last_node(x):
    return np.append(np.ones(x.size - 1), np.nan)


def reference_adaptive(shape, factor, grid, span, least, budget, what):
    """_adaptive as it was when every pass summed |f| and met max(tol_abs, tol_rel |f|), at the targets every caller gave, kept as its reference."""
    tol_abs, tol_rel = 0.0, kspace._SUB_TOL * kspace.REL_TOL
    level, panels, hi = first_pass(grid, span, least)
    err = value = None
    while True:
        if not budget.charge(panels * kspace._NODES.size):
            achieved = None if err is None or value == 0.0 else err / abs(value)
            raise QuadratureError(
                f"evaluation budget exhausted while integrating {what}"
                + ("" if achieved is None else f" (achieved {achieved:.3e})"),
                achieved_rel_error=achieved,
                evaluations=budget.used,
            )
        half, x, values = kspace._shape_nodes(shape, grid, level, panels)
        fx = (values * factor(x)).reshape(panels, kspace._NODES.size)
        rules = fx @ kspace._RULES
        value = half * float(rules[:, 0].sum())
        magnitude = half * float((np.abs(fx) @ kspace._RULES)[:, 0].sum())
        floor = 100.0 * kspace._EPS * magnitude
        err = max(half * float(np.abs(rules[:, 1]).sum()), floor)
        if err <= max(tol_abs, tol_rel * magnitude, floor):
            return value, err, hi
        level += 1
        panels *= 2


def test_adaptive_matches_the_one_that_always_sums_the_magnitude(monkeypatch):
    # every integrand is nonnegative, so its value is its magnitude, bit for bit
    monkeypatch.setattr(kspace, "_TABLES", {})

    def passes(adaptive):
        # (value, error, evaluations), or the error's message, achieved error (repr: NaN is unequal) and evaluations
        monkeypatch.setattr(kspace, "_adaptive", adaptive)
        cases = [lambda b, s=s: kspace._disc_radial_integral(1.0, s, b) for s in (1e-9, 1e-4, 1e-2, 0.05)]
        cases += [lambda b, s=s: kspace._slab_integral(2.0, s, b) for s in (1e-9, 1e-4, 1e-2, 0.05)]
        for name, p, q in [("sin2 factor", 0.5, 0.0), ("mean", 10.0, 0.0), ("product", 0.5, 2.0), ("product", 1e-6, 1e-6)]:
            factor, fastest, _ = axial_pass(name, p, q)
            cases.append(lambda b, factor=factor, fastest=fastest, name=name: kspace._axial_pass(factor, fastest, b, name))
        cases += [
            # started on level 0, 2 sin^2(15 u) doubles, and 2 sin^2(7.5 u) misses the target there by a factor of 6;
            # (value, error) without hi, as the integrals return
            lambda b: adaptive(kspace._gauss, functools.partial(kspace._sin2, 15.0), *MODE_LEVEL0, b, "doubled")[:2],
            lambda b: adaptive(kspace._gauss, functools.partial(kspace._sin2, 7.5), *MODE_LEVEL0, b, "near the target")[:2],
            lambda b: adaptive(kspace._gauss, lambda u: np.zeros(u.size), *MODE_LEVEL0, b, "zero")[:2],
            # a NaN at the last node of every pass: it never meets its target, so it ends on a small budget
            lambda b: adaptive(kspace._gauss, nan_at_last_node, *MODE_LEVEL0, kspace._Budget(2000), "NaN"),
        ]
        out = []
        for case in cases:
            budget = kspace._Budget(kspace.BUDGET)
            try:
                out.append((*case(budget), budget.used))
            except QuadratureError as exc:
                out.append((str(exc), repr(exc.achieved_rel_error), exc.evaluations))
        return out, sweep(ORACLE_POINTS)

    ours, oracle = passes(kspace._adaptive)
    assert (ours, oracle) == passes(reference_adaptive)
    assert ours[-1] == ("evaluation budget exhausted while integrating NaN (achieved nan)", "nan", 31 * (4 + 8 + 16 + 32))
    assert all(isinstance(out[0], float) for out in ours[:-1])
    assert ours[-2][:2] == (0.0, 0.0) and ours[-3][2] == 31 * (4 + 8) and ours[-4][2] > ours[-5][2] and len(oracle) == 27


def column_sum_adaptive(shape, factor, grid, span, least, budget, what):
    """_adaptive as it was before one product formed each panel's rules, kept to bound the move.

    A pass summed the panels' columns and then took dot products with the
    Kronrod and the difference weights; the radial integrand was J1(z)^2
    e^{-(s z)^2} / z, with the shape J1(z)^2.
    """
    level, panels, hi = first_pass(grid, span, least)
    while True:
        if not budget.charge(panels * kspace._NODES.size):
            raise QuadratureError("evaluation budget exhausted", evaluations=budget.used)
        half, x, values = kspace._shape_nodes(shape, grid, level, panels)
        if shape is kspace._j1_squared_over_z:
            fx = _j1_array(x) ** 2 * factor(x) / x
        else:
            fx = values * factor(x)
        fx = fx.reshape(panels, kspace._NODES.size)
        value = half * float(fx.sum(axis=0) @ kspace._WEIGHTS)
        magnitude = half * float(np.abs(fx).sum(axis=0) @ kspace._WEIGHTS)
        floor = 100.0 * kspace._EPS * magnitude
        err = max(half * float(np.abs(fx @ kspace._WEIGHTS_DIFF).sum()), floor)
        if err <= max(kspace._SUB_TOL * kspace.REL_TOL * magnitude, floor):
            return value, err, hi
        level += 1
        panels *= 2


def test_one_product_per_pass_moves_each_result_by_under_5_percent_of_its_error(monkeypatch):
    # the oracle benchmark's points, validate's default grids and a log sweep over 1e-12..1e4 m, each
    # integrated with the column sums too; the largest move is 2.5% of the certified error (auriga, 2.5 cm)
    monkeypatch.setattr(kspace, "_TABLES", {})
    points = list(ORACLE_POINTS)
    points += [(name, np.geomspace(rcs[0], rcs[-1], 25)) for name, rcs in ORACLE_POINTS]
    points += [(name, np.geomspace(1e-12, 1e4, 301)) for name, _ in ORACLE_POINTS]

    def outcomes():
        out = []
        for name, rcs in points:
            det = load_detector_config(name)
            for rc in rcs.tolist():
                try:
                    out.append(force_psd_by_quadrature(CslParams(1.0, rc), det.geometry, det.arrangement))
                except QuadratureError:
                    out.append(None)
        return out

    new = outcomes()
    monkeypatch.setattr(kspace, "_adaptive", column_sum_adaptive)
    no_moment_route(monkeypatch)  # the parent's arithmetic at small r_c too: every pass evaluated on its nodes
    old = outcomes()
    assert len(new) == 27 + 75 + 903
    assert [r is None for r in new] == [r is None for r in old]
    assert [r.evaluations for r in new[:27]] == [r.evaluations for r in old[:27]]
    assert sum(r.evaluations == 31 * 478 for r in new[:27]) == 9
    pairs = [(n, o) for n, o in zip(new, old) if o is not None]
    assert len(pairs) == len(new)  # none fails now
    assert max(abs(n.value - o.value) / (o.value * o.rel_error) for n, o in pairs) <= 0.05
    # the estimates move by at most 1.1e-3 of themselves; 5% still tells a broken one
    assert max(abs(n.rel_error - o.rel_error) / o.rel_error for n, o in pairs) <= 0.05


# the shape and the integral that resolves it at s: radius 1 and side 2 make both integrals' s the argument
RESOLVED = {
    "radial": (kspace._j1_squared_over_z, lambda s, budget: kspace._disc_radial_integral(1.0, s, budget)),
    "slab": (kspace._sinc2_array, lambda s, budget: kspace._slab_integral(2.0, s, budget)),
}
REACH = 1.0 / kspace._RESOLVED_PHASE  # the largest s of the moment route: s hi = 1


def routed(name, s, limit=None):
    """The integral at s as routed, (value, error, evaluations) or its QuadratureError's (message, achieved, evaluations),
    and what each call of the moment pass returned."""
    moment_pass, returned = kspace._moment_pass, []

    def spy(*args):
        returned.append(moment_pass(*args))
        return returned[-1]

    budget = kspace._Budget(kspace.BUDGET if limit is None else limit)
    with mock.patch.object(kspace, "_moment_pass", spy):
        try:
            return (*RESOLVED[name][1](s, budget), budget.used), returned
        except QuadratureError as exc:
            return (str(exc), repr(exc.achieved_rel_error), exc.evaluations), returned


@given(log_uniform(-300, math.log10(REACH)), st.sampled_from(sorted(RESOLVED)))
@example(REACH, "radial")
@example(REACH, "slab")
@example(float(np.nextafter(REACH, 1.0)), "radial")  # one ulp past the reach: the direct route
@example(float(np.nextafter(REACH, 1.0)), "slab")
def test_moment_route_matches_the_direct_route(s, name):
    # the direct route's first pass, forced through _adaptive, against the moment pass the integral took; the
    # direct estimate itself lies up to 1.9e-6 from a long-double evaluation of the same rule, and the two routes'
    # estimates lay up to 5.5e-6 apart over 2 x 20 000 s in [1e-8, 1] / hi (their values up to 1.2e-15)
    shape = RESOLVED[name][0]
    budget = kspace._Budget(kspace.BUDGET)
    span = min(kspace._K_CUTOFF / s, kspace._RESOLVED_PHASE)
    direct = kspace._adaptive(shape, lambda z: np.exp(-((s * z) ** 2)), RESOLVED_GRID, span, 8, budget, name)
    result, returned = routed(name, s)
    assert result[2] == budget.used == RESOLVED_GRID[1] * kspace._NODES.size
    if s * kspace._RESOLVED_PHASE > 1.0:
        assert returned == []
        return
    (value, err, hi), = returned
    assert hi == direct[2] and abs(value - direct[0]) <= 2e-15 * direct[0] and abs(err - direct[1]) <= 1e-5 * direct[1]


@pytest.mark.parametrize("name", sorted(RESOLVED))
def test_moment_route_falls_back_to_the_direct_route(monkeypatch, name):
    level0 = RESOLVED_GRID[1] * kspace._NODES.size
    # a budget that cannot pay level 0 charges nothing for the moment pass: the direct route raises what it raised
    short, returned = routed(name, REACH, level0 - 1)
    assert returned == [None] and short[1:] == ("None", 0)
    with monkeypatch.context() as m:
        no_moment_route(m)
        assert routed(name, REACH, level0 - 1)[0] == short
    # at REL_TOL = 1e-12 the level-0 pass misses its target 1e-14: the direct route then integrates from level 0 as
    # before, whether it converges, runs out after level 0 (with the error achieved there) or cannot pay level 0
    monkeypatch.setattr(kspace, "REL_TOL", 1e-12)
    limits = (None, 2 * level0, level0 - 1)
    for s in (1e-9, 0.5 * REACH, REACH):
        outcomes = [routed(name, s, limit) for limit in limits]
        assert all(returned == [None] for _, returned in outcomes)
        with monkeypatch.context() as m:
            no_moment_route(m)
            assert [result for result, _ in outcomes] == [routed(name, s, limit)[0] for limit in limits]
        converged, after_level0, unpaid = (result for result, _ in outcomes)
        assert isinstance(converged[0], float) and converged[2] > level0
        assert after_level0[0].endswith(")") and "(achieved " in after_level0[0] and after_level0[2] == level0
        assert unpaid[1] == "None" and unpaid[2] == 0


@pytest.mark.parametrize("config, rc", [("ligo", 1e-7), ("lisa_pathfinder", 1e-3), ("auriga", 5e-3), ("auriga", 1e-5)])
def test_evaluations_count_every_quadrature_node(monkeypatch, config, rc):
    # every pass of every integral reads its nodes through _shape_nodes, or the memo of a pass that did: the
    # moment route's tables (ligo, auriga at 1e-5 m: s hi <= 1); the closed-form tail past 6000 rad of phase and
    # a constant axial factor cost none
    tabulated, moment_pass = kspace._shape_nodes, kspace._moment_pass
    nodes, moments = [], []

    def counting(shape, grid, level, panels):
        half, x, values = tabulated(shape, grid, level, panels)
        nodes.append(x.size)
        return half, x, values

    def counting_moments(shape, s, grid, budget):
        result = moment_pass(shape, s, grid, budget)
        if result:
            moments.append(grid[1] * kspace._NODES.size)
        return result

    monkeypatch.setattr(kspace, "_shape_nodes", counting)
    monkeypatch.setattr(kspace, "_moment_pass", counting_moments)
    monkeypatch.setattr(kspace, "_MOMENTS", {})
    det = load_detector_config(config)
    moment_route = rc / body_scale(det.geometry) * kspace._RESOLVED_PHASE <= 1.0
    cold = force_psd_by_quadrature(CslParams(1.0, rc), det.geometry, det.arrangement)
    assert cold.evaluations == sum(nodes) > 0 and len(moments) == moment_route
    # warm, a moment pass is charged without its nodes being read again
    nodes.clear()
    moments.clear()
    warm = force_psd_by_quadrature(CslParams(1.0, rc), det.geometry, det.arrangement)
    assert warm == cold and len(moments) == moment_route
    assert warm.evaluations == sum(nodes) + sum(moments)


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-100, 1e-12, 1e2, 1e100, 1e200, 1e300, 1.7e308, math.inf])
def test_extreme_s_terminates(monkeypatch, s):
    # at s = inf the range U/s is empty; above ~1e154 the integrands underflow
    monkeypatch.setattr(kspace, "_TABLES", {})
    tracemalloc.start()
    try:
        start = time.perf_counter()
        for integral in (kspace._disc_radial_integral, kspace._slab_integral):
            value, err = integral(1.0, s, kspace._Budget(kspace.BUDGET))
            assert math.isfinite(value) and math.isfinite(err) and 0.0 <= err, (integral, value, err)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 10.0 and peak < 64e6


def test_import_tabulates_nothing():
    src = str(Path(cslbounds.__file__).parents[1])
    script = (
        "from cslbounds import kspace\n"
        "assert kspace._TABLES == {} and kspace._MOMENTS == {}\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
