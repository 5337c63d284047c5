"""Bound inversion, exclusion curves and the Ellis comparison."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cslbounds import (
    C_LIGHT,
    HBAR,
    M_NUCLEON,
    M_PLANCK,
    ConfigError,
    CslParams,
    Cube,
    Cylinder,
    DetectorModel,
    ExclusionCurve,
    FreeMass,
    MassArrangement,
    MeasuredNoise,
    SpectrumSeries,
    Strain,
    UnboundedParameterError,
    characteristic_dimension,
    ellis_eta,
    ellis_ratio,
    exclusion_curve,
    lambda_max,
    load_detector_config,
    measured_force_psd,
    optimal_frequency,
)
from cslbounds.cslnoise import HalfCylinderBar


def force_entry(psd, name="synthetic"):
    return MeasuredNoise(name=name, quantity="force", psd=psd, provenance="test fixture")


def make_interferometer(mass=40.0, separation=4000.0, noise=()):
    return DetectorModel(
        name="test_ifo",
        geometry=Cylinder(radius=0.17, length=0.2, mass=mass),
        arrangement=MassArrangement(separation=separation, arm_count=2),
        response=FreeMass(),
        readout=Strain(arm_length=separation if separation > 0 else 4000.0),
        noise=tuple(noise),
    )


# --- measured noise conversion ----------------------------------------------------


def test_measured_force_psd_acceleration_chain(lisa):
    entry = lisa.noise_entry("published_minimum")
    expected = (1.928**2 / 4.0) * 2.7e-29
    assert measured_force_psd(lisa, entry) == pytest.approx(expected, rel=1e-14)


def test_measured_force_psd_bar_applies_csl_fraction(auriga):
    entry = auriga.noise_entry()
    s_ff = measured_force_psd(auriga, entry)
    # 10% of the measured power: 38.3 pN/sqrt(Hz) -> 12.1 pN/sqrt(Hz)
    assert math.sqrt(s_ff) == pytest.approx(12.1e-12, rel=0.01)


def test_measured_force_psd_strain_interferometer(ligo):
    entry = MeasuredNoise(
        name="strain_fig",
        quantity="strain",
        psd=(2.85e-23) ** 2,
        frequency_hz=32.5,
        provenance="test",
    )
    s_ff = measured_force_psd(ligo, entry)
    assert math.sqrt(s_ff) == pytest.approx(95e-15, rel=0.01)


def test_measured_force_psd_strain_needs_frequency(ligo):
    entry = MeasuredNoise(name="nofreq", quantity="strain", psd=1e-46, provenance="test")
    with pytest.raises(ConfigError, match="frequency"):
        measured_force_psd(ligo, entry)


def test_measured_force_psd_rejects_unconvertible_quantities(ligo, lisa):
    displacement = MeasuredNoise(
        name="disp", quantity="displacement", psd=1e-38, frequency_hz=100.0, provenance="test"
    )
    strain = MeasuredNoise(name="strain", quantity="strain", psd=1e-42, frequency_hz=100.0, provenance="test")
    with pytest.raises(ConfigError, match="displacement input is not supported for interferometer"):
        measured_force_psd(ligo, displacement)
    with pytest.raises(ConfigError, match="strain input is not supported for accelerometer"):
        measured_force_psd(lisa, strain)


# --- lambda_max --------------------------------------------------------------------


def test_lambda_max_lisa_published_bound(lisa):
    value = lambda_max(lisa, lisa.noise_entry("published_minimum"), 1e-7)
    assert value == pytest.approx(3e-8, rel=0.20)


def test_lambda_max_scales_exactly_with_noise(lisa):
    entry = lisa.noise_entry("published_minimum")
    doubled = MeasuredNoise(
        name="x2", quantity="acceleration", psd=2.0 * entry.psd, provenance="test"
    )
    assert lambda_max(lisa, doubled, 1e-7) == 2.0 * lambda_max(lisa, entry, 1e-7)


def test_lambda_max_ligo_matches_hand_asymptote(ligo):
    # standalone small-rc oracle: S_FF(lambda=1) ~ 8 hbar^2 m^2 rc^2/(L^2 R^2 m0^2)
    rc = 1e-7
    s_meas = (95e-15) ** 2
    hand_model = 8.0 * HBAR**2 * 40.0**2 * rc**2 / (0.2**2 * 0.17**2 * M_NUCLEON**2)
    hand = s_meas / (2.0 * hand_model)
    got = lambda_max(ligo, ligo.noise_entry("o1_minimum"), rc)
    assert got == pytest.approx(hand, rel=0.05)
    assert hand == pytest.approx(1.0e-5, rel=0.02)


def test_lambda_max_unbounded_at_zero_separation():
    det = make_interferometer(separation=0.0, noise=[force_entry(1e-27)])
    with pytest.raises(UnboundedParameterError):
        lambda_max(det, det.noise_entry(), 1e-7)
    # the curve path names the first r_c of the grid where the model vanishes
    with pytest.raises(UnboundedParameterError, match="r_c = 2e-07 m"):
        exclusion_curve(det, det.noise_entry(), np.array([2e-7, 1e-6, 1e-3]))


# --- exclusion curves ---------------------------------------------------------------


def test_exclusion_curve_metadata_and_minimum(lisa):
    grid = np.geomspace(1e-9, 1e2, 200)
    curve = exclusion_curve(lisa, lisa.noise_entry(), grid)
    assert len(curve) == 200
    assert curve.detector_id == "lisa_pathfinder"
    assert curve.noise_name == "published_minimum"
    assert curve.bar_variant is None
    rc_min, lam_min = curve.minimum()
    assert 1e-3 < rc_min < 1.0
    assert lam_min > 0.0


def test_exclusion_curve_pointwise_independent(lisa):
    grid = np.geomspace(1e-6, 1.0, 25)
    curve = exclusion_curve(lisa, lisa.noise_entry(), grid)
    rng = np.random.default_rng(7)
    shuffled = grid.copy()
    rng.shuffle(shuffled)
    entry = lisa.noise_entry()
    single = {float(rc): lambda_max(lisa, entry, float(rc)) for rc in shuffled}
    reassembled = np.array([single[float(rc)] for rc in grid])
    assert np.array_equal(reassembled, curve.lambda_max)


@pytest.mark.parametrize(
    "config,variant", [("ligo", None), ("lisa_pathfinder", None), ("auriga", "printed"), ("auriga", "rederived")]
)
def test_exclusion_curve_matches_pointwise_lambda_max(config, variant):
    # one pass over the grid and one call per point share a single code path
    det = load_detector_config(config)
    entry = det.noise_entry()
    grid = np.geomspace(1e-9, 1e2, 200)
    curve = exclusion_curve(det, entry, grid, variant)
    single = np.array([lambda_max(det, entry, float(rc), variant) for rc in grid])
    assert np.max(np.abs(curve.lambda_max - single) / single) <= 1e-14


@pytest.mark.parametrize("bad", [0.0, -1e-7, math.nan, math.inf])
def test_exclusion_curve_rejects_bad_rc(lisa, bad):
    with pytest.raises(ValueError, match="correlation_length"):
        exclusion_curve(lisa, lisa.noise_entry(), np.array([1e-8, 1e-7, bad]))
    with pytest.raises(ValueError, match="correlation_length"):
        lambda_max(lisa, lisa.noise_entry(), bad)


def test_exclusion_curve_doubles_with_noise(lisa):
    grid = np.geomspace(1e-8, 1.0, 10)
    entry = lisa.noise_entry()
    doubled = MeasuredNoise(name="x2", quantity="acceleration", psd=2.0 * entry.psd, provenance="t")
    base = exclusion_curve(lisa, entry, grid)
    up = exclusion_curve(lisa, doubled, grid)
    assert np.array_equal(up.lambda_max, 2.0 * base.lambda_max)


def test_exclusion_curve_single_minimum_each_detector(ligo, lisa, auriga):
    grid = np.geomspace(1e-9, 1e2, 200)
    for det in (ligo, lisa, auriga):
        curve = exclusion_curve(det, det.noise_entry(), grid)
        lam = curve.lambda_max
        interior_minima = [
            i for i in range(1, len(lam) - 1) if lam[i] < lam[i - 1] and lam[i] < lam[i + 1]
        ]
        assert len(interior_minima) == 1, det.name
        rc_min, _ = curve.minimum()
        dim = characteristic_dimension(det.geometry)
        assert dim / 10.0 <= rc_min <= dim * 10.0, det.name


def test_detector_ordering_at_standard_length(ligo, lisa, auriga):
    rc = 1e-7
    lam_lisa = lambda_max(lisa, lisa.noise_entry(), rc)
    lam_ligo = lambda_max(ligo, ligo.noise_entry(), rc)
    lam_auriga = lambda_max(auriga, auriga.noise_entry(), rc)
    assert lam_lisa < lam_ligo
    assert lam_lisa < lam_auriga


def test_curve_validation():
    with pytest.raises(ValueError):
        ExclusionCurve(np.array([]), np.array([]), "d", "n")
    with pytest.raises(ValueError):
        ExclusionCurve(np.array([2.0, 1.0]), np.array([1.0, 1.0]), "d", "n")
    with pytest.raises(ValueError):
        ExclusionCurve(np.array([1.0, 2.0]), np.array([1.0, 0.0]), "d", "n")


def test_characteristic_dimension():
    assert characteristic_dimension(Cylinder(0.17, 0.2, 40.0)) == 0.2
    assert characteristic_dimension(Cube(0.046, 1.928)) == 0.046
    assert characteristic_dimension(HalfCylinderBar(0.3, 3.0, 2300.0)) == 0.3


# --- optimal frequency ---------------------------------------------------------------


def test_optimal_frequency_flat_spectrum_picks_lowest(ligo):
    freqs = np.geomspace(10.0, 100.0, 20)
    series = SpectrumSeries(freqs, np.full_like(freqs, 1e-23), "strain")
    omega_bar, s_f = optimal_frequency(series, ligo)
    assert omega_bar == pytest.approx(2.0 * math.pi * freqs[0], rel=1e-14)


def test_optimal_frequency_inverse_square_tie_breaks_low():
    det = make_interferometer(noise=[force_entry(1e-27)])
    freqs = np.array([2.0**k for k in range(3, 10)])
    series = SpectrumSeries(freqs, 1e-20 / freqs**2, "strain")
    omega_bar, _ = optimal_frequency(series, det)
    assert omega_bar == 2.0 * math.pi * freqs[0]


def test_optimal_frequency_v_spectrum_finds_kink(ligo):
    # log-log slopes -3 then -1 around 32.5 Hz: force ASD minimum at the kink
    kink = 32.5
    freqs = np.unique(np.concatenate([np.geomspace(10.0, 200.0, 60), [kink]]))
    shape = 0.5 * ((freqs / kink) ** -3 + (freqs / kink) ** -1)
    series = SpectrumSeries(freqs, 2.85e-23 * shape, "strain")
    omega_bar, s_f = optimal_frequency(series, ligo)
    assert omega_bar == pytest.approx(2.0 * math.pi * kink, rel=1e-12)
    assert s_f == pytest.approx(95e-15, rel=0.01)


def test_optimal_frequency_scale_invariant_argmin(ligo):
    freqs = np.geomspace(10.0, 200.0, 40)
    asd = 2.85e-23 * ((freqs / 32.5) ** -3 + (freqs / 32.5) ** -1)
    base = optimal_frequency(SpectrumSeries(freqs, asd, "strain"), ligo)
    scaled = optimal_frequency(SpectrumSeries(freqs, 7.25 * asd, "strain"), ligo)
    assert scaled[0] == base[0]
    assert scaled[1] == pytest.approx(7.25 * base[1], rel=1e-12)


def test_optimal_frequency_needs_interferometer(auriga):
    series = SpectrumSeries(np.array([900.0, 931.0]), np.array([1e-21, 1.6e-21]), "strain")
    with pytest.raises(ConfigError):
        optimal_frequency(series, auriga)


# --- Ellis comparison -----------------------------------------------------------------


def test_ellis_eta_hand_value():
    # direct constant arithmetic at the 1.928 kg test mass
    m = 1.928
    hand = (C_LIGHT * M_NUCLEON) ** 4 * m * m / (HBAR * M_PLANCK) ** 3
    assert ellis_eta(m) == hand
    assert hand == pytest.approx(1.888e52, rel=1e-3)


def test_ellis_eta_quadratic_and_zero():
    assert ellis_eta(2.0) == pytest.approx(4.0 * ellis_eta(1.0), rel=1e-15)
    assert ellis_eta(0.0) == 0.0
    with pytest.raises(ValueError):
        ellis_eta(-1.0)


def test_ellis_ratio_lisa_order_of_magnitude(lisa):
    report = ellis_ratio(lisa, lisa.noise_entry("published_minimum"))
    assert 1e12 <= report.ratio <= 1e13
    assert report.eta_exp == pytest.approx(2.26e39, rel=1e-2)
    assert report.ratio == report.eta_ellis / report.eta_exp


def test_ellis_ratio_halves_with_doubled_noise(lisa):
    entry = lisa.noise_entry()
    doubled = MeasuredNoise(name="x2", quantity="acceleration", psd=2.0 * entry.psd, provenance="t")
    base = ellis_ratio(lisa, entry)
    up = ellis_ratio(lisa, doubled)
    assert up.ratio == pytest.approx(base.ratio / 2.0, rel=1e-14)


def test_ellis_ratio_mass_quadratic_at_fixed_force_noise():
    entry = force_entry(9.025e-27)
    small = ellis_ratio(make_interferometer(mass=20.0, noise=[entry]), entry)
    large = ellis_ratio(make_interferometer(mass=40.0, noise=[entry]), entry)
    assert large.ratio == pytest.approx(4.0 * small.ratio, rel=1e-14)


@given(st.floats(min_value=1e-9, max_value=1e2))
def test_lambda_max_positive_everywhere(rc):
    det = make_interferometer(noise=[force_entry(9.025e-27)])
    assert lambda_max(det, det.noise_entry(), rc) > 0.0


def test_lambda_max_agrees_between_model_paths(lisa):
    # closed-form and quadrature model PSDs give the same bound to 1e-3
    from cslbounds import force_psd_by_quadrature

    entry = lisa.noise_entry()
    s_meas = measured_force_psd(lisa, entry)
    for rc in (1e-7, 1e-4, 1e-2, 0.3):
        closed_path = lambda_max(lisa, entry, rc)
        quad = force_psd_by_quadrature(CslParams(1.0, rc), lisa.geometry, lisa.arrangement)
        quad_path = s_meas / (2.0 * quad.value)
        assert quad_path == pytest.approx(closed_path, rel=1e-3)
