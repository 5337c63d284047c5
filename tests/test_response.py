"""Response-chain transfer functions and the tabulated-spectrum transform."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cslbounds import (
    ConfigError,
    Cube,
    Cylinder,
    DetectorModel,
    FreeMass,
    MassArrangement,
    Readout,
    SpectrumSeries,
    equivalent_force_asd_free_mass,
    force_per_native,
)
from cslbounds.response import (
    force_psd_from_acceleration,
    force_psd_from_strain_bar,
    force_psd_from_strain_free_mass,
)


def free_mass_pair(mass=40.0, arm_length=4000.0):
    return DetectorModel(
        name="pair",
        geometry=Cylinder(radius=0.17, length=0.2, mass=mass),
        arrangement=MassArrangement(separation=4000.0, arm_count=2),
        response=FreeMass(),
        readout=Readout("strain", arm_length=arm_length),
    )


def test_displacement_psd_free_mass_limit():
    # S_xx = 4 S_FF / (m^2 omega^4): each of the pair takes S_FF at 1/(m omega^2);
    # over a 1 m arm the strain is the displacement
    transfer = force_per_native(free_mass_pair(mass=2.0, arm_length=1.0), "strain", 1e3 / (2.0 * math.pi))
    assert 1.0 / transfer == pytest.approx(1e-12, rel=1e-14, abs=0.0)


def test_displacement_psd_rejects_negative_frequency():
    for frequency in (-1.0, 0.0):
        with pytest.raises(ConfigError, match="angular frequency 2 pi f must be finite and > 0"):
            force_per_native(free_mass_pair(), "strain", frequency)


def test_strain_psd_examples():
    # S_hh = S_xx / a^2, so the transfer grows as the arm length squared
    unit, four, km4 = (force_per_native(free_mass_pair(arm_length=a), "strain", 32.5) for a in (1.0, 4.0, 4000.0))
    assert four == 16.0 * unit
    assert 1.0 / km4 == pytest.approx(1.0 / (unit * 4000.0**2), rel=1e-14, abs=0.0)


def test_strain_psd_rejects_nonpositive_arm():
    for arm_length in (0.0, -4000.0):
        with pytest.raises(ValueError, match="arm_length must be finite and > 0"):
            Readout("strain", arm_length)


def test_acceleration_psd_examples():
    # S_gg = 4 S_FF / m^2: a unit acceleration PSD on a 6 kg pair is 9 N^2/Hz
    det = DetectorModel(
        name="pair",
        geometry=Cube(side=0.046, mass=6.0),
        arrangement=MassArrangement(separation=0.376),
        response=FreeMass(),
        readout=Readout("acceleration"),
    )
    assert force_per_native(det, "acceleration") == 9.0
    assert force_per_native(det, "force") == 1.0


def test_acceleration_inversion_published_figure():
    # S_gg = 2.7e-29 m^2 s^-4/Hz at m = 1.928 kg -> ~2.51e-29 N^2/Hz
    s_ff = force_psd_from_acceleration(2.7e-29, 1.928)
    assert s_ff == pytest.approx(2.509e-29, rel=1e-3, abs=0.0)


def test_acceleration_round_trip_identity(lisa):
    s_ff = 3.3e-30
    s_gg = s_ff / force_per_native(lisa, "acceleration")
    assert force_psd_from_acceleration(s_gg, lisa.geometry.mass) == pytest.approx(s_ff, rel=1e-15, abs=0.0)


def test_acceleration_psd_rejects_nonpositive_mass():
    for mass in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError, match=rf"^mass must be finite and > 0, got {mass!r}$"):
            force_psd_from_acceleration(1.0, mass)


@pytest.mark.parametrize(
    "convert, name",
    [
        (lambda psd: force_psd_from_acceleration(psd, 2.0), "s_gg"),
        (lambda psd: force_psd_from_strain_bar(psd, 2300.0, 100.0, 3.0), "s_hh"),
        (lambda psd: force_psd_from_strain_free_mass(psd, 40.0, 200.0, 4000.0), "s_hh"),
    ],
    ids=["acceleration", "strain_bar", "strain_free_mass"],
)
def test_each_conversion_rejects_a_psd_that_is_negative_or_not_finite(convert, name):
    # force_psd_from_acceleration(-1.0, 2.0) once returned -1.0, and a nan PSD gave nan
    for psd in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^{name} must be finite and >= 0, got {psd!r}$"):
            convert(psd)
    assert convert(0.0) == 0.0


def test_bar_strain_to_force_transfer():
    # (m w0^2 L / pi^2)^2 s_hh evaluated from first principles
    m, f0, L = 2300.0, 931.0, 3.0
    s_hh = (1.6e-21) ** 2
    w0 = 2.0 * math.pi * f0
    expected = (m * w0 * w0 * L / math.pi**2) ** 2 * s_hh
    got = force_psd_from_strain_bar(s_hh, m, w0, L)
    assert got == pytest.approx(expected, rel=1e-14, abs=0.0)
    # raw transfer (no calibration margin): ~38 pN/sqrt(Hz)
    assert math.sqrt(got) == pytest.approx(3.83e-11, rel=1e-2, abs=0.0)


def test_bar_strain_to_force_zero():
    assert force_psd_from_strain_bar(0.0, 2300.0, 100.0, 3.0) == 0.0


def test_bar_strain_to_force_mass_quadratic():
    base = force_psd_from_strain_bar(1e-42, 1000.0, 100.0, 3.0)
    assert force_psd_from_strain_bar(1e-42, 2000.0, 100.0, 3.0) == pytest.approx(4.0 * base, rel=1e-15, abs=0.0)


def test_bar_strain_to_force_domain_errors():
    with pytest.raises(ValueError, match=r"^mass must be finite and > 0, got -1\.0$"):
        force_psd_from_strain_bar(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^omega0 must be finite and > 0, got 0\.0$"):
        force_psd_from_strain_bar(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^bar_length must be finite and > 0, got inf$"):
        force_psd_from_strain_bar(1.0, 1.0, 1.0, math.inf)


def test_bar_strain_force_round_trip(auriga):
    s_hh = (1.6e-21) ** 2
    bar = auriga.response
    s_ff = force_psd_from_strain_bar(s_hh, auriga.geometry.mass, bar.omega0, bar.length)
    assert s_ff / force_per_native(auriga, "strain") == pytest.approx(s_hh, rel=1e-15, abs=0.0)


def test_free_mass_strain_force_round_trip(ligo):
    # force -> strain -> force recovers the input; the strain is 4 S_FF / (m^2 omega^4 a^2)
    m, omega, a = 40.0, 2.0 * math.pi * 32.5, 4000.0
    s_ff = 9.025e-27
    s_hh = s_ff / force_per_native(ligo, "strain", 32.5)
    assert s_hh == pytest.approx(4.0 * s_ff / (m * m * omega**4 * a * a), rel=1e-14, abs=0.0)
    assert force_psd_from_strain_free_mass(s_hh, m, omega, a) == pytest.approx(s_ff, rel=1e-12, abs=0.0)


# --- spectrum series -------------------------------------------------------------


def strain_series(freqs, asds):
    return SpectrumSeries(np.asarray(freqs, dtype=float), np.asarray(asds, dtype=float), "strain")


def test_series_validation():
    with pytest.raises(ConfigError):
        strain_series([], [])
    with pytest.raises(ConfigError):
        strain_series([2.0, 1.0], [1.0, 1.0])
    with pytest.raises(ConfigError):
        strain_series([1.0, 2.0], [1.0, math.nan])
    with pytest.raises(ConfigError):
        strain_series([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ConfigError, match=r"^unknown spectrum quantity 'entropy'$"):
        SpectrumSeries(np.array([1.0]), np.array([1.0]), "entropy")


def test_series_immutable():
    series = strain_series([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        series.asd[0] = 2.0


def test_equivalent_force_flat_strain_rises_as_frequency_squared():
    series = strain_series([10.0, 20.0, 40.0], [1e-23, 1e-23, 1e-23])
    force = equivalent_force_asd_free_mass(series, 40.0, 4000.0)
    assert force.quantity == "force"
    assert np.all(np.diff(force.asd) > 0.0)
    assert force.asd[1] == pytest.approx(4.0 * force.asd[0], rel=1e-12, abs=0.0)


def test_equivalent_force_inverse_square_strain_is_flat():
    # powers-of-two grid makes the omega^2 cancellation float-exact
    freqs = np.array([2.0**k for k in range(3, 9)])
    series = strain_series(freqs, 1e-20 / freqs**2)
    force = equivalent_force_asd_free_mass(series, 40.0, 4000.0)
    assert np.all(force.asd == force.asd[0])


def test_equivalent_force_inverse_square_flat_general_grid():
    freqs = np.geomspace(10.0, 300.0, 50)
    series = strain_series(freqs, 3.3e-20 / freqs**2)
    force = equivalent_force_asd_free_mass(series, 40.0, 4000.0)
    spread = (force.asd.max() - force.asd.min()) / force.asd.min()
    assert spread <= 1e-12


def test_equivalent_force_spot_value():
    # S_h(32.5 Hz) = 2.85e-23 with m = 40 kg, a = 4 km -> ~95 fN/sqrt(Hz)
    series = strain_series([32.5], [2.85e-23])
    force = equivalent_force_asd_free_mass(series, 40.0, 4000.0)
    hand = 0.5 * 40.0 * (2.0 * math.pi * 32.5) ** 2 * 4000.0 * 2.85e-23
    assert force.asd[0] == pytest.approx(hand, rel=1e-14, abs=0.0)
    assert force.asd[0] == pytest.approx(95e-15, rel=0.01, abs=0.0)


def test_equivalent_force_requires_strain():
    series = SpectrumSeries(np.array([1.0]), np.array([1.0]), "force")
    with pytest.raises(ConfigError, match=r"^expected a strain series, got 'force'$"):
        equivalent_force_asd_free_mass(series, 1.0, 1.0)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_equivalent_force_scales_linearly_with_asd(scale):
    freqs = np.array([10.0, 31.0, 100.0])
    base = equivalent_force_asd_free_mass(strain_series(freqs, [1e-23, 2e-23, 5e-23]), 40.0, 4000.0)
    scaled = equivalent_force_asd_free_mass(strain_series(freqs, scale * np.array([1e-23, 2e-23, 5e-23])), 40.0, 4000.0)
    assert np.allclose(scaled.asd, scale * base.asd, rtol=1e-12)
