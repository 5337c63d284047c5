"""Response-chain transfer functions and the tabulated-spectrum transform."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cslbounds import (
    ConfigError,
    ConventionError,
    SpectrumSeries,
    acceleration_psd,
    displacement_psd_free_mass,
    equivalent_force_asd_free_mass,
    force_psd_from_acceleration,
    force_psd_from_strain_bar,
    force_psd_from_strain_free_mass,
    strain_psd,
    strain_psd_bar,
)


def test_displacement_psd_free_mass_limit():
    # S_xx = 4 S_FF / (m^2 omega^4): each of the pair takes S_FF at 1/(m omega^2)
    assert displacement_psd_free_mass(1.0, 2.0, 1e3) == pytest.approx(1e-12, rel=1e-15)
    assert displacement_psd_free_mass(0.0, 2.0, 1e3) == 0.0


def test_displacement_psd_rejects_negative_frequency():
    for omega in (-1.0, 0.0):
        with pytest.raises(ValueError):
            displacement_psd_free_mass(1.0, 1.0, omega)


def test_strain_psd_examples():
    assert strain_psd(16.0, 4.0) == 1.0
    assert strain_psd(0.0, 4000.0) == 0.0
    # displacement noise of 1.6e-39 m^2/Hz over a 4 km arm is 1e-46 /Hz strain
    assert strain_psd(1.6e-39, 4000.0) == pytest.approx(1e-46, rel=1e-12)


def test_strain_psd_rejects_nonpositive_arm():
    with pytest.raises(ValueError):
        strain_psd(1.0, 0.0)


def test_acceleration_psd_examples():
    m = 6.0
    assert acceleration_psd(m * m / 4.0, m) == 1.0
    assert acceleration_psd(0.0, m) == 0.0


def test_acceleration_inversion_published_figure():
    # S_gg = 2.7e-29 m^2 s^-4/Hz at m = 1.928 kg -> ~2.51e-29 N^2/Hz
    s_ff = force_psd_from_acceleration(2.7e-29, 1.928)
    assert s_ff == pytest.approx(2.509e-29, rel=1e-3)


def test_acceleration_round_trip_identity():
    m = 1.928
    s_ff = 3.3e-30
    assert force_psd_from_acceleration(acceleration_psd(s_ff, m), m) == pytest.approx(s_ff, rel=1e-15)


def test_acceleration_psd_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        acceleration_psd(1.0, 0.0)
    with pytest.raises(ValueError):
        force_psd_from_acceleration(1.0, -2.0)


def test_bar_strain_to_force_transfer():
    # (m w0^2 L / pi^2)^2 s_hh evaluated from first principles
    m, f0, L = 2300.0, 931.0, 3.0
    s_hh = (1.6e-21) ** 2
    w0 = 2.0 * math.pi * f0
    expected = (m * w0 * w0 * L / math.pi**2) ** 2 * s_hh
    got = force_psd_from_strain_bar(s_hh, m, w0, L)
    assert got == pytest.approx(expected, rel=1e-14)
    # raw transfer (no calibration margin): ~38 pN/sqrt(Hz)
    assert math.sqrt(got) == pytest.approx(3.83e-11, rel=1e-2)


def test_bar_strain_to_force_zero():
    assert force_psd_from_strain_bar(0.0, 2300.0, 100.0, 3.0) == 0.0


def test_bar_strain_to_force_mass_quadratic():
    base = force_psd_from_strain_bar(1e-42, 1000.0, 100.0, 3.0)
    assert force_psd_from_strain_bar(1e-42, 2000.0, 100.0, 3.0) == pytest.approx(4.0 * base, rel=1e-15)


def test_bar_strain_to_force_domain_errors():
    for convert in (force_psd_from_strain_bar, strain_psd_bar):
        with pytest.raises(ValueError):
            convert(1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            convert(1.0, 1.0, 0.0, 1.0)


def test_bar_strain_force_round_trip():
    m, w0, L = 2300.0, 2.0 * math.pi * 931.0, 3.0
    s_hh = (1.6e-21) ** 2
    assert strain_psd_bar(force_psd_from_strain_bar(s_hh, m, w0, L), m, w0, L) == pytest.approx(s_hh, rel=1e-15)


def test_free_mass_strain_force_round_trip():
    # force -> displacement -> strain -> force recovers the input
    m, omega, a = 40.0, 2.0 * math.pi * 32.5, 4000.0
    s_ff = 9.025e-27
    s_hh = strain_psd(displacement_psd_free_mass(s_ff, m, omega), a)
    back = force_psd_from_strain_free_mass(s_hh, m, omega, a)
    assert back == pytest.approx(s_ff, rel=1e-12)


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
    with pytest.raises(ConventionError):
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
    assert force.asd[1] == pytest.approx(4.0 * force.asd[0], rel=1e-12)


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
    assert force.asd[0] == pytest.approx(hand, rel=1e-14)
    assert force.asd[0] == pytest.approx(95e-15, rel=0.01)


def test_equivalent_force_requires_strain():
    series = SpectrumSeries(np.array([1.0]), np.array([1.0]), "force")
    with pytest.raises(ConventionError):
        equivalent_force_asd_free_mass(series, 1.0, 1.0)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_equivalent_force_scales_linearly_with_asd(scale):
    freqs = np.array([10.0, 31.0, 100.0])
    base = equivalent_force_asd_free_mass(strain_series(freqs, [1e-23, 2e-23, 5e-23]), 40.0, 4000.0)
    scaled = equivalent_force_asd_free_mass(strain_series(freqs, scale * np.array([1e-23, 2e-23, 5e-23])), 40.0, 4000.0)
    assert np.allclose(scaled.asd, scale * base.asd, rtol=1e-12)
