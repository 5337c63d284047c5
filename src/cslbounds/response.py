"""Detector response: maps published observables to equivalent force PSDs.

Each archetype's conversion from its native figure to a force PSD:
free-mass strain (through displacement) for interferometers,
acceleration for accelerometer pairs and fundamental-mode strain for
resonant bars.  Also the tabulated-spectrum transform used to locate
the optimal bound frequency of a free-mass interferometer.  Every
conversion is linear, so the scalar functions apply to one- and
two-sided power densities alike, and exclusion.force_per_native
evaluates them at a unit PSD to get the transfer S_FF / S_native that
either direction uses.  SpectrumSeries carries measured one-sided
amplitude densities.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import QUANTITIES
from .cslnoise import _Record
from .errors import ConfigError
from .specfun import FloatOrArray, _check_positive, _frozen


class FreeMass(_Record):
    """Suspension resonance far below the band: response is 1/(m omega^2)."""

    __slots__ = ()


class ResonantBar(_Record):
    """Fundamental longitudinal mode of a bar of the given length."""

    __slots__ = ("omega0", "length")

    def __init__(self, omega0: float, length: float):
        _check_positive("omega0", omega0)
        _check_positive("length", length)
        self._set(omega0=omega0, length=length)


def force_psd_from_acceleration(s_gg: float, mass: float) -> float:
    """Force PSD of a free-falling pair from its relative acceleration: S_FF = (m^2/4) S_gg."""
    _check_positive("s_gg", s_gg, zero_ok=True)
    _check_positive("mass", mass)
    return 0.25 * mass * mass * s_gg


def force_psd_from_strain_bar(s_hh: float, mass: float, omega0: float, bar_length: float) -> float:
    """Equivalent force PSD on a bar's reduced system from its strain PSD.

    S_FF = (m omega0^2 L / pi^2)^2 S_hh for the fundamental mode.
    """
    _check_positive("s_hh", s_hh, zero_ok=True)
    for name, v in (("mass", mass), ("omega0", omega0), ("bar_length", bar_length)):
        _check_positive(name, v)
    factor = mass * omega0 * omega0 * bar_length / math.pi**2
    return factor * factor * s_hh


def _free_mass_amplitude(mass: float, arm_length: float, omega: FloatOrArray) -> FloatOrArray:
    # m a omega^2 / 2, float or array; a float omega ** 2 would raise OverflowError, not give inf
    return 0.5 * mass * arm_length * (omega * omega)


def force_psd_from_strain_free_mass(s_hh: float, mass: float, omega: float, arm_length: float) -> float:
    """Force PSD of a free-mass pair from its strain: S_FF = (m omega^2 a / 2)^2 S_hh.

    Each mass of the pair responds as 1/(m omega^2), so the relative
    displacement is S_xx = 4 S_FF / (m^2 omega^4), and S_hh = S_xx / a^2.
    """
    _check_positive("s_hh", s_hh, zero_ok=True)
    for name, v in (("mass", mass), ("omega", omega), ("arm_length", arm_length)):
        _check_positive(name, v)
    factor = _free_mass_amplitude(mass, arm_length, omega)
    return factor * factor * s_hh


class SpectrumSeries(_Record):
    """Tabulated one-sided amplitude spectral density vs frequency."""

    __slots__ = ("frequency_hz", "asd", "quantity")

    def __init__(self, frequency_hz: np.ndarray, asd: np.ndarray, quantity: str):
        freq = _frozen(frequency_hz, "frequency_hz")
        asd = _frozen(asd, "asd")
        if quantity not in QUANTITIES:
            raise ConfigError(f"unknown spectrum quantity {quantity!r}")
        if freq.ndim != 1 or freq.size == 0 or asd.shape != freq.shape:
            raise ConfigError("spectrum needs matching 1-d frequency and asd columns with at least one row")
        if not np.all(np.isfinite(freq)) or not np.all(np.isfinite(asd)):
            raise ConfigError("spectrum contains non-finite entries")
        if np.any(freq <= 0.0) or np.any(asd <= 0.0):
            raise ConfigError("spectrum frequencies and values must be > 0")
        if np.any(np.diff(freq) <= 0.0):
            raise ConfigError("spectrum frequencies must be strictly ascending")
        self._set(frequency_hz=freq, asd=asd, quantity=quantity)

    def __len__(self) -> int:
        return int(self.frequency_hz.size)


def equivalent_force_asd_free_mass(series: SpectrumSeries, mass: float, arm_length: float) -> SpectrumSeries:
    """Pointwise equivalent force ASD of a strain series in the free-mass limit.

    S_F(omega) = (m omega^2 a / 2) S_h(omega), same frequency grid,
    one-sided amplitude density in N/sqrt(Hz).  Raises ConfigError
    naming the first frequency whose force ASD is not finite and > 0.
    """
    if series.quantity != "strain":
        raise ConfigError(f"expected a strain series, got {series.quantity!r}")
    for name, v in (("mass", mass), ("arm_length", arm_length)):
        _check_positive(name, v)
    with np.errstate(all="ignore"):
        force_asd = _free_mass_amplitude(mass, arm_length, 2.0 * math.pi * series.frequency_hz) * series.asd
    if not np.all(np.isfinite(force_asd) & (force_asd > 0.0)):
        for f, v in zip(series.frequency_hz.tolist(), force_asd.tolist()):
            _check_positive(f"equivalent force ASD at {f:g} Hz", v, error=ConfigError)
    return SpectrumSeries(series.frequency_hz, force_asd, "force")
