"""Detector response: maps white force PSDs to published observables.

Both directions of each archetype's conversion between a force PSD and
its native figure: free-mass strain (through displacement) for
interferometers, acceleration for accelerometer pairs and fundamental-
mode strain for resonant bars.  Also the tabulated-spectrum transform
used to locate the optimal bound frequency of a free-mass
interferometer.  Every conversion is linear, so the scalar functions
apply to one- and two-sided power densities alike; SpectrumSeries
carries measured one-sided amplitude densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import QUANTITIES
from .errors import ConfigError, ConventionError


@dataclass(frozen=True)
class FreeMass:
    """Suspension resonance far below the band: response is 1/(m omega^2)."""


@dataclass(frozen=True)
class ResonantBar:
    """Fundamental longitudinal mode of a bar of the given length."""

    omega0: float
    length: float

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and self.omega0 > 0.0):
            raise ValueError(f"omega0 must be finite and > 0, got {self.omega0!r}")
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError(f"length must be finite and > 0, got {self.length!r}")


ResponseModel = Union[FreeMass, ResonantBar]


def displacement_psd_free_mass(s_ff: float, mass: float, omega: float) -> float:
    """Relative displacement of a free-mass pair: S_xx = 4 S_FF / (m^2 omega^4)."""
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0 in the free-mass limit, got {omega!r}")
    return 4.0 * s_ff / (mass * mass * omega**4)


def strain_psd(s_xx: float, arm_length: float) -> float:
    """Equivalent strain of a differential displacement: S_hh = S_xx / a^2."""
    if not (math.isfinite(arm_length) and arm_length > 0.0):
        raise ValueError(f"arm_length must be finite and > 0, got {arm_length!r}")
    return s_xx / (arm_length * arm_length)


def acceleration_psd(s_ff: float, mass: float) -> float:
    """Relative acceleration of a free-falling pair: S_gg = (4/m^2) S_FF."""
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be finite and > 0, got {mass!r}")
    return 4.0 * s_ff / (mass * mass)


def force_psd_from_acceleration(s_gg: float, mass: float) -> float:
    """Inverse of acceleration_psd: S_FF = (m^2/4) S_gg."""
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be finite and > 0, got {mass!r}")
    return 0.25 * mass * mass * s_gg


def _bar_transfer(mass: float, omega0: float, bar_length: float) -> float:
    # force per unit strain of a bar's fundamental mode, m omega0^2 L / pi^2
    for name, v in (("mass", mass), ("omega0", omega0), ("bar_length", bar_length)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    return mass * omega0 * omega0 * bar_length / math.pi**2


def force_psd_from_strain_bar(s_hh: float, mass: float, omega0: float, bar_length: float) -> float:
    """Equivalent force PSD on a bar's reduced system from its strain PSD.

    S_FF = (m omega0^2 L / pi^2)^2 S_hh for the fundamental mode.
    """
    factor = _bar_transfer(mass, omega0, bar_length)
    return factor * factor * s_hh


def strain_psd_bar(s_ff: float, mass: float, omega0: float, bar_length: float) -> float:
    """Inverse of force_psd_from_strain_bar: S_hh = S_FF / (m omega0^2 L / pi^2)^2."""
    factor = _bar_transfer(mass, omega0, bar_length)
    return s_ff / (factor * factor)


def force_psd_from_strain_free_mass(s_hh: float, mass: float, omega: float, arm_length: float) -> float:
    """Inverse of the free-mass force -> strain chain: S_FF = (m omega^2 a / 2)^2 S_hh."""
    for name, v in (("mass", mass), ("omega", omega), ("arm_length", arm_length)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    factor = 0.5 * mass * omega * omega * arm_length
    return factor * factor * s_hh


@dataclass(frozen=True)
class SpectrumSeries:
    """Tabulated one-sided amplitude spectral density vs frequency."""

    frequency_hz: np.ndarray
    asd: np.ndarray
    quantity: str

    def __post_init__(self):
        freq = np.asarray(self.frequency_hz, dtype=float)
        asd = np.asarray(self.asd, dtype=float)
        if self.quantity not in QUANTITIES:
            raise ConventionError(f"unknown spectrum quantity {self.quantity!r}")
        if freq.ndim != 1 or freq.size == 0 or asd.shape != freq.shape:
            raise ConfigError("spectrum needs matching 1-d frequency and asd columns with at least one row")
        if not np.all(np.isfinite(freq)) or not np.all(np.isfinite(asd)):
            raise ConfigError("spectrum contains non-finite entries")
        if np.any(freq <= 0.0) or np.any(asd <= 0.0):
            raise ConfigError("spectrum frequencies and values must be > 0")
        if np.any(np.diff(freq) <= 0.0):
            raise ConfigError("spectrum frequencies must be strictly ascending")
        freq = freq.copy()
        asd = asd.copy()
        freq.flags.writeable = False
        asd.flags.writeable = False
        object.__setattr__(self, "frequency_hz", freq)
        object.__setattr__(self, "asd", asd)

    def __len__(self) -> int:
        return int(self.frequency_hz.size)


def equivalent_force_asd_free_mass(series: SpectrumSeries, mass: float, arm_length: float) -> SpectrumSeries:
    """Pointwise equivalent force ASD of a strain series in the free-mass limit.

    S_F(omega) = (m omega^2 a / 2) S_h(omega), same frequency grid,
    one-sided amplitude density in N/sqrt(Hz).
    """
    if series.quantity != "strain":
        raise ConventionError(f"expected a strain series, got {series.quantity!r}")
    for name, v in (("mass", mass), ("arm_length", arm_length)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    omega_sq = (2.0 * math.pi * series.frequency_hz) ** 2
    force_asd = 0.5 * mass * arm_length * omega_sq * series.asd
    return SpectrumSeries(series.frequency_hz, force_asd, "force")
