"""Inversion of measured noise into CSL exclusion bounds.

The CSL force PSD is exactly linear in the collapse rate, so attributing
all measured noise to collapse noise inverts to a bound

    lambda_max(r_c) = S_FF_measured(one-sided) / (2 S_FF_model(lambda=1, r_c))

with the model PSD two-sided.  The factor 2 reconciling the published
one-sided figures with the two-sided model is applied here, in the
inversion, and in the CLI's one-sided output (noise); nowhere else.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

import numpy as np

from .constants import C_LIGHT, HBAR, M_NUCLEON, M_PLANCK
from .cslnoise import (
    DEFAULT_BAR_VARIANT,
    CslParams,
    Cube,
    Cylinder,
    FloatOrArray,
    HalfCylinderBar,
    MassGeometry,
    _closed_form,
    _Record,
    force_noise_psd,
)
from .detector import BAR, INTERFEROMETER, DetectorModel, MeasuredNoise, strain_arm_length
from .errors import ConfigError, UnboundedParameterError
from .response import (
    SpectrumSeries,
    equivalent_force_asd_free_mass,
    force_psd_from_acceleration,
    force_psd_from_strain_bar,
    force_psd_from_strain_free_mass,
)
from .specfun import _check_positive, _check_real, _frozen


class ExclusionCurve(_Record):
    """lambda_max over an ascending r_c grid, with reproducibility metadata."""

    __slots__ = ("r_c_grid", "lambda_max", "detector_id", "noise_name", "provenance", "bar_variant")

    def __init__(self, r_c_grid, lambda_max, detector_id, noise_name, provenance="", bar_variant=None):
        grid = _frozen(r_c_grid, "r_c_grid")
        lam = _frozen(lambda_max, "lambda_max")
        if grid.ndim != 1 or grid.size == 0 or lam.shape != grid.shape:
            raise ValueError("curve needs matching, nonempty r_c and lambda_max arrays")
        if not (np.all(np.isfinite(grid) & (grid > 0.0)) and np.all(np.diff(grid) > 0.0)):
            raise ValueError("r_c grid must be finite, positive and strictly ascending")
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
            raise ValueError("lambda_max values must be finite and > 0")
        self._set(r_c_grid=grid, lambda_max=lam, detector_id=detector_id, noise_name=noise_name)
        self._set(provenance=provenance, bar_variant=bar_variant)

    def __len__(self) -> int:
        return int(self.r_c_grid.size)

    def minimum(self) -> tuple[float, float]:
        """Grid point with the smallest lambda_max (first on ties)."""
        i = int(np.argmin(self.lambda_max))
        return float(self.r_c_grid[i]), float(self.lambda_max[i])


class EllisReport(_Record):
    """Wormhole-decoherence comparison: model rate, measured rate, ratio."""

    __slots__ = ("eta_ellis", "eta_exp", "ratio")

    def __init__(self, eta_ellis: float, eta_exp: float, ratio: float):
        self._set(eta_ellis=eta_ellis, eta_exp=eta_exp, ratio=ratio)


def force_per_native(
    det: DetectorModel, quantity: str, frequency_hz: Optional[float] = None, source: str = "readout"
) -> float:
    """The transfer T = S_FF / S_native of one native quantity on this detector.

    The one place that decides, by quantity and archetype, how a native
    figure converts to a force PSD: T is the forward conversion of a
    unit PSD, so S_FF = T S_native and S_native = S_FF / T.  Force and
    acceleration convert on any archetype, strain on a bar or (at
    frequency_hz, in the free-mass limit) on an interferometer.  Raises
    ConfigError, prefixed by source, for a quantity the archetype cannot
    convert and for a transfer that is not finite and > 0.
    """
    mass = det.geometry.mass
    if quantity == "force":
        transfer = 1.0
    elif quantity == "acceleration":
        transfer = force_psd_from_acceleration(1.0, mass)
    elif quantity == "strain" and det.archetype == BAR:
        transfer = force_psd_from_strain_bar(1.0, mass, det.response.omega0, det.response.length)
    elif quantity == "strain" and det.archetype == INTERFEROMETER:
        if frequency_hz is None:
            raise ConfigError(f"{source}: a strain figure needs frequency_hz in the free-mass limit")
        _check_real("frequency_hz", frequency_hz)
        omega = 2.0 * math.pi * frequency_hz
        if not (math.isfinite(omega) and omega > 0.0):
            raise ConfigError(f"{source}: angular frequency 2 pi f must be finite and > 0, got f = {frequency_hz!r} Hz")
        transfer = force_psd_from_strain_free_mass(1.0, mass, omega, strain_arm_length(det))
    else:
        raise ConfigError(f"{source}: {quantity} input is not supported for {det.archetype}")
    _check_positive(f"{source}: {quantity}-to-force transfer", transfer, error=ConfigError)
    return transfer


def measured_force_psd(det: DetectorModel, noise: MeasuredNoise) -> float:
    """One-sided force PSD attributable to CSL for a measured noise entry.

    Converts the entry's native quantity through force_per_native and
    applies the entry's calibrated CSL power fraction.  A quantity the
    archetype has no conversion for (displacement, or strain on an
    accelerometer), or a force PSD that is not finite and > 0, raises
    ConfigError naming the entry.
    """
    source = f"noise entry {noise.name!r}"
    transfer = force_per_native(det, noise.quantity, noise.frequency_hz, source)
    s_ff = noise.csl_fraction * (transfer * noise.psd)
    _check_positive(f"{source}: force PSD", s_ff, error=ConfigError)
    return s_ff


def model_force_psd(det: DetectorModel, params: CslParams, bar_variant: Optional[str] = None) -> FloatOrArray:
    """Two-sided model force PSD for the detector's geometry (N^2/Hz).

    One value per entry when params carries an array of correlation lengths.
    """
    return force_noise_psd(params, det.geometry, det.arrangement, bar_variant)


def lambda_max(det: DetectorModel, noise: MeasuredNoise, r_c: float, bar_variant: Optional[str] = None) -> float:
    """Largest collapse rate consistent with attributing all noise to CSL: exclusion_curve at one r_c, not an array."""
    rc = CslParams(1.0, r_c).correlation_length
    if isinstance(rc, np.ndarray):  # CslParams stores a scalar as a float
        raise ValueError(f"lambda_max takes one correlation length, got an array of {rc.size}")
    return float(exclusion_curve(det, noise, rc, bar_variant).lambda_max[0])


def exclusion_curve(
    det: DetectorModel, noise: MeasuredNoise, r_c_grid: FloatOrArray, bar_variant: Optional[str] = None
) -> ExclusionCurve:
    """lambda_max over an ascending r_c grid (a float is one point), from one model-PSD evaluation.

    Exact inversion by linearity: the model PSD is evaluated at unit
    collapse rate, and the measured one-sided figure is compared against
    twice the two-sided model.  UnboundedParameterError names the first
    r_c where lambda_max, or the model PSD it was divided by, is not a
    normal double > 0, and why.
    """
    params = CslParams(1.0, r_c_grid)
    grid = np.atleast_1d(params.correlation_length)
    variant = (bar_variant or DEFAULT_BAR_VARIANT) if det.archetype == BAR else None
    tiny = sys.float_info.min
    with np.errstate(all="ignore"):
        s_model = _closed_form(grid, 1.0, det.geometry, det.arrangement, variant)  # DetectorModel checked the arrangement
        lam = np.multiply(s_model, 2.0)
        np.divide(measured_force_psd(det, noise), lam, out=lam)
    # a NaN fails every test; a subnormal PSD has lost digits, and so has the lambda_max it gives
    if lam.size and not (lam.min() >= tiny and lam.max() < math.inf and s_model.min() >= tiny):
        i = np.flatnonzero(~((lam >= tiny) & (lam < math.inf) & (s_model >= tiny)))[0]
        s = s_model[i]
        cause = "model force PSD " + ("vanishes" if s == 0.0 else "underflows" if s < tiny else "overflows")
        if tiny <= s < math.inf:
            cause = "lambda_max " + ("overflows" if lam[i] > 1.0 else "underflows")
        raise UnboundedParameterError(f"{cause} for {det.name!r} at r_c = {grid[i]:g} m; no finite bound exists")
    fields = dict(detector_id=det.name, noise_name=noise.name, provenance=noise.provenance, bar_variant=variant)
    if not (grid.size and (grid[1:] > grid[:-1]).all()):
        return ExclusionCurve(grid, lam, **fields)  # raises the constructor's message
    # CslParams checked the grid > 0 and froze an array (a float's grid is ours), and lam is checked above
    grid.flags.writeable = lam.flags.writeable = False
    curve = object.__new__(ExclusionCurve)
    curve._set(r_c_grid=grid, lambda_max=lam, **fields)
    return curve


def optimal_frequency(series: SpectrumSeries, det: DetectorModel) -> tuple[float, float]:
    """Frequency minimizing the equivalent force ASD of a strain series.

    Returns (omega_bar in rad/s, minimum force ASD in N/sqrt(Hz)).
    Grid-point minimization, ties broken toward the lowest frequency.
    """
    if det.archetype != INTERFEROMETER:
        raise ConfigError(f"a strain spectrum needs a free-mass interferometer config, not {det.name!r} ({det.archetype})")
    force_series = equivalent_force_asd_free_mass(series, det.geometry.mass, strain_arm_length(det))
    i = int(np.argmin(force_series.asd))  # argmin returns the first minimum
    omega_bar = 2.0 * math.pi * float(force_series.frequency_hz[i])
    return omega_bar, float(force_series.asd[i])


# (c m0)^4 / (hbar m_Pl)^3 (kg^-2 s^-1), formed once: (c m0)^4 m^2 alone underflows below m ~ 1e-125 kg
_ELLIS_K = (C_LIGHT * M_NUCLEON) ** 4 / (HBAR * M_PLANCK) ** 3


def ellis_eta(mass: float) -> float:
    """Wormhole-background decoherence rate (c m0)^4 m^2 / (hbar m_Pl)^3."""
    _check_positive("mass", mass, zero_ok=True)
    return _ELLIS_K * mass * mass


def ellis_ratio(det: DetectorModel, noise: MeasuredNoise) -> EllisReport:
    """Order-of-magnitude comparison of the Ellis rate with experiment.

    eta_exp converts the published one-sided noise figure directly,
    matching how such comparisons are quoted; the ratio is meaningful
    to order of magnitude only.  UnboundedParameterError names the
    first of eta_exp, eta_ellis and their ratio that is not a normal
    double > 0, and whether it overflows or underflows.
    """
    eta_model = ellis_eta(det.geometry.mass)
    eta_exp = measured_force_psd(det, noise) / HBAR**2
    ratio = eta_model / eta_exp
    for name, value in (("eta_exp", eta_exp), ("eta_ellis", eta_model), ("eta_ratio", ratio)):
        if not sys.float_info.min <= value < math.inf:
            cause = "underflows" if value < 1.0 else "overflows"
            raise UnboundedParameterError(f"{name} {cause} for {det.name!r}; no finite comparison exists")
    return EllisReport(eta_ellis=eta_model, eta_exp=eta_exp, ratio=ratio)


def characteristic_dimension(geometry: MassGeometry) -> float:
    """Test-mass length scale where the exclusion curve bottoms out.

    The bound is weakest near the size of a single test mass: the
    largest of radius/length for a cylinder, the side for a cube, and
    the radius for a bar (its transverse scale cuts the response first;
    the modeled half-length only enters the slower axial roll-off).
    """
    if isinstance(geometry, Cylinder):
        return max(geometry.radius, geometry.length)
    if isinstance(geometry, Cube):
        return geometry.side
    if isinstance(geometry, HalfCylinderBar):
        return geometry.radius
    raise TypeError(f"unsupported geometry {type(geometry).__name__}")
