"""Inversion of measured noise into CSL exclusion bounds.

The CSL force PSD is exactly linear in the collapse rate, so attributing
all measured noise to collapse noise inverts to a bound

    lambda_max(r_c) = S_FF_measured(one-sided) / (2 S_FF_model(lambda=1, r_c))

with the model PSD two-sided.  The single factor 2 reconciling the
published one-sided figures with the two-sided model lives here and
nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    force_noise_psd,
)
from .detector import BAR, INTERFEROMETER, DetectorModel, MeasuredNoise, Strain, detector_archetype
from .errors import ConfigError, UnboundedParameterError
from .response import (
    SpectrumSeries,
    equivalent_force_asd_free_mass,
    force_psd_from_acceleration,
    force_psd_from_strain_bar,
    force_psd_from_strain_free_mass,
)


@dataclass(frozen=True)
class ExclusionCurve:
    """lambda_max over an ascending r_c grid, with reproducibility metadata."""

    r_c_grid: np.ndarray
    lambda_max: np.ndarray
    detector_id: str
    noise_name: str
    provenance: str = ""
    sff_path: str = "closed_form"
    bar_variant: Optional[str] = None

    def __post_init__(self):
        grid = np.asarray(self.r_c_grid, dtype=float)
        lam = np.asarray(self.lambda_max, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or lam.shape != grid.shape:
            raise ValueError("curve needs matching, nonempty r_c and lambda_max arrays")
        if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
            raise ValueError("r_c grid must be positive and strictly ascending")
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
            raise ValueError("lambda_max values must be finite and > 0")
        grid = grid.copy()
        lam = lam.copy()
        grid.flags.writeable = False
        lam.flags.writeable = False
        object.__setattr__(self, "r_c_grid", grid)
        object.__setattr__(self, "lambda_max", lam)

    def __len__(self) -> int:
        return int(self.r_c_grid.size)

    def minimum(self) -> tuple[float, float]:
        """Grid point with the smallest lambda_max (first on ties)."""
        i = int(np.argmin(self.lambda_max))
        return float(self.r_c_grid[i]), float(self.lambda_max[i])


@dataclass(frozen=True)
class EllisReport:
    """Wormhole-decoherence comparison: model rate, measured rate, ratio."""

    eta_ellis: float
    eta_exp: float
    ratio: float


def measured_force_psd(det: DetectorModel, noise: MeasuredNoise) -> float:
    """One-sided force PSD attributable to CSL for a measured noise entry.

    Converts the entry's native quantity through the response chain of
    the detector's archetype and applies the entry's calibrated CSL
    power fraction.  A quantity the archetype has no conversion for
    (displacement, or strain on an accelerometer) raises ConfigError.
    """
    archetype = detector_archetype(det)
    mass = det.geometry.mass
    if noise.quantity == "force":
        s_ff = noise.psd
    elif noise.quantity == "acceleration":
        s_ff = force_psd_from_acceleration(noise.psd, mass)
    elif noise.quantity == "strain" and archetype == BAR:
        s_ff = force_psd_from_strain_bar(noise.psd, mass, det.response.omega0, det.response.length)
    elif noise.quantity == "strain" and archetype == INTERFEROMETER:
        if noise.frequency_hz is None:
            raise ConfigError(f"noise entry {noise.name!r}: a strain figure needs frequency_hz in the free-mass limit")
        if not isinstance(det.readout, Strain):
            raise ConfigError(f"noise entry {noise.name!r}: strain conversion needs readout.arm_length_m")
        omega = 2.0 * math.pi * noise.frequency_hz
        s_ff = force_psd_from_strain_free_mass(noise.psd, mass, omega, det.readout.arm_length)
    else:
        raise ConfigError(f"noise entry {noise.name!r}: {noise.quantity} input is not supported for {archetype}")
    return noise.csl_fraction * s_ff


def model_force_psd(det: DetectorModel, params: CslParams, bar_variant: Optional[str] = None) -> FloatOrArray:
    """Two-sided model force PSD for the detector's geometry (N^2/Hz).

    One value per entry when params carries an array of correlation lengths.
    """
    return force_noise_psd(params, det.geometry, det.arrangement, bar_variant)


def _lambda_max_grid(
    det: DetectorModel, noise: MeasuredNoise, grid: np.ndarray, bar_variant: Optional[str]
) -> np.ndarray:
    """lambda_max at every r_c of a 1-d array, from one model-PSD evaluation.

    Exact inversion by linearity: the model PSD is evaluated at unit
    collapse rate, and the measured one-sided figure is compared against
    twice the two-sided model.
    """
    s_model = model_force_psd(det, CslParams(1.0, grid), bar_variant)
    vanishing = np.flatnonzero(s_model == 0.0)
    if vanishing.size:
        raise UnboundedParameterError(
            f"model force PSD vanishes for {det.name!r} at r_c = {grid[vanishing[0]]:g} m; no finite bound exists"
        )
    return measured_force_psd(det, noise) / (2.0 * s_model)


def lambda_max(
    det: DetectorModel,
    noise: MeasuredNoise,
    r_c: float,
    bar_variant: Optional[str] = None,
) -> float:
    """Largest collapse rate consistent with attributing all noise to CSL.

    The one-point case of exclusion_curve, through the same kernel.
    """
    return float(_lambda_max_grid(det, noise, np.array([r_c], dtype=float), bar_variant)[0])


def exclusion_curve(
    det: DetectorModel,
    noise: MeasuredNoise,
    r_c_grid,
    bar_variant: Optional[str] = None,
) -> ExclusionCurve:
    """lambda_max over an ascending r_c grid, evaluated in one pass."""
    grid = np.asarray(r_c_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("r_c grid must be a nonempty 1-d array")
    variant = None
    if detector_archetype(det) == BAR:
        variant = bar_variant or DEFAULT_BAR_VARIANT
    return ExclusionCurve(
        r_c_grid=grid,
        lambda_max=_lambda_max_grid(det, noise, grid, variant),
        detector_id=det.name,
        noise_name=noise.name,
        provenance=noise.provenance,
        sff_path="closed_form",
        bar_variant=variant,
    )


def optimal_frequency(series: SpectrumSeries, det: DetectorModel) -> tuple[float, float]:
    """Frequency minimizing the equivalent force ASD of a strain series.

    Returns (omega_bar in rad/s, minimum force ASD in N/sqrt(Hz)).
    Grid-point minimization, ties broken toward the lowest frequency.
    """
    if detector_archetype(det) != INTERFEROMETER:
        raise ConfigError("optimal_frequency needs a free-mass interferometer config")
    readout = det.readout
    force_series = equivalent_force_asd_free_mass(series, det.geometry.mass, readout.arm_length)
    i = int(np.argmin(force_series.asd))  # argmin returns the first minimum
    omega_bar = 2.0 * math.pi * float(force_series.frequency_hz[i])
    return omega_bar, float(force_series.asd[i])


def ellis_eta(mass: float) -> float:
    """Wormhole-background decoherence rate (c m0)^4 m^2 / (hbar m_Pl)^3."""
    if not math.isfinite(mass) or mass < 0.0:
        raise ValueError(f"mass must be finite and >= 0, got {mass!r}")
    return (C_LIGHT * M_NUCLEON) ** 4 * mass * mass / (HBAR * M_PLANCK) ** 3


def ellis_ratio(det: DetectorModel, noise: MeasuredNoise) -> EllisReport:
    """Order-of-magnitude comparison of the Ellis rate with experiment.

    eta_exp converts the published one-sided noise figure directly,
    matching how such comparisons are quoted; the ratio is meaningful
    to order of magnitude only.
    """
    eta_model = ellis_eta(det.geometry.mass)
    eta_exp = measured_force_psd(det, noise) / HBAR**2
    return EllisReport(eta_ellis=eta_model, eta_exp=eta_exp, ratio=eta_model / eta_exp)


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
