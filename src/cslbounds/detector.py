"""Detector models: geometry, arrangement, response, readout and noise.

A DetectorModel ties together one of the three supported archetypes.
ARCHETYPES, keyed by geometry type, holds every rule of which response,
readout, arm count and separation go with which geometry:

  interferometer   cylinder pair(s), free-mass response, strain/force/displacement readout
  accelerometer    cube pair, free-mass response, acceleration readout
  bar              half-cylinder bar, resonant-bar response, strain readout
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from .constants import QUANTITIES
from .cslnoise import Cube, Cylinder, HalfCylinderBar, MassArrangement, MassGeometry
from .errors import ConfigError
from .response import FreeMass, ResonantBar, ResponseModel


@dataclass(frozen=True)
class Strain:
    """Strain readout; arm_length converts displacement to strain."""

    arm_length: Optional[float] = None

    def __post_init__(self):
        if self.arm_length is not None and not (math.isfinite(self.arm_length) and self.arm_length > 0.0):
            raise ValueError(f"arm_length must be finite and > 0, got {self.arm_length!r}")


@dataclass(frozen=True)
class Acceleration:
    pass


@dataclass(frozen=True)
class Force:
    pass


@dataclass(frozen=True)
class Displacement:
    pass


ReadoutKind = Union[Strain, Acceleration, Force, Displacement]

INTERFEROMETER = "interferometer"
ACCELEROMETER = "accelerometer"
BAR = "bar"


@dataclass(frozen=True)
class MeasuredNoise:
    """A published one-sided noise figure in the detector's native units.

    psd is a one-sided power density (native units squared per Hz).
    csl_fraction is the fraction of the measured *power* that cannot be
    accounted for by calibrated known sources and may be attributed to
    collapse noise; 1.0 when no independent calibration exists.
    """

    name: str
    quantity: str  # one of constants.QUANTITIES
    psd: float
    frequency_hz: Optional[float] = None
    csl_fraction: float = 1.0
    provenance: str = ""

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown noise quantity {self.quantity!r}")
        if not (math.isfinite(self.psd) and self.psd > 0.0):
            raise ValueError(f"noise psd must be finite and > 0, got {self.psd!r}")
        if self.frequency_hz is not None and not (math.isfinite(self.frequency_hz) and self.frequency_hz > 0.0):
            raise ValueError(f"frequency_hz must be finite and > 0, got {self.frequency_hz!r}")
        if not (0.0 < self.csl_fraction <= 1.0):
            raise ValueError(f"csl_fraction must be in (0, 1], got {self.csl_fraction!r}")


@dataclass(frozen=True)
class DetectorModel:
    """One complete detector description (immutable, safe to share)."""

    name: str
    geometry: MassGeometry
    arrangement: MassArrangement
    response: ResponseModel
    readout: ReadoutKind
    noise: Tuple[MeasuredNoise, ...] = field(default_factory=tuple)

    def __post_init__(self):
        detector_archetype(self)  # rejects unsupported combinations

    def noise_entry(self, name: Optional[str] = None) -> MeasuredNoise:
        """Select a noise entry by name; default is the first entry."""
        if not self.noise:
            raise ConfigError(f"detector {self.name!r} declares no noise entries")
        if name is None:
            return self.noise[0]
        for entry in self.noise:
            if entry.name == name:
                return entry
        known = ", ".join(e.name for e in self.noise)
        raise ConfigError(f"detector {self.name!r} has no noise entry {name!r} (known: {known})")


@dataclass(frozen=True)
class Archetype:
    """The pairing rules for one geometry type."""

    name: str
    members: str  # plural noun naming the archetype in diagnostics
    response: type
    response_kind: str  # the config spelling of the response
    readouts: Tuple[type, ...]
    arm_counts: Tuple[int, ...]
    strain_needs_arm_length: bool = False
    separation_divisor: Optional[int] = None  # forces separation = length / divisor


ARCHETYPES = {
    Cylinder: Archetype(
        INTERFEROMETER,
        "cylinder-pair interferometers",
        FreeMass,
        "free_mass",
        (Strain, Force, Displacement),
        (1, 2),
        strain_needs_arm_length=True,
    ),
    Cube: Archetype(ACCELEROMETER, "cube-pair accelerometers", FreeMass, "free_mass", (Acceleration,), (1,)),
    HalfCylinderBar: Archetype(BAR, "bars", ResonantBar, "resonant_bar", (Strain,), (1,), separation_divisor=2),
}


def _archetype_of(geometry: MassGeometry) -> Archetype:
    try:
        return ARCHETYPES[type(geometry)]
    except KeyError:
        raise ConfigError(f"geometry: unsupported type {type(geometry).__name__}") from None


def forced_separation(geometry: MassGeometry) -> Optional[float]:
    """The separation the geometry's archetype forces (a bar's length/2), else None."""
    divisor = _archetype_of(geometry).separation_divisor
    return None if divisor is None else geometry.length / divisor


def detector_archetype(det: DetectorModel) -> str:
    """Classify a detector into one of the supported archetypes.

    Raises ConfigError, naming the offending config field, for any
    pairing the geometry's ARCHETYPES entry does not allow.
    """
    rule = _archetype_of(det.geometry)
    if not isinstance(det.response, rule.response):
        raise ConfigError(f"response: {rule.members} use the {rule.response_kind} response")
    if not isinstance(det.readout, rule.readouts):
        names = " or ".join(kind.__name__.lower() for kind in rule.readouts)
        raise ConfigError(f"readout: {rule.members} read out {names}")
    if rule.strain_needs_arm_length and isinstance(det.readout, Strain) and det.readout.arm_length is None:
        raise ConfigError(f"readout.arm_length_m: required for a strain readout of {rule.members}")
    if det.arrangement.arm_count not in rule.arm_counts:
        allowed = " or ".join(str(n) for n in rule.arm_counts)
        raise ConfigError(f"arrangement.arm_count: {rule.members} take arm_count {allowed}")
    forced = forced_separation(det.geometry)
    if forced is not None and det.arrangement.separation != forced:
        raise ConfigError(
            f"arrangement.separation_m: {rule.members} force separation = "
            f"length/{rule.separation_divisor} = {forced:g} m"
        )
    return rule.name
