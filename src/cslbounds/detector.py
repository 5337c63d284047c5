"""Detector models: geometry, arrangement, response, readout and noise.

A DetectorModel ties together one of the three supported archetypes,
and carries its name as .archetype, classified once when it is built.
ARCHETYPES, keyed by geometry type, holds every rule of which response
and readout go with which geometry; the arm count and separation each
geometry takes are cslnoise.MassArrangement.check's, which the closed
forms share:

  interferometer   cylinder pair(s), free-mass response, strain/force/displacement readout
  accelerometer    cube pair, free-mass response, acceleration readout
  bar              half-cylinder bar, resonant-bar response, strain readout

Only an interferometer's strain readout takes an arm length, and a
bar's response states the bar's length again, which must equal the
geometry's.

A Readout names its kind by the same words as a noise figure's quantity
(constants.QUANTITIES); exclusion.force_per_native holds the one
conversion from each archetype's native figure to a force PSD.
"""

from __future__ import annotations

from typing import Optional

from .constants import QUANTITIES
from .cslnoise import Cube, Cylinder, HalfCylinderBar, _Record
from .errors import ConfigError
from .response import FreeMass, ResonantBar
from .specfun import _check_positive


class Readout(_Record):
    """What a detector reads out: one of constants.QUANTITIES.

    Only a strain readout takes an arm_length, which converts an
    interferometer's displacement to strain.
    """

    __slots__ = ("kind", "arm_length")

    def __init__(self, kind: str, arm_length: Optional[float] = None):
        if kind not in QUANTITIES:
            raise ValueError(f"unknown readout kind {kind!r}")
        if arm_length is not None:
            if kind != "strain":
                raise ValueError(f"arm_length applies only to a strain readout, not {kind}")
            _check_positive("arm_length", arm_length)
        self._set(kind=kind, arm_length=arm_length)


INTERFEROMETER = "interferometer"
ACCELEROMETER = "accelerometer"
BAR = "bar"


class MeasuredNoise(_Record):
    """A published one-sided noise figure in the detector's native units.

    quantity is one of constants.QUANTITIES, and psd a one-sided power
    density (native units squared per Hz).
    csl_fraction is the fraction of the measured *power* that cannot be
    accounted for by calibrated known sources and may be attributed to
    collapse noise; 1.0 when no independent calibration exists.
    """

    __slots__ = ("name", "quantity", "psd", "frequency_hz", "csl_fraction", "provenance")

    def __init__(self, name, quantity, psd, frequency_hz=None, csl_fraction=1.0, provenance=""):
        if quantity not in QUANTITIES:
            raise ValueError(f"unknown noise quantity {quantity!r}")
        _check_positive("noise psd", psd)
        if frequency_hz is not None:
            _check_positive("frequency_hz", frequency_hz)
        if not (0.0 < csl_fraction <= 1.0):
            raise ValueError(f"csl_fraction must be in (0, 1], got {csl_fraction!r}")
        self._set(name=name, quantity=quantity, psd=psd, frequency_hz=frequency_hz, csl_fraction=csl_fraction)
        self._set(provenance=provenance)


class DetectorModel(_Record):
    """One complete detector description (immutable, safe to share)."""

    __slots__ = ("name", "geometry", "arrangement", "response", "readout", "noise", "archetype")
    _hidden = ("archetype",)  # set once, from detector_archetype; not in ==, hash or repr

    def __init__(self, name, geometry, arrangement, response, readout, noise=()):
        self._set(name=name, geometry=geometry, arrangement=arrangement, response=response, readout=readout)
        self._set(noise=noise)
        self._set(archetype=detector_archetype(self))  # rejects unsupported combinations

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


class Archetype(_Record):
    """The pairing rules for one geometry type.

    members names the archetype in diagnostics, response_kind is the config spelling of the response,
    readouts the accepted Readout kinds; only a strain_needs_arm_length archetype's readout takes an arm length.
    """

    __slots__ = ("name", "members", "response", "response_kind", "readouts", "strain_needs_arm_length")

    def __init__(self, name, members, response, response_kind, readouts, strain_needs_arm_length=False):
        self._set(name=name, members=members, response=response, response_kind=response_kind, readouts=readouts)
        self._set(strain_needs_arm_length=strain_needs_arm_length)


ARCHETYPES = {
    Cylinder: Archetype(
        INTERFEROMETER,
        "cylinder-pair interferometers",
        FreeMass,
        "free_mass",
        ("strain", "force", "displacement"),
        strain_needs_arm_length=True,
    ),
    Cube: Archetype(ACCELEROMETER, "cube-pair accelerometers", FreeMass, "free_mass", ("acceleration",)),
    HalfCylinderBar: Archetype(BAR, "bars", ResonantBar, "resonant_bar", ("strain",)),
}


def detector_archetype(det: DetectorModel) -> str:
    """Classify a detector into one of the supported archetypes.

    Raises ConfigError, naming the offending config field, for any
    pairing that ARCHETYPES or MassArrangement.check does not allow, an
    arm length on a readout that takes none, and a bar length that
    differs from the geometry's.
    """
    try:
        rule = ARCHETYPES[type(det.geometry)]
    except KeyError:
        raise ConfigError(f"geometry: unsupported type {type(det.geometry).__name__}") from None
    if not isinstance(det.response, rule.response):
        raise ConfigError(f"response: {rule.members} use the {rule.response_kind} response")
    if det.readout.kind not in rule.readouts:
        raise ConfigError(f"readout: {rule.members} read out {' or '.join(rule.readouts)}")
    if rule.strain_needs_arm_length and det.readout.kind == "strain" and det.readout.arm_length is None:
        raise ConfigError(f"readout.arm_length_m: required for a strain readout of {rule.members}")
    try:
        det.arrangement.check(det.geometry)
    except ValueError as exc:
        raise ConfigError(f"arrangement.{exc}") from None
    if det.readout.arm_length is not None and not rule.strain_needs_arm_length:
        raise ConfigError(f"readout.arm_length_m: {rule.members} take no arm length, got {det.readout.arm_length!r}")
    if isinstance(det.response, ResonantBar) and det.response.length != det.geometry.length:
        raise ConfigError(
            f"response.bar_length_m: must equal geometry.length_m = {det.geometry.length!r} m,"
            f" got {det.response.length!r}"
        )
    return rule.name


def strain_arm_length(det: DetectorModel) -> float:
    """Arm length converting an interferometer's displacement to strain.

    Raises ConfigError when the readout is not a strain readout, which
    the interferometer archetype allows (force, displacement).
    """
    if det.readout.kind != "strain":
        raise ConfigError(f"readout.arm_length_m: strain conversion needs a strain readout, not {det.readout.kind}")
    return det.readout.arm_length
