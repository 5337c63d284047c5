"""Archetype rules: which geometry pairs with which response, readout and arm count."""

import itertools
import math

import pytest

from cslbounds import (
    Acceleration,
    ConfigError,
    Cube,
    Cylinder,
    DetectorModel,
    Displacement,
    Force,
    FreeMass,
    HalfCylinderBar,
    MassArrangement,
    ResonantBar,
    Strain,
    detector_archetype,
)

GEOMETRIES = {
    "cylinder": Cylinder(radius=0.17, length=0.2, mass=40.0),
    "cube": Cube(side=0.046, mass=1.928),
    "bar": HalfCylinderBar(radius=0.3, length=3.0, mass=2300.0),
}
SEPARATIONS = {"cylinder": 4000.0, "cube": 0.376, "bar": 1.5}  # the bar's is its forced length/2
RESPONSES = {"free_mass": FreeMass(), "resonant_bar": ResonantBar(omega0=2.0 * math.pi * 931.0, length=3.0)}
READOUTS = {
    "strain_with_arm": Strain(arm_length=4000.0),
    "strain_without_arm": Strain(),
    "acceleration": Acceleration(),
    "force": Force(),
    "displacement": Displacement(),
}
ARM_COUNTS = (1, 2)

# Every accepted combination and its archetype; all 51 others are rejected.
ACCEPTED = {
    ("cylinder", "free_mass", "strain_with_arm", 1): "interferometer",
    ("cylinder", "free_mass", "strain_with_arm", 2): "interferometer",
    ("cylinder", "free_mass", "force", 1): "interferometer",
    ("cylinder", "free_mass", "force", 2): "interferometer",
    ("cylinder", "free_mass", "displacement", 1): "interferometer",
    ("cylinder", "free_mass", "displacement", 2): "interferometer",
    ("cube", "free_mass", "acceleration", 1): "accelerometer",
    ("bar", "resonant_bar", "strain_with_arm", 1): "bar",
    ("bar", "resonant_bar", "strain_without_arm", 1): "bar",
}


@pytest.mark.parametrize("combo", list(itertools.product(GEOMETRIES, RESPONSES, READOUTS, ARM_COUNTS)))
def test_archetype_accept_reject_matrix(combo):
    geometry, response, readout, arm_count = combo

    def build():
        return DetectorModel(
            name="matrix",
            geometry=GEOMETRIES[geometry],
            arrangement=MassArrangement(SEPARATIONS[geometry], arm_count),
            response=RESPONSES[response],
            readout=READOUTS[readout],
        )

    if combo in ACCEPTED:
        assert detector_archetype(build()) == ACCEPTED[combo]
    else:
        with pytest.raises(ConfigError, match=r"^(response|readout|arrangement)"):
            build()

