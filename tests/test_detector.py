"""Archetype rules: which geometry pairs with which response, readout and arm count."""

import itertools
import math

import pytest

from cslbounds import (
    ConfigError,
    Cube,
    Cylinder,
    DetectorModel,
    FreeMass,
    HalfCylinderBar,
    MassArrangement,
    Readout,
    ResonantBar,
)
from cslbounds.detector import detector_archetype

GEOMETRIES = {
    "cylinder": Cylinder(radius=0.17, length=0.2, mass=40.0),
    "cube": Cube(side=0.046, mass=1.928),
    "bar": HalfCylinderBar(radius=0.3, length=3.0, mass=2300.0),
}
SEPARATIONS = {"cylinder": 4000.0, "cube": 0.376, "bar": 1.5}  # the bar's is its forced length/2
RESPONSES = {"free_mass": FreeMass(), "resonant_bar": ResonantBar(omega0=2.0 * math.pi * 931.0, length=3.0)}
READOUTS = {
    "strain_with_arm": Readout("strain", arm_length=4000.0),
    "strain_without_arm": Readout("strain"),
    "acceleration": Readout("acceleration"),
    "force": Readout("force"),
    "displacement": Readout("displacement"),
}
ARM_COUNTS = (1, 2)

# Every accepted combination and its archetype; all 52 others are rejected.
ACCEPTED = {
    ("cylinder", "free_mass", "strain_with_arm", 1): "interferometer",
    ("cylinder", "free_mass", "strain_with_arm", 2): "interferometer",
    ("cylinder", "free_mass", "force", 1): "interferometer",
    ("cylinder", "free_mass", "force", 2): "interferometer",
    ("cylinder", "free_mass", "displacement", 1): "interferometer",
    ("cylinder", "free_mass", "displacement", 2): "interferometer",
    ("cube", "free_mass", "acceleration", 1): "accelerometer",
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
        assert build().archetype == ACCEPTED[combo]
    else:
        with pytest.raises(ConfigError, match=r"^(response|readout|arrangement)"):
            build()


@pytest.mark.parametrize(
    "response, readout, message",
    [
        (
            ResonantBar(omega0=2.0 * math.pi * 931.0, length=2.0),
            Readout("strain"),
            "response.bar_length_m: must equal geometry.length_m = 3.0 m, got 2.0",
        ),
        (RESPONSES["resonant_bar"], Readout("strain", arm_length=3.0), "readout.arm_length_m: bars take no arm length, got 3.0"),
    ],
    ids=["bar_length", "arm_length"],
)
def test_bar_states_each_input_once(response, readout, message):
    # the bar's strain transfer once took the response's length, and an arm length went unread
    with pytest.raises(ConfigError) as info:
        DetectorModel("bar", GEOMETRIES["bar"], MassArrangement(1.5), response, readout)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kind, arm_length, message",
    [
        ("entropy", None, "unknown readout kind 'entropy'"),
        ("Strain", None, "unknown readout kind 'Strain'"),
        ("acceleration", 4000.0, "arm_length applies only to a strain readout, not acceleration"),
        ("force", 4000.0, "arm_length applies only to a strain readout, not force"),
        ("displacement", 4000.0, "arm_length applies only to a strain readout, not displacement"),
        ("strain", math.inf, "arm_length must be finite and > 0, got inf"),
        ("strain", math.nan, "arm_length must be finite and > 0, got nan"),
        ("strain", 0.0, "arm_length must be finite and > 0, got 0.0"),
    ],
)
def test_readout_rejects_bad_kind_and_arm_length(kind, arm_length, message):
    with pytest.raises(ValueError) as info:
        Readout(kind, arm_length)
    assert str(info.value) == message


def test_non_body_geometry_rejected():
    with pytest.raises(ConfigError, match=r"^geometry: unsupported type object$"):
        DetectorModel("odd", object(), MassArrangement(1.0), FreeMass(), Readout("force"))
