"""CSL collapse-noise spectra and exclusion bounds for GW-detector geometries.

Computes the white force-noise PSD the CSL collapse model predicts for
the test-mass geometries of interferometers (LIGO), drag-free
accelerometer pairs (LISA Pathfinder) and resonant bars (AURIGA),
propagates it through each detector's response, and inverts measured
noise figures into exclusion curves over the (collapse rate,
correlation length) plane, including the Ellis wormhole-decoherence
comparison.

The package root exports a name only if the command-line interface
(cslbounds.cli) or the acceptance suite imports it, or if it is a type
that a public function takes or returns.  Every other public name is
reached through its module, for example cslbounds.io.bundled_config_path.
"""

from ._version import __version__
from .constants import HBAR, M_NUCLEON
from .cslnoise import (
    BAR_VARIANTS,
    DEFAULT_BAR_VARIANT,
    CslParams,
    Cube,
    Cylinder,
    HalfCylinderBar,
    MassArrangement,
    MassGeometry,
    axial_factor,
    cube_pair_force_psd,
    cylinder_pair_force_psd,
    pair_correlation_factor,
)
from .detector import DetectorModel, MeasuredNoise, Readout
from .errors import ConfigError, CslBoundsError, QuadratureError, UnboundedParameterError
from .exclusion import (
    EllisReport,
    ExclusionCurve,
    characteristic_dimension,
    ellis_ratio,
    exclusion_curve,
    force_per_native,
    lambda_max,
    measured_force_psd,
    model_force_psd,
    optimal_frequency,
)
from .io import load_detector_config, load_spectrum_csv, write_exclusion_csv
from .response import FreeMass, ResonantBar, SpectrumSeries, equivalent_force_asd_free_mass

__all__ = [
    "HBAR", "M_NUCLEON",
    "BAR_VARIANTS", "DEFAULT_BAR_VARIANT", "CslParams", "Cube", "Cylinder", "HalfCylinderBar",
    "MassArrangement", "MassGeometry", "axial_factor", "cube_pair_force_psd",
    "cylinder_pair_force_psd", "pair_correlation_factor",
    "DetectorModel", "MeasuredNoise", "Readout",
    "ConfigError", "CslBoundsError", "QuadratureError", "UnboundedParameterError",
    "EllisReport", "ExclusionCurve", "characteristic_dimension", "ellis_ratio",
    "exclusion_curve", "force_per_native", "lambda_max", "measured_force_psd", "model_force_psd",
    "optimal_frequency",
    "load_detector_config", "load_spectrum_csv", "write_exclusion_csv",
    "QuadratureResult", "force_psd_by_quadrature",
    "FreeMass", "ResonantBar", "SpectrumSeries", "equivalent_force_asd_free_mass",
]


def __getattr__(name):
    # The quadrature oracle, with its rule table, loads on first use, so
    # only `validate` pays for it at start-up (PEP 562).
    if name in ("QuadratureResult", "force_psd_by_quadrature"):
        from . import kspace

        return getattr(kspace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
