"""CSL collapse-noise spectra and exclusion bounds for GW-detector geometries.

Computes the white force-noise PSD the CSL collapse model predicts for
the test-mass geometries of interferometers (LIGO), drag-free
accelerometer pairs (LISA Pathfinder) and resonant bars (AURIGA),
propagates it through each detector's response, and inverts measured
noise figures into exclusion curves over the (collapse rate,
correlation length) plane, including the Ellis wormhole-decoherence
comparison.
"""

from ._version import __version__
from .constants import C_LIGHT, HBAR, M_NUCLEON, M_PLANCK
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
    bar_force_psd,
    cube_pair_force_psd,
    cylinder_pair_force_psd,
    force_noise_psd,
    pair_correlation_factor,
)
from .detector import (
    Acceleration,
    DetectorModel,
    Displacement,
    Force,
    MeasuredNoise,
    ReadoutKind,
    Strain,
    detector_archetype,
    forced_separation,
)
from .errors import (
    ConfigError,
    ConventionError,
    CslBoundsError,
    QuadratureError,
    UnboundedParameterError,
)
from .exclusion import (
    EllisReport,
    ExclusionCurve,
    characteristic_dimension,
    ellis_eta,
    ellis_ratio,
    exclusion_curve,
    lambda_max,
    measured_force_psd,
    model_force_psd,
    optimal_frequency,
)
from .io import (
    BUNDLED_CONFIGS,
    bundled_config_path,
    load_detector_config,
    load_spectrum_csv,
    read_exclusion_csv,
    write_exclusion_csv,
)
from .kspace import QuadratureResult, force_psd_by_quadrature
from .response import (
    FreeMass,
    ResonantBar,
    ResponseModel,
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
from . import specfun

__all__ = [
    "C_LIGHT", "HBAR", "M_NUCLEON", "M_PLANCK",
    "BAR_VARIANTS", "DEFAULT_BAR_VARIANT", "CslParams", "Cube", "Cylinder", "HalfCylinderBar",
    "MassArrangement", "MassGeometry", "axial_factor", "bar_force_psd", "cube_pair_force_psd",
    "cylinder_pair_force_psd", "force_noise_psd", "pair_correlation_factor",
    "Acceleration", "DetectorModel", "Displacement", "Force", "MeasuredNoise", "ReadoutKind", "Strain",
    "detector_archetype", "forced_separation",
    "ConfigError", "ConventionError", "CslBoundsError", "QuadratureError", "UnboundedParameterError",
    "EllisReport", "ExclusionCurve", "characteristic_dimension", "ellis_eta", "ellis_ratio",
    "exclusion_curve", "lambda_max", "measured_force_psd", "model_force_psd", "optimal_frequency",
    "BUNDLED_CONFIGS", "bundled_config_path", "load_detector_config", "load_spectrum_csv",
    "read_exclusion_csv", "write_exclusion_csv",
    "QuadratureResult", "force_psd_by_quadrature",
    "FreeMass", "ResonantBar", "ResponseModel", "SpectrumSeries", "acceleration_psd",
    "displacement_psd_free_mass", "equivalent_force_asd_free_mass", "force_psd_from_acceleration",
    "force_psd_from_strain_bar", "force_psd_from_strain_free_mass", "strain_psd", "strain_psd_bar",
    "specfun",
]
