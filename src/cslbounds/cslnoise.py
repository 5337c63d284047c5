"""CSL force-noise power spectral densities for the supported geometries.

The CSL model adds a white (frequency-independent) stochastic force to
every massive body, controlled by a collapse rate and a correlation
length.  For a pair of identical masses read out differentially, the
relative-coordinate force PSD is a closed-form function of the geometry;
this module implements those closed forms for coaxial cylinder pairs
(interferometer arms), cube pairs (drag-free accelerometers) and a
resonant bar modeled as two touching half-cylinders.

All results are two-sided PSDs in N^2/Hz.  The one-sided convention used
by published noise figures is applied at the comparison boundary, never
here.

The correlation length r_c may be a float or a 1-d array: every closed
form and building block then evaluates the whole grid in one pass, with
boolean masks choosing each element's numerical branch, and a float
input returns a float from the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .constants import HBAR, M_NUCLEON
from .specfun import FloatOrArray, _from_1d, _ie, _to_1d

# Largest relative mismatch allowed between the declared mass and
# density * volume when a density is given.
DENSITY_CONSISTENCY_TOL = 0.02

BAR_VARIANTS = ("printed", "rederived")
# Default fixed by the k-space quadrature oracle (see the acceptance
# suite): only the rederived axial factor matches the two-half-cylinder
# mass distribution at large correlation length.
DEFAULT_BAR_VARIANT = "rederived"


@dataclass(frozen=True)
class CslParams:
    """Collapse-parameter point: rate (1/s) and correlation length (m).

    The correlation length may also be a 1-d array, one parameter point
    per entry; it is then stored as a read-only copy.
    """

    collapse_rate: float
    correlation_length: FloatOrArray

    def __post_init__(self):
        if not (math.isfinite(self.collapse_rate) and self.collapse_rate >= 0.0):
            raise ValueError(f"collapse_rate must be finite and >= 0, got {self.collapse_rate!r}")
        rc, scalar = _to_1d(self.correlation_length)
        bad = ~(np.isfinite(rc) & (rc > 0.0))
        if bad.any():
            raise ValueError(f"correlation_length must be finite and > 0, got {float(rc[bad][0])!r}")
        if not scalar:
            rc = rc.copy()
            rc.flags.writeable = False
            object.__setattr__(self, "correlation_length", rc)


def _check_geometry(dims: dict, mass: float, density: Optional[float], volume: float):
    for name, value in dims.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be finite and > 0, got {mass!r}")
    if density is not None:
        if not (math.isfinite(density) and density > 0.0):
            raise ValueError(f"density must be finite and > 0, got {density!r}")
        mismatch = abs(mass - density * volume) / mass
        if mismatch > DENSITY_CONSISTENCY_TOL:
            raise ValueError(
                f"mass {mass} kg is inconsistent with density * volume = "
                f"{density * volume:.6g} kg (mismatch {mismatch:.1%} > {DENSITY_CONSISTENCY_TOL:.0%})"
            )


@dataclass(frozen=True)
class Cylinder:
    """Solid cylinder test mass; axis along the measurement direction."""

    radius: float
    length: float
    mass: float
    density: Optional[float] = None

    def __post_init__(self):
        _check_geometry({"radius": self.radius, "length": self.length}, self.mass, self.density, self.volume)

    @property
    def volume(self) -> float:
        return math.pi * self.radius**2 * self.length


@dataclass(frozen=True)
class Cube:
    """Cubic test mass."""

    side: float
    mass: float
    density: Optional[float] = None

    def __post_init__(self):
        _check_geometry({"side": self.side}, self.mass, self.density, self.volume)

    @property
    def volume(self) -> float:
        return self.side**3


@dataclass(frozen=True)
class HalfCylinderBar:
    """Resonant bar: one cylinder modeled as two touching half-cylinders.

    radius and length describe the full bar; the halves used by the
    noise model have length/2, mass/2 and center separation length/2.
    """

    radius: float
    length: float
    mass: float
    density: Optional[float] = None

    def __post_init__(self):
        _check_geometry({"radius": self.radius, "length": self.length}, self.mass, self.density, self.volume)

    @property
    def volume(self) -> float:
        return math.pi * self.radius**2 * self.length


MassGeometry = Union[Cylinder, Cube, HalfCylinderBar]


@dataclass(frozen=True)
class MassArrangement:
    """Center-to-center separation along the readout axis and arm count."""

    separation: float
    arm_count: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.separation) and self.separation >= 0.0):
            raise ValueError(f"separation must be finite and >= 0, got {self.separation!r}")
        if self.arm_count not in (1, 2):
            raise ValueError(f"arm_count must be 1 or 2, got {self.arm_count!r}")


# ---------------------------------------------------------------------------
# building blocks


def pair_correlation_factor(separation: float, length: float, r_c: float) -> float:
    """Cross-correlation term of the axial pair suppression factor.

    Equals (1/2) e^{-(a+L)^2/4rc^2} (1 + e^{aL/rc^2} - 2 e^{L(2a+L)/4rc^2})
    but is evaluated with every exponent combined first; the combined
    exponents are all nonpositive, so nothing overflows however small
    r_c gets.
    """
    for name, v in (("separation", separation), ("length", length), ("r_c", r_c)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if separation < 0.0 or length <= 0.0 or r_c <= 0.0:
        raise ValueError("pair_correlation_factor requires separation >= 0, length > 0, r_c > 0")
    u = 1.0 / (4.0 * r_c * r_c)
    return (
        0.5 * math.exp(-((separation + length) ** 2) * u)
        + 0.5 * math.exp(-((separation - length) ** 2) * u)
        - math.exp(-(separation**2) * u)
    )


def axial_factor(separation: float, length: float, r_c: FloatOrArray) -> FloatOrArray:
    """Axial suppression factor (1 - e^{-L^2/4rc^2} + pair correlation).

    Vanishes identically at zero separation: perfectly correlated kicks
    cannot drive relative motion.  Evaluated as the identity
    expm1(-L^2 u) expm1(-a^2 u) + e^{-(a-L)^2 u} expm1(-2aLu)^2 / 2 with
    u = 1/4rc^2: both terms are nonnegative and every exponent is
    nonpositive, so nothing cancels.  The exponents are formed from the
    lengths scaled by 1/2rc, never from u itself, so a vanishing length
    gives a zero exponent even where u would overflow.
    """
    rc, scalar = _to_1d(r_c)
    if separation < 0.0 or length <= 0.0 or not np.all(rc > 0.0):
        raise ValueError("axial_factor requires separation >= 0, length > 0, r_c > 0")
    a = separation * (0.5 / rc)
    el = length * (0.5 / rc)
    d = (separation - length) * (0.5 / rc)
    with np.errstate(over="ignore"):  # an exponent of -inf is the right limit
        out = np.expm1(-el * el) * np.expm1(-a * a) + 0.5 * np.exp(-d * d) * np.expm1(-2.0 * a * el) ** 2
    return _from_1d(out, scalar)


# Taylor coefficients of 1 - e^-x (I0(x) + I1(x)) = x/2 - x^2/4 + ...
_RADIAL_SERIES = (0.5, -0.25, 5.0 / 48.0, -7.0 / 192.0, 7.0 / 640.0, -11.0 / 3840.0)
_RADIAL_SERIES_WINDOW = 5e-3


def _radial_argument(radius: float, rc: np.ndarray) -> np.ndarray:
    # x = R^2 / 2 rc^2 of _radial_bracket; below rc ~ 1e-154 m it overflows
    # to inf, which gives the right limit (a bracket of 1)
    with np.errstate(over="ignore", divide="ignore"):
        return radius * radius / (2.0 * rc * rc)


def _radial_bracket(x: FloatOrArray) -> FloatOrArray:
    # 1 - e^-x (I0(x) + I1(x)) at x = R^2 / 2 rc^2; series branch keeps
    # full relative precision when the bracket is ~x/2 << 1.
    x, scalar = _to_1d(x)
    out = np.empty_like(x)
    small = x < _RADIAL_SERIES_WINDOW
    xs = x[small]
    if xs.size:
        acc = np.zeros_like(xs)
        for c in reversed(_RADIAL_SERIES):
            acc = acc * xs + c
        out[small] = acc * xs
    xl = x[~small]
    if xl.size:
        ie = _ie(xl)
        out[~small] = 1.0 - (ie[0] + ie[1])
    return _from_1d(out, scalar)


_CUBE_SERIES_WINDOW = 0.1


def _cube_bracket(z: FloatOrArray) -> FloatOrArray:
    # 1 - e^{-z^2} - sqrt(pi) z erf(z) at z = L / 2 rc; always <= 0.
    # Series: sum_{n>=1} (-1)^n z^{2n} / ((2n-1) n!).
    z, scalar = _to_1d(z)
    out = np.empty_like(z)
    small = z <= _CUBE_SERIES_WINDOW
    zs = z[small]
    if zs.size:
        q = zs * zs
        total = -q
        power = -q
        factorial = 1.0
        for n in range(2, 14):
            power *= -q
            factorial *= n
            total += power / ((2 * n - 1) * factorial)
        out[small] = total
    zl = z[~small]
    if zl.size:
        erf = np.fromiter(map(math.erf, zl), dtype=float, count=zl.size)
        with np.errstate(over="ignore"):  # z^2 = inf below rc ~ 1e-154 m gives e^{-z^2} = 0
            out[~small] = 1.0 - np.exp(-zl * zl) - math.sqrt(math.pi) * zl * erf
    return _from_1d(out, scalar)


# ---------------------------------------------------------------------------
# closed forms


def cylinder_pair_force_psd(
    params: CslParams, geometry: Cylinder, separation: float, arm_count: int = 1
) -> FloatOrArray:
    """Two-sided CSL force PSD for coaxial cylinder pairs (N^2/Hz).

    One differential pair per arm; arm_count = 2 doubles the result for
    a two-arm interferometer.  Valid while the center-of-mass spread
    stays well below the correlation length (not checked at runtime).
    """
    if arm_count not in (1, 2):
        raise ValueError(f"arm_count must be 1 or 2, got {arm_count!r}")
    lam = params.collapse_rate
    rc, scalar = _to_1d(params.correlation_length)
    m = geometry.mass
    radius, length = geometry.radius, geometry.length
    prefactor = 4.0 * HBAR**2 * lam * (m * m) * rc * rc / (length**2 * radius**2 * M_NUCLEON**2)
    out = (
        arm_count
        * prefactor
        * axial_factor(separation, length, rc)
        * _radial_bracket(_radial_argument(radius, rc))
    )
    return _from_1d(out, scalar)


def cube_pair_force_psd(params: CslParams, geometry: Cube, separation: float) -> FloatOrArray:
    """Two-sided CSL force PSD for a cube pair read out differentially (N^2/Hz)."""
    lam = params.collapse_rate
    rc, scalar = _to_1d(params.correlation_length)
    m = geometry.mass
    side = geometry.side
    prefactor = 16.0 * HBAR**2 * lam * (m * m) * rc**4 / (side**6 * M_NUCLEON**2)
    bracket = _cube_bracket(side / (2.0 * rc))
    return _from_1d(prefactor * axial_factor(separation, side, rc) * bracket * bracket, scalar)


def bar_force_psd(params: CslParams, geometry: HalfCylinderBar, variant: str = DEFAULT_BAR_VARIANT) -> FloatOrArray:
    """Two-sided CSL force PSD driving a bar's fundamental mode (N^2/Hz).

    The bar is modeled as two half-cylinders (length/2, mass/2) touching
    end to end.  Two published axial factors exist for this model:

    ``rederived``
        the cylinder-pair axial factor evaluated for the actual
        half-cylinder geometry, 3/2 + e^{-L^2/4rc^2}/2 - 2 e^{-L^2/16rc^2};
        this is the variant the k-space quadrature oracle confirms.
    ``printed``
        3/2 - e^{-L^2/4rc^2}/2 - e^{-L^2/16rc^2}, obtained if the
        substitution into the correlation term skips the standalone
        axial exponential; kept callable because the corresponding
        exclusion curves have circulated.  The variants agree for
        r_c << L and differ in decay order for r_c >> L.
    """
    if variant not in BAR_VARIANTS:
        raise ValueError(f"variant must be one of {BAR_VARIANTS}, got {variant!r}")
    lam = params.collapse_rate
    rc, scalar = _to_1d(params.correlation_length)
    m = geometry.mass
    radius, length = geometry.radius, geometry.length
    if variant == "printed":
        with np.errstate(over="ignore", divide="ignore"):  # v = inf below rc ~ 1e-154 m is the right limit
            v = length * length / (16.0 * rc * rc)
        axial = -0.5 * np.expm1(-4.0 * v) - np.expm1(-v)
    else:
        axial = axial_factor(0.5 * length, 0.5 * length, rc)
    prefactor = 4.0 * HBAR**2 * lam * (m * m) * rc * rc / (length**2 * radius**2 * M_NUCLEON**2)
    return _from_1d(prefactor * axial * _radial_bracket(_radial_argument(radius, rc)), scalar)


def force_noise_psd(
    params: CslParams,
    geometry: MassGeometry,
    arrangement: MassArrangement,
    bar_variant: Optional[str] = None,
) -> FloatOrArray:
    """Dispatch to the closed form matching the geometry (two-sided, N^2/Hz).

    Returns a float for a scalar correlation length, else one PSD per entry.
    """
    if isinstance(geometry, Cylinder):
        return cylinder_pair_force_psd(params, geometry, arrangement.separation, arrangement.arm_count)
    if isinstance(geometry, Cube):
        if arrangement.arm_count != 1:
            raise ValueError("cube pairs support a single arm")
        return cube_pair_force_psd(params, geometry, arrangement.separation)
    if isinstance(geometry, HalfCylinderBar):
        if arrangement.arm_count != 1:
            raise ValueError("a bar is a single-arm system")
        return bar_force_psd(params, geometry, bar_variant or DEFAULT_BAR_VARIANT)
    raise TypeError(f"unsupported geometry {type(geometry).__name__}")
