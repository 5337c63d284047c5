"""CSL force-noise power spectral densities for the supported geometries.

The CSL model adds a white (frequency-independent) stochastic force to
every massive body, controlled by a collapse rate and a correlation
length.  For a pair of identical masses read out differentially, the
relative-coordinate force PSD is a closed-form function of the geometry;
this module implements those closed forms for coaxial cylinder pairs
(interferometer arms), cube pairs (drag-free accelerometers) and a
resonant bar modeled as two touching half-cylinders, evaluated as that
cylinder pair.  Each is q^2 lam B with q = hbar N r_c for N nucleons,
formed in one place as q * (q * (lam * B)), the cube's r_c^2 inside B:
no partial product underflows before the PSD itself does.

The pairing rules live here once, in MassArrangement.check, which the
closed forms, the k-space oracle and detector_archetype all call: only a
cylinder pair may have two arms, and a bar's halves sit length/2 apart.

Accuracy, checked against mpmath by the test suite: the radial and cube
brackets hold a relative error of 2e-15 for x in [1e-300, 1e6] and z in
[1e-150, 1e6], and the closed forms of the bundled detectors hold 4e-15
for r_c in [1e-140, 1e4] m (the PSD turns subnormal near 7e-151 m).
The cube bracket calls math.erf only below z = 5.921587195794507, from
where erf rounds to exactly 1.0, so the cut changes no value.

All results are two-sided PSDs in N^2/Hz.  The one-sided convention used
by published noise figures is applied at the comparison boundary, never
here.

The correlation length r_c may be a float or a 1-d array: every closed
form and building block evaluates it in one pass of private kernels that
take 1-d arrays, masks choosing each element's numerical branch, and
returns a float for a float.  Each runs under np.errstate(all="ignore"),
so no result depends on the caller's np.seterr; the callers that report
a value (exclusion_curve, noise, validate) check that it is a normal
double.  The building blocks axial_factor and pair_correlation_factor
share one kernel and one domain: a finite separation >= 0, a finite
length > 0 and every r_c >= MIN_CORRELATION_LENGTH.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .constants import HBAR, M_NUCLEON
from .specfun import FloatOrArray, _check_positive, _check_real, _from_1d, _frozen, _ie, _is_real, _to_1d

# Largest relative mismatch allowed between the declared mass and
# density * volume when a density is given.
DENSITY_CONSISTENCY_TOL = 0.02

BAR_VARIANTS = ("printed", "rederived")
# Default fixed by the k-space quadrature oracle (see the acceptance
# suite): only the rederived axial factor matches the two-half-cylinder
# mass distribution at large correlation length.
DEFAULT_BAR_VARIANT = "rederived"

# Smallest correlation length accepted (m), the smallest normal double:
# below it 1/r_c overflows and the closed forms meet 0 * inf.
MIN_CORRELATION_LENGTH = float(np.finfo(float).tiny)


class _Record:
    """Immutable value: its fields are the __slots__ along the MRO, set once through _set.

    ==, hash and repr cover the fields not named in _hidden, == and hash
    an array field by its bytes; assigning any attribute raises
    AttributeError; pickle and copy go through __setstate__.
    """

    __slots__ = ()
    _hidden = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ()))

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # state is (None, slot values), as object.__reduce_ex__ gives it; an array field stays read-only
        self._set(**{name: _frozen(v) if isinstance(v, np.ndarray) else v for name, v in state[1].items()})

    def _shown(self) -> tuple:
        return tuple((name, getattr(self, name)) for name in self._fields if name not in self._hidden)

    def _key(self) -> tuple:
        # an array field is a read-only 1-d float copy, checked free of nan and -0.0, so its bytes are its values
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for _, v in self._shown())

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={value!r}' for name, value in self._shown())})"


class CslParams(_Record):
    """Collapse-parameter point: rate (1/s) and correlation length (m).

    Any type but a real number, or for the correlation length a 1-d array
    of them (one point per entry), raises TypeError.  A scalar correlation
    length (a 0-d array too) is stored as a float, an array as a read-only
    1-d copy.  The rate is stored as a float, +0.0 for -0.0, so that no PSD
    comes out as -0.0.
    """

    __slots__ = ("collapse_rate", "correlation_length")

    def __init__(self, collapse_rate: float, correlation_length: FloatOrArray):
        _check_positive("collapse_rate", collapse_rate, zero_ok=True)
        rc = correlation_length
        if type(rc) is not float or not MIN_CORRELATION_LENGTH <= rc < math.inf:  # a float in range is kept as is
            held = rc if isinstance(rc, (list, tuple)) else ()  # numpy would read a bool in a list as 0 or 1
            if not (_is_real(rc) or np.asarray(rc).dtype.kind in "iuf") or any(isinstance(v, (bool, np.bool_)) for v in held):
                raise TypeError(f"correlation_length must be a real number or a 1-d array of them, got {type(rc).__name__}")
            rc, scalar = _to_1d(rc)
            bad = ~(np.isfinite(rc) & (rc >= MIN_CORRELATION_LENGTH))
            if bad.any():
                raise ValueError(
                    f"correlation_length must be finite and >= {MIN_CORRELATION_LENGTH!r} m, got {float(rc[bad][0])!r}"
                )
            rc = float(rc[0]) if scalar else _frozen(rc)
        self._set(collapse_rate=float(collapse_rate) + 0.0, correlation_length=rc)


def _check_geometry(dims: dict, mass: float, density: Optional[float], volume: float, part: str = ""):
    for name, value in (*dims.items(), ("mass", mass)):
        _check_positive(part + name, value)
    if not (math.isfinite(volume) and volume > 0.0):
        raise ValueError(f"{part}volume must be finite and > 0, got {volume!r} m^3")
    if density is not None:
        _check_positive("density", density)
        mismatch = abs(mass - density * volume) / mass
        if mismatch > DENSITY_CONSISTENCY_TOL:
            raise ValueError(
                f"mass {mass} kg is inconsistent with density * volume = "
                f"{density * volume:.6g} kg (mismatch {mismatch:.1%} > {DENSITY_CONSISTENCY_TOL:.0%})"
            )


class _Rod(_Record):
    """The solid cylinder of both rod bodies; each subclass keeps its own repr, equality and dispatch."""

    __slots__ = ("radius", "length", "mass", "density")

    def __init__(self, radius: float, length: float, mass: float, density: Optional[float] = None):
        self._set(radius=radius, length=length, mass=mass, density=density)
        self._check()

    def _check(self, part: str = "") -> None:
        """Raise ValueError, naming the field (after part), unless the rod is a valid body; a bar checks its halves."""
        _check_geometry({"radius": self.radius, "length": self.length}, self.mass, self.density, self.volume, part)

    @property
    def volume(self) -> float:
        return math.pi * self.radius * self.radius * self.length


class Cylinder(_Rod):
    """Solid cylinder test mass; axis along the measurement direction."""

    __slots__ = ()


class Cube(_Record):
    """Cubic test mass."""

    __slots__ = ("side", "mass", "density")

    def __init__(self, side: float, mass: float, density: Optional[float] = None):
        self._set(side=side, mass=mass, density=density)
        _check_geometry({"side": side}, mass, density, self.volume)

    @property
    def volume(self) -> float:
        return self.side * self.side * self.side


class HalfCylinderBar(_Rod):
    """Resonant bar: one cylinder modeled as two touching half-cylinders.

    radius and length describe the full bar; halves() is the half-cylinder
    the noise model uses, and its length is the halves' center separation.
    """

    __slots__ = ()

    def _check(self, part: str = "") -> None:
        super()._check(part)
        self.halves()._check("half-cylinder ")  # else halves() would hand out an invalid body, unchecked

    def halves(self) -> Cylinder:
        """Either half of the bar: a cylinder of length/2 and mass/2, checked once, when the bar was built."""
        half = object.__new__(Cylinder)
        half._set(radius=self.radius, length=0.5 * self.length, mass=0.5 * self.mass, density=None)
        return half


MassGeometry = Union[Cylinder, Cube, HalfCylinderBar]


def forced_separation(geometry: MassGeometry) -> Optional[float]:
    """The separation the geometry forces (a bar's halves sit length/2 apart), else None."""
    return geometry.halves().length if isinstance(geometry, HalfCylinderBar) else None


class MassArrangement(_Record):
    """Center-to-center separation along the readout axis and arm count."""

    __slots__ = ("separation", "arm_count")

    def __init__(self, separation: float, arm_count: int = 1):
        _check_positive("separation", separation, zero_ok=True)
        _check_real("arm_count", arm_count)
        if arm_count not in (1, 2):
            raise ValueError(f"arm_count must be 1 or 2, got {arm_count!r}")
        self._set(separation=separation, arm_count=arm_count)

    def check(self, geometry: MassGeometry) -> None:
        """Raise ValueError, naming the config field, unless the geometry takes this arrangement."""
        kind, forced = type(geometry).__name__, forced_separation(geometry)
        if self.arm_count != 1 and not isinstance(geometry, Cylinder):
            raise ValueError(f"arm_count: {kind} is a single-arm system, got {self.arm_count}")
        if forced is not None and self.separation != forced:
            raise ValueError(f"separation_m: {kind} forces separation = length/2 = {forced:g} m, got {self.separation!r}")


# ---------------------------------------------------------------------------
# building blocks


def pair_correlation_factor(separation: float, length: float, r_c: FloatOrArray) -> FloatOrArray:
    """Cross-correlation term of the axial pair suppression factor.

    Equals (1/2) e^{-(a+L)^2 u} + (1/2) e^{-(a-L)^2 u} - e^{-a^2 u} with
    u = 1/4rc^2, and is evaluated as axial_factor + expm1(-L^2 u): the
    axial kernel's value and domain, with the same float or 1-d r_c.
    """
    rc, scalar = _to_1d(r_c)
    with np.errstate(all="ignore"):
        axial = _axial_over(separation, length, rc, 1.0)
        el = length * (0.5 / rc)  # L/2rc = inf gives expm1(-inf) = -1, the right limit
        return _from_1d(axial + np.expm1(-el * el), scalar)


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
    with np.errstate(all="ignore"):
        return _from_1d(_axial_over(separation, length, rc, 1.0), scalar)


def _axial_over(separation: float, length: float, rc: np.ndarray, scale: float) -> np.ndarray:
    # axial_factor / scale^2, each factor of its two products divided by
    # scale before they meet: axial / L^2 stays normal where axial underflows.
    # An infinite length would meet 0 * inf below; a NaN r_c fails the comparison.
    _check_positive("separation", separation, zero_ok=True)
    _check_positive("length", length)
    bad = ~(rc >= MIN_CORRELATION_LENGTH)
    if bad.any():
        raise ValueError(f"r_c must be >= {MIN_CORRELATION_LENGTH!r} m, got {float(rc[bad][0])!r}")
    half = 0.5 / rc  # an exponent of -inf is the right limit
    a = separation * half
    el = length * half
    d = (separation - length) * half
    tilt = np.expm1(-2.0 * a * el) / scale
    return (np.expm1(-el * el) / scale) * (np.expm1(-a * a) / scale) + 0.5 * np.exp(-d * d) * tilt * tilt


# Taylor coefficients of the brackets below the window, where their
# differences would cancel; exact rationals rounded once.  Radial: the
# derivative e^-x I1(x)/x = M(3/2, 3, -2x)/2 (DLMF 10.39.5) = sum a_n x^n,
# a_0 = 1/2, a_{n+1} = -2 a_n (n + 3/2)/((n + 1)(n + 3)).  Cube, in q = z^2:
# b_n = (-1)^{n+1}/((2n + 1)(n + 1)!).  Truncation at 1: 3e-20 and 6e-22 relative.
_SERIES_WINDOW = 1.0
_RADIAL_TAYLOR, _num, _den = [], 1, 2
for _n in range(24):
    _RADIAL_TAYLOR.append(_num / (_den * (_n + 1)))
    _num, _den = -_num * (2 * _n + 3), _den * (_n + 1) * (_n + 3)
_CUBE_TAYLOR = [(-1) ** (n + 1) / ((2 * n + 1) * math.factorial(n + 1)) for n in range(20)]
_ERF_ONE = 5.921587195794507  # the smallest z where math.erf(z) == 1.0


def _taylor(coeffs: list, t: np.ndarray) -> np.ndarray:
    # t * sum_n coeffs[n] t^n by Horner's rule, in place
    acc = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc * t


def _radial_bracket(x: np.ndarray) -> np.ndarray:
    # 1 - e^-x (I0(x) + I1(x)), in [0, 1), at x = R^2 / 2 rc^2
    out = np.empty_like(x)
    small = x < _SERIES_WINDOW
    if small.any():
        out[small] = _taylor(_RADIAL_TAYLOR, x[small])
    xl = x[~small]
    if xl.size:
        ie = _ie(xl)
        out[~small] = 1.0 - (ie[0] + ie[1])
    return out


def _cube_bracket(z: np.ndarray) -> np.ndarray:
    # 1 - e^{-z^2} - sqrt(pi) z erf(z) at z = L / 2 rc; always <= 0
    out = np.empty_like(z)
    small = z < _SERIES_WINDOW
    if small.any():
        out[small] = _taylor(_CUBE_TAYLOR, z[small] * z[small])
    zl = z[~small]
    if zl.size:
        erf = np.ones_like(zl)
        below = zl < _ERF_ONE
        erf[below] = np.fromiter(map(math.erf, zl[below]), dtype=float)
        out[~small] = 1.0 - np.exp(-zl * zl) - math.sqrt(math.pi) * zl * erf  # z^2 = inf below rc ~ 1e-154 m: e^{-z^2} = 0
    return out


# ---------------------------------------------------------------------------
# closed forms


def _pair_psd(lam: float, mass: float, rc: np.ndarray, rest: np.ndarray) -> np.ndarray:
    q = HBAR * (mass / M_NUCLEON) * rc  # an overflow to inf is the caller's to report
    psd = q * (q * (lam * rest))
    # linear in the rate and in rest: a zero either way is an exact 0, even where q or rest overflowed
    return np.where((rest == 0.0) | (lam == 0.0), 0.0, psd)


def _cylinder_psd(lam: float, geometry: Cylinder, rc: np.ndarray, axial_l2: np.ndarray, arm_count: int) -> np.ndarray:
    radius = geometry.radius
    x = radius * radius / (2.0 * rc * rc)  # overflows below rc ~ 1e-154 m: inf gives the right bracket, 1
    rest = 4.0 * arm_count * axial_l2 * (_radial_bracket(x) / radius / radius)
    return _pair_psd(lam, geometry.mass, rc, rest)


def cylinder_pair_force_psd(params: CslParams, geometry: Cylinder, separation: float, arm_count: int = 1) -> FloatOrArray:
    """Two-sided CSL force PSD for coaxial cylinder pairs (N^2/Hz).

    One differential pair per arm; arm_count = 2 doubles the result for
    a two-arm interferometer.  Valid while the center-of-mass spread
    stays well below the correlation length (not checked at runtime).
    """
    MassArrangement(separation, arm_count)  # raises as the arrangement does for a bad separation or arm count
    rc, scalar = _to_1d(params.correlation_length)
    with np.errstate(all="ignore"):
        axial_l2 = _axial_over(separation, geometry.length, rc, geometry.length)
        return _from_1d(_cylinder_psd(params.collapse_rate, geometry, rc, axial_l2, arm_count), scalar)


def cube_pair_force_psd(params: CslParams, geometry: Cube, separation: float) -> FloatOrArray:
    """Two-sided CSL force PSD for a cube pair read out differentially (N^2/Hz)."""
    rc, scalar = _to_1d(params.correlation_length)
    side = geometry.side
    with np.errstate(all="ignore"):
        # t -> -sqrt(pi) side/2 as rc -> 0, so it never underflows; past z = 1e300
        # (where sqrt(pi) z may overflow) it is that limit to 1e-300
        z = side / (2.0 * rc)
        t = np.where(z < 1e300, rc * _cube_bracket(z), -0.5 * math.sqrt(math.pi) * side)
        w = t / side / side
        rest = 16.0 * _axial_over(separation, side, rc, side) * w * w  # inf for sides below ~1e-79 m: the caller reports it
        return _from_1d(_pair_psd(params.collapse_rate, geometry.mass, rc, rest), scalar)


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
    halves = geometry.halves()
    rc, scalar = _to_1d(params.correlation_length)
    with np.errstate(all="ignore"):
        if variant == "rederived":
            axial_l2 = _axial_over(halves.length, halves.length, rc, halves.length)
        else:
            # v, and 4v below rc ~ 1.1e-154 m, overflow to inf: the right limit
            v = geometry.length * geometry.length / (16.0 * rc * rc)
            axial_l2 = (-0.5 * np.expm1(-4.0 * v) - np.expm1(-v)) / halves.length / halves.length
        return _from_1d(_cylinder_psd(params.collapse_rate, halves, rc, axial_l2, 1), scalar)


def force_noise_psd(
    params: CslParams,
    geometry: MassGeometry,
    arrangement: MassArrangement,
    bar_variant: Optional[str] = None,
) -> FloatOrArray:
    """Dispatch to the closed form matching the geometry (two-sided, N^2/Hz).

    Returns a float for a scalar correlation length, else one PSD per entry.
    Raises ValueError unless the geometry takes the arrangement.
    """
    arrangement.check(geometry)
    if isinstance(geometry, Cylinder):
        return cylinder_pair_force_psd(params, geometry, arrangement.separation, arrangement.arm_count)
    if isinstance(geometry, Cube):
        return cube_pair_force_psd(params, geometry, arrangement.separation)
    if isinstance(geometry, HalfCylinderBar):
        return bar_force_psd(params, geometry, bar_variant or DEFAULT_BAR_VARIANT)
    raise TypeError(f"unsupported geometry {type(geometry).__name__}")
