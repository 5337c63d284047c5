"""CSL force-noise power spectral densities for the supported geometries.

The CSL model adds a white (frequency-independent) stochastic force to
every massive body, controlled by a collapse rate and a correlation
length.  For a pair of identical masses read out differentially, the
relative-coordinate force PSD is a closed-form function of the geometry;
this module implements those closed forms for coaxial cylinder pairs
(interferometer arms), cube pairs (drag-free accelerometers) and a
resonant bar modeled as two touching half-cylinders, evaluated as that
cylinder pair.  Each is q^2 lam B with q = hbar N r_c for N nucleons,
formed in one place, _pair_psd, as q * (q * (lam * B)), the cube's r_c^2
inside B.  B is an axial times a transverse factor, and where lam B is not
a normal double (for the bundled detectors past r_c ~ 1e51-1e53 m, as B ~
r_c^-6 while the PSD ~ r_c^-4) each factor takes one q instead: no partial
product underflows before the PSD itself does.

The pairing rules live here once, in MassArrangement.check, which the
closed forms, the k-space oracle and detector_archetype all call: a body is
a Cylinder, Cube or HalfCylinderBar, only a cylinder pair may have two
arms, and a bar's halves sit length/2 apart.

Accuracy, checked against mpmath by the test suite: the radial and cube
brackets hold a relative error of 2e-15 for x in [1e-300, 1e6] and z in
[1e-150, 1e6], and the closed forms of the bundled detectors hold 4e-15
for r_c in [1e-140, 1e4] m (the PSD turns subnormal near 7e-151 m).  From
1e4 m up to where the PSD turns subnormal again, near 1e73-1e75 m, they
hold the k-space oracle's certified error + 4e-15.
The radial bracket 1 - e^-x (I0(x) + I1(x)) calls no Bessel function: up
to x = 1e3 it is one Clenshaw pass over 14-term Chebyshev expansions on
nine fixed intervals, with seams at 1, 2, 3.2, 5, 8, 14, 30, 100 and 1e3
(x p(2x - 1) on [0, 1], p affine in x up to 3.2, 1 - p/sqrt(x) with p
affine in 1/x beyond), and past 1e3 a 7-term asymptotic series in 1/x.
The cube bracket calls math.erf only below z = 5.921587195794507, from
where erf rounds to exactly 1.0, so the cut changes no value.  The axial
factor's pair term is evaluated only where its double can be nonzero.
e^-x rounds to exactly 0.0 once it is below 2^-1075 = e^-745.133, half the
smallest subnormal, so from x = _EXP_ZERO = 746 on that term is 0.0
without a call to np.exp, which takes about 20 times as long there as
where its result is normal.

All results are two-sided PSDs in N^2/Hz.  The one-sided convention used
by published noise figures is applied at the comparison boundary, never
here.

The correlation length r_c may be a float or a 1-d array: every closed
form and building block evaluates it in one pass of private kernels that
take 1-d arrays, masks choosing each element's numerical branch, and
returns a float for a float.  A kernel writes only into arrays that it
allocated, or that its caller handed over and does not read again; it
never writes into r_c.  force_noise_psd is the one checked entry: it runs
MassArrangement.check and enters the one frame, _framed: a 1-d r_c,
np.errstate(all="ignore") (no result depends on np.seterr), a float back
for a float; the per-geometry entries build their arrangement and forward
to it.  Below it the one dispatch by geometry type, _closed_form, and the
kernels trust checked records and a 1-d r_c; exclusion_curve calls
_closed_form on its detector's checked arrangement, under its own errstate.
The callers that report a value (exclusion_curve, noise, validate) check
that it is a normal double.  axial_factor and pair_correlation_factor share
one kernel, frame and domain: a finite separation >= 0, a finite length > 0
and CslParams' r_c rule.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Union

import numpy as np

from .constants import HBAR, M_NUCLEON
from .specfun import FloatOrArray, _check_positive, _check_real, _from_1d, _frozen, _to_1d

# Largest relative mismatch allowed between the declared mass and
# density * volume when a density is given.
DENSITY_CONSISTENCY_TOL = 0.02

BAR_VARIANTS = ("printed", "rederived")
# Default fixed by the k-space quadrature oracle (see the acceptance
# suite): only the rederived axial factor matches the two-half-cylinder
# mass distribution at large correlation length.
DEFAULT_BAR_VARIANT = "rederived"

# np.exp(-x) is exactly 0.0 for every x >= _EXP_ZERO (numpy's from x = 745.14), as the module docstring says
_EXP_ZERO = 746.0

# Smallest correlation length accepted (m), the smallest normal double:
# below it 1/r_c overflows and the closed forms meet 0 * inf.
MIN_CORRELATION_LENGTH = float(np.finfo(float).tiny)


_set_slot = object.__setattr__  # a hot constructor writes its slots directly: _set's keywords take twice the time


class _Record:
    """Immutable value: its fields are the __slots__ along the MRO, set once through _set (or _set_slot).

    ==, hash and repr cover the fields, == and hash an array field by its
    bytes; assigning any attribute raises AttributeError; pickle and copy
    go through __setstate__.
    """

    __slots__ = ()

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
        self._set(**{name: _frozen(v, name) if isinstance(v, np.ndarray) else v for name, v in state[1].items()})

    def _shown(self) -> tuple:
        return tuple((name, getattr(self, name)) for name in self._fields)

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
            rc, scalar = _to_1d(rc, "correlation_length")
            if rc.size and not (rc.min() >= MIN_CORRELATION_LENGTH and rc.max() < math.inf):  # a NaN fails both
                bad = ~(np.isfinite(rc) & (rc >= MIN_CORRELATION_LENGTH))
                raise ValueError(
                    f"correlation_length must be finite and >= {MIN_CORRELATION_LENGTH!r} m, got {float(rc[bad][0])!r}"
                )
            rc = float(rc[0]) if scalar else _frozen(rc, "correlation_length")
        _set_slot(self, "collapse_rate", float(collapse_rate) + 0.0)
        _set_slot(self, "correlation_length", rc)


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
        _set_slot(half, "radius", self.radius)
        _set_slot(half, "length", 0.5 * self.length)
        _set_slot(half, "mass", 0.5 * self.mass)
        _set_slot(half, "density", None)
        return half


MassGeometry = Union[Cylinder, Cube, HalfCylinderBar]


def forced_separation(geometry: MassGeometry) -> Optional[float]:
    """The separation the geometry forces (a bar's halves sit length/2 apart, halves().length), else None."""
    return 0.5 * geometry.length if isinstance(geometry, HalfCylinderBar) else None


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
        """Raise ValueError, naming the config field, unless the geometry takes this arrangement; TypeError for an unknown body."""
        kind, forced = type(geometry).__name__, forced_separation(geometry)
        if not isinstance(geometry, (Cylinder, Cube, HalfCylinderBar)):
            raise TypeError(f"unsupported geometry {kind}")
        if self.arm_count != 1 and not isinstance(geometry, Cylinder):
            raise ValueError(f"arm_count: {kind} is a single-arm system, got {self.arm_count}")
        if forced is not None and self.separation != forced:
            raise ValueError(f"separation_m: {kind} forces separation = length/2 = {forced:g} m, got {self.separation!r}")


# ---------------------------------------------------------------------------
# building blocks


def _framed(r_c: FloatOrArray, kernel) -> FloatOrArray:
    # the one entry frame of force_noise_psd and the building blocks (module docstring): kernel(rc) at a 1-d rc, under errstate
    rc, scalar = _to_1d(r_c, "correlation_length")
    with np.errstate(all="ignore"):
        return _from_1d(kernel(rc), scalar)


def _block_rc(separation: float, length: float, r_c: FloatOrArray) -> FloatOrArray:
    # the building blocks' domain, in this order: CslParams' r_c rule, then the separation and the length
    rc = CslParams(1.0, r_c).correlation_length
    _check_positive("separation", separation, zero_ok=True)
    _check_positive("length", length)  # an infinite length would meet 0 * inf in _axial_over
    return rc


def pair_correlation_factor(separation: float, length: float, r_c: FloatOrArray) -> FloatOrArray:
    """Cross-correlation term of the axial pair suppression factor.

    Equals (1/2) e^{-(a+L)^2 u} + (1/2) e^{-(a-L)^2 u} - e^{-a^2 u} with
    u = 1/4rc^2, and is evaluated as axial_factor + expm1(-L^2 u): the
    axial kernel's value and domain, with the same float or 1-d r_c.
    """
    r_c = _block_rc(separation, length, r_c)  # L/2rc = inf below gives expm1(-inf) = -1, the right limit
    return _framed(r_c, lambda rc: _axial_over(separation, length, rc, 1.0) + np.expm1(-np.square(np.divide(0.5, rc) * length)))


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
    return _framed(_block_rc(separation, length, r_c), lambda rc: _axial_over(separation, length, rc, 1.0))


def _axial_over(separation: float, length: float, rc: np.ndarray, scale: float) -> np.ndarray:
    # axial_factor / scale^2, each factor of its two products divided by
    # scale before they meet: axial / L^2 stays normal where axial underflows.
    # Its caller checked the separation (finite, >= 0), the length (finite, > 0) and r_c.
    half = np.divide(0.5, rc)  # an exponent of -inf is the right limit
    el = np.multiply(half, length)
    if separation == length:  # a bar's halves: d = 0, so e^{-d^2} = 1, and the two factors are one
        a, d, live = el, half, True
        d.fill(1.0)
    else:
        a = np.multiply(half, separation)
        d = np.multiply(half, separation - length, out=half)
        d *= d
        live = d < _EXP_ZERO  # elsewhere e^{-d^2}, so the pair term, is exactly +0 and would leave el as it is
        np.negative(d, out=d)
        np.exp(d, out=d, where=live)
    tilt = np.multiply(a, -2.0)
    tilt *= el
    np.expm1(tilt, out=tilt, where=live)
    tilt /= scale
    for f in (el,) if a is el else (el, a):  # expm1(-f * f) / scale, in place
        f *= f
        np.negative(f, out=f)
        np.expm1(f, out=f)
        f /= scale
    el *= a
    d *= 0.5
    d *= tilt
    d *= tilt
    np.add(el, d, out=el, where=live)  # the dead elements of tilt and d hold values never read
    return el


# Taylor coefficients of the cube bracket below the window, where its
# differences would cancel; exact rationals rounded once, in q = z^2:
# b_n = (-1)^{n+1}/((2n + 1)(n + 1)!).  Truncation at 1: 6e-22 relative.
_SERIES_WINDOW = 1.0
_CUBE_TAYLOR = [(-1) ** (n + 1) / ((2 * n + 1) * math.factorial(n + 1)) for n in range(20)]
_ERF_ONE = 5.921587195794507  # the smallest z where math.erf(z) == 1.0

# The radial bracket B(x) = 1 - e^-x (I0(x) + I1(x)) from fixed Chebyshev
# expansions (the Cephes i0e/i1e idiom, Moshier 1989), each of 14 terms and
# summed by Clenshaw's recurrence (1955).  Interval i is (s_{i-1}, s_i]
# between the seams s, the first [0, 1], and t = (u - mid) * scale maps it
# onto [-1, 1]:
#   [0, 1]             B = x p(t),             u = x, t = 2x - 1
#   (1, 2], (2, 3.2]   B = p(t),               u = x
#   (3.2, 5] .. 1e3    B = 1 - p(t) / sqrt(x), u = 1/x
# Past 1e3, B = 1 - sum_k d_k x^-k / sqrt(x) for k < 7, with d_k = (-1)^k
# (a_k(0) + a_k(1)) / sqrt(2 pi) the summed coefficients of DLMF 10.40.1;
# the next term is under 1e-20 of the sum.  Row i of the table literal
# holds interval i's c_0..c_13 of p = sum c_k T_k(t): mpmath values at 40
# digits rounded once, which tests/test_cslnoise.py re-derives.
_RADIAL_SEAMS = np.array([1.0, 2.0, 3.2, 5.0, 8.0, 14.0, 30.0, 100.0, 1e3])
_RADIAL_INVERSE = 3  # the first interval in u = 1/x
_lo, _hi = np.append(0.0, _RADIAL_SEAMS[:-1]), _RADIAL_SEAMS.copy()
_lo[_RADIAL_INVERSE:], _hi[_RADIAL_INVERSE:] = 1.0 / _hi[_RADIAL_INVERSE:], 1.0 / _lo[_RADIAL_INVERSE:]
_RADIAL_MID, _RADIAL_SCALE = 0.5 * (_lo + _hi), 2.0 / (_hi - _lo)  # one entry per interval
_RADIAL_CHEBYSHEV = np.array(
    [
        # [0, 1]
        [0.4050804416853456, -0.08618207290737474, 0.008038406748850585, -0.0006500526981634368, 4.597856885297764e-05,
         -2.8776964825360424e-06, 1.61148711830525e-07, -8.1537197359565e-09, 3.7594164589290413e-10, -1.591137348564993e-11,
         6.221264679218952e-13, -2.2596364360053246e-14, 7.661171281568878e-16, -2.435047375547694e-17],
        # (1, 2]
        [0.40743677617862867, 0.07445833923332544, -0.006125274383953362, 0.000485556789004565, -3.518274597910969e-05,
         2.302237862032081e-06, -1.3606433168635043e-07, 7.294150469712193e-09, -3.5668007535631335e-10, 1.600213227178571e-11,
         -6.623407069203773e-13, 2.5422432426649774e-14, -9.09103177147254e-16, 3.041620644713677e-17],
        # (2, 3.2]
        [0.5279795711636924, 0.048003072748830616, -0.0034730582999476364, 0.00026069993366712536, -1.896259572908305e-05,
         1.3009606333377685e-06, -8.320240576206783e-08, 4.938579820448797e-09, -2.7190773327813095e-10, 1.3906865611667086e-11,
         -6.623696259266147e-13, 2.9465100457629424e-14, -1.2279699672081133e-15, 4.8091170852743035e-17],
        # (3.2, 5]
        [0.7707353217852676, -0.006388332294441555, -6.226687394673821e-05, -1.3710429396518337e-06, 1.2118984426452506e-07,
         9.575026012370807e-09, -9.438460496277338e-10, -2.359301244785821e-11, 8.937651580781533e-12, -5.710462887416331e-13,
         -2.0631822666082442e-14, 7.404431904906944e-15, -6.950572965173071e-16, 1.837047203320666e-17],
        # (5, 8]
        [0.7811008245865336, -0.004017396698070652, -2.0069349326320112e-05, -4.739495626127417e-07, -1.6429558170498706e-08,
         6.427018347170045e-10, 1.5236003439962712e-10, -1.1151331396762915e-12, -1.2724750781781487e-12, 4.8625225038615087e-14,
         9.568778066535761e-15, -1.1147172853868408e-15, -7.53462250858624e-18, 1.2307477249920605e-17],
        # (8, 14]
        [0.7878879012546021, -0.0027808702140922274, -8.321832993550477e-06, -9.758271967909471e-08, -2.5342610251379003e-09,
         -1.1989876577453506e-10, -6.112404342938017e-12, 1.336162603852495e-13, 8.273616781292225e-14, 5.326988770504193e-15,
         -7.652247083105261e-16, -8.828913718935283e-17, 1.04483385795578e-17, 1.0421681050765951e-18],
        # (14, 30]
        [0.7926034511223651, -0.0019391085145560535, -3.7713823877287594e-06, -2.6080891470008182e-08, -3.3950082925528805e-10,
         -6.925823323746258e-12, -2.051418519762672e-13, -8.615894433547846e-15, -5.143863346814723e-16, -4.121024958224371e-17,
         -3.4570405492598592e-18, -1.2948712565008058e-19, 3.979093887825801e-20, 1.0338809891361072e-20],
        # (30, 100]
        [0.795713395769252, -0.0011732494966332416, -1.3271113230988065e-06, -5.122812239269821e-09, -3.546277005472045e-11,
         -3.6264912806736794e-13, -4.98785013151528e-15, -8.735042511762362e-17, -1.8799096591560186e-18, -4.8518342720751354e-20,
         -1.4755806078363312e-21, -5.221061996670414e-23, -2.1294252357827985e-24, -9.946208157405365e-26],
        # (100, 1000]
        [0.7973352562030509, -0.00044974136636217755, -1.9132090894563908e-07, -2.7282317615146005e-10, -6.847044593785921e-13,
         -2.4887294116273398e-15, -1.191465438175113e-17, -7.103648196434553e-20, -5.083434299031134e-22, -4.2538563419859614e-24,
         -4.0826147479115365e-26, -4.42716650887871e-28, -5.360224638742036e-30, -7.176510747638379e-32],
    ]
)
_RADIAL_FAR = [0.7978845608028654, -0.09973557010035818, -0.018700419393817155, -0.011687762121135724, -0.012783489819992198,
              -0.02013399646648771, -0.041526367712130904]


def _taylor(coeffs: list, t: np.ndarray) -> np.ndarray:
    # t * sum_n coeffs[n] t^n by Horner's rule, in a new array
    acc = np.multiply(t, coeffs[-1])
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= t
        acc += c
    acc *= t
    return acc


def _clenshaw(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    # sum_k c[k, j] T_k(t[j]) by Clenshaw's recurrence, column j of c the coefficients at t[j]; overwrites t
    t2 = t + t
    b0, b1, b2 = np.empty_like(t), c[-1].copy(), np.zeros_like(t)
    for k in range(c.shape[0] - 2, 0, -1):
        np.multiply(t2, b1, out=b0)
        b0 -= b2
        b0 += c[k]
        b0, b1, b2 = b2, b0, b1
    t *= b1
    t += c[0]
    t -= b2
    return t


def _radial_bracket(x: np.ndarray) -> np.ndarray:
    # 1 - e^-x (I0(x) + I1(x)), in [0, 1], at x = R^2 / 2 rc^2: one Clenshaw pass up to 1e3, one Horner pass past it
    out = np.empty_like(x)
    near = x <= _RADIAL_SEAMS[-1]
    u = x[near]
    if u.size:
        i = np.searchsorted(_RADIAL_SEAMS, u)  # u in (s_{i-1}, s_i]
        inverse = i >= _RADIAL_INVERSE
        np.divide(1.0, u, out=u, where=inverse)  # elsewhere u stays x
        t = _RADIAL_MID.take(i)
        np.subtract(u, t, out=t)
        t *= _RADIAL_SCALE.take(i)
        p = _clenshaw(_RADIAL_CHEBYSHEV.T.take(i, axis=1), t)  # one contiguous row per term
        root = np.sqrt(u)
        root *= p
        np.subtract(1.0, root, out=p, where=inverse)
        np.multiply(u, p, out=p, where=i == 0)
        out[near] = p
    far = ~near
    w = x[far]
    if w.size:
        np.divide(1.0, w, out=w)  # 0 at x = inf, where the bracket is 1
        s = _taylor(_RADIAL_FAR[1:], w)
        s += _RADIAL_FAR[0]
        s *= np.sqrt(w, out=w)
        out[far] = np.subtract(1.0, s, out=s)
    return out


def _cube_bracket(z: np.ndarray) -> np.ndarray:
    # 1 - e^{-z^2} - sqrt(pi) z erf(z) at z = L / 2 rc; always <= 0
    out = np.empty_like(z)
    small = z < _SERIES_WINDOW
    zs = z[small]
    if zs.size:
        zs *= zs
        out[small] = _taylor(_CUBE_TAYLOR, zs)
    large = ~small
    zl = z[large]
    if zl.size:
        erf = np.ones_like(zl)
        below = zl < _ERF_ONE
        erf[below] = np.fromiter(map(math.erf, zl[below]), dtype=float)
        g = np.multiply(zl, zl)  # z^2 = inf below rc ~ 1e-154 m
        np.negative(g, out=g)
        np.exp(g, out=g)  # e^{-z^2}
        np.subtract(1.0, g, out=g)
        zl *= math.sqrt(math.pi)
        zl *= erf
        g -= zl
        out[large] = g
    return out


# ---------------------------------------------------------------------------
# closed forms


def _pair_psd(
    lam: float, mass: float, rc: np.ndarray, axial: np.ndarray, transverse: np.ndarray, rest: np.ndarray
) -> np.ndarray:
    # q^2 lam rest with q = hbar N rc, formed in rest's buffer; rest is axial * transverse
    if lam == 0.0:
        rest.fill(0.0)
        return rest
    q = np.multiply(rc, HBAR * (mass / M_NUCLEON))  # an overflow to inf is the caller's to report
    shrink = min(lam, 1.0)  # rest and lam rest are normal doubles where rest * shrink is
    low = None if rest.min(initial=math.inf) * shrink >= sys.float_info.min else rest * shrink < sys.float_info.min
    rest *= lam
    rest *= q
    rest *= q
    if low is not None:
        # rest ~ rc^-6 leaves the normal range near rc ~ 1e53 m, the PSD ~ rc^-4 only near 1e75 m: there each
        # factor takes one q; a zero factor gives an exact 0, even where q overflowed
        ql, al, tl = q[low], axial[low], transverse[low]
        zero = (al == 0.0) | (tl == 0.0)
        al *= ql
        tl *= ql
        al *= tl
        al *= lam
        al[zero] = 0.0
        rest[low] = al
    return rest


def _cylinder_psd(lam: float, geometry: Cylinder, rc: np.ndarray, axial_l2: np.ndarray, arm_count: int) -> np.ndarray:
    radius = geometry.radius
    x = np.multiply(rc, 2.0)
    x *= rc
    np.divide(radius * radius, x, out=x)  # overflows below rc ~ 1e-154 m: inf gives the right bracket, 1
    transverse = _radial_bracket(x)
    transverse /= radius
    transverse /= radius
    axial_l2 *= 4.0 * arm_count
    return _pair_psd(lam, geometry.mass, rc, axial_l2, transverse, np.multiply(axial_l2, transverse, out=x))


def _closed_form(rc: np.ndarray, lam: float, geometry: MassGeometry, arrangement, variant: Optional[str]) -> np.ndarray:
    # the one dispatch by geometry type, at a 1-d rc under its caller's np.errstate; MassArrangement.check passed its input
    if isinstance(geometry, HalfCylinderBar):
        if variant not in BAR_VARIANTS:
            raise ValueError(f"variant must be one of {BAR_VARIANTS}, got {variant!r}")
        halves = geometry.halves()
        if variant == "printed":
            # v, and 4v below rc ~ 1.1e-154 m, overflow to inf: the right limit
            v = np.multiply(rc, 16.0)
            v *= rc
            np.divide(geometry.length * geometry.length, v, out=v)
            axial_l2 = np.multiply(v, -4.0)
            np.expm1(axial_l2, out=axial_l2)
            axial_l2 *= -0.5
            np.negative(v, out=v)
            axial_l2 -= np.expm1(v, out=v)
            axial_l2 /= halves.length
            axial_l2 /= halves.length
            return _cylinder_psd(lam, halves, rc, axial_l2, 1)
        geometry = halves  # rederived: the cylinder pair of its halves, at the forced separation halves.length
    if isinstance(geometry, Cylinder):
        axial_l2 = _axial_over(arrangement.separation, geometry.length, rc, geometry.length)
        return _cylinder_psd(lam, geometry, rc, axial_l2, arrangement.arm_count)
    # a cube: w = rc bracket / side^2, where rc bracket -> -sqrt(pi) side/2 as rc -> 0, so it never underflows;
    # past z = 1e300 (where sqrt(pi) z may overflow) it is that limit to 1e-300
    side = geometry.side
    z = np.multiply(rc, 2.0)
    np.divide(side, z, out=z)
    w = _cube_bracket(z)
    w *= rc
    np.copyto(w, -0.5 * math.sqrt(math.pi) * side, where=z >= 1e300)
    w /= side
    w /= side
    axial = _axial_over(arrangement.separation, side, rc, side)
    axial *= 16.0
    rest = np.multiply(axial, w, out=z)
    rest *= w  # inf for sides below ~1e-79 m: the caller reports it
    return _pair_psd(lam, geometry.mass, rc, axial, np.multiply(w, w, out=w), rest)


def cylinder_pair_force_psd(params: CslParams, geometry: Cylinder, separation: float, arm_count: int = 1) -> FloatOrArray:
    """Two-sided CSL force PSD for coaxial cylinder pairs (N^2/Hz).

    One differential pair per arm; arm_count = 2 doubles the result for
    a two-arm interferometer.  Valid while the center-of-mass spread
    stays well below the correlation length (not checked at runtime).
    """
    return force_noise_psd(params, geometry, MassArrangement(separation, arm_count))


def cube_pair_force_psd(params: CslParams, geometry: Cube, separation: float) -> FloatOrArray:
    """Two-sided CSL force PSD for a cube pair read out differentially (N^2/Hz)."""
    return force_noise_psd(params, geometry, MassArrangement(separation))


def bar_force_psd(params: CslParams, geometry: HalfCylinderBar, variant: Optional[str] = DEFAULT_BAR_VARIANT) -> FloatOrArray:
    """Two-sided CSL force PSD driving a bar's fundamental mode (N^2/Hz).

    The bar (any other geometry raises TypeError) is modeled as two
    half-cylinders (length/2, mass/2) touching end to end.  Two published
    axial factors exist for this model; variant=None is the default:

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
    if not isinstance(geometry, HalfCylinderBar):  # else the arrangement's TypeError would name the separation, None
        raise TypeError(f"unsupported geometry {type(geometry).__name__}")
    return force_noise_psd(params, geometry, MassArrangement(forced_separation(geometry)), variant)


def force_noise_psd(
    params: CslParams, geometry: MassGeometry, arrangement: MassArrangement, bar_variant: Optional[str] = None
) -> FloatOrArray:
    """Dispatch to the closed form matching the geometry (two-sided, N^2/Hz).

    Returns a float for a scalar correlation length, else one PSD per entry.
    Raises as MassArrangement.check does; bar_variant=None is the default.
    """
    arrangement.check(geometry)
    variant = bar_variant or DEFAULT_BAR_VARIANT
    return _framed(params.correlation_length, lambda rc: _closed_form(rc, params.collapse_rate, geometry, arrangement, variant))
