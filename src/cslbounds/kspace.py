"""k-space quadrature oracle for the CSL force-noise PSD.

Evaluates the relative-coordinate force PSD

    S_FF = (hbar^2 lambda rc^3 / 2 pi^{3/2} m0^2)
           * int d^3k |mu(k)|^2 (1 - cos(a k_x)) k_x^2 e^{-rc^2 k^2}

directly from the mass-distribution form factors, independently of the
closed forms in ``cslnoise`` (which it exists to validate).  The
geometry makes the integral separate into one-dimensional factors:

  axial   int sinc^2(k l/2) (1 - cos(a k)) k^2 e^{-rc^2 k^2} dk
  radial  int k_rho [2 J1(k_rho R)/(k_rho R)]^2 e^{-rc^2 k_rho^2} dk_rho
  slab    int sinc^2(k L/2) e^{-rc^2 k^2} dk          (cube, twice)

One routine, _adaptive, integrates every factor on equal panels from 0
by the 31-point Gauss-Kronrod rule, in one pass per panel count.  The
embedded 15-point Gauss rule on the same nodes gives the error estimate
(the rule pair of QUADPACK, Piessens et al. 1983, tabulated as its qk31
constants correctly rounded, so the nodes are exactly antisymmetric and
the weights exactly symmetric; the tests hold its moments, summed in
mpmath, within 1e-16 of exact through degree 46, the Gauss rule's within
5e-17 through degree 29).  One product with the two weight columns forms
each panel's Kronrod sum and Kronrod - Gauss difference; a pass's value
adds the sums, its estimate the |differences|.  The panel count doubles only when that estimate
misses its target.  The radial and slab integrals and the axial sin^2
product stop at 1e-2 of the fixed tolerance REL_TOL; the axial cosine
modes stop at 1e-13 of the zero mode, because their sum cancels at
large rc.  Every estimate is at least 100 ulp of the integral of |f|.
Each integral stops at U = 7 Gaussian widths (rc k = U, e^-49 ~ 5e-22)
and is charged a bound on the rest.  Two measures keep the oscillatory
integrands tractable over the full parameter range:

* The axial factor is integrated in u = rc k over [0, U], so that the
  limits stay finite at any rc.  Where its fastest frequency (a+l)/rc is
  below 2U, it is the nonnegative 4 sin^2(lu/2rc) sin^2(au/2rc) e^{-u^2},
  one pass, charged past U the bound from min(4, 4 (la/4rc^2)^2 u^4).
  Elsewhere, or where that product's bulk would underflow (rc from about
  1e76 m for the bundled bodies), it is expanded into pure cosine modes
  (frequencies 0, l, a, a+l, |a-l|).  A mode at 2U/rc or faster is
  dropped and charged e^{-U^2} of the zero mode, its bound.
* The radial and slab integrands decay only as 1/k^2 before the
  Gaussian cuts off, with bounded oscillation on top.  They are
  resolved literally out to a fixed phase (6000 rad); the remainder,
  with the oscillation averaged out, is e^{-(s z)^2} / z^2, whose
  integral has a closed form in erfc.  The neglected ripple is bounded
  by integration by parts and charged to the reported error.

Every integrand is an rc-free shape (e^{-u^2} for the axial factor,
J1(z)^2 / z for the radial and sinc^2 u for the slab integral) times a
factor that carries rc (cos(u b/rc), the sin^2 product or
e^{-(s z)^2}).  A caller hands _adaptive the shape, the factor, a grid,
a span and a least panel count; the routine lays the panels, of dyadic
width w / 2^k, w = 6000/478 (radial, slab) or U/4 (axial), and
multiplies the shape into the factor's values in place: a factor returns
a new array, never a table view (a table is read-only; writing into one
would raise).  Its first pass takes the coarsest
width that lays the least count over [0, span] (at least 8 over
[0, min(U/s, 6000)]; for the axial factor at least 4 over [0, U], more
the faster it oscillates), rounded up to whole panels that end at hi,
and each doubling the next, over the same [0, hi].  So every pass is a
prefix of one table per (shape, width) of nodes and shape values,
filled on first use and shared by every rc; the zero mode, free of rc,
is integrated once per process, on the first result's budget; a body's
cosine modes, free of rc too, are merged on its first use and kept for the last 64.  At s hi <= 1 (hi = 6000),
the radial and slab first pass sums rc-free moment tables instead:
e^{-(s z)^2} = sum_{k<16} (-(s hi)^2)^k (z/hi)^{2k} / k! (DLMF 4.2.19),
whose first dropped term is under 1e-18 of the sum; it lies within
2e-15 of the direct pass, its estimate within 1e-5.  Each result is
still charged every node of its passes, and only quadrature nodes
count as evaluations.

The J1 and sinc^2 kernels of the shapes take arrays and skip domain
checks.  Their accuracy targets, checked by the test suite against
extended-precision references:
  _j1_array   : absolute error <= 2e-15 on [0, 1e3], <= 1e-13 on (1e3, 1e6]
  _sinc2_array: (sin(x)/x)^2, absolute error <= 2e-14, finite at x = 0

The reported relative error is the sum of the quadrature estimates and
these tail bounds.  It must stay within REL_TOL, and one result may
spend at most BUDGET integrand evaluations; both are fixed constants.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache, partial

import numpy as np

from .constants import HBAR, M_NUCLEON
from .cslnoise import CslParams, Cube, Cylinder, HalfCylinderBar, MassArrangement, MassGeometry, _Record
from .errors import QuadratureError

# Oscillation phase one first-pass panel spans: about the widest at which
# the embedded 15-point Gauss rule meets its target in one pass.  The
# cosine modes' target is the tighter, so their panels span less.
_MODE_PANEL_PHASE = 4.0 * math.pi
_PANEL_PHASE = 8.0 * math.pi
# Window U of every integral in Gaussian widths rc k; what lies past it is bounded and charged.
_K_CUTOFF = 7.0
_GAUSS_AT_U = math.exp(-_K_CUTOFF**2)  # e^{-U^2}, about 5e-22
# Phase out to which oscillatory 1/k^2 integrands are resolved literally.
_RESOLVED_PHASE = 6000.0
_LEVEL0_PANELS = int(2.0 * _RESOLVED_PHASE / _PANEL_PHASE) + 1  # first-pass panels there
# Level-0 width and panels of the cosine modes on [0, U]; level 1 lays 8, all the fastest retained mode needs
_MODE_GRID = (_K_CUTOFF / 4, 4)
_THREE_PI_4 = 2.356194490192344929  # 3*pi/4, the phase lag of J1's Hankel expansion
# Hankel-expansion coefficients A_m for nu=1 (mu=4), used by _j1_array:
# A_0 = 1, A_m = A_{m-1} * (mu - (2m-1)^2) / (8m)
_J1_HANKEL = [1.0]
for _m in range(1, 12):
    _J1_HANKEL.append(_J1_HANKEL[-1] * (4.0 - (2 * _m - 1) ** 2) / (8.0 * _m))
# Starting order of _j1_array's backward recurrence: J_72(30) = 3.3e-21.
_J1_MILLER_ORDER = 72
# |J1(z)^2 - (1 - sin 2z)/(pi z)| <= _J1SQ_TAIL_C / z^2 for z >= 1000.
_J1SQ_TAIL_C = 1.0
# The radial and slab integrals stop at this fraction of REL_TOL.
_SUB_TOL = 1e-2
# k < 16 in e^{-(s z)^2} = sum_k (-(s hi)^2)^k (z/hi)^{2k} / k!: at s hi <= 1 the first dropped term is under 1e-18 of the sum
_MOMENT_POWERS = np.arange(16.0)

# Relative-error target of every oracle result, and the integrand
# evaluations one result may spend: fixed, read at call time.
REL_TOL = 1e-6
BUDGET = 2**24
# (shape, panel width) -> read-only Kronrod nodes from 0 and the shape on them, filled by _shape_nodes
_TABLES = {}
# (value, error, evaluations) of the zero cosine mode, free of rc and geometry: filled on first use
_ZERO_MODE = []
_MOMENTS = {}  # (shape, level-0 width) -> Kronrod sums (16,) and per-panel Kronrod - Gauss (panels, 16) of shape (z/hi)^{2k} / k!
_set_slot = object.__setattr__  # one result per call: three slot writes take half the time of _set's keywords


class QuadratureResult(_Record):
    """Value with its achieved relative-error estimate and cost."""

    __slots__ = ("value", "rel_error", "evaluations")

    def __init__(self, value: float, rel_error: float, evaluations: int):
        _set_slot(self, "value", value)
        _set_slot(self, "rel_error", rel_error)
        _set_slot(self, "evaluations", evaluations)


class _Budget:
    def __init__(self, limit: int):
        self.limit = int(limit)
        self.used = 0

    def charge(self, n: int) -> bool:
        if self.used + n > self.limit:
            return False
        self.used += n
        return True


# QUADPACK's qk31 rule (Piessens et al. 1983), each constant correctly rounded from 60 digits: the abscissae
# from 1 down to 0, the Kronrod weights on them and the Gauss weights on every second one, mirrored below.
_XGK = np.array([
    0.9980022986933971, 0.9879925180204854, 0.9677390756791391, 0.937273392400706,
    0.8972645323440819, 0.8482065834104272, 0.790418501442466, 0.7244177313601701,
    0.650996741297417, 0.5709721726085388, 0.4850818636402397, 0.3941513470775634,
    0.29918000715316884, 0.20119409399743451, 0.1011420669187175, 0.0,
])
_WGK = np.array([
    0.005377479872923349, 0.015007947329316122, 0.02546084732671532, 0.03534636079137585,
    0.04458975132476488, 0.05348152469092809, 0.06200956780067064, 0.06985412131872826,
    0.07684968075772038, 0.08308050282313302, 0.08856444305621176, 0.09312659817082532,
    0.09664272698362368, 0.09917359872179196, 0.10076984552387559, 0.10133000701479154,
])
_WG = np.array([
    0.03075324199611727, 0.07036604748810812, 0.10715922046717194, 0.13957067792615432,
    0.16626920581699392, 0.1861610000155622, 0.19843148532711158, 0.2025782419255613,
])
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))  # ascending, exactly antisymmetric, an exact 0 at the centre
# Kronrod weights and Kronrod minus Gauss weights, exactly symmetric; the Gauss weight is 0 on a Kronrod-only node
_WEIGHTS, _WEIGHTS_DIFF = (np.concatenate((w[:-1], w[::-1])) for w in (_WGK, _WGK - np.column_stack((np.zeros(8), _WG)).ravel()))
_RULES = np.column_stack((_WEIGHTS, _WEIGHTS_DIFF))  # fx @ _RULES: per panel, Kronrod sum and Kronrod - Gauss
_EPS = float(np.finfo(float).eps)


def _level(span, least, width):
    """The coarsest level whose panels, of width / 2^level, lay at least `least` on [0, span], rounded up to whole panels."""
    # ceil(span / w_k) >= least  <=>  2^k > (least - 1) w_0 / span, from logarithms: 1 / span may overflow;
    # a rounded logarithm can fall one level short where the two sides tie
    level = max(0, math.floor(math.log2((least - 1) * width) - math.log2(span)) + 1)
    return level + (math.ceil(span / math.ldexp(width, -level)) < least)


def _shape_nodes(shape, grid, level, panels):
    """Half-width, Kronrod nodes and shape of the first `panels` of grid (w, n)'s level k: n 2^k panels of width w / 2^k."""
    width = math.ldexp(grid[0], -level)
    x, values = _TABLES.get((shape, width), (_NODES[:0], _NODES[:0]))
    have = x.size // _NODES.size
    if have < panels:  # grow to twice the size or more, but never past the whole level
        # edges i w, not a slice of the whole level; level 0 repeats linspace(0, 6000, 479) or (0, U, 5) bit for bit
        edges = np.arange(have, min(max(panels, 2 * have), grid[1] << level) + 1) * width
        new = ((0.5 * (edges[:-1] + edges[1:]))[:, None] + 0.5 * width * _NODES[None, :]).ravel()
        x, values = np.concatenate((x, new)), np.concatenate((values, shape(new)))
        x.flags.writeable = values.flags.writeable = False
        _TABLES[shape, width] = x, values
    return 0.5 * width, x[: panels * _NODES.size], values[: panels * _NODES.size]


def _adaptive(shape, factor, grid, span, least, tol_abs, tol_rel, budget, what, nonnegative=False):
    """Composite Gauss-Kronrod quadrature of f = shape(x) factor(x) on whole panels from 0: (value, error, hi).

    The first pass lays the coarsest level of the grid with `least` panels over [0, span] (_level),
    rounded up to whole panels that end at hi, at most the level's end; each doubling moves down one
    level over the same [0, hi].  A pass reads the shape on a prefix of its table, multiplies it by the
    factor and charges the budget every node, tabulated or not.  Its error estimate, the sum over panels
    of |Kronrod - embedded Gauss| and never less than 100 ulp of the integral of |f|, passes at most the
    largest of tol_abs, tol_rel times the integral of |f| and that floor; a caller that knows f >= 0 says
    so, and the value is that integral.  what names the integral in an error message.
    """
    level = _level(span, least, grid[0])
    width = math.ldexp(grid[0], -level)
    panels = min(math.ceil(span / width), grid[1] << level)
    hi = panels * width
    err = value = None
    while True:
        if not budget.charge(panels * _NODES.size):
            achieved = None if err is None or value == 0.0 else err / abs(value)
            raise QuadratureError(
                f"evaluation budget exhausted while integrating {what}"
                + ("" if achieved is None else f" (achieved {achieved:.3e})"),
                achieved_rel_error=achieved,
                evaluations=budget.used,
            )
        half, x, values = _shape_nodes(shape, grid, level, panels)
        fx = factor(x)  # a new array, never a table view: the tables are read-only
        fx *= values
        fx = fx.reshape(panels, _NODES.size)
        rules = fx @ _RULES
        value = half * float(rules[:, 0].sum())
        # |f| through the same product, whose bits are value's where f >= 0; a one-vector product may round otherwise
        magnitude = value if nonnegative else half * float((np.abs(fx) @ _RULES)[:, 0].sum())
        floor = 100.0 * _EPS * magnitude
        err = max(half * float(np.abs(rules[:, 1]).sum()), floor)
        if err <= max(tol_abs, tol_rel * magnitude, floor):
            return value, err, hi
        level += 1
        panels *= 2


def _gauss(u):
    return np.exp(-u * u)


# The factors: each forms its value in one new array, which _adaptive multiplies by the shape in place.
def _cutoff(s, z):  # e^{-(s z)^2}
    out = np.multiply(s, z)
    return np.exp(np.negative(np.square(out, out=out), out=out), out=out)


def _cosine(ratio, u):  # cos(ratio u)
    out = np.multiply(ratio, u)
    return np.cos(out, out=out)


def _sin2_product(hl, ha, u):  # 4 sin^2(hl u) sin^2(ha u) as (2 sin(hl u) sin(ha u))^2, with one scratch array
    out, scratch = np.multiply(hl, u), np.multiply(ha, u)
    np.sin(out, out=out)
    out *= 2.0
    out *= np.sin(scratch, out=scratch)
    return np.square(out, out=out)


def _cos_gauss_moment(ratio, tol_abs, budget):
    """int_0^inf cos(ratio u) e^{-u^2} du: over [0, U] on at least max(4, ratio U / 4 pi) whole panels.

    This is rc * int_0^inf cos(b k) e^{-(rc k)^2} dk at ratio = b/rc; the
    part past U = _K_CUTOFF, at most e^{-U^2} / 2U, is charged.
    """
    least = max(4, int(ratio * _K_CUTOFF / _MODE_PANEL_PHASE) + 1)
    what = f"cosine mode at {ratio:g} rad per r_c"
    value, err, _ = _adaptive(_gauss, partial(_cosine, ratio), _MODE_GRID, _K_CUTOFF, least, tol_abs, 0.0, budget, what, ratio == 0.0)
    return value, err + _GAUSS_AT_U / (2.0 * _K_CUTOFF)


@lru_cache(maxsize=64, typed=True)  # typed: a float body's rounded sums may merge modes its equal int body's keep apart
def _cosine_modes(separation, length):
    """Zero mode's coefficient and the other modes (b, c_b) of (1 - cos(length k))(1 - cos(separation k)): free of rc, merged once per body."""
    coef: dict[float, float] = {}
    modes = ((0.0, 1.0), (length, -1.0), (separation, -1.0), (separation + length, 0.5), (abs(separation - length), 0.5))
    for b, c in sorted(modes):  # equal frequencies merge; the keys stay ascending, the zero mode's first
        coef[b] = coef.get(b, 0.0) + c
    c0 = coef.pop(0.0)
    return c0, tuple((b, c) for b, c in coef.items() if c != 0.0)


def _axial_mode_sum(separation, length, rc, budget):
    """rc * sum_b c_b M(b) for (1 - cos(length k))(1 - cos(separation k)).

    M(b) = int_0^inf cos(b k) e^{-(rc k)^2} dk.  Returns (value,
    abs_error); exact zero coefficients (separation = 0) yield an exact
    zero without integrating.  Where every mode is resolved, (separation +
    length)/rc < 2U, one pass of their nonnegative sum 4 sin^2(hl u)
    sin^2(ha u) e^{-u^2}, hl = length/2rc and ha = separation/2rc, stands
    in for them: it does not cancel, unless it would underflow.
    """
    c0, modes = _cosine_modes(separation, length)
    if c0 == 0.0:  # separation = 0: then every coefficient cancels
        return 0.0, 0.0
    fastest, hl, ha = (separation + length) / rc, 0.5 * length / rc, 0.5 * separation / rc
    # the product's bulk, about 4 (min(hl, 1) min(ha, 1))^2, must be a normal double; below that the modes cancel, and raise
    if fastest < 2.0 * _K_CUTOFF and (min(hl, 1.0) * min(ha, 1.0)) ** 2 >= sys.float_info.min:
        least = max(4, int(fastest * _K_CUTOFF / _MODE_PANEL_PHASE) + 1)  # the fastest mode's, as _cos_gauss_moment lays it
        value, err, _ = _adaptive(_gauss, partial(_sin2_product, hl, ha), _MODE_GRID, _K_CUTOFF, least, 0.0, _SUB_TOL * REL_TOL, budget, "axial sin^2 product", True)
        # past U the factor is at most min(4, 4 (hl ha)^2 u^4), and int_U^inf u^4 e^{-u^2} du <= U^3 e^{-U^2}
        return value, err + 4.0 * min(0.5 / _K_CUTOFF, (hl * ha) ** 2 * _K_CUTOFF**3) * _GAUSS_AT_U
    # the zero mode never cancels away when any mode survives; budget is charged its nodes all the same
    if _ZERO_MODE and budget.charge(_ZERO_MODE[2]):
        m0, e0, _ = _ZERO_MODE
    else:  # a cold memo, or a budget short of the mode's nodes, which then raises what a cold memo raises
        used = budget.used
        m0, e0 = _cos_gauss_moment(0.0, 0.0, budget)
        _ZERO_MODE[:] = m0, e0, budget.used - used
    tol_abs = 1e-13 * abs(m0)
    total = c0 * m0
    err = abs(c0) * e0
    for b, c in modes:
        ratio = b / rc
        if ratio >= 2.0 * _K_CUTOFF:  # Gaussian-suppressed mode: |M(b)| = M(0) e^{-(b/2rc)^2} <= M(0) e^{-U^2}
            err += abs(c) * abs(m0) * _GAUSS_AT_U
            continue
        v, e = _cos_gauss_moment(ratio, tol_abs, budget)
        total += c * v
        err += abs(c) * e
    return total, err


def _moment_pass(shape, s, grid, budget):
    """_adaptive's first pass of shape(z) e^{-(s z)^2} over level 0, from rc-free moments: (value, error, hi), or None on a miss.

    Its Kronrod sum is sum_k (-(s hi)^2)^k S_k, each panel's Kronrod - Gauss difference sum_k (-(s hi)^2)^k D_k, for S_k and
    D_k those of shape(z) (z/hi)^{2k} / k!, each S_k a pairwise sum over the panels.  A miss or a short budget charges nothing.
    """
    half, hi, key = 0.5 * grid[0], grid[0] * grid[1], (shape, grid[0])
    if key not in _MOMENTS:
        _, x, values = _shape_nodes(shape, grid, 0, grid[1])
        k = _MOMENT_POWERS[:, None]
        rules = (values * (x / hi) ** (2.0 * k) / np.cumprod(np.maximum(k, 1.0), axis=0)).reshape(k.size, grid[1], -1) @ _RULES
        _MOMENTS[key] = rules[..., 0].copy().sum(axis=1), rules[..., 1].T.copy()
    c = (-((s * hi) ** 2)) ** _MOMENT_POWERS
    value = half * float(_MOMENTS[key][0] @ c)
    err = max(half * float(np.abs(_MOMENTS[key][1] @ c).sum()), 100.0 * _EPS * value)
    return (value, err, hi) if err <= max(_SUB_TOL * REL_TOL, 100.0 * _EPS) * value and budget.charge(grid[1] * _NODES.size) else None


def _resolved_with_tail(shape, s, divisor, remainder, majorant, budget, what):
    """(value, error) of int_0^inf shape(z) e^{-(s z)^2} dz, shape(z) ~ (1 - ripple(2z)) / (divisor z^2).

    The integrand is resolved on whole panels out to hi, min(U/s, _RESOLVED_PHASE)
    rounded up to them, U = _K_CUTOFF.  Past hi < U/s the averaged 1/z^2 tail
    is added in closed form; the dropped ripple is bounded by parts, and
    remainder / z^2 bounds the error of the asymptotic form itself.  Past
    hi >= U/s, shape <= majorant(z) with majorant(z) / z nonincreasing,
    and majorant(hi) e^{-v^2} / 2 s v at v = s hi is charged.
    """
    zcap = _K_CUTOFF / s if s else math.inf  # s underflows to 0 for an r_c far below the body
    if zcap == 0.0:  # s = inf: the range is empty
        return 0.0, 0.0
    span, grid = min(zcap, _RESOLVED_PHASE), (_RESOLVED_PHASE / _LEVEL0_PANELS, _LEVEL0_PANELS)
    first = _moment_pass(shape, s, grid, budget) if s * span <= 1.0 else None  # there the first pass spans level 0
    value, err, hi = first or _adaptive(shape, partial(_cutoff, s), grid, span, 8, 0.0, _SUB_TOL * REL_TOL, budget, what, True)
    v = s * hi
    gauss = math.exp(-v * v)
    if zcap > hi:
        # int_hi^inf e^{-(s z)^2} / z^2 dz = e^{-v^2} / hi - s sqrt(pi) erfc(v); the terms cancel,
        # and v^2 is rounded inside the exponential: good to (v^2 + 4) ulp of e^{-v^2} / hi
        value += (gauss / hi - s * math.sqrt(math.pi) * math.erfc(v)) / divisor
        err += ((v * v + 4.0) * _EPS * gauss / hi + gauss / hi**2) / divisor + remainder / hi**2
    else:
        err += majorant(hi) * gauss / (2.0 * v) / s
    return value, err


def _j1_array(x: np.ndarray) -> np.ndarray:
    """Vectorized J1 without domain checks (internal quadrature kernel).

    Power series on [0, 4], whose terms there stay below 5; Miller's
    backward recurrence from order 72, normalised by J0 + 2 sum J_2k = 1,
    on (4, 30]; the Hankel expansion beyond.  Each branch holds about
    1e-15 absolute error where it is used.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 4.0
    xs = x[small]
    if xs.size:
        term = 0.5 * xs
        total = term.copy()
        q = 0.25 * xs * xs
        for k in range(1, 24):
            term = term * (-q) / (k * (k + 1))
            total += term
        out[small] = total
    mid = ~small & (x <= 30.0)
    xm = x[mid]
    if xm.size:
        two_over_x = 2.0 / xm
        upper = np.zeros_like(xm)
        j = np.ones_like(xm)
        even = np.zeros_like(xm)
        for n in range(_J1_MILLER_ORDER, 1, -1):
            # J_{n-1} = (2n/x) J_n - J_{n+1}, up to a common factor
            j, upper = n * two_over_x * j - upper, j
            if n % 2 == 1:
                even += j
        j0 = two_over_x * j - upper
        out[mid] = j / (j0 + 2.0 * even)
    big = x > 30.0
    xl = x[big]
    if xl.size:
        inv2 = 1.0 / (xl * xl)
        sp = np.zeros_like(xl)
        sq = np.zeros_like(xl)
        for k in range(5, -1, -1):
            sign = 1.0 if k % 2 == 0 else -1.0
            sp = sp * inv2 + sign * _J1_HANKEL[2 * k]
            sq = sq * inv2 + sign * _J1_HANKEL[2 * k + 1]
        sq /= xl
        w = xl - _THREE_PI_4
        out[big] = np.sqrt(2.0 / (math.pi * xl)) * (sp * np.cos(w) - sq * np.sin(w))
    return out


def _sinc2_array(x: np.ndarray) -> np.ndarray:
    """Vectorized (sin(x)/x)^2 (internal quadrature kernel)."""
    x = np.asarray(x, dtype=float)
    q = x * x
    small = q < 1e-6
    out = np.empty_like(x)
    out[small] = (1.0 - q[small] / 6.0) ** 2
    xl = x[~small]
    out[~small] = (np.sin(xl) / xl) ** 2
    return out


def _j1_squared_over_z(z):
    return _j1_array(z) ** 2 / z


def _disc_radial_integral(radius, rc, budget):
    """Phi = int_0^inf J1(z)^2 e^{-(s z)^2} dz / z with s = rc/radius.

    The full radial factor is (8 pi / radius^2) * Phi.  The tail uses J1(z)^2 <= z^2/4 past the window,
    else J1(z)^2 = (1 - sin 2z)/(pi z) + eps(z), |eps(z)| <= _J1SQ_TAIL_C / z^2.
    """
    what = "radial form-factor integral"
    return _resolved_with_tail(_j1_squared_over_z, rc / radius, math.pi, 0.5 * _J1SQ_TAIL_C, lambda z: 0.25 * z, budget, what)


def _slab_integral(side, rc, budget):
    """T_half = int_0^inf sinc^2(k side/2) e^{-(rc k)^2} dk via u = k side/2; sinc^2 u = (1 - cos 2u) / 2u^2 <= 1."""
    value, err = _resolved_with_tail(_sinc2_array, 2.0 * rc / side, 2.0, 0.0, lambda u: 1.0, budget, "slab form-factor integral")
    return (2.0 / side) * value, (2.0 / side) * err


def _rel(err, value):
    if value == 0.0:
        return 0.0 if err == 0.0 else math.inf
    return abs(err / value)


def _check_rel_err(rel_err: float, budget: _Budget) -> None:
    if not math.isfinite(rel_err) or rel_err > REL_TOL:
        raise QuadratureError(
            f"quadrature reached relative error {rel_err:.3e}, above the target {REL_TOL:.3e}",
            achieved_rel_error=rel_err,
            evaluations=budget.used,
        )


def force_psd_by_quadrature(params: CslParams, geometry: MassGeometry, arrangement: MassArrangement) -> QuadratureResult:
    """Two-sided CSL force PSD by direct k-space quadrature (N^2/Hz).

    Independent numerical route used to validate the closed forms; the
    reported relative error includes both quadrature estimates and the
    certified bounds on every dropped oscillatory contribution.  The
    radial and slab integrals and the axial sin^2 product are driven to 1e-2
    of REL_TOL, the axial cosine modes to 1e-13 of the zero mode (integrated
    once per process, yet charged to every result).  A result trusts its inputs, validated
    when they were built: a bar checked its halves once, at construction.
    It evaluates under one np.errstate(all="ignore"), whatever np.seterr the caller set.

    Raises ValueError for an array of correlation lengths or an
    arrangement the geometry does not take, and QuadratureError if BUDGET
    integrand evaluations run out before those targets are met, or if
    the reported relative error exceeds REL_TOL.
    """
    lam = params.collapse_rate
    rc = params.correlation_length
    if isinstance(rc, np.ndarray):  # CslParams stores a scalar as a float
        raise ValueError(f"the quadrature oracle takes one correlation length, got an array of {rc.size}")
    arrangement.check(geometry)
    if isinstance(geometry, HalfCylinderBar):  # the shared model: two touching half-cylinders
        geometry = geometry.halves()
    if isinstance(geometry, Cylinder):
        ell = geometry.length
    elif isinstance(geometry, Cube):
        ell = geometry.side
    else:
        raise TypeError(f"unsupported geometry {type(geometry).__name__}")
    if lam == 0.0:
        return QuadratureResult(0.0, 0.0, 0)

    budget = _Budget(BUDGET)
    with np.errstate(all="ignore"):  # every numpy evaluation of the oracle; the rest is float arithmetic
        axial, axial_err = _axial_mode_sum(arrangement.separation, ell, rc, budget)
        if axial == 0.0:
            if axial_err == 0.0:  # the coefficients cancel
                return QuadratureResult(0.0, 0.0, budget.used)
            _check_rel_err(math.inf, budget)  # a sum that cancelled to 0.0: no radial or slab factor mends it
        if isinstance(geometry, Cylinder):
            radial, radial_err = _disc_radial_integral(geometry.radius, rc, budget)
            perp_full = 2.0 * math.pi * (4.0 / (geometry.radius * geometry.radius)) * radial
            perp_rel_err = _rel(radial_err, radial)
        else:
            t_half, t_err = _slab_integral(ell, rc, budget)
            perp_full = (2.0 * t_half) * (2.0 * t_half)
            perp_rel_err = 2.0 * _rel(t_err, t_half)
    rel_err = _rel(axial_err, axial) + perp_rel_err

    # S_FF = q^2 B with q = hbar N rc (N nucleons) and B the rest; axial
    # carries the third power of rc.  q underflows only below rc ~ 1e-300 m,
    # and q * (q * B) underflows only where S_FF itself does, unless B ~ rc^-6
    # does first, at large rc; then q goes into the axial and the radial or slab factor.
    q = HBAR * (geometry.mass / M_NUCLEON) * rc
    axial_full = 2.0 * (2.0 / (ell * ell)) * axial
    rest = lam / (2.0 * math.pi**1.5) * axial_full * perp_full * arrangement.arm_count
    value = q * (q * rest) if rest >= sys.float_info.min else (q * axial_full) * (q * perp_full) * lam / (2.0 * math.pi**1.5) * arrangement.arm_count
    _check_rel_err(rel_err, budget)
    return QuadratureResult(value, rel_err, budget.used)
