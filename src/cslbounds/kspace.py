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

Each factor is integrated on equal panels from 0 by the 31-point
Gauss-Kronrod rule, in one pass per panel count.  The embedded 15-point
Gauss rule on the same nodes gives the error estimate (the rule pair of
QUADPACK, Piessens et al. 1983; the Kronrod nodes are computed at import
by Laurie's algorithm, Math. Comp. 66, 1997).  The panel count doubles
only when that estimate misses its target.  The radial and slab
integrals stop at 1e-2 of the fixed tolerance REL_TOL; the axial cosine
modes stop at 1e-13 of the zero mode, because their sum cancels at
large rc.  Every estimate is at least 100 ulp of the integral of |f|.
Each integral stops at U = 7 Gaussian widths (rc k = U, e^-49 ~ 5e-22)
and is charged a bound on the rest.  Two measures keep the oscillatory
integrands tractable over the full parameter range:

* The axial trig product is expanded into pure cosine modes
  (frequencies 0, l, a, a+l, |a-l|), integrated in u = rc k over
  [0, U], so that the limits stay finite at any rc.  A mode at 2U/rc
  or faster is dropped and charged e^{-U^2} of the zero mode, its bound.
* The radial and slab integrands decay only as 1/k^2 before the
  Gaussian cuts off, with bounded oscillation on top.  They are
  resolved literally out to a fixed phase (6000 rad); the remainder,
  with the oscillation averaged out, is e^{-(s z)^2} / z^2, whose
  integral has a closed form in erfc.  The neglected ripple is bounded
  by integration by parts and charged to the reported error.

Every integrand is an rc-free shape (e^{-u^2} for the cosine modes,
J1(z)^2 for the radial and sinc^2 u for the slab integral) times a
factor that carries rc (cos(u b/rc) or e^{-(s z)^2}).  Its panels have
a dyadic width w / 2^k, w = 6000/478 (radial, slab) or U/4 (modes).
The first pass takes the coarsest that lays enough panels over the
range (at least 8 over [0, min(U/s, 6000)]; for a mode at least 4 over
[0, U], more the faster it oscillates), rounded up to whole panels, and
each doubling the next.  So every pass is a prefix of one table per
(shape, width) of nodes and shape values, filled on first use and
shared by every rc; the zero mode, free of rc, is integrated once per
process.  Each result is still charged every node of its passes, and
only quadrature nodes count as evaluations.  A pass with no negative
node takes its value as the integral of |f|.

The reported relative error is the sum of the quadrature estimates and
these tail bounds.  It must stay within REL_TOL, and one result may
spend at most BUDGET integrand evaluations; both are fixed constants.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .constants import HBAR, M_NUCLEON
from .cslnoise import CslParams, Cube, Cylinder, HalfCylinderBar, MassArrangement, MassGeometry, _Record
from .errors import QuadratureError
from .specfun import _j1_array, _sinc2_array

# Gauss points n of the (2n+1)-point Gauss-Kronrod pair.
_GAUSS_POINTS = 15
# Oscillation phase one first-pass panel spans: about the widest at which
# the embedded 15-point Gauss rule meets its target in one pass.  The
# cosine modes' target is the tighter, so their panels span less.
_MODE_PANEL_PHASE = 4.0 * math.pi
_PANEL_PHASE = 8.0 * math.pi
# Window U of every integral in Gaussian widths rc k; what lies past it is bounded and charged.
_K_CUTOFF = 7.0
# Phase out to which oscillatory 1/k^2 integrands are resolved literally.
_RESOLVED_PHASE = 6000.0
_LEVEL0_PANELS = int(2.0 * _RESOLVED_PHASE / _PANEL_PHASE) + 1  # first-pass panels there
# Level-0 width and panels of the cosine modes on [0, U]; level 1 lays 8, all the fastest retained mode needs
_MODE_GRID = (_K_CUTOFF / 4, 4)
# |J1(z)^2 - (1 - sin 2z)/(pi z)| <= _J1SQ_TAIL_C / z^2 for z >= 1000.
_J1SQ_TAIL_C = 1.0
# The radial and slab integrals stop at this fraction of REL_TOL.
_SUB_TOL = 1e-2

# Relative-error target of every oracle result, and the integrand
# evaluations one result may spend: fixed, read at call time.
REL_TOL = 1e-6
BUDGET = 2**24
# (shape, panel width) -> read-only Kronrod nodes from 0 and the shape on them, filled by _shape_nodes
_TABLES = {}
# (value, error, evaluations) of the zero cosine mode, free of rc and geometry: filled on first use
_ZERO_MODE = []
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


def _interpolatory_weights(nodes):
    """Weights on [-1, 1] that integrate every polynomial of degree below len(nodes) exactly."""
    m = nodes.size
    legendre = np.empty((m, m))
    legendre[0] = 1.0
    legendre[1] = nodes
    for k in range(1, m - 1):
        legendre[k + 1] = ((2 * k + 1) * nodes * legendre[k] - k * legendre[k - 1]) / (k + 1)
    moments = np.zeros(m)
    moments[0] = 2.0
    return np.linalg.solve(legendre, moments)


def _gauss_kronrod(n):
    """(2n+1)-point Gauss-Kronrod rule on [-1, 1]: nodes, Kronrod weights, Kronrod minus Gauss weights.

    Laurie's algorithm (Math. Comp. 66, 1997) extends the Legendre
    recurrence to the Jacobi-Kronrod matrix, whose eigenvalues are the
    Kronrod nodes; the n Gauss nodes are every second node.
    """
    i = np.arange(1, 2 * n + 1, dtype=float)
    a = np.zeros(2 * n + 1)
    b = np.concatenate(([2.0], i * i / (4.0 * i * i - 1.0)))  # Legendre
    # only the first ceil(3n/2) + 1 coefficients enter; the rest are computed
    b[(3 * n + 1) // 2 + 1 :] = 0.0
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            l = m - k
            u += (a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k] - b[l] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            l = m - k
            j = n - 1 - l
            u -= (a[k + n + 1] - a[l]) * t[j + 1] + b[k + n + 1] * s[j + 1] - b[l] * s[j + 2]
            s[j + 1] = u
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    off = np.sqrt(b[1:])
    nodes = np.linalg.eigvalsh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    kronrod = _interpolatory_weights(nodes)
    gauss = np.zeros_like(kronrod)
    gauss[1::2] = _interpolatory_weights(nodes[1::2])
    return nodes, kronrod, kronrod - gauss


_NODES, _WEIGHTS, _WEIGHTS_DIFF = _gauss_kronrod(_GAUSS_POINTS)
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


def _adaptive(f, shape, grid, level, panels, tol_abs, tol_rel, budget, what):
    """Composite Gauss-Kronrod quadrature of f(x, shape(x)) on equal panels from 0: (value, error).

    One pass evaluates the Kronrod rule on the first `panels` panels of
    the grid's level, a prefix of the shape's table, and charges the
    budget every node, tabulated or not; each doubling moves down one
    level.  The error estimate of a pass is the sum over panels of
    |Kronrod - embedded Gauss|, and never less than 100 ulp of the
    integral of |f|.  The pass is accepted when that estimate is at most
    the largest of tol_abs, tol_rel times the integral of |f| and that
    floor.  Only an error message reads what: a str, or what() if not.
    """
    err = value = None
    while True:
        if not budget.charge(panels * _NODES.size):
            achieved = None if err is None or value == 0.0 else err / abs(value)
            raise QuadratureError(
                f"evaluation budget exhausted while integrating {what if isinstance(what, str) else what()}"
                + ("" if achieved is None else f" (achieved {achieved:.3e})"),
                achieved_rel_error=achieved,
                evaluations=budget.used,
            )
        half, x, values = _shape_nodes(shape, grid, level, panels)
        fx = f(x, values).reshape(panels, _NODES.size)
        value = half * float(fx.sum(axis=0) @ _WEIGHTS)
        magnitude = value if fx.min() >= 0.0 else half * float(np.abs(fx).sum(axis=0) @ _WEIGHTS)
        floor = 100.0 * _EPS * magnitude
        err = max(half * float(np.abs(fx @ _WEIGHTS_DIFF).sum()), floor)
        if err <= max(tol_abs, tol_rel * magnitude, floor):
            return value, err
        level += 1
        panels *= 2


def _gauss(u):
    return np.exp(-u * u)


def _cos_gauss_moment(ratio, tol_abs, budget):
    """int_0^inf cos(ratio u) e^{-u^2} du: over [0, U] on at least max(4, ratio U / 4 pi) whole panels.

    This is rc * int_0^inf cos(b k) e^{-(rc k)^2} dk at ratio = b/rc; the
    part past U = _K_CUTOFF, at most e^{-U^2} / 2U, is charged.
    """
    level = _level(_K_CUTOFF, max(4, int(ratio * _K_CUTOFF / _MODE_PANEL_PHASE) + 1), _MODE_GRID[0])

    def f(u, gauss):
        return np.cos(ratio * u) * gauss

    what = partial("cosine mode at {:g} rad per r_c".format, ratio)  # formatted only for an error message
    value, err = _adaptive(f, _gauss, _MODE_GRID, level, _MODE_GRID[1] << level, tol_abs, 0.0, budget, what)
    return value, err + math.exp(-_K_CUTOFF**2) / (2.0 * _K_CUTOFF)


def _axial_mode_sum(separation, length, rc, budget):
    """rc * sum_b c_b M(b) for (1 - cos(length k))(1 - cos(separation k)).

    M(b) = int_0^inf cos(b k) e^{-(rc k)^2} dk.  Returns (value,
    abs_error); exact zero coefficients (separation = 0) yield an exact
    zero without integrating.
    """
    coef: dict[float, float] = {}
    modes = ((0.0, 1.0), (length, -1.0), (separation, -1.0), (separation + length, 0.5), (abs(separation - length), 0.5))
    for b, c in sorted(modes):  # equal frequencies merge; the keys stay ascending, the zero mode's first
        coef[b] = coef.get(b, 0.0) + c
    c0 = coef.pop(0.0)
    if c0 == 0.0:  # separation = 0: then every coefficient cancels
        return 0.0, 0.0
    # the zero mode never cancels away when any mode survives; budget is charged its nodes all the same
    if not _ZERO_MODE:
        fill = _Budget(BUDGET)
        _ZERO_MODE[:] = (*_cos_gauss_moment(0.0, 0.0, fill), fill.used)
    m0, e0, cost = _ZERO_MODE
    if not budget.charge(cost):  # integrating it afresh on this budget raises what a cold memo raises
        m0, e0 = _cos_gauss_moment(0.0, 0.0, budget)
    tol_abs = 1e-13 * abs(m0)
    total = c0 * m0
    err = abs(c0) * e0
    for b, c in coef.items():
        if c == 0.0:
            continue
        ratio = b / rc
        if ratio >= 2.0 * _K_CUTOFF:  # Gaussian-suppressed mode: |M(b)| = M(0) e^{-(b/2rc)^2} <= M(0) e^{-U^2}
            err += abs(c) * abs(m0) * math.exp(-_K_CUTOFF**2)
            continue
        v, e = _cos_gauss_moment(ratio, tol_abs, budget)
        total += c * v
        err += abs(c) * e
    return total, err


def _resolved_with_tail(f, shape, s, divisor, remainder, majorant, budget, what):
    """(value, error) of int_0^inf f(z, shape(z)) ~ (1 - ripple(2z)) e^{-(s z)^2} / (divisor z^2).

    The integrand is resolved on whole panels out to hi >= min(U/s,
    _RESOLVED_PHASE), U = _K_CUTOFF.  Past hi < U/s the averaged 1/z^2 tail
    is added in closed form; the dropped ripple is bounded by parts, and
    remainder / z^2 bounds the error of the asymptotic form itself.  Past
    hi >= U/s, f <= majorant(z) e^{-(s z)^2} with majorant(z) / z
    nonincreasing, and majorant(hi) e^{-v^2} / 2 s v at v = s hi is charged.
    """
    zcap = _K_CUTOFF / s if s else math.inf  # s underflows to 0 for an r_c far below the body
    if zcap == 0.0:  # s = inf: the range is empty
        return 0.0, 0.0
    span, grid = min(zcap, _RESOLVED_PHASE), (_RESOLVED_PHASE / _LEVEL0_PANELS, _LEVEL0_PANELS)
    level = _level(span, 8, grid[0])
    width = math.ldexp(grid[0], -level)
    panels = min(math.ceil(span / width), _LEVEL0_PANELS << level)
    hi = panels * width
    value, err = _adaptive(f, shape, grid, level, panels, 0.0, _SUB_TOL * REL_TOL, budget, what)
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


def _j1_squared(z):
    return _j1_array(z) ** 2


def _disc_radial_integral(radius, rc, budget):
    """Phi = int_0^inf J1(z)^2 e^{-(s z)^2} dz / z with s = rc/radius.

    The full radial factor is (8 pi / radius^2) * Phi.  The tail uses J1(z)^2 <= z^2/4 past the window,
    else J1(z)^2 = (1 - sin 2z)/(pi z) + eps(z), |eps(z)| <= _J1SQ_TAIL_C / z^2.
    """
    s = rc / radius

    def f(z, jj):
        return jj * np.exp(-((s * z) ** 2)) / z

    what = "radial form-factor integral"
    return _resolved_with_tail(f, _j1_squared, s, math.pi, 0.5 * _J1SQ_TAIL_C, lambda z: 0.25 * z, budget, what)


def _slab_integral(side, rc, budget):
    """T_half = int_0^inf sinc^2(k side/2) e^{-(rc k)^2} dk via u = k side/2; sinc^2 u = (1 - cos 2u) / 2u^2 <= 1."""
    s = 2.0 * rc / side

    def f(u, sinc2):
        return sinc2 * np.exp(-((s * u) ** 2))

    value, err = _resolved_with_tail(f, _sinc2_array, s, 2.0, 0.0, lambda u: 1.0, budget, "slab form-factor integral")
    return (2.0 / side) * value, (2.0 / side) * err


def _rel(err, value):
    if value == 0.0:
        return 0.0 if err == 0.0 else math.inf
    return abs(err / value)


def force_psd_by_quadrature(params: CslParams, geometry: MassGeometry, arrangement: MassArrangement) -> QuadratureResult:
    """Two-sided CSL force PSD by direct k-space quadrature (N^2/Hz).

    Independent numerical route used to validate the closed forms; the
    reported relative error includes both quadrature estimates and the
    certified bounds on every dropped oscillatory contribution.  The
    radial and slab integrals are driven to 1e-2 of REL_TOL, the axial
    cosine modes to 1e-13 of the zero mode (integrated once per process,
    yet charged to every result).  A result trusts its inputs, validated
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
            return QuadratureResult(0.0, 0.0, budget.used)
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
    # and q * (q * B) underflows only where S_FF itself does.
    q = HBAR * (geometry.mass / M_NUCLEON) * rc
    axial_full = 2.0 * (2.0 / (ell * ell)) * axial
    value = q * (q * (lam / (2.0 * math.pi**1.5) * axial_full * perp_full * arrangement.arm_count))
    if not math.isfinite(rel_err) or rel_err > REL_TOL:
        raise QuadratureError(
            f"quadrature reached relative error {rel_err:.3e}, above the target {REL_TOL:.3e}",
            achieved_rel_error=rel_err,
            evaluations=budget.used,
        )
    return QuadratureResult(value, rel_err, budget.used)
