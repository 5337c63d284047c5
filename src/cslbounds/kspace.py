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

Each factor is integrated by composite Gauss-Legendre panels that
double until the nested error estimate converges.  Two measures keep
the oscillatory integrands tractable over the full parameter range:

* The axial trig product is expanded into pure cosine modes
  (frequencies 0, l, a, a+l, |a-l|).  A mode whose frequency exceeds
  60 rc is dropped: its value is Gaussian-suppressed below e^-900 of
  the zero mode, far under any reachable tolerance.  Every retained
  mode spans at most ~600 oscillation periods, which panel doubling
  resolves cheaply.
* The radial and slab integrands decay only as 1/k^2 before the
  Gaussian cuts off, with bounded oscillation on top.  They are
  resolved literally out to a fixed phase (6000 rad) and the remainder
  is integrated with the oscillation averaged out; the neglected
  ripple is bounded by integration by parts and charged to the
  reported error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, M_NUCLEON
from .cslnoise import CslParams, Cube, Cylinder, HalfCylinderBar, MassArrangement, MassGeometry
from .errors import QuadratureError
from .specfun import _j1_array, _sinc2_array

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)

# Gaussian factor e^{-rc^2 k^2} is below 1e-1565 past this many widths.
_K_CUTOFF = 60.0
# Phase out to which oscillatory 1/k^2 integrands are resolved literally.
_RESOLVED_PHASE = 6000.0
# |J1(z)^2 - (1 - sin 2z)/(pi z)| <= _J1SQ_TAIL_C / z^2 for z >= 1000.
_J1SQ_TAIL_C = 1.0

DEFAULT_REL_TOL = 1e-6
DEFAULT_BUDGET = 2**24


@dataclass(frozen=True)
class QuadratureResult:
    """Value with its achieved relative-error estimate and cost."""

    value: float
    rel_error: float
    evaluations: int


class _Budget:
    def __init__(self, limit: int):
        self.limit = int(limit)
        self.used = 0

    def charge(self, n: int) -> bool:
        if self.used + n > self.limit:
            return False
        self.used += n
        return True


def _panel_sum(f, lo: float, hi: float, panels: int):
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    x = (centers[:, None] + half * _NODES[None, :]).ravel()
    w = np.broadcast_to(half * _WEIGHTS[None, :], (panels, 16)).ravel()
    fx = f(x)
    return float(np.dot(w, fx)), float(np.dot(np.abs(w), np.abs(fx)))


def _adaptive(f, lo, hi, panels0, tol_abs, budget, what):
    """Panel-doubling quadrature; error estimate is the last refinement step."""
    panels = max(4, int(panels0))
    if not budget.charge(16 * panels):
        raise QuadratureError(f"evaluation budget exhausted before {what} could start", None, budget.used)
    value, _ = _panel_sum(f, lo, hi, panels)
    last_err = None
    while True:
        panels *= 2
        if not budget.charge(16 * panels):
            achieved = None if last_err is None or value == 0.0 else last_err / abs(value)
            raise QuadratureError(
                f"evaluation budget exhausted while refining {what}",
                achieved_rel_error=achieved,
                evaluations=budget.used,
            )
        new, magnitude = _panel_sum(f, lo, hi, panels)
        err = abs(new - value)
        floor = 100.0 * np.finfo(float).eps * magnitude
        value = new
        last_err = err
        if err <= max(tol_abs, floor):
            return value, max(err, floor)


def _cos_gauss_moment(freq, rc, tol_abs, budget):
    """int_0^{60/rc} cos(freq k) e^{-rc^2 k^2} dk by panel doubling."""
    kcap = _K_CUTOFF / rc
    panels0 = max(8, int(freq * kcap / (4.0 * math.pi)) + 1)

    def f(k):
        return np.cos(freq * k) * np.exp(-((rc * k) ** 2))

    return _adaptive(f, 0.0, kcap, panels0, tol_abs, budget, f"cosine mode at {freq:g} rad/m")


def _axial_mode_sum(separation, length, rc, budget):
    """sum_b c_b M(b) for (1 - cos(length k))(1 - cos(separation k)).

    Returns (value, abs_error); exact zero coefficients (separation = 0)
    yield an exact zero without integrating.
    """
    coef: dict[float, float] = {}
    for b, c in (
        (0.0, 1.0),
        (length, -1.0),
        (separation, -1.0),
        (separation + length, 0.5),
        (abs(separation - length), 0.5),
    ):
        coef[b] = coef.get(b, 0.0) + c
    live = {b: c for b, c in coef.items() if c != 0.0}
    if not live:
        return 0.0, 0.0
    # the zero mode never cancels away when any mode survives
    m0, e0 = _cos_gauss_moment(0.0, rc, 0.0, budget)
    tol_abs = 1e-13 * abs(m0)
    total = live[0.0] * m0
    err = abs(live[0.0]) * e0
    for b in sorted(live):
        c = live[b]
        if b == 0.0:
            continue
        if b >= _K_CUTOFF * rc:
            # Gaussian-suppressed mode: |M(b)| <= M(0) e^{-(b/2rc)^2} <= M(0) e^-900
            err += abs(c) * abs(m0) * math.exp(-min(700.0, (b / (2.0 * rc)) ** 2))
            continue
        v, e = _cos_gauss_moment(b, rc, tol_abs, budget)
        total += c * v
        err += abs(c) * e
    return total, err


def _inverse_square_gauss_tail(z_lo, z_hi, s, budget, what):
    """int_{z_lo}^{z_hi} e^{-(s z)^2} / z^2 dz, integrated in log space."""
    def f(t):
        z = np.exp(t)
        return np.exp(-((s * z) ** 2)) / z

    lo, hi = math.log(z_lo), math.log(z_hi)
    scale = math.exp(-((s * z_lo) ** 2)) / z_lo
    return _adaptive(f, lo, hi, 32, 1e-12 * scale, budget, what)


def _disc_radial_integral(radius, rc, budget):
    """Phi = int_0^{zcap} J1(z)^2 e^{-(s z)^2} dz / z with s = rc/radius.

    The full radial factor is (8 pi / radius^2) * Phi.
    """
    s = rc / radius
    zcap = _K_CUTOFF / s
    zres = min(zcap, _RESOLVED_PHASE)
    panels0 = max(8, int(2.0 * zres / math.pi) + 1)

    def f(z):
        j = _j1_array(z)
        return j * j * np.exp(-((s * z) ** 2)) / z

    value, err = _adaptive(f, 0.0, zres, panels0, 0.0, budget, "radial form-factor integral")
    if zcap > zres:
        # averaged tail: J1(z)^2 ~ (1 - sin 2z)/(pi z) + eps(z)
        tail, terr = _inverse_square_gauss_tail(zres, zcap, s, budget, "radial tail")
        value += tail / math.pi
        err += terr / math.pi
        # dropped sin ripple (by parts) and the asymptotic remainder eps
        err += math.exp(-((s * zres) ** 2)) / (math.pi * zres**2)
        err += 0.5 * _J1SQ_TAIL_C / zres**2
    return value, err


def _slab_integral(side, rc, budget):
    """T_half = int_0^{kcap} sinc^2(k side/2) e^{-(rc k)^2} dk via u = k side/2."""
    s = 2.0 * rc / side
    ucap = _K_CUTOFF / rc * (side / 2.0)
    ures = min(ucap, _RESOLVED_PHASE)
    panels0 = max(8, int(2.0 * ures / math.pi) + 1)

    def f(u):
        return _sinc2_array(u) * np.exp(-((s * u) ** 2))

    value, err = _adaptive(f, 0.0, ures, panels0, 0.0, budget, "slab form-factor integral")
    if ucap > ures:
        # sinc^2 u = (1 - cos 2u) / 2u^2; the cosine ripple is bounded by parts
        tail, terr = _inverse_square_gauss_tail(ures, ucap, s, budget, "slab tail")
        value += 0.5 * tail
        err += 0.5 * terr
        err += 0.5 * math.exp(-((s * ures) ** 2)) / ures**2
    return (2.0 / side) * value, (2.0 / side) * err


def _rel(err, value):
    if value == 0.0:
        return 0.0 if err == 0.0 else math.inf
    return abs(err / value)


def force_psd_by_quadrature(
    params: CslParams,
    geometry: MassGeometry,
    arrangement: MassArrangement,
    rel_tol: float = DEFAULT_REL_TOL,
    max_evaluations: int = DEFAULT_BUDGET,
) -> QuadratureResult:
    """Two-sided CSL force PSD by direct k-space quadrature (N^2/Hz).

    Independent numerical route used to validate the closed forms; the
    reported relative error includes both quadrature estimates and the
    certified bounds on every dropped oscillatory contribution.

    Raises QuadratureError if the evaluation budget is exhausted before
    the internal convergence targets are met.
    """
    lam = params.collapse_rate
    rc = params.correlation_length
    if lam == 0.0:
        return QuadratureResult(0.0, 0.0, 0)

    if isinstance(geometry, HalfCylinderBar):
        # two touching half-cylinders of half mass and half length
        half = Cylinder(geometry.radius, 0.5 * geometry.length, 0.5 * geometry.mass)
        if arrangement.separation != 0.5 * geometry.length:
            raise ValueError("a bar forces separation = length/2")
        return force_psd_by_quadrature(params, half, MassArrangement(0.5 * geometry.length, 1), rel_tol, max_evaluations)

    budget = _Budget(max_evaluations)
    try:
        if isinstance(geometry, Cylinder):
            ell = geometry.length
            axial, axial_err = _axial_mode_sum(arrangement.separation, ell, rc, budget)
            if axial == 0.0:
                return QuadratureResult(0.0, 0.0, budget.used)
            radial, radial_err = _disc_radial_integral(geometry.radius, rc, budget)
            perp_full = 2.0 * math.pi * (4.0 / geometry.radius**2) * radial
            rel_err = _rel(axial_err, axial) + _rel(radial_err, radial)
        elif isinstance(geometry, Cube):
            if arrangement.arm_count != 1:
                raise ValueError("cube pairs support a single arm")
            ell = geometry.side
            axial, axial_err = _axial_mode_sum(arrangement.separation, ell, rc, budget)
            if axial == 0.0:
                return QuadratureResult(0.0, 0.0, budget.used)
            t_half, t_err = _slab_integral(ell, rc, budget)
            perp_full = (2.0 * t_half) ** 2
            rel_err = _rel(axial_err, axial) + 2.0 * _rel(t_err, t_half)
        else:
            raise TypeError(f"unsupported geometry {type(geometry).__name__}")
    except QuadratureError as exc:
        raise QuadratureError(str(exc), achieved_rel_error=exc.achieved_rel_error, evaluations=budget.used) from None

    axial_full = 2.0 * (2.0 / ell**2) * axial
    prefactor = HBAR**2 * lam * rc**3 / (2.0 * math.pi**1.5 * M_NUCLEON**2) * geometry.mass**2
    value = prefactor * axial_full * perp_full * arrangement.arm_count
    if not math.isfinite(rel_err) or rel_err > rel_tol:
        raise QuadratureError(
            f"quadrature reached relative error {rel_err:.3e}, above the target {rel_tol:.3e}",
            achieved_rel_error=rel_err,
            evaluations=budget.used,
        )
    return QuadratureResult(value, rel_err, budget.used)

