"""Special functions with explicit accuracy targets.

Only what the noise formulas and the k-space quadrature need: the
exponentially scaled modified Bessel functions e^-x I0(x) and e^-x I1(x)
for the closed forms (the unscaled values overflow long before the
physically interesting regime is reached), and the J1 and sinc^2 array
kernels of the quadrature oracle.  The erf of the cube bracket is
math.erf.

Accuracy targets (checked by the test suite against extended-precision
references):
  i0e, i1e    : relative error <= 1e-12 on [0, 1e8], no overflow anywhere
  _j1_array   : absolute error <= 2e-15 on [0, 1e3], <= 1e-13 on (1e3, 1e6]
  _sinc2_array: (sin(x)/x)^2, absolute error <= 2e-14, finite at x = 0

i0e and i1e take a float or a 1-d array and return the same kind,
validate their input and evaluate under np.errstate(all="ignore").  They
sum in three groups: the power series for x <= 20, the asymptotic series
on (20, 1e3] and past 1e3, where its terms shrink by (2k-1)^2/8kx < 1e-3
a step.  Each group takes the steps its slowest element needs, counted
on that element alone: its series stops at the first term under 1e-18 of
the sum in both rows.  That term is under half an ulp of the sum, and so
is every later, smaller one, so the steps an element takes past its own
count leave its value unchanged: a float gives exactly the value it has
inside any array, and the targets hold element by element.  The two
quadrature kernels take arrays and skip domain checks.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Union

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_THREE_PI_4 = 2.356194490192344929  # 3*pi/4

# Hankel-expansion coefficients A_m for nu=1 (mu=4), used by _j1_array:
# A_0 = 1, A_m = A_{m-1} * (mu - (2m-1)^2) / (8m)
_J1_HANKEL = [1.0]
for _m in range(1, 12):
    _J1_HANKEL.append(_J1_HANKEL[-1] * (4.0 - (2 * _m - 1) ** 2) / (8.0 * _m))
# Starting order of _j1_array's backward recurrence: J_72(30) = 3.3e-21.
_J1_MILLER_ORDER = 72


# A float for float input, else one value per entry of a 1-d array.
FloatOrArray = Union[float, np.ndarray]


def _to_1d(x: FloatOrArray) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array, and whether it was a scalar."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"expected a float or a 1-d array, got shape {arr.shape}")
    return arr.reshape(-1), arr.ndim == 0


def _from_1d(out: np.ndarray, scalar: bool) -> FloatOrArray:
    """Undo _to_1d: a float for scalar input, else the array itself."""
    return float(out[0]) if scalar else out


def _frozen(x) -> np.ndarray:
    """A read-only float copy of x, so that no caller's array can change it later."""
    arr = np.array(x, dtype=float)
    arr.flags.writeable = False
    return arr


def _is_real(x) -> bool:  # a float is tested first: the numbers.Real ABC check is slow
    return type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_real(name: str, value) -> None:  # a bool, which numpy and math take for 0 or 1, is not a real number
    if not _is_real(value):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")


def _check_positive(name: str, value: float, zero_ok: bool = False, error: type = ValueError) -> None:
    """Raise error unless value is finite and > 0 (>= 0 when zero_ok), naming it; TypeError unless it is a real number."""
    _check_real(name, value)
    if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        raise error(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value!r}")


def _ie_row(x: FloatOrArray, name: str, row: int) -> FloatOrArray:
    x, scalar = _to_1d(x)
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if bad.any():
        raise ValueError(f"{name} requires a finite x >= 0, got {float(x[bad][0])!r}")
    with np.errstate(all="ignore"):  # a series term that underflows to 0 is the right limit
        return _from_1d(_ie(x)[row], scalar)


def i0e(x: FloatOrArray) -> FloatOrArray:
    """Exponentially scaled modified Bessel function e^-x I0(x)."""
    return _ie_row(x, "i0e", 0)


def i1e(x: FloatOrArray) -> FloatOrArray:
    """Exponentially scaled modified Bessel function e^-x I1(x)."""
    return _ie_row(x, "i1e", 1)


# Per-step factors of the two series below, row 0 for I0 and row 1 for I1.
# Power series: t_k = t_{k-1} q / (k (k + nu)); at x = 20 it converges by
# k = 36, so the table's 40 steps are never all used.
_SERIES_DENOMS = np.array([[[k * k], [k * (k + 1)]] for k in range(1, 41)], dtype=float)
# Asymptotic series: t_k = t_{k-1} ((2k-1)^2 - 4 nu^2) / (8 k x), cut at k = 39;
# for x > 20 its terms keep shrinking that far (the smallest lies beyond k = 2x).
_ASYMPTOTIC_FACTORS = np.array([[[(2 * k - 1) ** 2 / k], [((2 * k - 1) ** 2 - 4) / k]] for k in range(1, 40)])


def _steps(op, scale: float, first: list, table: np.ndarray) -> int:
    """Steps of one element's series, step k multiplying by op(scale, table[k]) as _ie does."""
    (t0, t1), flat = first, iter(table.ravel().tolist())
    s0, s1 = t0, t1
    for k, (f0, f1) in enumerate(zip(flat, flat), 1):
        t0 *= op(scale, f0)
        t1 *= op(scale, f1)
        s0 += t0
        s1 += t1
        if abs(t0) <= 1e-18 * abs(s0) and abs(t1) <= 1e-18 * abs(s1):
            return k
    return len(table)


def _ie(x: np.ndarray) -> np.ndarray:
    """e^-x I0(x) and e^-x I1(x), as rows 0 and 1 (x finite and >= 0)."""
    order = np.argsort(x, kind="stable")  # stable sorts are fast on the monotone grids of a scan
    x = x[order]
    n = x.size
    a, b = np.searchsorted(x, (20.0, 1e3), side="right").tolist()  # the groups: [0, a), [a, b), [b, n)
    q, w = 0.25 * x[:a] * x[:a], 0.125 / x[a:]
    term = np.ones((2, n))
    term[1, :a] = 0.5 * x[:a]
    # a group's slowest element: the largest x of the power series, the smallest of an asymptotic one
    series = _steps(operator.truediv, float(q[-1]), term[:, a - 1].tolist(), _SERIES_DENOMS) if a else 0
    mid = _steps(operator.mul, float(w[0]), [1.0, 1.0], _ASYMPTOTIC_FACTORS) if b > a else 0
    far = _steps(operator.mul, float(w[b - a]), [1.0, 1.0], _ASYMPTOTIC_FACTORS) if n > b else 0
    total = term.copy()
    factor = np.empty((2, n))
    steps = sorted({0, series, mid, far})
    for start, stop in zip(steps, steps[1:]):
        # the columns still stepping form one range, as far <= mid
        lo = 0 if start < series else a
        hi = n if start < far else b if start < mid else a
        t, s, f, fa, wa = term[:, lo:hi], total[:, lo:hi], factor[:, lo:hi], factor[:, a:hi], w[: hi - a]
        for k in range(start, stop):
            if lo < a:
                np.divide(q, _SERIES_DENOMS[k], out=factor[:, :a])
            if hi > a:
                np.multiply(_ASYMPTOTIC_FACTORS[k], wa, out=fa)
            t *= f
            s += t
    total[:, :a] *= np.exp(-x[:a])
    # sqrt factored to avoid overflow of 2*pi*x for x near the float max
    total[:, a:] /= _SQRT_2PI * np.sqrt(x[a:])
    return total.take(np.argsort(order, kind="stable"), axis=1)


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
