"""Special functions with explicit accuracy contracts.

Only the handful of functions the noise formulas and the k-space
quadrature need.  The modified Bessel functions are exponentially
scaled (e^-x I_n(x)) because the closed forms only ever use that
combination and the unscaled values overflow long before the physically
interesting regime is reached.

Contracts (checked by the test suite against extended-precision
references):
  i0e, i1e : relative error <= 1e-12 on [0, 1e8], no overflow anywhere
  erf      : relative error <= 1e-12 (delegates to libm)
  j1       : absolute error <= 1e-10 on [0, 1e3], <= 1e-8 on (1e3, 1e6]
  sinc_half: sin(x)/x with exact removable singularity

i0e and i1e take a float or a 1-d array and return the same kind.  The
contracts hold for array input element by element, and an element's
value does not depend on the rest of the array: a float gives exactly
the value it has inside any array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class AccuracyContract:
    """Target accuracy over a domain, enforced by the test suite."""

    target: float  # relative or absolute error bound, per `kind`
    kind: str  # "relative" | "absolute"
    domain: tuple[float, float]

    def __post_init__(self):
        if self.target <= 0.0:
            raise ValueError("target must be > 0")
        if self.kind not in ("relative", "absolute"):
            raise ValueError(f"unknown error kind {self.kind!r}")


CONTRACTS = {
    "i0e": AccuracyContract(1e-12, "relative", (0.0, 1e8)),
    "i1e": AccuracyContract(1e-12, "relative", (0.0, 1e8)),
    "erf": AccuracyContract(1e-12, "relative", (-30.0, 30.0)),
    "j1_low": AccuracyContract(1e-10, "absolute", (0.0, 1e3)),
    "j1_high": AccuracyContract(1e-8, "absolute", (1e3, 1e6)),
    "sinc_half": AccuracyContract(1e-15, "absolute", (-1e6, 1e6)),
}

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_THREE_PI_4 = 2.356194490192344929  # 3*pi/4

# Hankel-expansion coefficients A_m for nu=1 (mu=4), used by j1:
# A_0 = 1, A_m = A_{m-1} * (mu - (2m-1)^2) / (8m)
_J1_HANKEL = [1.0]
for _m in range(1, 12):
    _J1_HANKEL.append(_J1_HANKEL[-1] * (4.0 - (2 * _m - 1) ** 2) / (8.0 * _m))


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


def _check_nonneg_finite(x: FloatOrArray, name: str) -> tuple[np.ndarray, bool]:
    x, scalar = _to_1d(x)
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if bad.any():
        raise ValueError(f"{name} requires a finite x >= 0, got {float(x[bad][0])!r}")
    return x, scalar


def i0e(x: FloatOrArray) -> FloatOrArray:
    """Exponentially scaled modified Bessel function e^-x I0(x)."""
    x, scalar = _check_nonneg_finite(x, "i0e")
    return _from_1d(_ie(x)[0], scalar)


def i1e(x: FloatOrArray) -> FloatOrArray:
    """Exponentially scaled modified Bessel function e^-x I1(x)."""
    x, scalar = _check_nonneg_finite(x, "i1e")
    return _from_1d(_ie(x)[1], scalar)


# Per-step factors of the two series below, row 0 for I0 and row 1 for I1.
# Power series: t_k = t_{k-1} q / (k (k + nu)); at x = 20 it converges by
# k = 36, so the table's 80 steps are never all used.
_SERIES_DENOMS = np.array([[[k * k], [k * (k + 1)]] for k in range(1, 81)], dtype=float)
# Asymptotic series: t_k = t_{k-1} ((2k-1)^2 - 4 nu^2) / (8 k x), cut at k = 39.
_ASYMPTOTIC_FACTORS = np.array([[[(2 * k - 1) ** 2 / k], [((2 * k - 1) ** 2 - 4) / k]] for k in range(1, 40)])


def _ie(x: np.ndarray) -> np.ndarray:
    """e^-x I0(x) and e^-x I1(x), as rows 0 and 1 (x finite and >= 0)."""
    out = np.empty((2, x.size))
    small = x <= 20.0
    if small.any():
        out[:, small] = _ie_series(x[small])
    large = ~small
    if large.any():
        out[:, large] = _ie_asymptotic(x[large])
    return out


def _changes_sum(term: np.ndarray, total: np.ndarray, j: int) -> bool:
    # A term below 1e-18 of its sum is under half an ulp of it, so adding
    # it, or any later (smaller) term, leaves the sum unchanged.
    (t0, t1), (s0, s1) = term[:, j].tolist(), total[:, j].tolist()
    return abs(t0) > 1e-18 * abs(s0) or abs(t1) > 1e-18 * abs(s1)


def _ie_series(x: np.ndarray) -> np.ndarray:
    # power series of I0 and I1; all terms positive, no cancellation.  Late
    # terms grow with x relative to their sum, so the largest x converges
    # last: once its terms stop changing its sums, every element's have.
    term = np.vstack([np.ones_like(x), 0.5 * x])
    total = term.copy()
    q = 0.25 * x * x
    last = int(np.argmax(x))
    for denom in _SERIES_DENOMS:
        if not _changes_sum(term, total, last):
            break
        term *= q / denom
        total += term
    return np.exp(-x) * total


def _ie_asymptotic(x: np.ndarray) -> np.ndarray:
    # e^-x I_nu(x) ~ (2 pi x)^(-1/2) * sum_k t_k.  For x > 20 the terms
    # keep shrinking through k = 39 (the smallest term lies beyond k = 2x),
    # so the sum is cut as in _ie_series; here the smallest x converges last.
    term = np.ones((2, x.size))
    total = np.ones((2, x.size))
    w = 0.125 / x
    last = int(np.argmin(x))
    for factor in _ASYMPTOTIC_FACTORS:
        term *= factor * w
        total += term
        if not _changes_sum(term, total, last):
            break
    # sqrt factored to avoid overflow of 2*pi*x for x near the float max
    return total / (_SQRT_2PI * np.sqrt(x))


def erf(x: float) -> float:
    """Error function (odd, range (-1, 1))."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"erf requires finite x, got {x!r}")
    return math.erf(x)


def j1(x: float) -> float:
    """Bessel function of the first kind J1 on [0, 1e6]."""
    x = float(x)
    if not math.isfinite(x) or x < 0.0 or x > 1e6:
        raise ValueError(f"j1 requires 0 <= x <= 1e6, got {x!r}")
    return float(_j1_array(np.array([x]))[0])


def _j1_array(x: np.ndarray) -> np.ndarray:
    """Vectorized J1 without domain checks (internal quadrature kernel)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 16.0
    xs = x[small]
    if xs.size:
        # alternating power series; cancellation stays below 1e-11 here
        term = 0.5 * xs
        total = term.copy()
        q = 0.25 * xs * xs
        for k in range(1, 44):
            term = term * (-q) / (k * (k + 1))
            total += term
        out[small] = total
    xl = x[~small]
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
        out[~small] = np.sqrt(2.0 / (math.pi * xl)) * (sp * np.cos(w) - sq * np.sin(w))
    return out


def sinc_half(x: float) -> float:
    """sin(x)/x with the removable singularity handled by a series branch."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"sinc_half requires finite x, got {x!r}")
    q = x * x
    if q < 1e-6:
        return 1.0 - q / 6.0 + q * q / 120.0
    return math.sin(x) / x


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
