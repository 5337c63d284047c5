"""Special functions with explicit accuracy targets.

The exponentially scaled modified Bessel functions e^-x I0(x) and
e^-x I1(x) (the unscaled values overflow long before the physically
interesting regime is reached) and the package's one float-or-array
conversion.  The closed forms call neither i0e nor i1e: cslnoise
evaluates its radial bracket from its own Chebyshev expansions.  The erf
of the cube bracket is math.erf.  The J1 and sinc^2 kernels of the
quadrature oracle live in kspace.

Accuracy target (checked by the test suite against extended-precision
references):
  i0e, i1e    : relative error <= 1e-12 on [0, 1e8], no overflow anywhere

_to_1d is the package's one conversion of a caller's float-or-array
value, and _frozen's for a record's array field: a real number or a 1-d
array of them, else TypeError naming the argument (a bool, also in a
list or tuple, a str, bytes or None is neither).  i0e and i1e take such
a value, return the same kind, check that x is finite and >= 0 and
evaluate under np.errstate(all="ignore"), an array element by element:
each x sums its own power series for x <= 20 (DLMF 10.25.2) or its
asymptotic series past 20 (DLMF 10.40.1) until a term is at most 1e-18
of the sum.  That term is under half an ulp of the sum, and so is every
later, smaller one, so no further step would change the value.  One
np.exp or np.sqrt pass then scales all the sums, so a float gives exactly
the value it has inside any array, and the target holds element by element.
"""

from __future__ import annotations

import math
import numbers
from typing import Union

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)  # apart from sqrt(x): 2 pi x overflows near the float max


# A float for float input, else one value per entry of a 1-d array.
FloatOrArray = Union[float, np.ndarray]


def _to_1d(x: FloatOrArray, name: str, keep_shape: bool = False) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array and whether it was a scalar; TypeError, naming name, by the module docstring's rule.

    ValueError past one dimension, unless keep_shape: then x keeps its shape, for its constructor to check.
    """
    if not (type(x) is float or type(x) is np.ndarray and x.dtype.kind in "iuf"):  # the common cases pass at once
        held = x if isinstance(x, (list, tuple)) else ()  # numpy would read a bool in a list as 0 or 1
        if not (_is_real(x) or np.asarray(x).dtype.kind in "iuf") or any(isinstance(v, (bool, np.bool_)) for v in held):
            raise TypeError(f"{name} must be a real number or a 1-d array of them, got {type(x).__name__}")
    arr = np.asarray(x, dtype=float)
    if arr.ndim > 1 and not keep_shape:
        raise ValueError(f"expected a float or a 1-d array, got shape {arr.shape}")
    return (arr if keep_shape else arr.reshape(-1)), arr.ndim == 0


def _from_1d(out: np.ndarray, scalar: bool) -> FloatOrArray:
    """Undo _to_1d: a float for scalar input, else the array itself."""
    return float(out[0]) if scalar else out


def _frozen(x, name: str) -> np.ndarray:
    """A read-only float copy of x by _to_1d's rule, in x's own shape: no caller's array can change it later."""
    arr = np.array(_to_1d(x, name, keep_shape=True)[0])
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


def _ie_row(x: FloatOrArray, name: str, nu: int) -> FloatOrArray:
    x, scalar = _to_1d(x, "x")
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if bad.any():
        raise ValueError(f"{name} requires a finite x >= 0, got {float(x[bad][0])!r}")
    sums = np.array([_series_sum(v, nu) for v in x.tolist()])
    with np.errstate(all="ignore"):  # e^-x underflows to 0, the right limit; np.where drops the far scale at x = 0
        return _from_1d(np.where(x <= 20.0, sums * np.exp(-x), sums / (_SQRT_2PI * np.sqrt(x))), scalar)


def i0e(x: FloatOrArray) -> FloatOrArray:
    """Exponentially scaled modified Bessel function e^-x I0(x)."""
    return _ie_row(x, "i0e", 0)


def i1e(x: FloatOrArray) -> FloatOrArray:
    """Exponentially scaled modified Bessel function e^-x I1(x)."""
    return _ie_row(x, "i1e", 1)


def _series_sum(x: float, nu: int) -> float:
    """I_nu(x) e^-x before its scale: times e^-x for x <= 20, over sqrt(2 pi x) past 20 (x finite and >= 0)."""
    if x <= 20.0:  # t_k = t_{k-1} q / (k (k + nu)), at q = x^2 / 4
        q = 0.25 * x * x
        term = total = 0.5 * x if nu else 1.0
        for k in range(1, 81):  # every x <= 20 stops within 36 steps
            if term <= 1e-18 * total:
                break
            term *= q / (k * (k + nu))
            total += term
        return total
    w = 0.125 / x  # t_k = t_{k-1} ((2k-1)^2 - 4 nu^2) / (8 k x); its terms shrink up to k ~ 2x > 40
    term = total = 1.0
    for k in range(1, 41):  # every x > 20 stops within 34 steps
        term *= ((2 * k - 1) ** 2 - 4 * nu * nu) / k * w
        total += term
        if abs(term) <= 1e-18 * total:
            break
    return total
