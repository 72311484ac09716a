"""Arithmetic on one value (a Python float) or on a column of values (a numpy array).

The steady state, the kernel inputs and the response kernel are each written
once for both: a Python float is one operating point, an array a batch.  The
helpers here round an array element exactly as Python rounds the float:
- a power is libm ``pow``, as Python's ``**`` is (``x*x`` rounds differently
  near 1, and numpy's array power takes that shortcut);
- an absolute value of a complex pair is libm ``hypot``, as ``abs(complex)`` is.
Python raises OverflowError where a float power leaves the float range; an
array element gives NaN there instead, so that the failure stays visible in
everything computed from it.
"""
from __future__ import annotations

import math

import numpy as np

_pow = np.frompyfunc(math.pow, 2, 1)
_SAFE_BASE = 1e100  # |x|**3 stays inside the float range below this


def where(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: np.where on arrays, a conditional on one value."""
    if cond is True:
        return a
    if cond is False:
        return b
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def choose(index, choices):
    """``choices[index]``, picked per element on arrays."""
    return np.choose(index, choices) if isinstance(index, np.ndarray) else choices[index]


def any_of(mask) -> bool:
    """Whether ``mask`` holds anywhere."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def isfinite(x):
    return np.isfinite(x) if isinstance(x, np.ndarray) else math.isfinite(x)


def _python_power(x: float, exponent: float) -> float:
    try:
        return x**exponent
    except OverflowError:
        return math.nan


def power(x, exponent):
    """``x ** exponent`` (2 or 3); on arrays NaN where Python raises OverflowError."""
    if not isinstance(x, np.ndarray):
        return x**exponent
    large = abs(x) >= _SAFE_BASE
    if not large.any():
        return _pow(x, float(exponent)).astype(float)
    out = _pow(np.where(large, 0.0, x), float(exponent)).astype(float)
    out[large] = [_python_power(v, exponent) for v in x[large].tolist()]
    return out


def sqrt(x):
    """Square root; IEEE rounds it alike for a float and an array."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def hypot(re, im):
    """|re + i im| as ``abs(complex)`` computes it."""
    if isinstance(re, np.ndarray):
        return np.hypot(re, im)
    if re == re and im == im:
        return abs(complex(re, im))
    # with a NaN part abs(complex) reads a stale errno and can raise OverflowError
    return math.hypot(re, im)
