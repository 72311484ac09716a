"""Arithmetic on one value (a Python float) or on a column of values (a numpy array).

The steady state, the kernel inputs and the response kernel are each written
once for both: a Python float is one operating point, an array a batch.  The
helpers here round an array element exactly as Python rounds the float:
- a power is libm ``pow``, as Python's ``**`` is (``x*x`` rounds differently
  near 1, and numpy's array power may run SVML, which differs again);
- an absolute value of a complex pair is libm ``hypot``, as ``abs(complex)`` is.
Python raises OverflowError where a float power leaves the float range; an
array element gives NaN there instead, so that the failure stays visible in
everything computed from it.

An array square calls ``pow`` on about a fifth of its elements only.  p = x*x
and its residual e = x**2 - p (Dekker's product with a Veltkamp split; numpy
has no fma) are exact for 1e-140 < |x| < 1e150.  glibc's ``pow`` (2.28 on)
errs by at most 0.54 ULP, so it rounds x**2 to another value than p only
within 0.04 ULP of a midpoint between floats, where |e| > 0.46 ULP.  p is kept
where |e| < 0.4 u, u the gap from p towards zero (the smaller one at a power
of two), so 0.1 ULP or more from a midpoint; ``pow`` gives the other elements.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter: x = hi + lo, halves of 26 bits


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


def _libm_powers(values: list, exponent: float) -> list:
    """``math.pow`` of each value; NaN where Python raises OverflowError."""
    try:
        return list(map(math.pow, values, itertools.repeat(exponent)))
    except OverflowError:
        return [_python_power(v, exponent) for v in values]


def power(x, exponent):
    """``x ** exponent`` (2 or 3); on arrays NaN where Python raises OverflowError."""
    if not isinstance(x, np.ndarray):
        return x**exponent
    if exponent != 2:
        return np.reshape(_libm_powers(x.ravel().tolist(), float(exponent)), x.shape)
    with np.errstate(all="ignore"):  # the square rule of the module docstring
        square, hi = np.multiply(x, x, dtype=float), _SPLIT * x
        hi -= hi - x
        lo = x - hi
        residual = hi * hi - square + 2.0 * hi * lo + lo * lo
        gap = square - (square.view(np.int64) - 1).view(float)  # to the next float towards 0
        rest = np.flatnonzero(~((abs(residual) < 0.4 * gap) & (abs(x) > 1e-140) & (abs(x) < 1e150)))
    square.put(rest, _libm_powers(x.take(rest).tolist(), 2.0))
    return square


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
