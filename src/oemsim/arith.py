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

`format_g17` writes x as ``'%.17g' % x`` does.  Its digits are the integer D
nearest to y = |x| 10^(16-E), E = floor(log10 |x|).  Dekker's product of |x|
and hi, of a double-double hi + lo within 2^-106 hi of 10^(16-E), is p + e
exactly (p an integer); s = e + |x| lo is summed in doubles.  For y < 2^57 the
three errors are each below 2^-49, so p + s is within 2^-46 of y.  D = p +
rint(s) is kept where s is more than 2^-30 from a half-integer (so y rounds to
D too), p + floor(s) >= 10^16 and D < 10^17 (so E is the exponent of the
rounded value; for y within 2^-46 below 10^16, D = 10^16 is right either way).
0, -0, nan and +-inf are fixed strings; Python formats the rest: near-ties, an
E off by one next to a power of ten, and |x| outside the table's (1e-250, 1e250).
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter: x = hi + lo, halves of 26 bits
G17_WIDTH = 29  # bytes per element of format_g17: sign, "0.000", 17 digits and a point, "e+123"
_percent_g17 = "%.17g".__mod__  # where format_g17 leaves an element to Python
_FIXED = np.array([b"0", b"-0", b"nan", b"inf", b"-inf"], f"S{G17_WIDTH}").view(np.uint8).reshape(5, -1)


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
        square, (hi, lo) = np.multiply(x, x, dtype=float), _veltkamp(x)
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


def _veltkamp(x):
    hi = _SPLIT * x
    hi -= hi - x
    return hi, x - hi


@functools.lru_cache(maxsize=32)
def _exponent_table(first: int, last: int):
    """Per E = first..last: 10**(16 - E) as double-double hi, lo, and the "0.000" and "e+123" bytes."""
    hi, lo, text = [], [], ""
    for e in range(first, last + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi.append(num / den)  # int division rounds correctly
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
        tail = "e%+03d" % e if e < -4 or e > 16 else "\0\0"
        text += "0.000"[: 1 - e if -4 <= e < 0 else 0].ljust(5, "\0") + tail[:2] + tail[2:].rjust(3, "\0")
    return np.array(hi), np.array(lo), np.frombuffer(text.encode(), np.uint8).reshape(-1, 10).T.copy()


def format_g17(x):
    """``'%.17g' % v`` of each element v of ``x`` as ASCII: uint8, shape ``x.shape + (G17_WIDTH,)``.

    A character has a fixed place in its field; the places left empty are NUL.
    """
    flat = np.ravel(x)
    ax = abs(flat)
    fast = (ax > 1e-250) & (ax < 1e250)
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp)
    first, last = (int(e.min()), int(e.max())) if e.size else (0, 0)  # the exponents this call spans
    hi, lo, e_bytes = (column.take(e - first, axis=-1) for column in _exponent_table(first, last))
    p = ax * hi
    (a_hi, a_lo), (b_hi, b_lo) = _veltkamp(ax), _veltkamp(hi)
    s = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + ax * lo
    r = np.rint(s)
    digits = p.astype(np.int64) + r.astype(np.int64)
    ok = fast & (abs(s - r) < 0.5 - 2.0**-30) & (digits - (s < r) >= 10**16) & (digits < 10**17)
    z = np.zeros((19, flat.size), np.uint8)  # rows 1..17 the digits, rows 0 and 18 NUL
    for half, rows in ((digits // 10**9, range(8, 0, -1)), (digits % 10**9, range(17, 8, -1))):
        q = half.astype(np.int32)
        for row in rows:
            t = q // 10
            z[row] = q - t * 10
            q = t
    kept = ((z[1:18] != 0) * np.arange(1, 18, dtype=np.int8)[:, None]).max(axis=0)  # up to the last nonzero
    z[1:18] += ord("0")
    # fixed-point for -4 <= E <= 16: the point after digit E, or "0.000" and no point
    head, fixed = (e < 0) & (e >= -4), (e >= 0) & (e <= 16)
    point = (e * fixed + (kept - 1) * head).astype(np.int8)
    length = point + 1 + (kept > point + 1) * (kept - point)  # a point only with a digit after it
    i, f = np.arange(18, dtype=np.int8)[:, None], np.empty((G17_WIDTH, flat.size), np.uint8)
    f[0], f[1:6], f[24:29], body = np.signbit(flat) * np.uint8(ord("-")), e_bytes[:5], e_bytes[5:], f[6:24]
    np.multiply(z[1:19], i <= point, out=body)
    body += z[0:18] * (i > point + 1)
    body += (i == point + 1) * np.uint8(ord("."))
    body *= i < length
    rest = np.flatnonzero(~ok)
    v = flat.take(rest)
    fields = _FIXED[np.where(v != v, 2, np.where(v == 0, 0, 3)) + (np.signbit(v) & (v == v))]
    slow = np.flatnonzero((v != 0) & np.isfinite(v))
    text = list(map(_percent_g17, v.take(slow).tolist()))
    fields[slow] = np.array(text, f"S{G17_WIDTH}").view(np.uint8).reshape(-1, G17_WIDTH)
    f[:, rest] = fields.T
    return np.moveaxis(f.reshape(G17_WIDTH, *np.shape(x)), 0, -1)
