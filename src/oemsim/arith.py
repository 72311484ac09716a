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

The fields come out row-major, one element's G17_WIDTH bytes after another, in
fixed places: sign and "0.000" right-aligned in places 0-5 against the digits
and point from place 6, then "e+123".  An optional end character (a table's
separator) follows the digits where no exponent does, else the exponent, so
the text of a field in fixed-point form is one run of bytes without NUL.  The
digit work runs column-major, each numpy call over one digit place or all of
them, and ends in one transposing copy into the fields.  All of it runs in one
buffer of G17_BYTES per element, which a caller formatting slice after slice
allocates once and lends to every call.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter: x = hi + lo, halves of 26 bits
# bytes per element of format_g17: sign and "0.000"; 17 digits, a point and the end; "e+123" and the end;
# a NUL, so that a field is a 32-byte row, which numpy gathers and copies faster than a 31-byte one
G17_WIDTH = 32
G17_BYTES = 78  # per element of the working memory of format_g17, its fields included
_percent_g17 = "%.17g".__mod__  # where format_g17 leaves an element to Python
_FIXED = (b"0", b"-0", b"nan", b"inf", b"-inf")
_RANKS = np.arange(1, 18, dtype=np.uint8)[:, None]  # of digit rows 1..17
_PLACES = np.arange(19, dtype=np.int8)[:, None]  # of the places 6-24 of a field: digits, point and end


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


def distinct_rows(rows):
    """(the distinct rows of a 2-D array, ascending, and each row's index among them), as
    ``np.unique(rows, axis=0, return_inverse=True)`` gives them, ``==`` deciding, in one lexsort."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ordered, new = rows[order], np.ones(len(rows), bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


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


def _veltkamp(x, hi=None, lo=None):
    hi = np.multiply(_SPLIT, x, out=hi)
    hi -= np.subtract(hi, x, out=lo)
    return hi, np.subtract(x, hi, out=lo)


@functools.lru_cache(maxsize=32)
def _exponent_table(first: int, last: int, end: str):
    """Per E = first..last: 10**(16 - E) as double-double hi, lo, and a field per E and sign (rows
    2(E - first) and 2(E - first) + 1): sign and "0.000" head right-aligned in places 0-5, so they
    abut the digits, the digits' places 6-24 NUL, "e+123" and the end right-aligned in 25-30, then NUL."""
    hi, lo, text = [], [], ""
    for e in range(first, last + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi.append(num / den)  # int division rounds correctly
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
        head, tail = "0.000"[: 1 - e if -4 <= e < 0 else 0], "e%+03d" % e + end if e < -4 or e > 16 else ""
        for sign in ("", "-"):
            text += ((sign + head).rjust(6, "\0") + "\0" * 19 + tail.rjust(6, "\0")).ljust(G17_WIDTH, "\0")
    return np.array(hi), np.array(lo), np.frombuffer(text.encode(), np.uint8).reshape(-1, G17_WIDTH)


def format_g17(x, buffer=None, end=""):
    """``'%.17g' % v + end`` of each element v of ``x`` as ASCII: uint8, shape ``x.shape + (G17_WIDTH,)``.

    A character has a fixed place in its field, the places left empty are NUL, and the text of a
    field has no NUL inside when it is in fixed-point form.  ``end`` is empty or one character.
    The fields are built row-major, each element's field contiguous, in ``buffer``, a uint8 array
    of G17_BYTES bytes or more per element that the caller lends, so the result is a view that
    is valid until the buffer's next use; without one the call allocates its own.
    """
    x = np.asarray(x)
    shape, n = x.shape, x.size
    buffer = np.empty(G17_BYTES * n, np.uint8) if buffer is None else buffer

    def part(first, last, dtype=np.uint8):  # bytes first * n to last * n of the buffer
        return buffer[first * n : last * n].view(dtype)

    # per element: eight float rows in bytes 0-64 (in turn integers), then the digits in 57-77,
    # then the digits' places in 0-19 and the fields in 19-51; the fast-path flag in 77
    ax, hi, p, a_hi, a_lo, b_hi, b_lo, s = part(0, 64, np.float64).reshape(8, n)
    np.abs(x, out=ax.reshape(shape))
    ok = np.logical_and(ax > 1e-250, ax < 1e250, out=part(77, 78, bool))
    ax[~ok] = 1.0
    e = np.floor(np.log10(ax), out=s).astype(np.int16)
    first, last = (int(e.min()), int(e.max())) if n else (0, 0)  # the exponents this call spans
    hi_table, lo_table, templates = _exponent_table(first, last, end)
    index = e - first
    # the module docstring's sum, product by product: |x| and hi split by _veltkamp
    np.multiply(ax, np.take(hi_table, index, out=hi, mode="clip"), out=p)
    (a_hi, a_lo), (b_hi, b_lo) = _veltkamp(ax, a_hi, a_lo), _veltkamp(hi, b_hi, b_lo)
    np.subtract(np.multiply(a_hi, b_hi, out=s), p, out=s)
    s += np.multiply(a_hi, b_lo, out=a_hi)
    s += np.multiply(a_lo, b_hi, out=b_hi)
    s += np.multiply(a_lo, b_lo, out=a_lo)
    s += np.multiply(ax, np.take(lo_table, index, out=hi, mode="clip"), out=ax)
    r = np.rint(s, out=ax)
    below = s < r
    digits, scratch = hi.view(np.int64), a_hi.view(np.int64)
    np.copyto(digits, p, casting="unsafe")
    np.copyto(scratch, r, casting="unsafe")
    digits += scratch
    ok &= np.abs(np.subtract(s, r, out=s), out=s) < 0.5 - 2.0**-30
    ok &= (np.subtract(digits, below, out=scratch) >= 10**16) & (digits < 10**17)
    # the digits of D // 10**9 and of D % 10**9, 9 rows each (the first row of the high half is 0)
    q, t, tens = (row.view(np.int32).reshape(2, n) for row in (a_lo, b_hi, b_lo))
    np.floor_divide(digits, 10**9, out=q[0], casting="unsafe")
    np.subtract(digits, np.multiply(q[0], np.int64(10**9), out=scratch), out=q[1], casting="unsafe")
    z = part(57, 77).reshape(20, n)  # rows 1..17 the digits; 0, 18 and 19 meet only zero factors below
    for place in range(8, -1, -1):
        np.subtract(q, np.multiply(np.floor_divide(q, 10, out=t), 10, out=tens), out=tens)
        z[:18].reshape(2, 9, n)[:, place] = tens
        q, t = t, q
    body, shifted = part(0, 38).reshape(2, 19, n)
    mask = part(38, 57, bool).reshape(19, n)
    np.not_equal(z[1:18], 0, out=mask[:17])
    kept = np.multiply(mask[:17], _RANKS, out=body[:17]).max(axis=0).astype(np.int8)  # up to the last nonzero
    z[1:18] += ord("0")
    # fixed-point for -4 <= E <= 16: the point after digit E, or "0.000" and no point
    head, fixed = (e < 0) & (e >= -4), (e >= 0) & (e <= 16)
    point = (e * fixed + (kept - 1) * head).astype(np.int8)
    length = point + 1 + (kept > point + 1) * (kept - point)  # a point only with a digit after it
    np.multiply(z[1:20], np.less_equal(_PLACES, point, out=mask), out=body)
    body += np.multiply(z[0:19], np.greater(_PLACES, point + 1, out=mask), out=shifted)
    body += np.multiply(np.equal(_PLACES, point + 1, out=mask), np.uint8(ord(".")), out=shifted)
    body *= np.less(_PLACES, length, out=mask)
    if end:  # right after the digits, where no exponent follows them
        at_end = np.equal(_PLACES, np.where(head | fixed, length, -1), out=mask)
        body += np.multiply(at_end, np.uint8(ord(end)), out=shifted)
    fields = part(19, 51).reshape(n, G17_WIDTH)
    np.take(templates, 2 * index + np.signbit(x).ravel(), axis=0, out=fields, mode="clip")
    fields[:, 6:25] = body.T
    rest = np.flatnonzero(~ok)
    if rest.size:
        v = np.ravel(x)[rest]
        words = np.array([w + end.encode() for w in _FIXED], f"S{G17_WIDTH}").view(np.uint8).reshape(len(_FIXED), -1)
        fields[rest] = words[np.where(v != v, 2, np.where(v == 0, 0, 3)) + (np.signbit(v) & (v == v))]
        slow = np.flatnonzero((v != 0) & np.isfinite(v))
        text = [t + end for t in map(_percent_g17, v.take(slow).tolist())]
        fields[rest[slow]] = np.array(text, f"S{G17_WIDTH}").view(np.uint8).reshape(-1, G17_WIDTH)
    return fields.reshape(shape + (G17_WIDTH,))
