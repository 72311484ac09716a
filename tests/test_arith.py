"""arith on arrays: ``power`` is bit-identical to libm pow, as Python's ``**`` on a float is, and
``format_g17`` writes the bytes of ``'%.17g' % x``."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oemsim import arith
from oemsim.arith import format_g17, power


def libm_power(x: float, exponent: float) -> float:
    """math.pow, or NaN where it raises OverflowError (arith.power's array rule)."""
    try:
        return math.pow(x, exponent)
    except OverflowError:
        return math.nan


def assert_libm_powers(values, exponent=2):
    got = power(np.array(values, dtype=float), exponent)
    assert got.dtype == np.float64 and got.shape == (len(values),)
    expected = [libm_power(v, float(exponent)).hex() for v in values]
    assert [v.hex() for v in got.tolist()] == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
@example([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324])
def test_square_and_cube_are_libm_pow(values):
    assert_libm_powers(values, 2)
    assert_libm_powers(values, 3)


def test_square_where_correct_rounding_and_pow_differ():
    # x*x is correctly rounded and glibc's pow is not: every input here is one where they differ
    rng = np.random.default_rng(20261019)
    near_one = rng.uniform(0.5, 2.0, 1_500_000)
    spread = np.exp(rng.uniform(math.log(1e-150), math.log(1e150), 500_000))
    spread *= rng.choice([-1.0, 1.0], spread.size)
    values = [x for x in np.concatenate([near_one, spread]).tolist() if x * x != x**2]
    assert len(values) >= 1000  # about one input in a thousand
    assert_libm_powers(values)


def test_square_at_the_range_boundaries():
    # underflow to a subnormal or zero, the rule's own bounds 1e-140 and 1e150, and overflow
    # (Python raises there, so the array gives NaN)
    edges = [5e-324, 1e-300, 1e-140, 1e100, 1e150, 1.34e154, 1.3407807929942596e154, 1e200]
    values = [v for x in edges for v in (x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))]
    assert_libm_powers(values)
    assert math.isnan(power(np.array([1e200]), 2)[0])


def g17_strings(values):
    fields = format_g17(np.array(values, dtype=float))
    assert fields.dtype == np.uint8 and fields.shape == (len(values), arith.G17_WIDTH)
    return [bytes(field[field != 0]).decode("ascii") for field in fields]


def assert_percent_g17(values):
    assert g17_strings(values) == ["%.17g" % v for v in values]


def count_fallbacks(monkeypatch, values):
    """How many elements of ``values`` format_g17 hands to Python's ``%``."""
    calls = []
    percent = arith._percent_g17
    monkeypatch.setattr(arith, "_percent_g17", lambda v: calls.append(v) or percent(v))
    assert_percent_g17(values)
    return len(calls)


# exact 18-digit ties, 5 as the last digit: '%.17g' rounds them half to even
TIES = [s * (b + m * 2.0**-q) for s in (1, -1) for b, q in ((1, 17), (0.5, 18), (10, 16)) for m in range(1, 65, 2)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
@example([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324])
def test_g17_is_percent_formatting(values):
    assert_percent_g17(values)


def test_g17_exact_ties():
    assert all(("%.18g" % t).endswith("5") for t in TIES)
    assert g17_strings([1 + 2**-17]) == ["1.0000076293945312"]
    assert_percent_g17(TIES)


def test_g17_powers_of_ten_and_neighbours():
    # 1e-30 to 1e30, and the doubles nearest 10**k that lie below it yet print as 1e+k: their
    # 17 digits round up to the next power of ten
    exponents = range(-249, 250)
    nearest = [float(f"1e{k}") for k in exponents]
    carried = [
        x for k, x in zip(exponents, nearest) if Fraction(x) < Fraction(10) ** k and ("%.17g" % x).startswith("1e")
    ]
    assert len(carried) >= 10
    powers = [x for k, x in zip(exponents, nearest) if -30 <= k <= 30] + carried
    assert_percent_g17([v for x in powers for v in (x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))])


@pytest.mark.parametrize("bias", [-1e-9, 1e-9])
def test_g17_with_log10_off_by_one(monkeypatch, bias):
    # a log10 that rounds across an integer next to a power of ten gives E one off: the bounds
    # on the digits send those elements to Python
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + bias)
    powers = [10.0**k for k in range(-22, 23)]
    assert_percent_g17([v for x in powers for v in (x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))])


def test_g17_fast_path_bounds():
    edges = [1e-250, 1e250, 1e-251, 1e249, 1e-300, 1e300, 2.2250738585072014e-308, 1.7976931348623157e308]
    assert_percent_g17([v for x in edges for v in (x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))])


def test_g17_integer_valued():
    values = [1.0, 2.0, 10.0, 100.0, 123456789.0, 2.0**53, 1e16, 1e17, 2.0**60, 12345678901234567.0]
    assert g17_strings(values)[:2] == ["1", "2"]
    assert g17_strings([2.0**60]) == ["1.152921504606847e+18"]
    assert_percent_g17(values + [-v for v in values])


def test_g17_fallback_count(monkeypatch):
    # only the ties and the elements outside (1e-250, 1e250) go to Python; 0, -0, nan and
    # +-inf are fixed strings.  Mantissas away from 1 and 10 keep log10 clear of an integer, and
    # no value lies between 1e10 and 1e17, where a double's few fraction bits can make a tie
    rng = np.random.default_rng(20261019)
    magnitudes = np.concatenate([rng.integers(-240, 10, 3000), rng.integers(17, 240, 1000)])
    plain = (rng.uniform(1.5, 9.5, 4000) * 10.0**magnitudes).tolist()
    outside = [5e-324, -1e-300, 1e-251, 1e251, -1e300, 1.7976931348623157e308]
    fixed = [0.0, -0.0, math.nan, math.inf, -math.inf]
    assert count_fallbacks(monkeypatch, plain + TIES + outside + fixed) == len(TIES) + len(outside)
    assert count_fallbacks(monkeypatch, plain) == 0


# 17 significant digits times 10**k, k from -300 to 300, of either sign
SCALED = st.builds(lambda m, k, s: s * m * 10.0**k, st.floats(1.0, 10.0), st.integers(-300, 300), st.sampled_from([1, -1]))
EDGES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300]
POWERS = [v for k in range(-30, 31) for x in (10.0**k,) for v in (x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))]


def assert_shared_buffers_format(buffer, values, end):
    for chunk in (values, values[: len(values) // 2], values[::-1]):  # a longer call, then shorter ones
        fields = format_g17(np.array(chunk, dtype=float), buffer, end)
        assert fields.shape == (len(chunk), arith.G17_WIDTH)
        assert [bytes(field[field != 0]).decode("ascii") for field in fields] == ["%.17g" % v + end for v in chunk]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True) | SCALED | st.sampled_from(EDGES + TIES), min_size=1, max_size=40),
       st.sampled_from(["", ",", " "]))
@example(EDGES + TIES[:20], ",")
def test_g17_in_a_reused_buffer_over_garbage(values, end):
    # every byte of the working memory is garbage before the first call, and the stale bytes of
    # each call before the next
    buffer = np.full(arith.G17_BYTES * len(values), 0xA5, np.uint8)
    assert_shared_buffers_format(buffer, values, end)


@pytest.mark.parametrize("end", ["", ","])
def test_g17_in_a_reused_buffer_ties_and_powers_of_ten(end):
    buffer = np.full(arith.G17_BYTES * len(POWERS), 0xFF, np.uint8)
    assert_shared_buffers_format(buffer, TIES, end)
    assert_shared_buffers_format(buffer, POWERS, end)


def test_g17_of_a_transposed_view_is_row_major():
    # a sweep slice: columns of values read across, each row's fields in column order
    columns = np.array([[-1.5e-300, 0.25, math.nan], [3.0, -0.0, 1e22]])
    fields = format_g17(columns.T, np.full(arith.G17_BYTES * 6, 0xA5, np.uint8), " ")
    assert fields.shape == (3, 2, arith.G17_WIDTH)
    assert [[bytes(f[f != 0]).decode("ascii") for f in row] for row in fields] == [
        ["%.17g " % v for v in row] for row in columns.T.tolist()
    ]
