"""arith.power on arrays: bit-identical to libm pow, as Python's ``**`` on a float is."""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oemsim.arith import power


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
