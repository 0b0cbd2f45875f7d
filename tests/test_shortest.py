"""The vectorized shortest round-trip formatter against repr, value by value."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_router._shortest import WIDTH, chars

MAX = sys.float_info.max
LARGEST_SUBNORMAL = 2.2250738585072009e-308


def texts(values) -> list[str]:
    text, length = chars(np.asarray(values, dtype=np.float64))
    assert text.shape == (len(length), WIDTH)
    return [row[:n].tobytes().decode("ascii") for row, n in zip(text, length)]


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [repr(v) for v in values.tolist()]
    got = texts(values)
    wrong = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not wrong, f"{len(wrong)} of {len(expected)} differ, first {wrong[:5]}"


def test_random_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, 2 ** 64, 250_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_repr(values[np.isfinite(values)])


def test_powers_of_two():
    # at a power of two the lower neighbour is half as far as the upper one
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_repr(np.concatenate([powers, -powers]))


@pytest.mark.parametrize("value", [
    0.0, -0.0, 5e-324, -5e-324, LARGEST_SUBNORMAL, -LARGEST_SUBNORMAL,
    2.2250738585072014e-308, MAX, -MAX, 1.0, -1.0, 0.1, 0.3,
], ids=repr)
def test_edge_values(value):
    assert texts([value]) == [repr(value)]


@pytest.mark.parametrize("value", [
    1e-4, 1e-5, 0.00012345678901234567, 1.2345e-05, 1e16, 1e15,
    9999999999999998.0, 1.2345678901234567e16, 123456789012345.67, 1e22, 1e100,
    1e-100, 1.5e300, 1e-310,
], ids=repr)
def test_notation_switches(value):
    # fixed notation from 1e-4 up to 16 integer digits, scientific beyond,
    # with two or three exponent digits
    assert texts([value, -value]) == [repr(value), repr(-value)]


def test_integers():
    rng = np.random.default_rng(7)
    scales = 2.0 ** rng.integers(0, 63, 100_000)
    assert_repr(np.floor(rng.random(100_000) * scales))
    assert_repr(np.arange(-1000, 1000, dtype=np.float64))


def test_decimals_and_grids():
    rng = np.random.default_rng(11)
    assert_repr([round(v, int(d)) for v, d in
                 zip(rng.normal(size=50_000) * 1000, rng.integers(0, 12, 50_000))])
    assert_repr(np.linspace(-40.0, 40.0, 19001))
    assert_repr(10.0 ** rng.uniform(-24, 24, 50_000))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=20))
def test_matches_repr(values):
    assert texts(values) == [repr(v) for v in values]
