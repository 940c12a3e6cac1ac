import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightpath.floatrepr import CHUNK, format_rows


def percent_r(table):
    """The reference: one ``%r`` row format over the whole table."""
    rows, columns = table.shape
    return ((",".join(["%r"] * columns) + "\n") * rows) % tuple(table.ravel().tolist())


def assert_rows_match(values, columns=1):
    values = np.asarray(values, dtype=float)
    table = values[: len(values) // columns * columns].reshape(-1, columns)
    assert format_rows(table) == percent_r(table)


SMALLEST_NORMAL = 2.2250738585072014e-308
EDGES = [
    float(value)
    for value in (
        0.0,
        -0.0,
        np.inf,
        -np.inf,
        np.nan,
        -np.nan,
        np.array(0x7FF0_0000_DEAD_BEEF, dtype=np.uint64).view(float).item(),  # a NaN payload
        5e-324,
        1e-323,
        1.5e-323,
        -5e-324,
        SMALLEST_NORMAL,
        np.nextafter(SMALLEST_NORMAL, 0.0),
        1.7976931348623157e308,
        -1.7976931348623157e308,
        1e22,
        1e23,
        1e-4,
        np.nextafter(1e-4, 0.0),
        np.nextafter(1e-4, 1.0),
        1e16,
        np.nextafter(1e16, 0.0),
        np.nextafter(1e16, np.inf),
        2.0**53 - 1,
        2.0**53 + 1,
        2.0**53 + 2,
        1e-5,
        1e15,
        0.1,
        1.0,
        -1.5,
        123456.789,
        1e100,
        -2.5e-100,
        1.234e-300,
        9.87e299,
        # An odd significand whose rounding interval's end is a shorter
        # decimal: the interval must stay open there.
        2.8131768692576492e16,
        # The exact midpoint of two shortest candidates: ties go to the even one.
        622365932759631.8,
    )
]


@pytest.mark.parametrize("value", EDGES, ids=repr)
def test_edge_values(value):
    assert_rows_match([value])


def test_edge_values_in_rows():
    # The last field of each row carries the newline.
    assert_rows_match(EDGES, columns=7)
    assert_rows_match(EDGES, columns=len(EDGES))


def bit_patterns():
    """Raw 64-bit patterns: either sign, exponents weighted to zero
    (subnormals), the extremes and all-ones (infinities, NaN payloads)."""
    exponents = st.one_of(st.sampled_from([0, 1, 0x7FE, 0x7FF]), st.integers(0, 0x7FF))
    return st.tuples(st.booleans(), exponents, st.integers(0, 2**52 - 1)).map(
        lambda parts: parts[0] << 63 | parts[1] << 52 | parts[2]
    )


@given(bits=st.lists(bit_patterns(), min_size=1, max_size=80), columns=st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_raw_bit_patterns(bits, columns):
    assert_rows_match(np.array(bits, dtype=np.uint64).view(float), columns)


@given(values=st.lists(st.floats(), min_size=1, max_size=80), columns=st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_floats(values, columns):
    assert_rows_match(values, columns)


def test_seeded_bulk(rng):
    # Many chunks, the last one ragged, in the writer's row layout.
    size = 4 * CHUNK + 5
    assert_rows_match(rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False).view(float), columns=7)
    assert_rows_match(rng.uniform(-1.0, 1.0, size), columns=5)
    assert_rows_match(np.exp(rng.uniform(-745.0, 709.0, size)) * rng.choice([-1.0, 1.0], size), columns=9)
    assert_rows_match(np.arange(1, 2**16, dtype=np.uint64).view(float), columns=3)
    assert_rows_match(rng.integers(-(2**53), 2**53, size).astype(float) * 10.0 ** rng.integers(-3, 5, size), 4)


def test_empty_table():
    assert format_rows(np.empty((0, 4))) == ""
