from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slopelab.bits import (
    BitSource,
    DyadicCoordinateError,
    bits_of_fraction,
    constant_bits,
    fraction_from_bits,
    interleave,
    pattern_bits,
)
from slopelab.rationals import is_dyadic, pow2


def long_division_bits(value: Fraction, count: int) -> list[int]:
    """Independent oracle: base-2 long division."""
    out = []
    rem = value
    for _ in range(count):
        rem *= 2
        bit = 1 if rem >= 1 else 0
        out.append(bit)
        rem -= bit
    return out


def test_expansion_of_thirds_matches_long_division():
    assert list(bits_of_fraction(Fraction(1, 3)).prefix(12)) == long_division_bits(Fraction(1, 3), 12)
    assert bits_of_fraction(Fraction(1, 3)).prefix(8) == (0, 1, 0, 1, 0, 1, 0, 1)
    assert bits_of_fraction(Fraction(2, 3)).prefix(8) == (1, 0, 1, 0, 1, 0, 1, 0)


def test_dyadic_coordinates_rejected():
    with pytest.raises(DyadicCoordinateError):
        bits_of_fraction(Fraction(1, 2))
    with pytest.raises(DyadicCoordinateError):
        bits_of_fraction(Fraction(0))
    with pytest.raises(ValueError):
        bits_of_fraction(Fraction(3, 2))


@given(st.fractions(min_value=0, max_value=1, max_denominator=10**6), st.integers(1, 48))
@settings(max_examples=60, deadline=None)
def test_expansion_round_trips_within_tolerance(value, depth):
    try:
        src = bits_of_fraction(value)
    except DyadicCoordinateError:
        return
    partial = fraction_from_bits(src.prefix(depth))
    assert partial <= value < partial + pow2(-depth)
    assert src.prefix(depth) == tuple(long_division_bits(value, depth))


def test_interleave_definition_and_identity():
    ones, zeros = constant_bits(1), constant_bits(0)
    merged = interleave([ones, zeros])
    assert merged.prefix(8) == (1, 0, 1, 0, 1, 0, 1, 0)
    single = interleave([pattern_bits([0, 1, 1])])
    assert single.prefix(6) == (0, 1, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        interleave([])


def test_interleaving_equal_sources_duplicates_bits():
    z = bits_of_fraction(Fraction(1, 3))
    merged = interleave([z, z])
    for k in range(64):
        assert merged.bit(2 * k) == merged.bit(2 * k + 1) == z.bit(k)


@given(st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_project_inverts_interleave(n, depth):
    sources = [bits_of_fraction(Fraction(1, p)) for p in (3, 5, 7, 11)[:n]]
    merged = interleave(sources)
    for j, src in enumerate(sources):
        for k in range(depth):
            assert merged.bit(n * k + j) == src.bit(k)


non_dyadic = st.fractions(0, 1, max_denominator=10**4).filter(lambda x: not is_dyadic(x))
leaf_sources = st.one_of(
    st.sampled_from([0, 1]).map(constant_bits),
    st.builds(pattern_bits, st.lists(st.sampled_from([0, 1]), min_size=1, max_size=9), st.booleans()),
    non_dyadic.map(bits_of_fraction),
)
nested_sources = st.recursive(
    leaf_sources, lambda parts: st.lists(parts, min_size=1, max_size=4).map(interleave), max_leaves=8
)


@given(nested_sources, st.integers(0, 300))
@example(interleave([interleave([constant_bits(1), pattern_bits([1, 0, 0], False)]), bits_of_fraction(Fraction(5, 7))]), 0)
@example(pattern_bits([1, 1, 0], repeat=False), 7)
@settings(max_examples=150, deadline=None)
def test_whole_prefixes_match_the_per_bit_loop(source, n):
    # rational, repeating-pattern and interleave sources write whole prefixes; bit() one index at a time is the oracle
    assert source.prefix(n) == tuple(source.bit(k) for k in range(n))


def test_a_source_without_a_whole_prefix_rule_checks_each_bit():
    assert BitSource(lambda k: k % 2).prefix(4) == (0, 1, 0, 1)
    with pytest.raises(ValueError, match="bits: bit 2 evaluated to 2"):
        BitSource(lambda k: k).prefix(3)
