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
    merged = interleave([z, z]).prefix(128)
    assert merged[0::2] == merged[1::2] == z.prefix(64)


@given(st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_project_inverts_interleave(n, depth):
    sources = [bits_of_fraction(Fraction(1, p)) for p in (3, 5, 7, 11)[:n]]
    merged = interleave(sources).prefix(n * depth)
    for j, src in enumerate(sources):
        assert merged[j::n] == src.prefix(depth)


non_dyadic = st.fractions(0, 1, max_denominator=10**4).filter(lambda x: not is_dyadic(x))

# A source is drawn as a tree, ("constant", bit), ("pattern", bits, repeat),
# ("rational", x) or ("interleave", [trees]), so each kind's laws can name its parts.
leaf_trees = st.one_of(
    st.tuples(st.just("constant"), st.sampled_from([0, 1])),
    st.tuples(st.just("pattern"), st.lists(st.sampled_from([0, 1]), min_size=1, max_size=9).map(tuple), st.booleans()),
    st.tuples(st.just("rational"), non_dyadic),
)
source_trees = st.recursive(
    leaf_trees, lambda parts: st.tuples(st.just("interleave"), st.lists(parts, min_size=1, max_size=4)), max_leaves=8
)


def build(tree) -> BitSource:
    kind, *args = tree
    if kind == "interleave":
        return interleave([build(part) for part in args[0]])
    return {"constant": constant_bits, "pattern": pattern_bits, "rational": bits_of_fraction}[kind](*args)


def bit_oracle(tree, k: int) -> int:
    """Bit k of the tree's source, read one index at a time."""
    kind, *args = tree
    if kind == "constant":
        return args[0]
    if kind == "pattern":
        pattern, repeat = args
        return pattern[k % len(pattern)] if repeat else (pattern[k] if k < len(pattern) else 0)
    if kind == "rational":
        return ((args[0].numerator << (k + 1)) // args[0].denominator) & 1
    parts = args[0]
    return bit_oracle(parts[k % len(parts)], k // len(parts))


def subtrees(tree):
    yield tree
    if tree[0] == "interleave":
        for part in tree[1]:
            yield from subtrees(part)


@given(source_trees, st.integers(0, 300))
@example(("interleave", [("interleave", [("constant", 1), ("pattern", (1, 0, 0), False)]), ("rational", Fraction(5, 7))]), 0)
@example(("pattern", (1, 1, 0), False), 7)
@settings(max_examples=150, deadline=None)
def test_whole_prefixes_match_the_per_bit_loop(tree, n):
    # every source writes whole prefixes; reading its bits one index at a time is the oracle
    assert build(tree).prefix(n) == tuple(bit_oracle(tree, k) for k in range(n))


@given(source_trees, st.integers(0, 120), st.integers(0, 40))
@example(("rational", Fraction(1, 3)), 0, 0)  # a rational source's empty prefix holds no bit
@example(("interleave", [("rational", Fraction(1, 3)), ("constant", 1), ("rational", Fraction(2, 5))]), 1, 0)
@settings(max_examples=150, deadline=None)
def test_every_source_kind_writes_prefixes_of_its_longer_prefixes(tree, n, k):
    for part in subtrees(tree):
        source = build(part)
        prefix = source.prefix(n)
        assert len(prefix) == n and set(prefix) <= {0, 1}
        assert source.prefix(n + k)[:n] == prefix
        kind, *args = part
        if kind == "rational":
            assert list(prefix) == long_division_bits(args[0], n)
        if kind == "interleave":  # merged.prefix(n * k)[j::n] is source j's prefix(k)
            parts = args[0]
            merged = source.prefix(len(parts) * k)
            assert [merged[j :: len(parts)] for j in range(len(parts))] == [build(p).prefix(k) for p in parts]
