import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slopelab.rationals import (
    ceil_log2,
    ceil_sqrt,
    dyadic_fraction,
    floor_log2,
    format_ratio,
    format_ratios,
    format_rational,
    is_dyadic,
    parse_rational,
    pow2,
    pow2_scale,
    pow2_upper,
)


def test_parse_and_format_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(5, 1)) == "5/1"
    assert parse_rational(format_rational(Fraction(-2, 9))) == Fraction(-2, 9)


LITERAL_PARTS = st.sampled_from(["", " ", "-", "+", "0", "7", "12", "1_0", "/", "/3", ".", ".5", "e", "E-2", "x"])


def fraction_or_none(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def parsed_or_none(text):
    try:
        return parse_rational(text)
    except ValueError:  # never ZeroDivisionError
        return None


@given(st.lists(LITERAL_PARTS, max_size=5).map("".join))
@settings(max_examples=200, deadline=None)
def test_parse_rational_agrees_with_fraction_on_strings(text):
    assert parsed_or_none(text) == fraction_or_none(text)


@given(st.integers(-(10**6000), 10**6000), st.integers(1, 10**6000))
@example(10**5000 + 1, 3)
@settings(max_examples=20, deadline=None)
def test_parse_rational_reads_integers_of_any_length(p, q):
    # format_rational renders past str()'s 4300-digit limit; parsing reads it back
    assert parse_rational(format_rational(Fraction(p, q))) == Fraction(p, q)


@pytest.mark.parametrize(
    "value",
    ["1/0", "-3/000", 0.5, None, True, [1], {"p": 1}],
    ids=["zero", "zeros", "float", "null", "bool", "list", "object"],
)
def test_parse_rational_rejects_what_is_not_a_rational(value):
    with pytest.raises(ValueError):
        parse_rational(value)


def test_is_dyadic():
    assert is_dyadic(Fraction(3, 8))
    assert is_dyadic(Fraction(0))
    assert is_dyadic(Fraction(1))
    assert not is_dyadic(Fraction(1, 3))
    assert not is_dyadic(Fraction(5, 6))


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)))
@settings(max_examples=60, deadline=None)
def test_floor_log2_brackets_value(x):
    e = floor_log2(x)
    assert pow2(e) <= x < pow2(e + 1)


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)))
@example(Fraction(1, 2**12))
@example(Fraction(2**12))
@example(Fraction(2**12 + 1, 2**12))
@settings(max_examples=60, deadline=None)
def test_ceil_log2_brackets_value(x):
    e = ceil_log2(x)
    assert pow2(e - 1) < x <= pow2(e)


def test_ceil_log2_decides_at_huge_values():
    # past the materialization cap, floor_log2 and ceil_log2 still decide
    assert ceil_log2(Fraction(1, 2**100)) == -100
    assert ceil_log2(Fraction(1, 2**100 - 1)) == -99
    assert ceil_log2(Fraction(2**100 + 1)) == 101
    big = 3 ** (2**14)  # 2**e is never materialized for exponents this far past the cap
    assert ceil_log2(Fraction(big)) == big.bit_length()
    assert ceil_log2(Fraction(1, big)) == 1 - big.bit_length()


def test_pow2_guards_and_upper_bound():
    with pytest.raises(OverflowError):
        pow2(2**40)
    assert pow2_upper(-(2**40)) > 0
    assert pow2_upper(-3) == Fraction(1, 8)
    assert pow2_upper(5) == 32 and pow2_upper(-16385) == pow2(-16384)


@given(st.integers(-(1 << 300), 1 << 300), st.integers(0, 300), st.integers(0, 40))
@example(0, 16384, 0)
@example(1, 0, 0)
@example(-3, 5, 16384)
@example(5, 2, 16384)
@settings(max_examples=200, deadline=None)
def test_dyadic_fraction_is_the_reduced_fraction(numerator, exponent, twos):
    # numerators with up to 40 extra twos, fewer or more than the exponent holds
    numerator <<= twos
    got = dyadic_fraction(numerator, exponent)
    expected = Fraction(numerator, 1 << exponent)
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
    assert type(got) is Fraction and got == expected and hash(got) == hash(expected)


def test_pow2_scale_is_the_integer_of_pow2_and_refuses_the_same_exponents():
    for e in (-16384, -3, 0, 5, 16384):
        assert pow2_scale(e) == 1 << abs(e)
        assert pow2(e) == Fraction(2) ** e
    for e in (-16385, 16385):
        for power in (pow2_scale, pow2):
            with pytest.raises(OverflowError, match=rf"^2\*\*{e} exceeds the materialization cap$"):
                power(e)


@st.composite
def trajectories(draw):
    """Pairs whose twos rise, fall and repeat, mixed with odd denominators and zero numerators."""
    twos = draw(st.integers(0, 64))
    pairs = []
    for step in draw(st.lists(st.sampled_from([-40, -1, 0, 0, 1, 2, 3, 700]), max_size=40)):
        twos = max(0, twos + step)
        numerator = draw(st.just(0) | st.integers(-(10**40), 10**40))
        odd = draw(st.integers(0, 10**6)) * 2 + 1
        pairs.append((numerator, draw(st.sampled_from([1 << twos, odd, odd << twos]))))
    return pairs


@given(trajectories())
@example([(1, 1 << t) for t in (0, 2, 2, 16384, 16384, 16383, 4096, 16384, 16385)])
@example([(0, 1), (5, 3), (0, 1 << 16384), (7, 1 << 16384), (3, 1), (1, 1 << 9)])
@example([(-1, 1), (-3, 1 << 16385), (-(10**5000), 7), (-5, 1 << 16385)])
@settings(max_examples=150, deadline=None)
def test_format_ratios_renders_each_pair_as_format_ratio(pairs):
    texts = list(format_ratios(pairs))
    assert texts == [format_ratio(p, q) for p, q in pairs]
    # canonical_json writes these as their own JSON string bodies, unescaped
    assert all(re.fullmatch(r"-?[0-9]+/[0-9]+", text) for text in texts)


def test_format_ratios_renders_twos_past_the_str_digit_limit():
    # 2**16384 has 4933 digits, past the 4300 that str() converts
    (text,) = format_ratios([(1, 1 << 16384)])
    assert text == f"1/{Decimal(1 << 16384)}"
    assert len(text) == 2 + 4933


def test_ceil_log2():
    assert ceil_log2(Fraction(8)) == 3
    assert ceil_log2(Fraction(9)) == 4
    assert ceil_log2(Fraction(1, 3)) == -1


def test_ceil_sqrt():
    assert ceil_sqrt(Fraction(13)) == 4
    assert ceil_sqrt(Fraction(16)) == 4
    assert ceil_sqrt(Fraction(1, 4)) == 1


def test_decimal_string_rounds_exactly_without_floats():
    from slopelab.rationals import decimal_string

    assert decimal_string(Fraction(1, 3), 6) == "0.333333"
    assert decimal_string(Fraction(2, 3), 4) == "0.6667"
    assert decimal_string(Fraction(-5, 9), 3) == "-0.556"
    assert decimal_string(Fraction(7, 2), 0) == "4"
    assert decimal_string(Fraction(125, 729), 8) == "0.17146776"
    with pytest.raises(ValueError):
        decimal_string(Fraction(1, 2), -1)
