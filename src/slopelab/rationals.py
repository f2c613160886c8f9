"""Exact rational and dyadic arithmetic helpers.

Everything downstream works over plain ``fractions.Fraction``; this module
owns parsing, dyadic classification, rational vectors, and the power-of-two
comparisons that keep astronomically large exponents out of materialized
arithmetic.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Iterator, Sequence

# Largest |exponent| for which 2**e is materialized as a Fraction.  Beyond
# this, callers refuse (OverflowError or a config error), the exclusion sweep
# counts a thinner term as 2**-POW2_MATERIALIZE_CAP, and tent ramps are
# decided by bit lengths.
POW2_MATERIALIZE_CAP = 1 << 14

Vector = tuple[Fraction, ...]


# "p/q" or "p" in the grammar Fraction(str) accepts for integer literals
_INTEGER_RATIO = re.compile(r"\s*([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?\s*")


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse a "p/q" or "p" literal, or any string Fraction accepts, exactly.

    Integer parts of any length are read exactly; anything that is not a
    string, an int or a Fraction, and a zero denominator, raise ValueError.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f'{text!r} is not a rational literal; write it as a "p/q" string')
    ratio = _INTEGER_RATIO.fullmatch(text)
    if ratio is None:
        return Fraction(text)  # decimal and exponent forms
    numerator, denominator = _integer(ratio[1]), _integer(ratio[2] or "1")
    if denominator == 0:
        raise ValueError(f"rational literal {text!r} has a zero denominator")
    return Fraction(numerator, denominator)


def _integer(literal: str) -> int:
    """int() of a literal of any length; Decimal, which costs memory, only past int()'s limit."""
    try:
        return int(literal)
    except ValueError:
        return int(Decimal(literal))


def format_integer(n: int) -> str:
    """Exact decimal digits of an integer of any size.

    str() refuses integers longer than the interpreter's digit limit (4300
    by default); Decimal converts without that limit.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def format_ratio(numerator: int, denominator: int) -> str:
    """Canonical "p/q" form of a pair in lowest terms with denominator > 0."""
    return f"{format_integer(numerator)}/{format_integer(denominator)}"


# Exact integer arithmetic in Decimal: a result that would need rounding raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])


def format_ratios(pairs: Iterable[tuple[int, int]]) -> Iterator[str]:
    """format_ratio of each pair, in order: the one rule that renders a trajectory.

    A trajectory's denominators are mostly powers of two that rise along it,
    and str() of 2**t costs time quadratic in t.  So a denominator 2**t with t
    at least the last power rendered this way is read off a running exact
    Decimal power, multiplied up by 2**(t - t_prev), whose digits are reused
    while t holds.  Every other denominator goes through format_ratio.  The
    strings are yielded one at a time, so a caller that wraps each one holds
    only its own copy.  Each is ASCII, an optional "-", digits, "/" and
    digits, so it is its own JSON string body.
    """
    twos, power, digits = 0, Decimal(1), "1"  # the running power 2**twos and its digits
    for numerator, denominator in pairs:
        if denominator & (denominator - 1) == 0 and denominator >> twos:  # 2**t with t >= twos
            t = denominator.bit_length() - 1
            if t != twos:
                power = _EXACT.multiply(power, _EXACT.power(2, t - twos))
                twos, digits = t, str(power)
            yield f"{format_integer(numerator)}/{digits}"
        else:
            yield format_ratio(numerator, denominator)


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form, denominator always present."""
    return format_ratio(value.numerator, value.denominator)


def decimal_string(value: Fraction, digits: int) -> str:
    """Correctly rounded decimal rendering (ties away from zero), no floats."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**digits
    units, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        units += 1
    text = format_integer(units).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator."""
    return common_denominator_of_pairs(v.as_integer_ratio() for v in values)


def common_denominator_of_pairs(pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Integer pairs (a, b > 0), read as a / b, as numerators over the least common multiple of their b."""
    pairs = list(pairs)
    denominator = lcm(*{b for _, b in pairs})
    return [a * (denominator // b) for a, b in pairs], denominator


def is_dyadic(value: Fraction) -> bool:
    """True iff value = k / 2**s for integers k, s >= 0."""
    den = value.denominator
    return den & (den - 1) == 0


def pow2_scale(exponent: int) -> int:
    """The integer 2**|exponent| that pow2(exponent) is built from; refuses the same exponents."""
    if abs(exponent) > POW2_MATERIALIZE_CAP:
        raise OverflowError(f"2**{exponent} exceeds the materialization cap")
    return 1 << abs(exponent)


def pow2(exponent: int) -> Fraction:
    """Exact 2**exponent as a Fraction; refuses absurd materializations."""
    scale = pow2_scale(exponent)
    return Fraction(scale) if exponent >= 0 else Fraction(1, scale)


# Fraction(n, d) for n, d already coprime, built without the gcd (Python 3.12
# names this constructor; 3.10 and 3.11 take _normalize=False)
_coprime = getattr(Fraction, "_from_coprime_ints", None) or (lambda n, d: Fraction(n, d, _normalize=False))


def dyadic_fraction(numerator: int, exponent: int) -> Fraction:
    """Exact numerator / 2**exponent, exponent >= 0, in lowest terms by stripping the common twos.

    Fraction(n, 2**k) would take math.gcd(n, 2**k), which costs time
    quadratic in k (about 0.5 ms at k = POW2_MATERIALIZE_CAP); once the
    common twos are stripped the pair is coprime, and no gcd is taken.
    """
    if not numerator:
        return Fraction(0)
    twos = min((numerator & -numerator).bit_length() - 1, exponent)
    return _coprime(numerator >> twos, 1 << (exponent - twos))


def pow2_upper(exponent: int) -> Fraction:
    """A representable upper bound for 2**exponent (exact when within cap).

    Only meaningful for negative exponents: exponents below the cap are
    clamped upward to 2**-POW2_MATERIALIZE_CAP, which keeps <=-assertions
    valid while staying representable.
    """
    return pow2(max(exponent, -POW2_MATERIALIZE_CAP))


def floor_log2(value: Fraction) -> int:
    """Largest e with 2**e <= value (value > 0), computed via bit lengths."""
    if value <= 0:
        raise ValueError("floor_log2 requires a positive value")
    num, den = value.numerator, value.denominator
    # num/den lies in (2**(e-1), 2**(e+1)), so the answer is e or e-1.
    e = num.bit_length() - den.bit_length()
    at_least = num >= den << e if e >= 0 else num << -e >= den
    return e if at_least else e - 1


def ceil_log2(value: Fraction) -> int:
    """Smallest e with 2**e >= value (value > 0): 2**e >= value exactly when 2**-e <= 1/value."""
    return -floor_log2(Fraction(value.denominator, value.numerator))


def int_ceil_log2(k: int) -> int:
    """ceil(log2(k)) for an integer k >= 1."""
    return (k - 1).bit_length()


def ceil_sqrt(value: Fraction) -> int:
    """Smallest integer k with k*k >= value (value >= 0)."""
    if value < 0:
        raise ValueError("ceil_sqrt requires a nonnegative value")
    ceiling = -((-value.numerator) // value.denominator)
    k = isqrt(ceiling)
    return k if k * k >= value else k + 1


# ---------------------------------------------------------------------------
# Rational vectors


def as_vector(values: Iterable[Fraction | int | str]) -> Vector:
    return tuple(parse_rational(v) for v in values)


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(scalar: Fraction, vec: Sequence[Fraction]) -> Vector:
    return tuple(scalar * x for x in vec)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def norm_sq(vec: Sequence[Fraction]) -> Fraction:
    return sum((x * x for x in vec), Fraction(0))


def in_unit_cube(point: Sequence[Fraction]) -> bool:
    return all(0 <= x <= 1 for x in point)


def unit_axis(dimension: int, axis: int) -> Vector:
    if not 0 <= axis < dimension:
        raise ValueError(f"axis {axis} out of range for dimension {dimension}")
    return tuple(Fraction(1 if i == axis else 0) for i in range(dimension))
