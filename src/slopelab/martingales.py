"""Exact-rational betting strategies on binary strings.

A martingale assigns each finite 0/1 string a nonnegative capital obeying the
fairness law 2*B(sigma) = B(sigma0) + B(sigma1) exactly.  Slope martingales
read the capital off a monotone function: the value on sigma is the slope of
the function over the dyadic interval coded by sigma, and fairness is then an
algebraic identity that holds for any function, monotone or not.

Success of a strategy is a liminf over an infinite play, so simulations only
report finite-depth capital statistics, never a randomness verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count
from typing import Callable, Iterator, Mapping, Sequence

from .bits import Bits, BitSource, bits_of_fraction, fraction_from_bits, interleave
from .functions import ComputableFunction
from .rationals import Vector, pow2


class MonotonicityError(ValueError):
    pass


class NegativeCapitalError(ValueError):
    """A capital below zero: the strategy is not a martingale."""


Level = Callable[[int], Fraction]  # index -> capital, for one string length


def _index(sigma: Bits) -> int:
    """sigma read as a binary numeral, first bit most significant."""
    index = 0
    for b in sigma:
        index = 2 * index + b
    return index


def _sigma(length: int, index: int) -> Bits:
    """The string of this length whose bits spell index; inverse of _index."""
    return tuple((index >> shift) & 1 for shift in range(length - 1, -1, -1))


@dataclass(frozen=True, eq=False)
class Martingale:
    """Nonnegative exact capital function on binary strings.

    A string sigma is held as (length, index) with index = sigma read in
    binary, so sigma0 and sigma1 are (length + 1, 2 * index) and
    (length + 1, 2 * index + 1).  ``capital(length, index)`` is one value.
    ``levels``, when given, returns a fresh iterator over the levels of
    length 0, 1, 2, ..., each agreeing with ``capital`` at that length, so a
    walk over whole levels can share work between them; without it, level L
    is ``capital(L, .)``.
    """

    capital: Callable[[int, int], Fraction]
    label: str = "martingale"
    levels: Callable[[], Iterator[Level]] | None = None

    def at(self, sigma: Sequence[int]) -> Fraction:
        sigma = tuple(int(b) for b in sigma)
        if any(b not in (0, 1) for b in sigma):
            raise ValueError("strings are over {0, 1}")
        index = _index(sigma)
        return self._nonnegative(len(sigma), index, self.capital(len(sigma), index))

    def _nonnegative(self, length: int, index: int, value: Fraction) -> Fraction:
        if value.numerator < 0:  # a Fraction's sign; cheaper than comparing Fractions
            raise NegativeCapitalError(
                f"{self.label}: negative capital {value} at {_sigma(length, index)}"
            )
        return value


def check_fairness(m: Martingale, depth: int) -> Bits | None:
    """Exact fairness check on all strings of length < depth; witness or None.

    Level L is compared with level L + 1, and only those two are live.
    Strings are visited length-major in lexicographic order, each one's
    children checked for a negative capital before its own fairness law, so
    the witness and any negative-capital error are the first in that order.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return None
    levels = m.levels() if m.levels is not None else (partial(m.capital, n) for n in count())
    parent = next(levels)
    m._nonnegative(0, 0, parent(0))
    for length in range(depth):
        child = next(levels)
        for index in range(1 << length):
            left = m._nonnegative(length + 1, 2 * index, child(2 * index))
            right = m._nonnegative(length + 1, 2 * index + 1, child(2 * index + 1))
            if 2 * parent(index) != left + right:
                return _sigma(length, index)
        parent = child
    return None


def constant_martingale(value: Fraction | int | str = 1) -> Martingale:
    v = Fraction(value)
    if v < 0:
        raise ValueError("capital must be nonnegative")
    return Martingale(lambda _length, _index: v, label="constant")


def all_on_ones_martingale() -> Martingale:
    """Stake everything on the next bit being 1; capital 2**|sigma| on 11...1."""
    return Martingale(
        lambda length, index: Fraction(1 << length) if index == (1 << length) - 1 else Fraction(0),
        label="all-on-ones",
    )


def table_martingale(values: Mapping[str, Fraction | str], depth: int) -> Martingale:
    """Martingale from an explicit table on strings of length <= depth.

    Strings beyond the table keep their longest tabled prefix's capital (a
    valid extension).  A key that is not a 0/1 string raises ValueError.
    The capitals are NOT validated here; run check_fairness to audit them.
    """
    parsed = {}
    for key, value in values.items():
        if any(c not in "01" for c in key):
            raise ValueError(f"table key {key!r} is not a 0/1 string")
        parsed[len(key), int(key or "0", 2)] = Fraction(value)
    top = max((length for length, _ in parsed), default=0)

    def capital(length: int, index: int) -> Fraction:
        if length > top:
            length, index = top, index >> (length - top)
        while (length, index) not in parsed:
            if length == 0:
                raise ValueError("table lacks the empty string")
            length, index = length - 1, index >> 1
        return parsed[length, index]

    return Martingale(capital, label=f"table(depth={depth})")


# ---------------------------------------------------------------------------
# Slope martingales


def dyadic_interval(sigma: Bits) -> tuple[Fraction, Fraction]:
    """The dyadic interval of reals whose expansion extends sigma."""
    left = fraction_from_bits(sigma)
    return left, left + pow2(-len(sigma))


def _dyadic_slope(f: ComputableFunction, length: int, index: int) -> Fraction:
    """Slope of f over [index / 2**length, (index + 1) / 2**length]."""
    width = 1 << length
    return (f.eval((Fraction(index + 1, width),)) - f.eval((Fraction(index, width),))) * width


def interval_slope(f: ComputableFunction, sigma: Bits) -> Fraction:
    """Slope of f over the interval coded by sigma; exact for exact f.

    2*slope(sigma) = slope(sigma0) + slope(sigma1) holds for ANY f: the
    average of the halves' slopes telescopes to the whole interval's slope.
    """
    if f.dimension != 1:
        raise ValueError("slope martingales read one-variable functions")
    if not f.exact:
        raise ValueError("exact slopes need an exact function; use approx_interval_slope")
    return _dyadic_slope(f, len(sigma), _index(sigma))


def approx_interval_slope(f: ComputableFunction, sigma: Bits, precision: int) -> Fraction:
    """Certified slope over [sigma]: within 2**-precision of the true slope."""
    left, right = dyadic_interval(sigma)
    inner = precision + len(sigma) + 1
    return (f.eval((right,), inner) - f.eval((left,), inner)) / (right - left)


def audit_monotone(f: ComputableFunction, scale: int = 6) -> None:
    """Reject f unless it is nondecreasing on the dyadic grid at scale."""
    width = 1 << scale
    values = [f.eval((Fraction(k, width),)) for k in range(width + 1)]
    for k, (a, b) in enumerate(zip(values, values[1:])):
        if b < a:
            raise MonotonicityError(
                f"f({Fraction(k + 1, width)}) < f({Fraction(k, width)}) on the audit grid"
            )


def _grid_slope(grid: list[Fraction], width: int, index: int) -> Fraction:
    return (grid[index + 1] - grid[index]) * width


def _slope_levels(f: ComputableFunction) -> Iterator[Level]:
    """Slopes of f over the dyadic intervals, one level at a time.

    Level L reads f on the grid k / 2**L: the slope over interval k is the
    first difference at k times 2**L.  The next grid keeps this one's values
    at its even points, so f is evaluated once per grid point, 2**L + 1
    times up to level L, and only the grid is held, never the slopes.
    """
    grid = [f.eval((Fraction(0),)), f.eval((Fraction(1),))]
    width = 1
    while True:
        yield partial(_grid_slope, grid, width)
        width *= 2
        midpoints = [f.eval((Fraction(k, width),)) for k in range(1, width, 2)]
        grid = [v for pair in zip(grid, midpoints) for v in pair] + [grid[-1]]


def slope_martingale(f: ComputableFunction, audit_scale: int = 6) -> Martingale:
    """Capital(sigma) = slope of the monotone f over [sigma]; nonnegative, fair."""
    if not f.exact:
        raise ValueError("slope_martingale needs exact dyadic evaluation")
    audit_monotone(f, audit_scale)
    return Martingale(
        lambda length, index: _dyadic_slope(f, length, index),
        label="slope",
        levels=lambda: _slope_levels(f),
    )


# ---------------------------------------------------------------------------
# Uniform martingales: an oracle-sequence parameter with a use bound


@dataclass(frozen=True, eq=False)
class OracleFunction:
    """Family g(Y, h) of one-variable functions indexed by an oracle sequence.

    evaluate(prefix, h, precision) must be within 2**-precision of g(Y, h)
    whenever len(prefix) >= use(precision); longer prefixes must not move the
    result beyond that error.
    """

    evaluate: Callable[[Bits, Fraction, int], Fraction]
    use: Callable[[int], int]
    label: str = "oracle-fn"


def oracle_free(f: ComputableFunction) -> OracleFunction:
    """Wrap a one-variable function as an oracle family that ignores its oracle."""
    if f.dimension != 1:
        raise ValueError("expected a one-variable function")
    return OracleFunction(
        evaluate=lambda _prefix, h, precision: f.eval((h,), precision),
        use=lambda _precision: 0,
        label="oracle-free",
    )


def axis_section_family(f: ComputableFunction, axis: int) -> OracleFunction:
    """g(Y, h) = f(point decoded from Y with h inserted at the axis).

    The oracle interleaves the other n-1 coordinates; decoding L bits per
    coordinate perturbs the point by at most sqrt(n) * 2**-L, which the
    modulus turns into a certified output error.
    """
    n = f.dimension
    if not 0 <= axis < n:
        raise ValueError("axis out of range")
    others = n - 1
    pad = max(1, (n - 1).bit_length() + 1)

    def coords_bits(precision: int) -> int:
        return f.modulus(precision + 1) + pad

    def use(precision: int) -> int:
        return others * coords_bits(precision)

    def evaluate(prefix: Bits, h: Fraction, precision: int) -> Fraction:
        length = coords_bits(precision)
        if len(prefix) < others * length:
            raise ValueError(
                f"oracle prefix of {len(prefix)} bits is below the use bound {others * length}"
            )
        decoded = []
        for j in range(others):
            decoded.append(fraction_from_bits(tuple(prefix[j + others * k] for k in range(length))))
        point = decoded[:axis] + [h] + decoded[axis:]
        return f.eval(tuple(point), precision + 1)

    return OracleFunction(evaluate=evaluate, use=use, label=f"axis-section({axis})")


@dataclass(frozen=True, eq=False)
class UniformMartingale:
    """Slope martingale of the oracle section, queried through a use bound.

    At finite precision the fairness residual |2v(sigma) - v(sigma0) -
    v(sigma1)| stays below 3 * 2**-precision; it vanishes in the limit.
    """

    family: OracleFunction
    oracle: BitSource | None = None

    def _inner_precision(self, sigma_len: int, precision: int) -> int:
        return precision + sigma_len + 2

    def use_bound(self, sigma_len: int, precision: int) -> int:
        return self.family.use(self._inner_precision(sigma_len, precision))

    def value_with_prefix(self, prefix: Bits, sigma: Sequence[int], precision: int) -> Fraction:
        """Certified within 2**-(precision+1); deterministic in the used prefix."""
        sigma = tuple(int(b) for b in sigma)
        needed = self.use_bound(len(sigma), precision)
        if len(prefix) < needed:
            raise ValueError(f"prefix has {len(prefix)} bits; use bound is {needed}")
        used = tuple(prefix[:needed])
        inner = self._inner_precision(len(sigma), precision)
        left, right = dyadic_interval(sigma)
        lo = self.family.evaluate(used, left, inner)
        hi = self.family.evaluate(used, right, inner)
        return (hi - lo) / (right - left)

    def value(self, sigma: Sequence[int], precision: int) -> Fraction:
        if self.oracle is None:
            raise ValueError("no oracle attached; use value_with_prefix")
        sigma = tuple(int(b) for b in sigma)
        prefix = self.oracle.prefix(self.use_bound(len(sigma), precision))
        return self.value_with_prefix(prefix, sigma, precision)


def uniform_slope_martingale(
    family: OracleFunction,
    oracle: BitSource | None = None,
    audit_scale: int = 4,
    audit_precision: int = 24,
) -> UniformMartingale:
    """Uniform martingale M(Y, sigma) = slope of g(Y, .) over [sigma].

    The section must be monotone for every oracle; here it is audited on a
    dyadic grid for the attached oracle, within certified tolerance.
    """
    m = UniformMartingale(family, oracle)
    if oracle is not None:
        width = 1 << audit_scale
        prefix = oracle.prefix(family.use(audit_precision))
        tol = 2 * pow2(-audit_precision)
        values = [
            family.evaluate(prefix, Fraction(k, width), audit_precision) for k in range(width + 1)
        ]
        for a, b in zip(values, values[1:]):
            if b < a - tol:
                raise MonotonicityError("oracle section decreases on the audit grid")
    return m


# ---------------------------------------------------------------------------
# Betting simulations


@dataclass(frozen=True)
class BetRun:
    """Finite-depth capital trajectory; a diagnostic, never a randomness verdict."""

    trajectory: tuple[Fraction, ...]
    max_capital: Fraction
    min_tail_capital: Fraction
    threshold_crossings: Mapping[Fraction, int | None]

    def to_csv(self) -> str:
        lines = ["length,capital"]
        for k, capital in enumerate(self.trajectory):
            lines.append(f"{k},{capital.numerator}/{capital.denominator}")
        return "\n".join(lines) + "\n"


def run_bet(
    m: Martingale,
    source: BitSource,
    depth: int,
    thresholds: Sequence[Fraction] = (),
) -> BetRun:
    """Play m against the source's prefixes of length 0..depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    prefix = source.prefix(depth)
    index = 0
    capitals = [m._nonnegative(0, 0, m.capital(0, 0))]
    for length, bit in enumerate(prefix, 1):
        index = 2 * index + bit
        capitals.append(m._nonnegative(length, index, m.capital(length, index)))
    trajectory = tuple(capitals)
    tail = trajectory[(depth + 1) // 2 :]
    crossings: dict[Fraction, int | None] = {}
    for threshold in thresholds:
        crossings[threshold] = next(
            (k for k, c in enumerate(trajectory) if c >= threshold), None
        )
    return BetRun(
        trajectory=trajectory,
        max_capital=max(trajectory),
        min_tail_capital=min(tail),
        threshold_crossings=crossings,
    )


# ---------------------------------------------------------------------------
# Axis sections of multivariate functions


@dataclass(frozen=True, eq=False)
class AxisSection:
    """One-variable restriction along an axis plus its oracle encoding."""

    section: ComputableFunction
    oracle: BitSource
    base_point: Vector
    axis: int


def section_along_axis(f: ComputableFunction, z: Sequence[Fraction], axis: int) -> AxisSection:
    """The section h |-> f(y + h e_axis) with y = z minus its axis coordinate.

    The oracle interleaves the binary expansions of the other coordinates,
    which must be non-dyadic; with no other coordinates the encoding is the
    all-zeros source.
    """
    z = tuple(z)
    if len(z) != f.dimension:
        raise ValueError("point dimension mismatch")
    if not 0 <= axis < f.dimension:
        raise ValueError("axis out of range")
    y = tuple(Fraction(0) if i == axis else zi for i, zi in enumerate(z))

    def fn(point: Vector, precision: int) -> Fraction:
        h = point[0]
        target = tuple(h if i == axis else yi for i, yi in enumerate(y))
        return f.eval(target, precision)

    section = ComputableFunction(
        dimension=1,
        evaluator=fn,
        modulus=f.modulus,
        exact=f.exact,
        descriptor={"kind": "axis-section", "axis": axis, "of": f.descriptor},
    )
    other_coords = [zi for i, zi in enumerate(z) if i != axis]
    if other_coords:
        oracle = interleave([bits_of_fraction(c) for c in other_coords])
    else:
        oracle = BitSource(lambda _k: 0, label="empty-encoding")
    return AxisSection(section=section, oracle=oracle, base_point=y, axis=axis)
