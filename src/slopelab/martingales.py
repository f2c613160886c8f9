"""Exact-rational betting strategies on binary strings.

A martingale assigns each finite 0/1 string a nonnegative capital obeying the
fairness law 2*B(sigma) = B(sigma0) + B(sigma1) exactly.  Slope martingales
read the capital off a monotone function: the value on sigma is the slope of
the function over the dyadic interval coded by sigma, and fairness is then an
algebraic identity that holds for any function, monotone or not.  Box-slope
martingales carry this to n variables: the capital is the mean slope along
one axis over the box that the interleaved bits of sigma code.

Success of a strategy is a liminf over an infinite play, so simulations only
report finite-depth capital statistics, never a randomness verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, product, repeat
from math import gcd
from operator import add, rshift
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .bits import Bits, BitSource
from .functions import ComputableFunction
from .rationals import common_denominator, common_denominator_of_pairs, parse_rational


class MonotonicityError(ValueError):
    pass


class NegativeCapitalError(ValueError):
    """A capital below zero: the strategy is not a martingale."""


def _index(sigma: Iterable[int]) -> int:
    """sigma read as a binary numeral, first bit most significant; a bit other than 0 or 1 raises."""
    index = 0
    for b in sigma:
        if b not in (0, 1):
            raise ValueError("strings are over {0, 1}")
        index = 2 * index + b
    return index


def _sigma(length: int, index: int) -> Bits:
    """The string of this length whose bits spell index; inverse of _index."""
    return tuple((index >> shift) & 1 for shift in range(length - 1, -1, -1))


def _prefix_indices(bits: Bits) -> Iterator[int]:
    """The indices of bits' prefixes of lengths 0..len(bits)."""
    return accumulate(bits, lambda index, bit: 2 * index + bit, initial=0)


@dataclass(frozen=True, eq=False)
class Martingale:
    """Nonnegative exact capital function on binary strings, read as two walks.

    A string sigma is held as (length, index) with index = sigma read in
    binary, so sigma0 and sigma1 are (length + 1, 2 * index) and
    (length + 1, 2 * index + 1).  ``levels(depth)`` yields the capitals of
    lengths 0..depth, each level as integer numerators over one denominator.
    ``path(bits)`` yields the capitals of bits' prefixes of lengths
    0..len(bits) as integer pairs (numerator, denominator > 0).  Neither a
    level's denominator nor a path pair need be in lowest terms.
    """

    levels: Callable[[int], Iterator[tuple[list[int], int]]]
    path: Callable[[Bits], Iterator[tuple[int, int]]]
    label: str

    def at(self, sigma: Sequence[int]) -> Fraction:
        """The capital of sigma: the last pair of its path."""
        bits = tuple(map(int, sigma))
        index = _index(bits)
        *_, (numerator, denominator) = self.path(bits)
        if numerator < 0:
            raise _negative(self.label, len(bits), index, numerator, denominator)
        return Fraction(numerator, denominator)


def _negative(label: str, length: int, index: int, numerator: int, denominator: int) -> NegativeCapitalError:
    return NegativeCapitalError(f"{label}: negative capital {Fraction(numerator, denominator)} at {_sigma(length, index)}")


def check_fairness(m: Martingale, depth: int) -> Bits | None:
    """Exact fairness check on all strings of length < depth; witness or None.

    Level L is compared with level L + 1, and only those two are live.  With
    capitals B = b / d on one level and b' / d' on the next, the law is
    2 * b * d' = (b'(sigma0) + b'(sigma1)) * d, all in integers.  Strings are
    visited length-major in lexicographic order, each one's children checked
    for a negative capital before its own fairness law, so the witness and
    any negative-capital error are the first in that order.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return None
    levels = m.levels(depth)
    parent, parent_den = next(levels)
    if parent[0] < 0:
        raise _negative(m.label, 0, 0, parent[0], parent_den)
    for length in range(depth):
        child, child_den = next(levels)
        twice = 2 * child_den
        for index, (b, left, right) in enumerate(zip(parent, child[::2], child[1::2])):
            if left < 0 or right < 0:
                at = 2 * index if left < 0 else 2 * index + 1
                raise _negative(m.label, length + 1, at, child[at], child_den)
            if b * twice != (left + right) * parent_den:
                return _sigma(length, index)
        parent, parent_den = child, child_den
    return None


def constant_martingale(value: Fraction | int | str = 1) -> Martingale:
    v = Fraction(value)
    if v < 0:
        raise ValueError("capital must be nonnegative")
    p, q = v.as_integer_ratio()
    return Martingale(
        lambda depth: (([p] * (1 << length), q) for length in range(depth + 1)),
        lambda bits: repeat((p, q), len(bits) + 1),
        "constant",
    )


def all_on_ones_martingale() -> Martingale:
    """Stake everything on the next bit being 1; capital 2**|sigma| on 11...1, else 0."""
    return Martingale(
        lambda depth: (([0] * ((1 << length) - 1) + [1 << length], 1) for length in range(depth + 1)),
        lambda bits: zip(accumulate(bits, lambda stake, bit: stake << 1 if bit else 0, initial=1), repeat(1)),
        "all-on-ones",
    )


def table_martingale(values: Mapping[str, Fraction | str]) -> Martingale:
    """Martingale from an explicit table of capitals on finitely many strings.

    Strings beyond the table keep their longest tabled prefix's capital (a
    valid extension).  A key that is not a 0/1 string raises ValueError.
    The capitals are NOT validated here; run check_fairness to audit them.

    Both walks put the table over one denominator once, and both raise
    ValueError when the table lacks the empty string.  Level L + 1 is level
    L with each entry repeated for both children, then overwritten at the
    tabled strings of length L + 1; a path carries the numerator of the
    longest tabled prefix it has passed.  So every string keeps its longest
    tabled prefix's numerator, past the table's depth too.
    """
    parsed = {}
    for key, value in values.items():
        if key.strip("01"):
            raise ValueError(f"table key {key!r} is not a 0/1 string")
        parsed[len(key), int(key or "0", 2)] = parse_rational(value)
    numerators, denominator = common_denominator(parsed.values())
    table = dict(zip(parsed, numerators))  # (length, index) -> numerator over denominator
    tabled: dict[int, list[tuple[int, int]]] = {}  # length -> (index, numerator) of its tabled strings
    for (length, index), numerator in table.items():
        tabled.setdefault(length, []).append((index, numerator))

    def root() -> int:
        if (0, 0) not in table:
            raise ValueError("table lacks the empty string")
        return table[0, 0]

    def levels(depth: int) -> Iterator[tuple[list[int], int]]:
        level = [root()]
        yield level, denominator
        for length in range(1, depth + 1):
            level = list(chain.from_iterable(zip(level, level)))
            for index, numerator in tabled.get(length, ()):
                level[index] = numerator
            yield level, denominator

    def path(bits: Bits) -> Iterator[tuple[int, int]]:
        numerator = root()
        for cell in enumerate(_prefix_indices(bits)):
            numerator = table.get(cell, numerator)
            yield numerator, denominator

    return Martingale(levels, path, "table")


# ---------------------------------------------------------------------------
# Slope martingales


def interval_slope(f: ComputableFunction, sigma: Bits) -> Fraction:
    """Exact slope of f over the dyadic interval coded by sigma: a closed form's window, or two evaluations.

    2*slope(sigma) = slope(sigma0) + slope(sigma1) holds for ANY f: the
    average of the halves' slopes telescopes to the whole interval's slope.
    """
    _one_variable(f)
    length, index = len(sigma), _index(sigma)
    if f.slopes is not None:
        (numerator,), denominator = f.slopes(length, index, index + 1)
        return Fraction(numerator, denominator)
    width = 1 << length
    (a, b), (c, d) = f.eval((index,), width), f.eval((index + 1,), width)
    return Fraction((c * b - a * d) * width, b * d)


def _one_variable(f: ComputableFunction) -> None:
    if f.dimension != 1:
        raise ValueError("slope martingales read one-variable functions")


def audit_monotone(m: Martingale) -> None:
    """Reject a slope martingale unless no capital at length 6 is negative: f is nondecreasing on k / 2**6."""
    width = 1 << 6
    *_, (rises, _) = m.levels(6)
    for k, rise in enumerate(rises):
        if rise < 0:
            raise MonotonicityError(f"f({Fraction(k + 1, width)}) < f({Fraction(k, width)}) on the audit grid")


def _window_path(f: ComputableFunction, bits: Bits) -> Iterator[tuple[int, int]]:
    """A closed form's slopes over the intervals that bits' prefixes code: the window (L, i, i + 1) each."""
    for length, index in enumerate(_prefix_indices(bits)):
        (numerator,), denominator = f.slopes(length, index, index + 1)
        yield numerator, denominator


def slope_martingale(f: ComputableFunction) -> Martingale:
    """Capital(sigma) = slope of the monotone f over [sigma]; nonnegative, fair: box-slope at n = 1."""
    _one_variable(f)
    m = box_slope_martingale(f, 0, 0)
    audit_monotone(m)
    return Martingale(m.levels, m.path, "slope")


def box_slope_martingale(f: ComputableFunction, axis: int, horizon: int) -> Martingale:
    """Capital(sigma) = mean slope of f along axis over the box sigma codes.

    Bit p of sigma refines coordinate p mod n, as bits.interleave lays them
    out.  If the box is [a, b] along the axis times C, the capital is the
    average, over the left corners y of the scale-horizon grid of C, of
    (f(b, y) - f(a, y)) / (b - a): the discrete form of the measure
    d_axis f * lambda.  A split along the axis telescopes and any other split
    halves the grid, so the law is exact on every string whose other
    coordinates are no finer than 2**-horizon; a finer one raises ValueError.
    For n = 1 the capital is interval_slope, whatever the horizon.  A
    decrease of f along the axis on the grid surfaces as NegativeCapitalError.
    """
    n = f.dimension
    if not 0 <= axis < n:
        raise ValueError(f"axis {axis} out of range for dimension {n}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    label = f"box-slope(axis={axis}, horizon={horizon})"
    corners = list(product(range(1 << horizon), repeat=n - 1))  # the y, in the order of their grid columns

    def held(length: int) -> tuple[list[int], int]:
        """Horizon minus the bits each other coordinate holds at this length, and the axis's bits."""
        scales = [(length + n - 1 - j) // n for j in range(n)]
        for j, scale in enumerate(scales):
            if j != axis and scale > horizon:
                raise ValueError(
                    f"{label}: a string of length {length} is finer than the "
                    f"horizon {horizon} in coordinate {j}"
                )
        return [horizon - s for j, s in enumerate(scales) if j != axis], scales[axis]

    def value(k: int, scale: int, y: Sequence[int]) -> tuple[int, int]:
        """f's pair at k / 2**scale on the axis and y / 2**horizon off it."""
        top = max(scale, horizon)
        y = [t << (top - horizon) for t in y]
        return f.eval((*y[:axis], k << (top - scale), *y[axis:]), 1 << top)

    def path(bits: Bits) -> Iterator[tuple[int, int]]:
        """Each prefix's capital from its endpoint columns: [y, f(a, y), f(b, y)] per corner y still in its box.

        An axis bit evaluates f once per column, at the new midpoint, which
        becomes the end that the bit moves; any other bit keeps the columns
        whose y lies in its coordinate's new cell.
        """
        columns = [[y, value(0, 0, y), value(1, 0, y)] for y in corners]
        k = 0  # the axis cell
        for length in range(len(bits) + 1):
            shifts, scale = held(length)
            if length:
                j, bit = (length - 1) % n, bits[length - 1]
                if j == axis:
                    mid, k = 2 * k + 1, 2 * k + bit
                    for column in columns:  # bit 1 moves the left end, bit 0 the right
                        column[2 - bit] = value(mid, scale, column[0])
                else:
                    j -= j > axis
                    columns = [column for column in columns if column[0][j] >> shifts[j] & 1 == bit]
            ends, denominator = common_denominator_of_pairs(chain.from_iterable(column[1:] for column in columns))
            yield (sum(ends[1::2]) - sum(ends[::2])) << scale, denominator * len(columns)

    def grids(depth: int) -> Iterator[tuple[list[list[int]], int]]:
        """f on the axis grids k / 2**s, s = 0, 1, ..., one column per corner y, over one denominator.

        Each scale evaluates only the new midpoints, so f is read once per
        grid point and never deeper than the walk goes.
        """
        columns = [[value(0, 0, y), value(1, 0, y)] for y in corners]
        for scale in range(depth + 1):
            width = 1 << scale
            if scale:
                for y, column in zip(corners, columns):
                    midpoints = [value(k, scale, y) for k in range(1, width, 2)]
                    column[:] = [v for pair in zip(column, midpoints) for v in pair] + [column[-1]]
            numerators, denominator = common_denominator_of_pairs(chain.from_iterable(columns))
            yield [numerators[i : i + width + 1] for i in range(0, len(numerators), width + 1)], denominator

    def level_walk(depth: int) -> Iterator[tuple[list[int], int]]:
        """Node (k, B) has 2**s * (S(k + 1, B) - S(k, B)) / |B|, S(k, B) summing f at axis point k over B."""
        walk, columns = grids(depth), [[]]
        nodes = [((0,) * (n - 1), 0)]
        for length in range(depth + 1):
            shifts, scale = held(length)
            if length and n > 1:  # node 2i + b takes node i's cells and adds bit b to coordinate j
                j = (length - 1) % n
                if j == axis:
                    nodes = [(block, 2 * k + b) for block, k in nodes for b in (0, 1)]
                else:
                    j -= j > axis
                    nodes = [((*block[:j], 2 * block[j] + b, *block[j + 1 :]), k) for block, k in nodes for b in (0, 1)]
            if len(columns[0]) <= 1 << scale:  # the axis gained a bit
                columns, denominator = next(walk)
            sums: dict[tuple[int, ...], list[int]] = {}  # block -> S(., B)
            for y, column in zip(corners, columns):
                block = tuple(map(rshift, y, shifts))
                sums[block] = list(map(add, sums[block], column)) if block in sums else column
            rises = {block: [(b - a) << scale for a, b in zip(S, S[1:])] for block, S in sums.items()}
            if len(rises) == 1:  # only the axis holds bits, so a node's index is its axis cell
                (level,) = rises.values()
            else:
                level = [rises[block][k] for block, k in nodes]
            yield level, denominator << sum(shifts)  # over D * |B|

    if f.slopes is None:
        return Martingale(level_walk, path, label)
    # only a one-variable closed form states slopes: levels and prefixes are its windows, the axis scale the length
    levels = lambda depth: (f.slopes(s, 0, 1 << s) for s in range(depth + 1))
    return Martingale(levels, lambda bits: _window_path(f, bits), label)


# ---------------------------------------------------------------------------
# Betting simulations


@dataclass(frozen=True)
class BetRun:
    """Finite-depth capital trajectory; a diagnostic, never a randomness verdict.

    Each capital is an integer pair (numerator, denominator > 0) in lowest
    terms.  Pairs compare as tuples, numerator first, not as numbers: compare
    ``Fraction(*pair)`` instead, or read ``max_capital``.
    """

    trajectory: tuple[tuple[int, int], ...]
    max_capital: Fraction
    min_tail_capital: Fraction
    threshold_crossings: Mapping[Fraction, int | None]


def _exceeds(x: tuple[int, int, int], y: tuple[int, int, int]) -> bool:
    """x > y for capitals held as (numerator, odd part of the denominator, its twos)."""
    (a, a_odd, a_twos), (c, c_odd, c_twos) = x, y
    left, right, shift = a * c_odd, c * a_odd, c_twos - a_twos  # a/b > c/d iff a*d > c*b
    return left << shift > right if shift >= 0 else left > right << -shift


def run_bet(
    m: Martingale,
    source: BitSource,
    depth: int,
    thresholds: Sequence[Fraction] = (),
) -> BetRun:
    """Play m against the source's prefixes of length 0..depth.

    The capitals come from m's path walk as pairs (numerator, denominator >
    0).  Each pair is put in lowest terms by one rule: strip the common
    twos, then divide by the gcd of the numerator and the denominator's odd
    part, which a dyadic capital skips.  Capitals are compared with each
    denominator split into its odd part and its twos, so a dyadic comparison
    is a shift.
    The maximum and the crossings are read in one pass: a threshold not yet
    crossed lies above the running maximum, so only a new strict maximum can
    cross it.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    prefix = source.prefix(depth)
    crossings: dict[Fraction, int | None] = dict.fromkeys(thresholds)
    pending = sorted(crossings)  # the thresholds not yet crossed, lowest first
    trajectory: list[tuple[int, int]] = []
    best = low = None  # (numerator, odd part, twos) of the maximum and the tail minimum
    best_at = low_at = 0
    tail = (depth + 1) // 2
    for length, (num, den) in enumerate(m.path(prefix)):
        if num < 0:
            raise _negative(m.label, length, _index(prefix[:length]), num, den)
        common = num | den
        shared = (common & -common).bit_length() - 1
        num, den = num >> shared, den >> shared
        twos = (den & -den).bit_length() - 1
        odd = den >> twos
        if odd != 1:  # num or den is odd now, so gcd(num, den) = gcd(num, odd)
            g = gcd(num, odd)
            if g != 1:
                num, den, odd = num // g, den // g, odd // g
        trajectory.append((num, den))
        capital = num, odd, twos
        if best is None or _exceeds(capital, best):
            best, best_at = capital, length
            while pending and pending[0].numerator * den <= num * pending[0].denominator:
                crossings[pending.pop(0)] = length
        if length >= tail and (low is None or _exceeds(low, capital)):
            low, low_at = capital, length
    return BetRun(
        trajectory=tuple(trajectory),
        max_capital=Fraction(*trajectory[best_at]),
        min_tail_capital=Fraction(*trajectory[low_at]),
        threshold_crossings=crossings,
    )
