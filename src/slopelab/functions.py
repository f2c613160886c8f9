"""Computable functions on the unit n-cube and the concrete families used here.

A function is a pair (evaluator, modulus): the evaluator reads a rational
point x as integer numerators N over one positive denominator D, x = N / D,
and returns f(x) exactly as an integer pair (numerator, denominator > 0),
neither necessarily in lowest terms.  The modulus h certifies
||x - y|| <= 2**-h(i)  =>  |f(x) - f(y)| <= 2**-i.  Every function here is
built from rational data, so every comparison made with its values is exact.
A one-variable closed form also states its slopes over the dyadic intervals
[k / 2**L, (k + 1) / 2**L] as integer numerators over one denominator, for
any window of k, without building a Fraction per interval.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Callable, Sequence

from .rationals import (
    POW2_MATERIALIZE_CAP,
    Vector,
    as_vector,
    ceil_log2,
    ceil_sqrt,
    common_denominator,
    common_denominator_of_pairs,
    dot,
    int_ceil_log2,
    norm_sq,
    pow2,
    unit_axis,
    vscale,
    vsub,
)

# (N, D) -> (a, b) with f(N / D) = a / b and b > 0, not necessarily in lowest terms
Evaluator = Callable[[Sequence[int], int], tuple[int, int]]
Modulus = Callable[[int], int]
Slopes = tuple[list[int], int]  # 2**L * (f((k + 1) / 2**L) - f(k / 2**L)) for start <= k < stop, over one denominator


@dataclass(frozen=True, eq=False)
class ComputableFunction:
    dimension: int
    evaluator: Evaluator
    modulus: Modulus
    slopes: Callable[[int, int, int], Slopes] | None = None  # (level, start, stop), for a one-variable closed form

    def eval(self, numerators: Sequence[int], denominator: int) -> tuple[int, int]:
        """f at the point N / D, as (numerator, denominator > 0)."""
        if len(numerators) != self.dimension:
            raise ValueError(f"expected {self.dimension} coordinates, got {len(numerators)}")
        return self.evaluator(numerators, denominator)


def _affine_pieces(
    pieces: Sequence[tuple[int, int, int, int]], scale: int
) -> tuple[Evaluator, Callable[[int, int, int], Slopes]]:
    """The values and the slopes of x |-> (a_j + s_j * x) / S on the piece j that ends at the knot p_j / q_j.

    The pieces are (a_j, s_j, p_j, q_j), their knots increase to 1 from 0,
    and a knot takes its left piece.  At N / D the value is the pair
    (a * D + s * N, S * D); an interval k / 2**L inside piece j has the
    slope s_j over S, and one with a knot strictly inside reads the value
    rule at its two ends.
    """

    def at(n: int, d: int) -> int:  # S * d * f(n / d), on the piece ending at the first knot >= n / d
        a, s, _, _ = pieces[bisect_left(pieces, True, key=lambda piece: n * piece[3] <= piece[2] * d)]
        return a * d + s * n

    def value(numerators: Sequence[int], denominator: int) -> tuple[int, int]:
        n = numerators[0]
        if not 0 <= n <= denominator:
            raise ValueError(f"{Fraction(n, denominator)} outside [0, 1]")
        return at(n, denominator), scale * denominator

    def slopes(level: int, start: int, stop: int) -> Slopes:
        numerators: list[int] = []
        k = start
        for _, s, p, q in pieces:
            end = (p << level) // q  # the last k with k / 2**L <= p / q
            if end < k:
                continue
            if end >= stop:  # the rest of the window lies inside this piece
                numerators += [s] * (stop - k)
                break
            numerators += [s] * (end - k)
            k = end
            if (p << level) % q:  # the knot is strictly inside interval k
                numerators.append(at(k + 1, 1 << level) - at(k, 1 << level))
                k += 1
                if k == stop:
                    break
        return numerators, scale

    return value, slopes


def linear_form(coeffs: Sequence[Fraction | int | str]) -> ComputableFunction:
    """x |-> <m, x> with exact evaluation and modulus i + ceil(log2(1 + ||m||))."""
    m = as_vector(coeffs)
    if not m:
        raise ValueError("linear form needs dimension >= 1")
    shift = int_ceil_log2(1 + ceil_sqrt(norm_sq(m)))
    coeffs, scale = common_denominator(m)  # <m, N / D> = <coeffs, N> / (scale D)
    slopes = _affine_pieces([(0, coeffs[0], 1, 1)], scale)[1] if len(m) == 1 else None
    return ComputableFunction(
        len(m), lambda n, d: (sum(map(mul, coeffs, n)), scale * d), lambda i: i + shift, slopes
    )


def constant_function(value: Fraction | int | str, dimension: int = 1) -> ComputableFunction:
    v = Fraction(value).as_integer_ratio()
    return ComputableFunction(dimension, lambda _n, _d: v, lambda _i: 0)


def clamp_extend(f: ComputableFunction) -> ComputableFunction:
    """f composed with the 1-Lipschitz clamp N_i / D |-> min(N_i, D) / D; it accepts points outside the cube."""
    return ComputableFunction(
        dimension=f.dimension,
        evaluator=lambda n, d: f.eval([min(c, d) for c in n], d),
        modulus=f.modulus,
    )


def sum_functions(parts: Sequence[ComputableFunction]) -> ComputableFunction:
    if not parts:
        raise ValueError("sum of no functions")
    dims = {p.dimension for p in parts}
    if len(dims) > 1:
        raise ValueError("summands must share a dimension")
    count_shift = int_ceil_log2(len(parts))

    def evaluator(numerators: Sequence[int], denominator: int) -> tuple[int, int]:
        summed, below = common_denominator_of_pairs([p.eval(numerators, denominator) for p in parts])
        return sum(summed), below

    return ComputableFunction(
        dimension=dims.pop(),
        evaluator=evaluator,
        modulus=lambda i: max(p.modulus(i + count_shift) for p in parts),
    )


def scale_function(factor: Fraction | int | str, f: ComputableFunction) -> ComputableFunction:
    c = Fraction(factor)
    shift = 0 if c == 0 else max(0, ceil_log2(abs(c)))
    p, q = c.as_integer_ratio()
    return ComputableFunction(
        dimension=f.dimension,
        evaluator=lambda n, d: (0, 1) if not p else tuple(map(mul, (p, q), f.eval(n, d))),  # (p a, q b)
        modulus=lambda i: f.modulus(i + shift),
    )


def kn_decompose(
    f: ComputableFunction, lipschitz_bound: Fraction | int | str
) -> tuple[ComputableFunction, Vector]:
    """Split f = g - <m, .> with g = f + <m, .> orthant-increasing.

    The caller certifies lipschitz_bound >= Lip(f); only lower bounds are
    certifiable from finitely many samples, so no bound is ever inferred.
    """
    bound = Fraction(lipschitz_bound)
    if bound <= 0:
        raise ValueError("Lipschitz bound must be positive")
    m = tuple(bound for _ in range(f.dimension))
    g = sum_functions([f, linear_form(m)])
    return g, m


# ---------------------------------------------------------------------------
# Orthonormal bases and rational isometries


def gram_schmidt_basis(u: Sequence[Fraction | int | str]) -> tuple[Vector, ...]:
    """Orthonormal basis with u first, for an exactly-unit rational u.

    The basis is the rational reflection that swaps the first standard
    vector with u, so every entry stays rational and orthonormality is exact.
    Rational unit vectors are dense on the sphere, so no direction needs more.
    """
    first = as_vector(u)
    n = len(first)
    if norm_sq(first) != 1:
        raise ValueError(f"not a unit vector: ||u||^2 = {norm_sq(first)}")
    v = vsub(first, unit_axis(n, 0))
    vv = norm_sq(v)
    axes = [unit_axis(n, axis) for axis in range(n)]
    if vv == 0:
        return tuple(axes)
    return tuple(vsub(e, vscale(2 * dot(v, e) / vv, v)) for e in axes)


Matrix = tuple[Vector, ...]


@dataclass(frozen=True, eq=False)
class AffineIsometry:
    """x |-> matrix @ x + offset for an exactly orthogonal matrix.

    affine_isometry checks the matrix; the inverse is its transpose.
    compose_affine applies the map to integer numerators.
    """

    matrix: Matrix
    offset: Vector

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def apply_inverse(self, y: Sequence[Fraction]) -> Vector:
        shifted = vsub(y, self.offset)
        return tuple(dot(column, shifted) for column in zip(*self.matrix))


def affine_isometry(
    matrix: Sequence[Sequence[Fraction | int | str]],
    offset: Sequence[Fraction | int | str] | None = None,
) -> AffineIsometry:
    """The map x |-> matrix @ x + offset; raises unless matrix^T matrix = I exactly."""
    rows = tuple(as_vector(row) for row in matrix)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    off = as_vector(offset) if offset is not None else tuple(Fraction(0) for _ in range(n))
    if len(off) != n:
        raise ValueError("offset dimension mismatch")
    columns = tuple(zip(*rows))
    for i, a in enumerate(columns):
        for j, b in enumerate(columns):
            product = dot(a, b)
            if product != (1 if i == j else 0):
                raise ValueError(
                    f"matrix is not exactly orthogonal: column {i} . column {j} = {product}"
                )
    return AffineIsometry(rows, off)


def compose_affine(f: ComputableFunction, transform: AffineIsometry) -> ComputableFunction:
    """g(z) = f(P1(matrix @ z + offset)); isometry + clamp are non-expansive.

    With matrix = A / q and offset = b / q over one q, z = N / D maps to min(A N + b D, q D) / (q D).
    """
    if transform.dimension != f.dimension:
        raise ValueError("dimension mismatch between function and isometry")
    n = f.dimension
    entries, scale = common_denominator(list(chain(*transform.matrix, transform.offset)))
    rows, offset = [entries[i * n:(i + 1) * n] for i in range(n)], entries[n * n:]

    def evaluator(numerators: Sequence[int], denominator: int) -> tuple[int, int]:
        top = scale * denominator
        image = [min(sum(map(mul, row, numerators)) + b * denominator, top) for row, b in zip(rows, offset)]
        return f.eval(image, top)

    return ComputableFunction(dimension=n, evaluator=evaluator, modulus=f.modulus)


# ---------------------------------------------------------------------------
# Concrete exact families used throughout the tests and the CLI


def piecewise_linear(points: Sequence[tuple[Fraction | str, Fraction | str]]) -> ComputableFunction:
    """Exact one-variable piecewise-linear interpolant through (x, y) pairs."""
    knots = [(Fraction(x), Fraction(y)) for x, y in points]
    if len(knots) < 2:
        raise ValueError("need at least two knots")
    xs = [x for x, _ in knots]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("knots must have strictly increasing abscissae")
    if xs[0] != 0 or xs[-1] != 1:
        raise ValueError("knots must cover [0, 1]")
    gradients = [
        (y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(knots, knots[1:])
    ]
    max_slope = max((abs(s) for s in gradients), default=Fraction(0))
    shift = max(0, ceil_log2(max_slope)) if max_slope > 0 else 0
    intercepts = [y0 - x0 * s for (x0, y0), s in zip(knots, gradients)]
    numerators, scale = common_denominator(intercepts + gradients)  # the intercepts', then the gradients'
    pieces = [(a, s, *x.as_integer_ratio()) for a, s, x in zip(numerators, numerators[len(gradients):], xs[1:])]
    value, slopes = _affine_pieces(pieces, scale)
    return ComputableFunction(1, value, lambda i: i + shift, slopes)


def square_1d() -> ComputableFunction:
    return ComputableFunction(
        1, lambda n, d: (n[0] * n[0], d * d), lambda i: i + 1,
        lambda level, start, stop: (list(range(2 * start + 1, 2 * stop + 1, 2)), 1 << level),
    )


def cube_1d() -> ComputableFunction:
    return ComputableFunction(
        1, lambda n, d: (n[0] ** 3, d**3), lambda i: i + 2,
        lambda level, start, stop: ([3 * k * (k + 1) + 1 for k in range(start, stop)], 1 << 2 * level),
    )


def identity_1d() -> ComputableFunction:
    return linear_form([1])


def abs_distance_1d(center: Fraction | str) -> ComputableFunction:
    c = Fraction(center)
    p, q = c.numerator, c.denominator
    return ComputableFunction(1, lambda n, d: (abs(n[0] * q - p * d), q * d), lambda i: i)


def product_xy() -> ComputableFunction:
    return ComputableFunction(2, lambda n, d: (n[0] * n[1], d * d), lambda i: i + 1)


def abs_diff_2d() -> ComputableFunction:
    return ComputableFunction(2, lambda n, d: (abs(n[0] - n[1]), d), lambda i: i + 1)


def min_x_flip_y() -> ComputableFunction:
    return ComputableFunction(2, lambda n, d: (min(n[0], d - n[1]), d), lambda i: i)


# ---------------------------------------------------------------------------
# The sampled modulus law


def modulus_audit(f: ComputableFunction, level: int, pairs: int, rng) -> list[dict]:
    """Check |f(x) - f(y)| <= 2**-level exactly on sampled pairs at distance <= 2**-h(level).

    x is drawn as integer numerators over 2**(h + 6), and y moves one of them
    by k, 1 <= k <= 64, so the distance (k/64) * 2**-h is exact and y stays
    in the cube iff its moved numerator stays in [0, 2**(h + 6)].  Pairs
    leaving the cube are redrawn, up to 20 * pairs draws.  f reads the
    numerators as drawn; its two pairs are cross-multiplied, the difference
    is built only when f(x) != f(y), and Fraction points for violations only.
    Returns the violations (empty on success).
    """
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    h = f.modulus(level)
    allowed = pow2(-level)
    denom = 1 << (h + 6)
    if pairs and h > POW2_MATERIALIZE_CAP:  # no pair is drawn closer than 2**-cap
        raise OverflowError(f"2**{-h} exceeds the materialization cap")
    violations = []
    checked = 0
    attempts = 0
    while checked < pairs and attempts < 20 * pairs:
        attempts += 1
        x = [rng.randrange(denom + 1) for _ in range(f.dimension)]
        axis = rng.randrange(f.dimension)
        y = x.copy()
        y[axis] += rng.choice((-1, 1)) * rng.randrange(1, 65)
        if not 0 <= y[axis] <= denom:
            continue
        checked += 1
        (a, b), (c, e) = f.eval(x, denom), f.eval(y, denom)
        if a * e == c * b:  # most pairs of a sparse f, such as the tent sum, read 0 twice
            continue
        diff = Fraction(abs(a * e - c * b), b * e)
        if diff > allowed:
            x_point, y_point = (tuple(Fraction(n, denom) for n in p) for p in (x, y))
            violations.append({"x": x_point, "y": y_point, "difference": diff, "allowed": allowed})
    return violations
