"""Slope functionals and finite-depth differentiability probes.

Differentiability at a point sits two quantifiers beyond anything decidable,
so every limit statement here becomes a pair of finite procedures: an exact
refutation (a replayable witness) or consistency-to-depth (a shrinking
bracket).  Verdicts never claim more than the grids they examined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .functions import (
    AffineIsometry,
    ComputableFunction,
    clamp_extend,
    compose_affine,
    isometry_between,
)
from .rationals import (
    Vector,
    as_vector,
    dot,
    in_unit_cube,
    norm_sq,
    pow2,
    unit_axis,
    vadd,
    vscale,
)

CONSISTENT = "consistent-to-depth"
VIOLATED = "violated"


@dataclass(frozen=True)
class ProbeVerdict:
    op: str
    status: str
    depth: int
    witness: Mapping | None
    bracket: object  # op-specific brackets of exact rationals

    @property
    def violated(self) -> bool:
        return self.status == VIOLATED


def dyadic_schedule(depth: int) -> list[Fraction]:
    """The shrinking probe steps 2**-k, k = 2..depth (exact dyadics)."""
    if depth < 2:
        raise ValueError("depth must reach the first step")
    return [pow2(-k) for k in range(2, depth + 1)]


def slope_axis(f: ComputableFunction, x: Sequence[Fraction], axis: int, h: Fraction) -> Fraction:
    """Exact difference quotient (f(x + h*e_axis) - f(x)) / h."""
    x = tuple(x)
    if h == 0:
        raise ValueError("zero step")
    shifted = tuple(xi + (h if i == axis else 0) for i, xi in enumerate(x))
    if not in_unit_cube(x) or not in_unit_cube(shifted):
        raise ValueError(f"step {h} along axis {axis} leaves the unit cube")
    return (f.eval(shifted) - f.eval(x)) / h


def slope_dir(
    f: ComputableFunction, x: Sequence[Fraction], v: Sequence[Fraction], h: Fraction
) -> Fraction:
    """Exact directional difference quotient (f(x + h*v) - f(x)) / h."""
    x, v = tuple(x), as_vector(v)
    if h == 0:
        raise ValueError("zero step")
    shifted = vadd(x, vscale(h, v))
    if not in_unit_cube(x) or not in_unit_cube(shifted):
        raise ValueError(f"step {h} along {v} leaves the unit cube")
    return (f.eval(shifted) - f.eval(x)) / h


def _tail_bracket(
    f: ComputableFunction,
    x: Vector,
    axis: int,
    steps: Sequence[Fraction],
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]] | None:
    """Lowest and highest two-sided slope along axis over the tail of steps.

    Each step h is tried as h and then -h, skipping those that leave the
    cube.  The tail is the steps from len(steps) // 2 on, or all of them
    when none of those is feasible.  Returns the (step, slope) pairs of the
    first minimum and the first maximum, or None when no step is feasible.
    """
    observations: list[tuple[int, Fraction, Fraction]] = []
    for rank, h in enumerate(steps):
        for signed in (h, -h):
            try:
                observations.append((rank, signed, slope_axis(f, x, axis, signed)))
            except ValueError:
                continue
    if not observations:
        return None
    tail_start = len(steps) // 2
    tail = [obs for obs in observations if obs[0] >= tail_start] or observations
    lo = min(tail, key=lambda t: t[2])
    hi = max(tail, key=lambda t: t[2])
    return lo[1:], hi[1:]


def partial_probe(
    f: ComputableFunction,
    x: Sequence[Fraction],
    axis: int,
    schedule: Sequence[Fraction],
    threshold: Fraction | None = None,
) -> ProbeVerdict:
    """Two-sided slopes over a shrinking schedule, bracketing the partial.

    Reports VIOLATED when the oscillation (max - min) over the tail half of
    the schedule reaches the caller's threshold: a finite witness that the
    lower and upper partials separate.  Infeasible steps are skipped; a
    schedule with no feasible step is an error.
    """
    x = tuple(x)
    if not schedule:
        raise ValueError("schedule must be nonempty")
    bracket = _tail_bracket(f, x, axis, schedule)
    if bracket is None:
        raise ValueError("schedule leaves the cube at every step")
    (lo_step, lo), (hi_step, hi) = bracket
    if threshold is not None and hi - lo >= threshold:
        witness = {
            "op": "partial",
            "axis": axis,
            "point": x,
            "low": {"step": lo_step, "slope": lo},
            "high": {"step": hi_step, "slope": hi},
            "oscillation": hi - lo,
            "threshold": threshold,
        }
        return ProbeVerdict("partial", VIOLATED, len(schedule), witness, (lo, hi))
    return ProbeVerdict("partial", CONSISTENT, len(schedule), None, (lo, hi))


@dataclass(frozen=True)
class BasisReduction:
    """Directional slope rewritten as a first-axis slope of a pulled-back map."""

    g: ComputableFunction
    z: Vector
    identity_holds: bool
    failures: tuple[dict, ...]  # the panel steps where the identity fails


def dir_derivative_via_basis(
    f: ComputableFunction,
    x: Sequence[Fraction],
    u: Sequence[Fraction | int | str],
    w: Sequence[Fraction | int | str],
    t_panel: Sequence[Fraction] | None = None,
) -> BasisReduction:
    """Reduce the slope along u at x to a first-axis slope of g = f^∘(Θ+w).

    Θ maps e_1 to u; z = Θ^-1(x - w) must land in the unit cube, or
    ValueError is raised.  The identity check verifies
    (g(z + t e_1) - g(z))/t = (f^(x + t u) - f^(x))/t exactly over the panel,
    where f^ is the clamp extension of f.
    """
    x = tuple(x)
    direction = as_vector(u)
    offset = as_vector(w)
    transform = isometry_between(unit_axis(f.dimension, 0), direction)
    z = transform.apply_inverse(tuple(a - b for a, b in zip(x, offset)))
    if not in_unit_cube(z):
        raise ValueError(f"the offset {offset} pulls the point outside the unit cube")
    f_hat = clamp_extend(f)
    g = compose_affine(f, AffineIsometry(transform.matrix, offset))
    panel = tuple(t_panel) if t_panel is not None else tuple(pow2(-k) for k in range(1, 13))
    failures = []
    e1 = unit_axis(f.dimension, 0)
    for t in panel:
        if t <= 0:
            raise ValueError("panel steps must be positive")
        lhs = (g.eval(vadd(z, vscale(t, e1))) - g.eval(z)) / t
        rhs = (f_hat.eval(vadd(x, vscale(t, direction))) - f_hat.eval(x)) / t
        if lhs != rhs:
            failures.append({"t": t, "lhs": lhs, "rhs": rhs})
    return BasisReduction(g=g, z=z, identity_holds=not failures, failures=tuple(failures))


def linearity_defect(
    f: ComputableFunction,
    x: Sequence[Fraction],
    u: Sequence[Fraction | int | str],
    v: Sequence[Fraction | int | str],
    max_step: Fraction,
    depth: int = 6,
    threshold: Fraction | None = None,
) -> ProbeVerdict:
    """Minimum of |δ^u + δ^v - δ^{u+v}| over dyadic steps <= max_step.

    A caller threshold q turns the minimum into a finite membership surrogate
    for the closed set where additivity of slopes fails by at least q.
    """
    x = tuple(x)
    du, dv = as_vector(u), as_vector(v)
    duv = vadd(du, dv)
    defects: list[tuple[Fraction, Fraction]] = []
    for k in range(1, depth + 1):
        h = pow2(-k)
        if h > max_step:
            continue
        try:
            su = slope_dir(f, x, du, h)
            sv = slope_dir(f, x, dv, h)
            suv = slope_dir(f, x, duv, h)
        except ValueError:
            continue
        defects.append((h, abs(su + sv - suv)))
    if not defects:
        raise ValueError("empty feasible grid")
    h_min, best = min(defects, key=lambda t: t[1])
    worst = max(d for _, d in defects)
    witness = {
        "op": "defect",
        "point": x,
        "u": du,
        "v": dv,
        "step_at_min": h_min,
        "defects": defects,
        "threshold": threshold,
    }
    status = VIOLATED if threshold is not None and best >= threshold else CONSISTENT
    return ProbeVerdict("defect", status, len(defects), witness, (best, worst))


def diff_class_a(
    f: ComputableFunction,
    x: Sequence[Fraction],
    depth: int,
    separation: Fraction | None = None,
) -> ProbeVerdict:
    """Per-axis brackets of the candidate partials from two-sided grid slopes.

    VIOLATED when some axis' tail slopes stay separated by at least the
    caller's threshold: a finite witness that the lower partial falls short
    of the upper one.
    """
    x = tuple(x)
    steps = [pow2(-k) for k in range(1, depth + 1)]
    brackets: list[tuple[Fraction, Fraction]] = []
    worst: dict | None = None
    for axis in range(f.dimension):
        bracket = _tail_bracket(f, x, axis, steps)
        if bracket is None:
            raise ValueError(f"no feasible step along axis {axis}")
        (lo_step, lo), (hi_step, hi) = bracket
        brackets.append((lo, hi))
        if separation is not None and hi - lo >= separation:
            if worst is None or hi - lo > worst["separation"]:
                worst = {
                    "op": "class-a",
                    "axis": axis,
                    "point": x,
                    "lower": {"step": lo_step, "slope": lo},
                    "upper": {"step": hi_step, "slope": hi},
                    "separation": hi - lo,
                    "threshold": separation,
                }
    if worst is not None:
        return ProbeVerdict("class-a", VIOLATED, depth, worst, tuple(brackets))
    return ProbeVerdict("class-a", CONSISTENT, depth, None, tuple(brackets))


def first_order_remainder(f: ComputableFunction, x: Vector, h: Vector, b: Fraction) -> Fraction:
    """The exact remainder |f(x+h) - f(x) - row . h| with row_i = (f(x + b e_i) - f(x)) / b.

    The row is built as diff_class_b builds it: each x + b e_i must lie in
    the cube, x itself need not.
    """
    x = tuple(x)
    fx = f.eval(x)
    row = []
    for axis in range(f.dimension):
        shifted = vadd(x, vscale(b, unit_axis(f.dimension, axis)))
        if not in_unit_cube(shifted):
            raise ValueError(f"step {b} along axis {axis} leaves the unit cube")
        row.append((f.eval(shifted) - fx) / b)
    return abs(f.eval(vadd(x, h)) - fx - dot(row, h))


def _grid_vectors(dimension: int, levels: Iterable[int]) -> Iterator[Vector]:
    """The nonzero vectors h * s, s in {-1, 0, 1}**dimension, h = 2**-k for k in levels."""
    for k in levels:
        h = pow2(-k)
        for signs in product((-1, 0, 1), repeat=dimension):
            if any(signs):
                yield tuple(h * s for s in signs)


def _grid_steps(levels: Iterable[int]) -> Iterator[Fraction]:
    """The signed steps 2**-k and -2**-k for k in levels."""
    for k in levels:
        yield pow2(-k)
        yield -pow2(-k)


def diff_class_b(f: ComputableFunction, x: Sequence[Fraction], depth: int) -> ProbeVerdict:
    """Bounded form of the first-order limit: ∀ε ∃δ ∀h ∀b remainder <= ε||h||.

    ε and δ range over 2**-1..2**-depth; h and b grids extend two levels
    deeper so small δ are never vacuous.  A finite grid can only refute the
    bounded form, never prove the limit.

    The pairs (h, b) a δ admits (||h|| < δ and |b| < δ) shrink with δ, so
    some δ works for ε exactly when δ = 2**-depth does.  Only the pairs of
    the two finest levels are built; a violation reports the first of them,
    in grid order, that fails the largest failing ε.
    """
    x = tuple(x)
    axes = [unit_axis(f.dimension, i) for i in range(f.dimension)]

    def b_feasible(b: Fraction) -> bool:
        return all(in_unit_cube(vadd(x, vscale(b, e))) for e in axes)

    grid = range(1, depth + 3)
    h_feasible = any(in_unit_cube(vadd(x, h)) for h in _grid_vectors(f.dimension, grid))
    if not h_feasible or not any(b_feasible(b) for b in _grid_steps(grid)):
        raise ValueError("no feasible probe steps at this point")
    delta = pow2(-depth)
    delta_sq = delta * delta
    fine = range(max(1, depth + 1), depth + 3)
    h_vectors = [
        h
        for h in _grid_vectors(f.dimension, fine)
        if norm_sq(h) < delta_sq and in_unit_cube(vadd(x, h))
    ]
    b_steps = [b for b in _grid_steps(fine) if b_feasible(b)]  # all below δ
    value_cache: dict[Vector, Fraction] = {}

    def cached(point: Vector) -> Fraction:
        if point not in value_cache:
            value_cache[point] = f.eval(point)
        return value_cache[point]

    fx = cached(x)
    rows = {
        b: [(cached(vadd(x, vscale(b, e))) - fx) / b for e in axes] for b in b_steps
    }
    remainders: list[tuple[Vector, Fraction, Fraction, Fraction]] = []
    for h in h_vectors:
        fxh = cached(vadd(x, h))
        hsq = norm_sq(h)
        for b in b_steps:
            remainders.append((h, b, abs(fxh - fx - dot(rows[b], h)), hsq))
    worst = max((rem * rem / hsq for _, _, rem, hsq in remainders), default=Fraction(0))
    for e in range(1, depth + 1):
        eps = pow2(-e)
        if worst > eps * eps:
            h, b, rem = next(
                (h, b, rem) for h, b, rem, hsq in remainders if rem * rem > eps * eps * hsq
            )
            witness = {
                "op": "class-b",
                "point": x,
                "epsilon": eps,
                "delta": delta,
                "h": h,
                "b": b,
                "row": tuple(rows[b]),
                "remainder": rem,
            }
            return ProbeVerdict("class-b", VIOLATED, depth, witness, None)
    return ProbeVerdict("class-b", CONSISTENT, depth, None, None)


def replay(f: ComputableFunction, verdict: ProbeVerdict) -> bool:
    """Re-evaluate a violation witness exactly; True iff it reproduces."""
    if not verdict.violated or verdict.witness is None:
        return False
    w = verdict.witness
    if w["op"] == "partial":
        lo = slope_axis(f, w["point"], w["axis"], w["low"]["step"])
        hi = slope_axis(f, w["point"], w["axis"], w["high"]["step"])
        return lo == w["low"]["slope"] and hi == w["high"]["slope"] and hi - lo >= w["threshold"]
    if w["op"] == "class-a":
        lo = slope_axis(f, w["point"], w["axis"], w["lower"]["step"])
        hi = slope_axis(f, w["point"], w["axis"], w["upper"]["step"])
        return hi - lo == w["separation"] and w["separation"] >= w["threshold"]
    if w["op"] == "class-b":
        rem = first_order_remainder(f, w["point"], w["h"], w["b"])
        hsq = norm_sq(w["h"])
        return rem == w["remainder"] and rem * rem > w["epsilon"] ** 2 * hsq
    if w["op"] == "defect":
        point, u, v = w["point"], w["u"], w["v"]
        for h, defect in w["defects"]:
            su = slope_dir(f, point, u, h)
            sv = slope_dir(f, point, v, h)
            suv = slope_dir(f, point, vadd(u, v), h)
            if abs(su + sv - suv) != defect:
                return False
        return w["threshold"] is None or min(d for _, d in w["defects"]) >= w["threshold"]
    raise ValueError(f"unknown witness kind {w['op']!r}")
