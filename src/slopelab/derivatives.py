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
from operator import mul
from typing import Mapping, Sequence

from .functions import (
    ComputableFunction,
    affine_isometry,
    clamp_extend,
    compose_affine,
    gram_schmidt_basis,
)
from .rationals import (
    Vector,
    as_vector,
    common_denominator,
    common_denominator_of_pairs,
    dot,
    in_unit_cube,
    norm_sq,
    pow2,
    pow2_scale,
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


_Point = tuple[Sequence[int], int]  # integer numerators N over one denominator D: the point N / D


def _step_point(x: _Point, v: _Point, h: tuple[int, int]) -> _Point | None:
    """x + h*v if it lies in the unit cube, else None: the one step rule.

    It is geometry alone, decided in integers before f is evaluated.  With
    x = N / D, the step h = p/q as the integer pair (p, q), q > 0, and the
    direction v = r/s over one denominator s, the step is
    (N_i q s + p r_i D) / (D q s); it lies in the cube iff each numerator
    lies in [0, D q s].  x itself need not lie in the cube.
    """
    (numerators, denominator), (r, s), (p, q) = x, v, h
    scale = q * s
    top = denominator * scale
    point = [n * scale + p * ri * denominator for n, ri in zip(numerators, r, strict=True)]
    return (point, top) if all(0 <= n <= top for n in point) else None


def _step_points(x: _Point, v: _Point, steps: Sequence[tuple[int, int]]) -> list[_Point | None]:
    """x + h*v for each step h that the step rule admits, None for the others; v = r/s over one denominator.

    The quotient probes also need x itself in the unit cube; outside it
    every step is refused.
    """
    numerators, denominator = x
    if not all(0 <= n <= denominator for n in numerators):
        return [None] * len(steps)
    return [_step_point(x, v, h) for h in steps]


def slope_dir(
    f: ComputableFunction, x: Sequence[Fraction], v: Sequence[Fraction | int | str], steps: Sequence[Fraction]
) -> list[Fraction]:
    """Exact directional difference quotients (f(x + h*v) - f(x)) / h, one per step h.

    A zero step, or one the step rule refuses, raises ValueError before f is
    evaluated; f(x) is read once.
    """
    at, v = common_denominator(x), as_vector(v)
    points = _step_points(at, common_denominator(v), [h.as_integer_ratio() for h in steps])
    for h, point in zip(steps, points):
        if h == 0:
            raise ValueError("zero step")
        if point is None:
            raise ValueError(f"step {h} along ({', '.join(map(str, v))}) leaves the unit cube")
    fx = Fraction(*f.eval(*at))
    return [(Fraction(*f.eval(*point)) - fx) / h for h, point in zip(steps, points)]


def _tail_bracket(
    f: ComputableFunction, x: _Point, axis: int, levels: range
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Lowest and highest two-sided slope along axis over the tail of the levels.

    The steps are (1, 2**k) and (-1, 2**k) for k in levels along the
    integer direction (e_axis, 1), kept when the step rule admits them.  The
    tail is the levels from len(levels) // 2 on, or the ones before when no
    tail step is admitted; only its steps are evaluated.  Returns the (step, slope) pairs of the first minimum and the
    first maximum.  The values sit over one denominator D, so the slope at
    the step h = ±2**-k is ±2**k (N(x + h e) - N(x)) / D and the integer
    before the D orders the slopes.
    """
    if not levels:
        raise ValueError("depth must reach the first step")
    if not 0 <= axis < f.dimension:
        raise ValueError(f"axis {axis} out of range for dimension {f.dimension}")
    e = [int(i == axis) for i in range(f.dimension)], 1
    half = len(levels) // 2
    for part in (levels[half:], levels[:half]):
        steps = [(sign, pow2_scale(-k)) for k in part for sign in (1, -1)]
        kept = [(h, point) for h, point in zip(steps, _step_points(x, e, steps)) if point is not None]
        if kept:
            break
    else:
        raise ValueError(f"no feasible step along axis {axis}")
    (nx, *numerators), den = common_denominator_of_pairs([f.eval(*x)] + [f.eval(*point) for _, point in kept])
    keys = [sign * q * (n - nx) for ((sign, q), _), n in zip(kept, numerators)]
    lo, hi = (pick(range(len(keys)), key=keys.__getitem__) for pick in (min, max))
    return tuple((Fraction(*kept[i][0]), Fraction(keys[i], den)) for i in (lo, hi))


def partial_probe(
    f: ComputableFunction,
    x: Sequence[Fraction],
    axis: int,
    depth: int,
    threshold: Fraction | None = None,
) -> ProbeVerdict:
    """Two-sided slopes at steps 2**-2..2**-(depth+2), bracketing the partial.

    Reports VIOLATED when the oscillation (max - min) over the tail half of
    the steps reaches the caller's threshold: a finite witness that the
    lower and upper partials separate.  Steps the step rule refuses are left
    out; a point with no admitted step is an error.
    """
    x = tuple(x)
    (lo_step, lo), (hi_step, hi) = _tail_bracket(f, common_denominator(x), axis, range(2, depth + 3))
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
        return ProbeVerdict("partial", VIOLATED, depth + 1, witness, (lo, hi))
    return ProbeVerdict("partial", CONSISTENT, depth + 1, None, (lo, hi))


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

    Θ is the reflection gram_schmidt_basis(u), which swaps e_1 and u; it is
    symmetric, so its rows are its columns.  z = Θ^-1(x - w) must land in
    the unit cube, or ValueError is raised.  The identity check verifies
    (g(z + t e_1) - g(z))/t = (f^(x + t u) - f^(x))/t exactly over the panel,
    where f^ is the clamp extension of f.
    """
    x, direction, offset, e1 = tuple(x), as_vector(u), as_vector(w), unit_axis(f.dimension, 0)
    transform = affine_isometry(gram_schmidt_basis(direction), offset)
    z = transform.apply_inverse(x)
    if not in_unit_cube(z):
        raise ValueError(f"the offset {offset} pulls the point outside the unit cube")
    f_hat = clamp_extend(f)
    g = compose_affine(f, transform)
    panel = tuple(t_panel) if t_panel is not None else tuple(pow2(-k) for k in range(1, 13))
    if any(t <= 0 for t in panel):
        raise ValueError("panel steps must be positive")
    failures = []
    gz, fx = Fraction(*g.eval(*common_denominator(z))), Fraction(*f_hat.eval(*common_denominator(x)))
    for t in panel:
        lhs = (Fraction(*g.eval(*common_denominator(vadd(z, vscale(t, e1))))) - gz) / t
        rhs = (Fraction(*f_hat.eval(*common_denominator(vadd(x, vscale(t, direction))))) - fx) / t
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

    A caller threshold t turns the minimum into a finite membership surrogate
    for the closed set where additivity of slopes fails by at least t.  A
    step counts when the step rule admits it along u, v and u + v; f(x) is
    read once, and the defect at h is |f(x+hu) + f(x+hv) - f(x+h(u+v)) - f(x)| / h.
    With max_step = p/q, 2**-k is a candidate iff q <= p 2**k; over one
    denominator D, the defect at 2**-k is 2**k |N_u + N_v - N_uv - N_x| / D.
    """
    x, at, du, dv = tuple(x), common_denominator(x), as_vector(u), as_vector(v)
    p, q = max_step.as_integer_ratio()
    candidates = [(1, scale) for scale in [pow2_scale(-k) for k in range(1, depth + 1)] if q <= p * scale]
    admitted = [_step_points(at, common_denominator(d), candidates) for d in (du, dv, vadd(du, dv))]
    steps = [(scale, points) for (_, scale), *points in zip(candidates, *admitted) if None not in points]
    if not steps:
        raise ValueError("empty feasible grid")
    values = [f.eval(*at)] + [f.eval(*pt) for _, points in steps for pt in points]
    (nx, *numerators), den = common_denominator_of_pairs(values)
    grouped = zip(steps, *[iter(numerators)] * 3)  # each step with its N_u, N_v and N_uv
    defects = [(Fraction(1, scale), Fraction(abs(a + b - c - nx) * scale, den)) for (scale, _), a, b, c in grouped]
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
    x, at = tuple(x), common_denominator(x)
    brackets: list[tuple[Fraction, Fraction]] = []
    worst: dict | None = None
    for axis in range(f.dimension):
        (lo_step, lo), (hi_step, hi) = _tail_bracket(f, at, axis, range(1, depth + 1))
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
    return ProbeVerdict("class-a", CONSISTENT if worst is None else VIOLATED, depth, worst, tuple(brackets))


def first_order_remainder(f: ComputableFunction, x: Vector, h: Vector, b: Fraction) -> Fraction:
    """The exact remainder |f(x+h) - f(x) - row . h| with row_i = (f(x + b e_i) - f(x)) / b.

    The steps follow diff_class_b: x + h and each x + b e_i must lie in the
    cube, x itself need not.  A refused step raises ValueError before f is
    evaluated.
    """
    at = common_denominator(x)
    stepped = _step_point(at, common_denominator(h), (1, 1))
    if stepped is None:
        raise ValueError(f"step ({', '.join(map(str, h))}) leaves the unit cube")
    axes = (common_denominator(unit_axis(f.dimension, axis)) for axis in range(f.dimension))
    shifted = [_step_point(at, e, b.as_integer_ratio()) for e in axes]
    for axis, point in enumerate(shifted):
        if point is None:
            raise ValueError(f"step {b} along axis {axis} leaves the unit cube")
    fx = Fraction(*f.eval(*at))
    row = [(Fraction(*f.eval(*point)) - fx) / b for point in shifted]
    return abs(Fraction(*f.eval(*stepped)) - fx - dot(row, h))


def diff_class_b(f: ComputableFunction, x: Sequence[Fraction], depth: int) -> ProbeVerdict:
    """Bounded form of the first-order limit: ∀ε ∃δ ∀h ∀b remainder <= ε||h||.

    ε and δ range over 2**-1..2**-depth; h and b grids extend two levels
    deeper so small δ are never vacuous.  A finite grid can only refute the
    bounded form, never prove the limit.

    The pairs (h, b) a δ admits (||h|| < δ and |b| < δ) shrink with δ, so
    some δ works for ε exactly when δ = 2**-depth does.  Only the pairs of
    the two finest levels are built; a violation reports the first of them,
    in grid order, that fails the largest failing ε.

    f is read once at x and once at each admitted point x + 2**-k s, s in
    {-1, 0, 1}**n; the row's point x + b e_i is the h point of b's level.
    The values sit over one denominator D, so each remainder is an integer
    over D 2**k, and only the witness is built in Fractions.  The row rule
    is the one first_order_remainder states: each x + b e_i lies in the
    cube and x itself need not, because replay rebuilds the row that way.
    """
    x, at, n = tuple(x), common_denominator(x), f.dimension
    signs_h = [s for s in product((-1, 0, 1), repeat=n) if any(s)]
    rows = {sigma: [tuple(sigma * (i == axis) for i in range(n)) for axis in range(n)] for sigma in (1, -1)}
    grid = range(1, depth + 3)
    # every step is the pair (1, 2**k) along an integer direction s, over the denominator 1; a row's
    # steps are h steps too, so a level that admits a row admits an h
    if not any(all(_step_point(at, (s, 1), (1, pow2_scale(-j))) for s in row) for j in grid for row in rows.values()):
        raise ValueError("no feasible probe steps at this point")
    fine = {k: pow2_scale(-k) for k in range(max(1, depth + 1), depth + 3)}
    steps = {(k, s): _step_point(at, (s, 1), (1, fine[k])) for k in fine for s in signs_h}  # x + 2**-k s, or None
    # ||h||**2 = nnz(s) 4**-k < δ**2 = 4**-depth
    h_keys = [(k, s) for (k, s), point in steps.items() if point and sum(map(abs, s)) < 4 ** (k - depth)]
    row_keys = {(j, sigma): [(j, s) for s in rows[sigma]] for j in fine for sigma in rows}  # all below δ
    row_keys = {b: keys for b, keys in row_keys.items() if all(steps[key] for key in keys)}
    values = {(0, (0,) * n): f.eval(*at)}  # the point x + 2**-k s under the key (k, s)
    for key in h_keys + [key for keys in row_keys.values() for key in keys]:
        if key not in values:
            values[key] = f.eval(*steps[key])
    numerators, den = common_denominator_of_pairs(values.values())
    by_key, nx = dict(zip(values, numerators)), numerators[0]
    gammas = {b: [by_key[key] - nx for key in keys] for b, keys in row_keys.items()}
    failure = None  # (e, h key, b key, R) of the first pair failing the largest ε so far
    for k, s in h_keys:
        delta_h = (by_key[k, s] - nx) << k
        bound = den * den * sum(map(abs, s))  # D**2 ||s||**2
        for j, sigma in row_keys:
            # b = σ 2**-j: the remainder is R / (D 2**k), and it exceeds
            # 2**-e ||h|| exactly when R**2 4**e > D**2 ||s||**2
            r = abs(delta_h - (sigma * sum(map(mul, s, gammas[j, sigma])) << j))
            e = max(1, ((bound // (r * r)).bit_length() + 1) // 2) if r else depth + 1
            if e <= depth and (failure is None or e < failure[0]):
                failure = (e, (k, s), (j, sigma), r)
    if failure is None:
        return ProbeVerdict("class-b", CONSISTENT, depth, None, None)
    e, (k, s), (j, sigma), r = failure
    witness = {
        "op": "class-b",
        "point": x,
        "epsilon": pow2(-e),
        "delta": pow2(-depth),
        "h": tuple(Fraction(si, fine[k]) for si in s),
        "b": Fraction(sigma, fine[j]),
        "row": tuple(Fraction(sigma * g << j, den) for g in gammas[j, sigma]),
        "remainder": Fraction(r, den << k),
    }
    return ProbeVerdict("class-b", VIOLATED, depth, witness, None)


def replay(f: ComputableFunction, verdict: ProbeVerdict) -> bool:
    """Re-evaluate a violation witness exactly; True iff it reproduces."""
    if not verdict.violated or verdict.witness is None:
        return False
    w = verdict.witness
    if w["op"] == "partial":
        e = unit_axis(f.dimension, w["axis"])
        lo, hi = slope_dir(f, w["point"], e, [w["low"]["step"], w["high"]["step"]])
        return lo == w["low"]["slope"] and hi == w["high"]["slope"] and hi - lo >= w["threshold"]
    if w["op"] == "class-a":
        e = unit_axis(f.dimension, w["axis"])
        lo, hi = slope_dir(f, w["point"], e, [w["lower"]["step"], w["upper"]["step"]])
        return hi - lo == w["separation"] and w["separation"] >= w["threshold"]
    if w["op"] == "class-b":
        rem = first_order_remainder(f, w["point"], w["h"], w["b"])
        hsq = norm_sq(w["h"])
        return rem == w["remainder"] and rem * rem > w["epsilon"] ** 2 * hsq
    if w["op"] == "defect":
        steps = [h for h, _ in w["defects"]]
        directions = (w["u"], w["v"], vadd(w["u"], w["v"]))
        su, sv, suv = (slope_dir(f, w["point"], d, steps) for d in directions)
        if [abs(a + b - c) for a, b, c in zip(su, sv, suv)] != [d for _, d in w["defects"]]:
            return False
        return w["threshold"] is None or min(d for _, d in w["defects"]) >= w["threshold"]
    raise ValueError(f"unknown witness kind {w['op']!r}")
