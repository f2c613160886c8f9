import functools
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopelab.derivatives import (
    CONSISTENT,
    VIOLATED,
    ProbeVerdict,
    _step_point,
    _step_points,
    diff_class_a,
    diff_class_b,
    dir_derivative_via_basis,
    first_order_remainder,
    linearity_defect,
    partial_probe,
    replay,
    slope_dir,
)
from slopelab.functions import (
    ComputableFunction,
    abs_diff_2d,
    abs_distance_1d,
    constant_function,
    linear_form,
    piecewise_linear,
    product_xy,
)
from slopelab.rationals import common_denominator, dot, in_unit_cube, norm_sq, pow2, unit_axis, vadd, vscale
from slopelab.serialize import function_from_descriptor
from slopelab.tentsystem import tent_for
from slopelab.cubes import DyadicCube

F = Fraction


@functools.lru_cache(maxsize=1 << 16)
def value(f, point):
    """f at a Fraction point, handed over as numerators over one denominator.

    Memoised by f and the point, which a Fraction tuple holds in lowest
    terms: the full-scan oracles below read each point many times.
    """
    return f.eval(*common_denominator(point))


def fractions(numerators, denominator):
    """The point N / D that an evaluator reads, as Fractions."""
    return tuple(F(n, denominator) for n in numerators)


def on_fractions(formula):
    """An evaluator that computes the formula on the point N / D as Fractions."""
    return lambda numerators, denominator: formula(fractions(numerators, denominator))


def test_slope_axis_linear_is_coefficient():
    f = linear_form([2, 3])
    assert slope_dir(f, (F(1, 2), F(1, 2)), unit_axis(2, 0), [F(1, 4), F(-1, 8), F(3, 16)]) == [2, 2, 2]


def test_slope_axis_errors():
    f = linear_form([1])
    with pytest.raises(ValueError, match="zero step"):
        slope_dir(f, (F(1, 2),), unit_axis(1, 0), [F(0)])
    with pytest.raises(ValueError, match=r"^step 1/4 along \(1\) leaves the unit cube$"):
        slope_dir(f, (F(7, 8),), unit_axis(1, 0), [F(1, 4)])
    with pytest.raises(ValueError, match=r"^step -1/2 along \(3/5, -4/5\) leaves the unit cube$"):
        slope_dir(linear_form([1, 1]), (F(1, 4), F(1, 4)), (F(3, 5), F(-4, 5)), [F(-1, 2)])


def test_slope_axis_on_tent_ramp_is_one_over_eps():
    # unit-square tent, stage 0 index 1: ramp width 1/4 in the second axis
    tent = tent_for(DyadicCube(2, 0, (0, 0)), 0, 1).as_function()
    x = (F(1, 2), F(1, 16))
    # peak 1/2 times ramp slope 1/eps = 4
    assert slope_dir(tent, x, unit_axis(2, 1), [F(1, 16)]) == [F(1, 2) * 4]


def test_slope_row_and_symmetry():
    def row(f, x, h):
        return [slope_dir(f, x, unit_axis(f.dimension, axis), [h])[0] for axis in range(f.dimension)]

    f = linear_form([2, 3])
    assert row(f, (F(1, 3), F(1, 3)), F(1, 8)) == [2, 3]
    assert row(constant_function(7, 3), (F(1, 2),) * 3, F(1, 4)) == [0, 0, 0]
    # halving the step leaves linear rows unchanged
    assert row(f, (F(1, 3), F(1, 3)), F(1, 16)) == [2, 3]


def test_slope_dir_pythagorean_direction():
    f = linear_form([2, 3])
    assert slope_dir(f, (F(1, 4), F(1, 4)), (F(3, 5), F(4, 5)), [F(1, 8), F(1, 32)]) == [F(18, 5)] * 2


def test_slope_dir_diagonal_of_abs_difference():
    f = abs_diff_2d()
    assert slope_dir(f, (F(1, 3), F(1, 3)), (F(1), F(1)), [F(1, 8)]) == [0]


def test_partial_probe_smooth_product():
    f = product_xy()
    verdict = partial_probe(f, (F(1, 3), F(1, 3)), 0, 6, threshold=F(1, 4))
    assert verdict.status == CONSISTENT
    lo, hi = verdict.bracket
    assert lo <= F(1, 3) <= hi
    assert lo == hi == F(1, 3)  # second factor is fixed, slopes are exact


def test_partial_probe_kink_violation_and_replay():
    f = abs_distance_1d(F(1, 2))
    verdict = partial_probe(f, (F(1, 2),), 0, 6, threshold=F(2))
    assert verdict.status == VIOLATED
    assert verdict.witness["low"]["slope"] == -1
    assert verdict.witness["high"]["slope"] == 1
    assert replay(f, verdict)


def test_partial_probe_linear_zero_oscillation():
    f = linear_form([2, 3])
    verdict = partial_probe(f, (F(1, 2), F(1, 2)), 1, 7, threshold=F(1, 1024))
    assert verdict.status == CONSISTENT
    assert verdict.bracket == (F(3), F(3))


def test_partial_probe_infeasible_schedule():
    f = linear_form([1])
    with pytest.raises(ValueError, match="no feasible step along axis 0"):
        partial_probe(f, (F(3, 2),), 0, 6, threshold=F(1))
    with pytest.raises(ValueError, match="depth must reach the first step"):
        partial_probe(f, (F(1, 2),), 0, -1, threshold=F(1))


def test_dir_derivative_via_basis_identity_for_axis_direction():
    f = product_xy()
    x = (F(1, 3), F(2, 5))
    red = dir_derivative_via_basis(f, x, [1, 0], w=[0, 0])
    assert red.identity_holds
    assert red.z == x


def test_dir_derivative_via_basis_rotation():
    f = linear_form([2, 3])
    x = (F(1, 4), F(1, 4))
    red = dir_derivative_via_basis(f, x, [F(3, 5), F(4, 5)], w=[F(0), F(1, 4)])
    assert red.identity_holds
    t = F(1, 64)
    gz = value(red.g, red.z)
    gzt = value(red.g, (red.z[0] + t, red.z[1]))
    assert (gzt - gz) / t == F(18, 5)


def test_dir_derivative_offset_outside_the_cube_rejected():
    f = linear_form([1, 1])
    with pytest.raises(ValueError, match="pulls the point outside the unit cube"):
        dir_derivative_via_basis(f, (F(1, 3), F(1, 3)), [F(3, 5), F(4, 5)], w=[7, 7])


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@st.composite
def rational_unit_directions(draw):
    """A rational unit vector in dimension 2 or 3, from the stereographic parametrisations."""
    if draw(st.booleans()):
        t = draw(small_rationals)
        return (2 * t / (1 + t * t), (1 - t * t) / (1 + t * t))
    a, b = draw(small_rationals), draw(small_rationals)
    q = 1 + a * a + b * b
    return (2 * a / q, 2 * b / q, (1 - a * a - b * b) / q)


@given(data=st.data(), u=rational_unit_directions())
@settings(max_examples=60, deadline=None)
def test_dir_derivative_via_basis_reflects_the_point_for_any_rational_direction(data, u):
    n = len(u)
    x = tuple(data.draw(st.fractions(min_value=0, max_value=1, max_denominator=32)) for _ in range(n))
    w = tuple(data.draw(st.fractions(min_value=-1, max_value=1, max_denominator=16)) for _ in range(n))
    kinds = [linear_form([data.draw(st.integers(-5, 5)) for _ in range(n)])]
    if n == 2:
        kinds += [product_xy(), abs_diff_2d()]
    f = data.draw(st.sampled_from(kinds))
    # the reflection that swaps e_1 and u, as its own formula: y - 2 (v.y / v.v) v for v = u - e_1
    v = tuple(c - e for c, e in zip(u, unit_axis(n, 0)))
    y = tuple(a - b for a, b in zip(x, w))
    z = y if norm_sq(v) == 0 else tuple(c - 2 * dot(v, y) / norm_sq(v) * d for c, d in zip(y, v))
    if in_unit_cube(z):
        red = dir_derivative_via_basis(f, x, u, w)
        assert red.identity_holds
        assert red.z == z
    else:
        with pytest.raises(ValueError, match="pulls the point outside the unit cube"):
            dir_derivative_via_basis(f, x, u, w)


def test_linearity_defect_zero_for_linear():
    f = linear_form([2, 3])
    verdict = linearity_defect(f, (F(1, 3), F(1, 3)), [1, 0], [0, 1], F(1, 4))
    assert verdict.bracket == (F(0), F(0))


@given(
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.fractions(min_value=F(1, 4), max_value=F(3, 4), max_denominator=64),
)
@settings(max_examples=40, deadline=None)
def test_linearity_defect_zero_for_random_linear_forms(a, b, coord):
    f = linear_form([a, b])
    verdict = linearity_defect(f, (coord, coord), [1, 0], [0, 1], F(1, 8))
    assert verdict.bracket == (F(0), F(0))


def test_linearity_defect_two_on_diagonal_kink():
    f = abs_diff_2d()
    verdict = linearity_defect(
        f, (F(2, 5), F(2, 5)), [1, 0], [0, 1], F(1, 4), threshold=F(2)
    )
    assert verdict.status == VIOLATED
    assert verdict.bracket[0] == 2
    assert replay(f, verdict)


def test_linearity_defect_symmetric_in_directions():
    f = abs_diff_2d()
    x = (F(2, 5), F(2, 5))
    d1 = linearity_defect(f, x, [1, 0], [0, 1], F(1, 4))
    d2 = linearity_defect(f, x, [0, 1], [1, 0], F(1, 4))
    assert d1.bracket == d2.bracket


def test_linearity_defect_empty_grid():
    f = linear_form([1, 1])
    with pytest.raises(ValueError):
        linearity_defect(f, (F(63, 64), F(63, 64)), [1, 0], [0, 1], F(1, 1024), depth=3)


def test_diff_class_a_smooth_vs_kink():
    smooth = diff_class_a(product_xy(), (F(1, 3), F(1, 3)), 6, separation=F(1, 2))
    assert smooth.status == CONSISTENT
    assert smooth.bracket[0] == (F(1, 3), F(1, 3))
    assert smooth.bracket[1] == (F(1, 3), F(1, 3))
    kink = diff_class_a(abs_distance_1d(F(1, 2)), (F(1, 2),), 6, separation=F(1, 2))
    assert kink.status == VIOLATED
    assert kink.witness["lower"]["slope"] == -1
    assert kink.witness["upper"]["slope"] == 1
    assert replay(abs_distance_1d(F(1, 2)), kink)


def test_diff_class_a_linear_zero_width_brackets():
    verdict = diff_class_a(linear_form([2, 3]), (F(1, 2), F(1, 2)), 7)
    assert verdict.bracket == ((F(2), F(2)), (F(3), F(3)))


def test_diff_class_b_linear_and_bilinear_consistent():
    assert diff_class_b(linear_form([2, 3]), (F(1, 2), F(1, 2)), 6).status == CONSISTENT
    assert diff_class_b(product_xy(), (F(1, 3), F(1, 3)), 6).status == CONSISTENT


def test_diff_class_b_linear_remainders_vanish():
    f = linear_form([2, 3])
    x = (F(1, 2), F(1, 2))
    for h in ((F(1, 8), F(0)), (F(-1, 16), F(1, 16))):
        for b in (F(1, 8), F(-1, 32)):
            assert first_order_remainder(f, x, h, b) == 0


def test_first_order_remainder_refuses_a_step_before_evaluating_f():
    calls = []
    f = ComputableFunction(1, on_fractions(lambda p: calls.append(p) or p[0] * p[0]), lambda i: i + 1)
    x = (F(1, 2),)
    for h, b in (((F(1),), F(1, 4)), ((F(-3, 4),), F(1, 4)), ((F(1, 4),), F(3, 4))):
        with pytest.raises(ValueError, match="leaves the unit cube"):
            first_order_remainder(f, x, h, b)
    assert calls == []
    # |f(1) - f(1/2) - (f(3/4) - f(1/2)) / (1/4) * 1/2| = |3/4 - 5/8|
    assert first_order_remainder(f, x, (F(1, 2),), F(1, 4)) == F(1, 8)
    assert calls == [x, (F(3, 4),), (F(1),)]
    # a class-B witness whose h leaves the cube does not replay
    witness = {"op": "class-b", "point": x, "epsilon": F(1, 2), "delta": F(1, 2), "h": (F(1),), "b": F(1, 4)}
    with pytest.raises(ValueError, match=r"^step \(1\) leaves the unit cube$"):
        replay(f, ProbeVerdict("class-b", VIOLATED, 1, {**witness, "row": (F(1),), "remainder": F(3, 4)}, None))
    assert calls == [x, (F(3, 4),), (F(1),)]


def test_diff_class_b_kink_violation_with_sign_flip_witness():
    f = abs_distance_1d(F(1, 2))
    verdict = diff_class_b(f, (F(1, 2),), 6)
    assert verdict.status == VIOLATED
    assert verdict.witness["epsilon"] == F(1, 2)
    assert verdict.witness["row"][0] in (F(1), F(-1))
    assert replay(f, verdict)


def test_replay_rejects_consistent_verdicts():
    verdict = diff_class_b(linear_form([1]), (F(1, 2),), 4)
    assert not replay(linear_form([1]), verdict)


def test_replay_class_b_witness_at_a_point_outside_the_cube():
    # diff_class_b needs only the steps x + h and x + b e_i in the cube, so
    # replay must rebuild the row the same way and not reject x itself
    f = abs_distance_1d(F(0))
    verdict = diff_class_b(f, (F(-1, 8),), 1)
    assert verdict.status == VIOLATED
    assert replay(f, verdict)


def test_quotient_identity_breaks_when_transform_misses_the_direction():
    # regression guard: the pre-limit identity needs the transform to carry
    # the first axis exactly onto the direction; a perturbed first column
    # must break it at every step.  affine_isometry refuses such a matrix,
    # so the skewed map is built directly; it has no transpose inverse, so
    # z is chosen and x is the map's value at z.
    from slopelab.functions import AffineIsometry, affine_isometry, clamp_extend, compose_affine

    matrix = ((F(3, 5) + F(1, 64), F(4, 5)), (F(4, 5), F(-3, 5)))
    with pytest.raises(ValueError):
        affine_isometry(matrix)
    skewed = AffineIsometry(matrix, (F(0), F(0)))
    f = linear_form([2, 3])
    g = compose_affine(f, skewed)
    f_hat = clamp_extend(f)
    z = (F(1, 4), F(1, 8))
    x = tuple(dot(row, z) for row in matrix)  # the skewed map at z; its offset is 0
    u = (F(3, 5), F(4, 5))
    for k in range(2, 8):
        t = F(1, 2**k)
        lhs = (value(g, vadd(z, (t, F(0)))) - value(g, z)) / t
        rhs = (value(f_hat, vadd(x, vscale(t, u))) - value(f_hat, x)) / t
        assert lhs != rhs
        assert lhs == F(18, 5) + F(2, 64)  # the perturbation shows up verbatim


# ---------------------------------------------------------------------------
# Class B at the smallest δ against the full ε/δ scan


def class_b_oracle(f, x, depth):
    """The full-grid ε/δ scan that diff_class_b replaced."""
    x = tuple(x)
    h_vectors = [
        tuple(pow2(-k) * s for s in signs)
        for k in range(1, depth + 3)
        for signs in product((-1, 0, 1), repeat=f.dimension)
        if any(signs) and in_unit_cube(vadd(x, tuple(pow2(-k) * s for s in signs)))
    ]
    b_steps = [
        b
        for k in range(1, depth + 3)
        for b in (pow2(-k), -pow2(-k))
        if all(in_unit_cube(vadd(x, vscale(b, unit_axis(f.dimension, i)))) for i in range(f.dimension))
    ]
    if not h_vectors or not b_steps:
        raise ValueError("no feasible probe steps at this point")
    fx = value(f, x)
    rows = {}
    for b in b_steps:
        rows[b] = [
            (value(f, tuple(xi + (b if i == axis else 0) for i, xi in enumerate(x))) - fx) / b
            for axis in range(f.dimension)
        ]
    remainders = {}  # (h, b) -> the remainder, its square, ||h||**2 and b**2
    for h in h_vectors:
        fxh = value(f, vadd(x, h))
        hsq = norm_sq(h)
        for b in b_steps:
            rem = abs(fxh - fx - dot(rows[b], h))
            remainders[(h, b)] = (rem, rem * rem, hsq, b * b)
    for e in range(1, depth + 1):
        eps = pow2(-e)
        eps_sq = eps * eps
        found_delta = False
        smallest_delta_failure = None
        for d in range(1, depth + 1):
            delta = pow2(-d)
            delta_sq = delta * delta
            ok = True
            for (h, b), (rem, rem_sq, hsq, b_sq) in remainders.items():
                if hsq >= delta_sq or b_sq >= delta_sq:
                    continue
                if rem_sq > eps_sq * hsq:
                    ok = False
                    smallest_delta_failure = {
                        "op": "class-b",
                        "point": x,
                        "epsilon": eps,
                        "delta": delta,
                        "h": h,
                        "b": b,
                        "row": tuple(rows[b]),
                        "remainder": rem,
                    }
                    break
            if ok:
                found_delta = True
                break
        if not found_delta:
            return ProbeVerdict("class-b", VIOLATED, depth, smallest_delta_failure, None)
    return ProbeVerdict("class-b", CONSISTENT, depth, None, None)


def class_b_outcome(call, *args):
    try:
        return ("value", call(*args))
    except Exception as exc:  # the exception's type and text are compared
        return ("raise", type(exc), str(exc))


def rationals_in(lo, hi, max_denominator=64):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=max_denominator)


# where the probe points cluster, so kinks sit on them often
KINKS = st.sampled_from([F(1, 2), F(1, 4), F(3, 4), F(1, 3)])


BASE_KINDS = ("abs", "square", "cube", "pwlinear", "linear", "product", "abs-diff", "min-flip")


@st.composite
def probe_descriptors(draw, kinds=BASE_KINDS + ("sum", "scale", "clamp-extend")):
    """Descriptors of the eleven probe kinds, in dimensions 1-3."""
    kind = draw(st.sampled_from(kinds))
    if kind == "abs":
        return {"kind": "abs", "center": str(draw(KINKS | rationals_in(F(0), F(1))))}
    if kind in ("square", "cube", "product", "abs-diff", "min-flip"):
        return {"kind": kind}
    if kind == "pwlinear":
        knots = KINKS | rationals_in(F(1, 64), F(63, 64))
        inner = draw(st.lists(knots, min_size=1, max_size=4, unique=True))
        xs = [F(0)] + sorted(inner) + [F(1)]
        ys = draw(st.lists(rationals_in(F(-2), F(2), 8), min_size=len(xs), max_size=len(xs)))
        return {"kind": "pwlinear", "points": [[str(a), str(b)] for a, b in zip(xs, ys)]}
    if kind == "linear":
        dimension = draw(st.integers(1, 3))
        coeffs = draw(st.lists(rationals_in(F(-9), F(9), 4), min_size=dimension, max_size=dimension))
        return {"kind": "linear", "coeffs": [str(c) for c in coeffs]}
    inner = draw(probe_descriptors(BASE_KINDS))
    if kind == "scale":
        return {"kind": "scale", "by": str(draw(rationals_in(F(-4), F(4), 4))), "of": inner}
    if kind == "clamp-extend":
        return {"kind": "clamp-extend", "of": inner}
    other = draw(probe_descriptors(BASE_KINDS))
    if function_from_descriptor(other).dimension != function_from_descriptor(inner).dimension:
        other = {"kind": "linear", "coeffs": ["1/2"] * function_from_descriptor(inner).dimension}
    return {"kind": "sum", "of": [inner, other]}


coordinates = st.one_of(
    KINKS,
    st.sampled_from([F(0), F(1), F(1, 2)]),
    st.builds(lambda k, j: F(k, 2**j), st.integers(0, 64), st.just(6)),
    st.builds(lambda k, q: F(k, q), st.integers(1, 20), st.sampled_from([3, 5, 7, 21])).filter(
        lambda c: c < 1
    ),
    st.builds(lambda side, j: side + (pow2(-j) if side else -pow2(-j)), st.integers(0, 1), st.integers(1, 10)),
)


@given(probe_descriptors(), st.data(), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_class_b_at_smallest_delta_matches_full_scan(desc, data, depth):
    f = function_from_descriptor(desc)
    x = tuple(data.draw(st.lists(coordinates, min_size=f.dimension, max_size=f.dimension)))
    new = class_b_outcome(diff_class_b, f, x, depth)
    old = class_b_outcome(class_b_oracle, f, x, depth)
    assert new == old  # status, depth and every witness field, or the same exception
    if new[0] == "value" and new[1].violated:
        assert replay(f, new[1])


@pytest.mark.parametrize(
    "f, x, depth",
    [
        # four-dimensional kink: the level below δ has vectors with ||h|| = δ,
        # which δ does not admit
        (ComputableFunction(4, on_fractions(lambda p: abs(sum(p) - 2)), lambda i: i + 2), (F(1, 2),) * 4, 2),
        # the first remainder of the failing ε sits exactly on its bound; the
        # witness is the first pair strictly over it
        (piecewise_linear([(0, 0), (F(1, 2), 0), (F(33, 64), F(1, 64)), (1, F(1, 64))]), (F(1, 2),), 4),
    ],
)
def test_class_b_boundary_cases_match_full_scan(f, x, depth):
    verdict = diff_class_b(f, x, depth)
    assert verdict.violated
    assert verdict == class_b_oracle(f, x, depth)


def test_class_b_evaluation_count_does_not_grow_with_depth():
    base = product_xy()
    points = []

    def counted(numerators, denominator):
        points.append(fractions(numerators, denominator))
        return base.eval(numerators, denominator)

    f = ComputableFunction(2, counted, base.modulus)
    for depth in (6, 10):
        points.clear()
        assert diff_class_b(f, (F(1, 3), F(1, 3)), depth).status == CONSISTENT
        # x and the 16 points of the two finest levels, each read once
        assert len(points) == len(set(points)) == 17


@pytest.mark.parametrize("depth", range(1, 9))
@pytest.mark.parametrize("x", [(F(1, 3), F(5, 7), F(2, 21)), (F(5, 7), F(5, 7), F(2, 21))])
def test_class_b_matches_full_scan_over_a_large_denominator(x, depth):
    # the values at x and its grid points share no small denominator; the
    # second point sits on the kink, so every depth reports a witness
    f = ComputableFunction(3, on_fractions(lambda p: abs(p[0] - p[1]) + p[2] ** 3), lambda i: i + 3)
    verdict = diff_class_b(f, x, depth)
    assert verdict == class_b_oracle(f, x, depth)
    assert verdict.violated == replay(f, verdict)


@pytest.mark.parametrize("depth", range(1, 9))
def test_class_b_matches_full_scan_one_step_from_a_face(depth):
    step = pow2(-(depth + 2))  # the finest step
    for f in (abs_diff_2d(), product_xy()):
        for x in [(step, F(1, 3)), (F(2, 5), 1 - step), (1 - step, step), (step, step)]:
            assert class_b_outcome(diff_class_b, f, x, depth) == class_b_outcome(class_b_oracle, f, x, depth)


# ---------------------------------------------------------------------------
# The step rule against the exception-skipping probes it replaced


def slope_oracle(f, x, v, h):
    """A directional quotient that raises ValueError for a step leaving the cube."""
    shifted = vadd(x, vscale(h, v))
    if not in_unit_cube(x) or not in_unit_cube(shifted):
        raise ValueError(f"step {h} along {v} leaves the unit cube")
    return (value(f, shifted) - value(f, x)) / h


def tail_bracket_oracle(f, x, axis, steps):
    """Every signed step tried, the ones that raise skipped, then the tail kept."""
    observations = []
    for rank, h in enumerate(steps):
        for signed in (h, -h):
            try:
                observations.append((rank, signed, slope_oracle(f, x, unit_axis(len(x), axis), signed)))
            except ValueError:
                continue
    if not observations:
        return None
    tail = [obs for obs in observations if obs[0] >= len(steps) // 2] or observations
    return min(tail, key=lambda t: t[2])[1:], max(tail, key=lambda t: t[2])[1:]


def partial_probe_oracle(f, x, axis, depth, threshold):
    schedule = [pow2(-k) for k in range(2, depth + 3)]
    bracket = tail_bracket_oracle(f, x, axis, schedule)
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


def diff_class_a_oracle(f, x, depth, separation):
    steps = [pow2(-k) for k in range(1, depth + 1)]
    brackets, worst = [], None
    for axis in range(f.dimension):
        bracket = tail_bracket_oracle(f, x, axis, steps)
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
    status = VIOLATED if worst is not None else CONSISTENT
    return ProbeVerdict("class-a", status, depth, worst, tuple(brackets))


def linearity_defect_oracle(f, x, u, v, max_step, depth, threshold):
    defects = []
    for k in range(1, depth + 1):
        h = pow2(-k)
        if h > max_step:
            continue
        try:
            su, sv, suv = (slope_oracle(f, x, d, h) for d in (u, v, vadd(u, v)))
        except ValueError:
            continue
        defects.append((h, abs(su + sv - suv)))
    if not defects:
        raise ValueError("empty feasible grid")
    h_min, best = min(defects, key=lambda t: t[1])
    witness = {
        "op": "defect",
        "point": x,
        "u": u,
        "v": v,
        "step_at_min": h_min,
        "defects": defects,
        "threshold": threshold,
    }
    status = VIOLATED if threshold is not None and best >= threshold else CONSISTENT
    return ProbeVerdict("defect", status, len(defects), witness, (best, max(d for _, d in defects)))


in_cube = coordinates.filter(lambda c: 0 <= c <= 1)
thresholds = st.none() | st.sampled_from([F(0), F(1, 8), F(1, 2), F(1), F(2)])
directions = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 5)])


# a stepped coordinate on a face, or 2**-j inside or outside it, or anywhere near the cube
landings = rationals_in(F(-1), F(2)) | st.builds(
    lambda face, side, j: face + side * pow2(-j),
    st.sampled_from([F(0), F(1)]),
    st.sampled_from([-1, 0, 1]),
    st.integers(1, 40),
)
step_sizes = st.sampled_from([F(0), F(3, 16), F(-3, 16), F(1, 3), F(-5, 7)]) | st.builds(
    lambda sign, k: sign * pow2(-k), st.sampled_from([1, -1]), st.integers(0, 12)
)


def as_fractions(point):
    """A stepped point N / D as Fractions, and None as None."""
    return None if point is None else fractions(*point)


@given(st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_the_integer_step_rule_matches_the_fraction_step(n, data):
    v = tuple(data.draw(st.lists(directions | st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)))
    h = data.draw(step_sizes)
    # x is drawn through where its step lands, so it may lie outside the cube itself
    x = tuple(y - h * vi for y, vi in zip(data.draw(st.lists(landings, min_size=n, max_size=n)), v))
    stepped = vadd(x, vscale(h, v))
    at = common_denominator(x)
    step = h.as_integer_ratio()
    assert as_fractions(_step_point(at, common_denominator(v), step)) == (stepped if in_unit_cube(stepped) else None)
    admitted = [as_fractions(point) for point in _step_points(at, v, [step])]
    assert admitted == [stepped if in_unit_cube(x) and in_unit_cube(stepped) else None]


@given(probe_descriptors(), st.data(), st.integers(1, 8), thresholds, thresholds, thresholds)
@settings(max_examples=300, deadline=None)
def test_probes_match_the_exception_skipping_oracle(desc, data, depth, oscillation, separation, defect):
    f = function_from_descriptor(desc)
    n = f.dimension
    x = tuple(data.draw(st.lists(in_cube, min_size=n, max_size=n)))
    for axis in range(n):
        new = class_b_outcome(partial_probe, f, x, axis, depth, oscillation)
        assert new == class_b_outcome(partial_probe_oracle, f, x, axis, depth, oscillation)
    new = class_b_outcome(diff_class_a, f, x, depth, separation)
    assert new == class_b_outcome(diff_class_a_oracle, f, x, depth, separation)
    u, v = (tuple(data.draw(st.lists(directions, min_size=n, max_size=n))) for _ in range(2))
    max_step = data.draw(st.sampled_from([F(1, 64), F(3, 16), F(1, 4), F(1, 3), F(1, 2), F(5, 7), F(1), F(0), F(-1, 2)]))
    args = (f, x, u, v, max_step, depth, defect)
    new = class_b_outcome(linearity_defect, *args)
    assert new == class_b_outcome(linearity_defect_oracle, *args)
    if new[0] == "value" and new[1].violated:
        assert replay(f, new[1])


def counting(f):
    """f with a list of the points it is evaluated at."""
    points = []

    def evaluate(numerators, denominator):
        points.append(fractions(numerators, denominator))
        return f.eval(numerators, denominator)

    return ComputableFunction(f.dimension, evaluate, f.modulus), points


def test_a_bracket_reads_f_at_the_point_once_and_only_at_its_tail_steps():
    f, points = counting(product_xy())
    x = (F(1, 3), F(7, 8))
    partial_probe(f, x, 1, 6)
    # levels 2..8, tail 5..8; at 7/8 every negative step and only 1/32, 1/64, 1/128, 1/256 up fit
    assert points.count(x) == 1
    assert sorted(p[1] - x[1] for p in points if p != x) == sorted(
        s * pow2(-k) for k in range(5, 9) for s in (1, -1)
    )
    points.clear()
    diff_class_a(f, x, 6)
    assert points.count(x) == f.dimension  # once per axis bracket
    assert len(points) == f.dimension + 6 + 6  # levels 4..6, two signs, on both axes


def test_defect_reads_f_at_the_point_once():
    f, points = counting(product_xy())
    x = (F(1, 3), F(1, 3))
    verdict = linearity_defect(f, x, [1, 0], [0, 1], F(1, 4), depth=6)
    assert [h for h, _ in verdict.witness["defects"]] == [pow2(-k) for k in range(2, 7)]
    assert points.count(x) == 1
    assert len(points) == len(set(points)) == 1 + 3 * 5


@pytest.mark.parametrize(
    "depth, partial, class_a, class_b",
    [(20000, 16385, 16385, 20001), (40000, 20002, 20001, 40001)],
)
def test_a_depth_past_the_cap_is_refused_at_its_first_step_past_it_before_f_is_read(depth, partial, class_a, class_b):
    # each probe refuses the first step past POW2_MATERIALIZE_CAP = 2**14 that
    # it would build: the partial tail starts at level 2 + (depth + 1) // 2,
    # class A's at 1 + depth // 2, class B's finest levels at depth + 1, and
    # the defect candidates at 1
    f, points = counting(product_xy())
    x = (F(1, 3), F(7, 8))
    refusals = [
        (lambda: partial_probe(f, x, 1, depth), partial),
        (lambda: diff_class_a(f, x, depth), class_a),
        (lambda: diff_class_b(f, x, depth), class_b),
        (lambda: linearity_defect(f, x, [1, 0], [0, 1], F(1, 4), depth=depth), 16385),
        # no step from outside the cube lands in it, so the feasibility scan reaches the cap
        (lambda: diff_class_b(f, (F(2), F(1, 2)), depth), 16385),
    ]
    for probe, k in refusals:
        with pytest.raises(OverflowError, match=rf"^2\*\*-{k} exceeds the materialization cap$"):
            probe()
    assert points == []


def test_an_evaluator_error_inside_the_cube_is_not_an_infeasible_step():
    def evaluate(numerators, denominator):
        x = F(numerators[0], denominator)
        if x > F(1, 2):
            raise ValueError(f"cannot evaluate at {x}")
        return x

    f = ComputableFunction(1, evaluate, lambda i: i)
    with pytest.raises(ValueError, match="cannot evaluate at 3/4"):
        partial_probe(f, (F(1, 2),), 0, 0)
    with pytest.raises(ValueError, match="cannot evaluate"):
        diff_class_a(f, (F(1, 2),), 4)
    with pytest.raises(ValueError, match="cannot evaluate"):
        linearity_defect(f, (F(1, 2),), [1], [1], F(1, 4))
