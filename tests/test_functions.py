import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopelab.functions import (
    ComputableFunction,
    abs_diff_2d,
    abs_distance_1d,
    affine_isometry,
    clamp_extend,
    clamp_point,
    compose_affine,
    constant_function,
    cube_1d,
    gram_schmidt_basis,
    identity_1d,
    isometry_between,
    kn_decompose,
    linear_form,
    min_x_flip_y,
    modulus_audit,
    piecewise_linear,
    product_xy,
    scale_function,
    square_1d,
    sum_functions,
)
from slopelab.rationals import POW2_MATERIALIZE_CAP, dot, in_unit_cube, norm_sq, pow2, unit_axis, vadd


F = Fraction


def test_linear_form_values():
    f = linear_form([2, 3])
    assert f.eval((F(1, 2), F(1, 2))) == F(5, 2)
    zero = linear_form([0, 0])
    assert zero.eval((F(1, 3), F(2, 3))) == 0


def test_linear_form_modulus_contract_on_100_random_pairs():
    f = linear_form([2, 3])
    m = (F(2), F(3))
    rng = random.Random(20240917)
    checked = 0
    while checked < 100:
        level = rng.randrange(0, 6)
        radius = pow2(-f.modulus(level))
        x = tuple(F(rng.randrange(257), 256) for _ in range(2))
        # random rational displacement with ||d|| <= radius (scaled sup box)
        d = tuple(radius * F(rng.randrange(-90, 91), 128) for _ in range(2))
        if norm_sq(d) > radius * radius:
            continue
        y = vadd(x, d)
        if any(not 0 <= c <= 1 for c in y):
            continue
        assert abs(dot(m, d)) <= pow2(-level)
        checked += 1


def test_clamp_behavior():
    assert clamp_point((F(1, 2), F(3, 2))) == (F(1, 2), F(1))
    inside = (F(1, 3), F(2, 3))
    assert clamp_point(inside) == inside
    assert clamp_point((F(7, 2), F(-1, 2))) == (F(1), F(-1, 2))


def test_clamp_is_nonexpansive_on_samples():
    rng = random.Random(7)
    for _ in range(80):
        x = tuple(F(rng.randrange(-64, 192), 64) for _ in range(2))
        y = tuple(F(rng.randrange(-64, 192), 64) for _ in range(2))
        dx = norm_sq(tuple(a - b for a, b in zip(clamp_point(x), clamp_point(y))))
        assert dx <= norm_sq(tuple(a - b for a, b in zip(x, y)))


def test_kn_decompose_exact_split():
    f = linear_form([-1, 0])
    g, m = kn_decompose(f, 1)
    assert m == (F(1), F(1))
    x = (F(1, 3), F(2, 5))
    assert g.eval(x) == f.eval(x) + dot(m, x)
    # f = g - <m, .> pointwise
    assert f.eval(x) == g.eval(x) - dot(m, x)


def test_kn_decompose_rejects_bad_bound():
    with pytest.raises(ValueError):
        kn_decompose(square_1d(), 0)


def test_kn_decompose_monotone_on_grids_up_to_scale_5():
    g, _ = kn_decompose(abs_diff_2d(), 2)
    for scale in (4, 5):
        width = 1 << scale
        step = F(1, width)
        for a in range(width):
            for b in range(width):
                x = (F(a, width), F(b, width))
                for axis in range(2):
                    y = list(x)
                    y[axis] += step
                    assert g.eval(tuple(y)) >= g.eval(x)


def test_gram_schmidt_standard_and_pythagorean():
    std = gram_schmidt_basis([1, 0, 0])
    assert std == (unit_axis(3, 0), unit_axis(3, 1), unit_axis(3, 2))
    b = gram_schmidt_basis([F(3, 5), F(4, 5)])
    assert b[0] == (F(3, 5), F(4, 5))
    assert b[1] in ((F(-4, 5), F(3, 5)), (F(4, 5), F(-3, 5)))
    assert_orthonormal(b)


def assert_orthonormal(vectors):
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            assert dot(u, v) == (1 if i == j else 0)


def test_gram_schmidt_exact_in_three_dimensions():
    b = gram_schmidt_basis([F(2, 3), F(2, 3), F(1, 3)])
    assert b[0] == (F(2, 3), F(2, 3), F(1, 3))
    assert_orthonormal(b)


def test_gram_schmidt_rejects_bad_input():
    with pytest.raises(ValueError):
        gram_schmidt_basis([0, 0])
    with pytest.raises(ValueError):
        gram_schmidt_basis([F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        gram_schmidt_basis([F(5, 7), F(5, 7)])  # unit only within 1/49


def test_isometry_between():
    u, v = (F(1), F(0)), (F(3, 5), F(4, 5))
    iso = isometry_between(u, v)
    assert iso.apply(u) == v
    assert iso.apply_inverse(v) == u
    # exact distance preservation on rational samples
    rng = random.Random(3)
    for _ in range(40):
        a = tuple(F(rng.randrange(-16, 17), 16) for _ in range(2))
        b = tuple(F(rng.randrange(-16, 17), 16) for _ in range(2))
        d0 = norm_sq(tuple(p - q for p, q in zip(a, b)))
        d1 = norm_sq(tuple(p - q for p, q in zip(iso.apply(a), iso.apply(b))))
        assert d0 == d1


def test_isometry_identity_case():
    iso = isometry_between([1, 0], [1, 0])
    for point in ((F(1, 3), F(5, 8)), (F(0), F(1))):
        assert iso.apply(point) == point


def test_compose_affine_matches_inner_product():
    f = linear_form([2, 3])
    iso = isometry_between([1, 0], [F(3, 5), F(4, 5)])
    g = compose_affine(f, iso)
    for k in range(1, 9):
        t = F(k, 16)
        expected = F(18, 5) * t
        assert g.eval((t, F(0))) == expected
    assert g.modulus(4) == f.modulus(4)


def test_compose_affine_identity_transform():
    f = product_xy()
    ident = affine_isometry([[1, 0], [0, 1]])
    g = compose_affine(f, ident)
    x = (F(2, 7), F(3, 11))
    assert g.eval(x) == f.eval(x)


def test_compose_affine_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_affine(square_1d(), affine_isometry([[1, 0], [0, 1]]))


def test_piecewise_linear_eval_and_validation():
    zig = piecewise_linear([(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(1, 2)), (1, 1)])
    assert zig.eval((F(1, 8),)) == F(1, 16)
    assert zig.eval((F(3, 8),)) == F(5, 16)
    assert zig.eval((F(1),)) == 1
    with pytest.raises(ValueError):
        piecewise_linear([(0, 0)])
    with pytest.raises(ValueError):
        piecewise_linear([(0, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        piecewise_linear([(F(1, 4), 0), (1, 1)])


def test_modulus_audit_clean_for_constructed_families():
    rng = random.Random(99)
    for f in (
        linear_form([2, 3]),
        product_xy(),
        square_1d(),
        abs_distance_1d(F(1, 2)),
        min_x_flip_y(),
        sum_functions([product_xy(), abs_diff_2d()]),
        clamp_extend(linear_form([1, -2])),
        piecewise_linear([(0, 0), (F(1, 2), F(3, 2)), (1, 0)]),
    ):
        for level in (1, 2, 4):
            assert modulus_audit(f, level, 200, rng) == []


def test_modulus_audit_reports_a_modulus_that_is_too_small():
    f = ComputableFunction(1, lambda p: 4 * p[0], lambda i: i)  # slope 4 needs i + 2
    violations = modulus_audit(f, 3, 50, random.Random(1))
    assert violations
    for v in violations:
        assert set(v) == {"x", "y", "difference", "allowed"}
        assert v["allowed"] == pow2(-3)
        assert abs(v["x"][0] - v["y"][0]) <= pow2(-f.modulus(3))
        assert v["difference"] == abs(f.eval(v["x"]) - f.eval(v["y"])) > v["allowed"]


def fraction_modulus_audit(f, level, pairs, rng):
    """Oracle: the same modulus-law sampler, built on Fraction points and Fraction steps."""
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    h = f.modulus(level)
    allowed = pow2(-level)
    denom = 1 << (h + 6)
    violations = []
    checked = 0
    attempts = 0
    while checked < pairs and attempts < 20 * pairs:
        attempts += 1
        x = tuple(F(rng.randrange(denom + 1), denom) for _ in range(f.dimension))
        axis = rng.randrange(f.dimension)
        sign = rng.choice((-1, 1))
        step = F(sign * rng.randrange(1, 65), 64) * pow2(-h)
        y = tuple(xi + (step if i == axis else 0) for i, xi in enumerate(x))
        if not in_unit_cube(y):
            continue
        checked += 1
        diff = abs(f.eval(x) - f.eval(y))
        if diff > allowed:
            violations.append({"x": x, "y": y, "difference": diff, "allowed": allowed})
    return violations


class CountedRandom(random.Random):
    """A Random that logs every draw the audit makes, with its result."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def randrange(self, *args):
        result = super().randrange(*args)
        self.draws.append(("randrange", args, result))
        return result

    def choice(self, seq):
        result = super().choice(seq)
        self.draws.append(("choice", tuple(seq), result))
        return result


def audited(sampler, f, level, pairs, seed):
    """The sampler's violations, the (x, y) pairs it evaluated, and the draws it made."""
    points = []

    def evaluator(point):
        points.append(point)
        return f.eval(point)

    recorded = ComputableFunction(f.dimension, evaluator, f.modulus)
    rng = CountedRandom(seed)
    violations = sampler(recorded, level, pairs, rng)
    return violations, list(zip(points[::2], points[1::2])), rng.draws


def steep(dimension, shift):
    """Slope 4 along every axis against a modulus i + shift: too small unless shift >= 2 + log2(sqrt(n))."""
    return ComputableFunction(dimension, lambda p: 4 * sum(p, F(0)), lambda i: i + shift)


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_modulus_audit_draws_the_fraction_samplers_stream(dimension, seed):
    # h = level + shift = -6 puts x on the grid over 1, where almost every
    # step leaves the cube and the run ends at the 20 * pairs attempt cap
    for shift, level, pairs in ((0, 3, 40), (4, 2, 25), (-6, 0, 10), (-7, 1, 6), (1, 0, 0)):
        f = steep(dimension, shift)
        got = audited(modulus_audit, f, level, pairs, seed)
        expected = audited(fraction_modulus_audit, f, level, pairs, seed)
        assert got == expected
        violations, checked, draws = got
        attempts = sum(1 for kind, args, _ in draws if kind == "choice")
        assert len(checked) <= pairs and attempts <= 20 * pairs
        if shift < 0:
            assert len(checked) < pairs and attempts == 20 * pairs
        if shift == 0:
            assert violations
        for v in violations:
            assert all(type(c) is Fraction for c in (*v["x"], *v["y"]))


def test_modulus_audit_past_the_cap_raises_as_the_fraction_sampler():
    f = ComputableFunction(1, lambda p: p[0], lambda i: POW2_MATERIALIZE_CAP + 1)
    for sampler in (modulus_audit, fraction_modulus_audit):
        assert sampler(f, 0, 0, random.Random(1)) == []
        with pytest.raises(OverflowError, match=rf"2\*\*-{POW2_MATERIALIZE_CAP + 1} exceeds"):
            sampler(f, 0, 1, random.Random(1))


# ---------------------------------------------------------------------------
# The dyadic grid against pointwise evaluation


def pointwise_grid(f, level):
    width = 1 << level
    return [f.eval((F(k, width),)) for k in range(width + 1)]


def grid_values(f, level):
    numerators, denominator = f.dyadic_grid(level)
    assert denominator > 0
    return [F(n, denominator) for n in numerators]


rationals = st.builds(F, st.integers(-24, 24), st.integers(1, 12))


@st.composite
def pwlinear_functions(draw):
    # knots off the grid and closer than its spacing are drawn too
    inner = draw(st.lists(st.fractions(0, 1, max_denominator=3000), max_size=5, unique=True))
    xs = [F(0)] + sorted(set(inner) - {0, 1}) + [F(1)]
    return piecewise_linear([(x, draw(rationals)) for x in xs])


closed_forms = st.one_of(
    st.sampled_from([square_1d(), cube_1d(), identity_1d()]),
    rationals.map(lambda c: linear_form([c])),
    pwlinear_functions(),
)
sums_and_scales = st.recursive(
    closed_forms,
    lambda parts: st.one_of(
        st.lists(parts, min_size=1, max_size=3).map(sum_functions),
        st.tuples(rationals, parts).map(lambda pair: scale_function(*pair)),
    ),
    max_leaves=5,
)


@given(closed_forms, st.integers(0, 9))
@settings(max_examples=80, deadline=None)
def test_closed_form_grids_equal_pointwise_evaluation(f, level):
    assert f.grid is not None
    assert grid_values(f, level) == pointwise_grid(f, level)


@given(sums_and_scales, st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_grids_of_sums_and_scales_over_closed_forms_equal_pointwise_evaluation(f, level):
    assert grid_values(f, level) == pointwise_grid(f, level)


def test_grids_without_a_closed_form_evaluate_pointwise():
    mixed = sum_functions([abs_distance_1d(F(1, 3)), scale_function(F(2, 7), square_1d())])
    for f in (
        abs_distance_1d(F(1, 3)),
        clamp_extend(cube_1d()),
        mixed,
        scale_function(0, abs_distance_1d(F(1, 5))),
        constant_function(F(-5, 3)),
    ):
        assert f.grid is None
        for level in (0, 1, 5):
            assert grid_values(f, level) == pointwise_grid(f, level)


def test_dyadic_grid_is_read_from_one_variable_functions():
    with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
        product_xy().dyadic_grid(3)
    with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
        constant_function(1, 2).dyadic_grid(3)
