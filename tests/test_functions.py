import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slopelab.functions import (
    ComputableFunction,
    abs_diff_2d,
    abs_distance_1d,
    affine_isometry,
    clamp_extend,
    compose_affine,
    constant_function,
    cube_1d,
    gram_schmidt_basis,
    identity_1d,
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
from slopelab.martingales import box_slope_martingale
from slopelab.serialize import function_from_descriptor
from slopelab.rationals import (
    POW2_MATERIALIZE_CAP,
    common_denominator,
    dot,
    in_unit_cube,
    norm_sq,
    pow2,
    unit_axis,
    vadd,
)


F = Fraction


def value(f, point):
    """f at a Fraction point, handed over as numerators over one denominator, as a Fraction."""
    return F(*f.eval(*common_denominator(point)))


def fractions(numerators, denominator):
    """The point N / D that an evaluator reads, as Fractions."""
    return tuple(F(n, denominator) for n in numerators)


def on_fractions(formula):
    """An evaluator that computes the formula on the point N / D as Fractions, and returns its integer pair."""
    return lambda numerators, denominator: formula(fractions(numerators, denominator)).as_integer_ratio()


def test_linear_form_values():
    f = linear_form([2, 3])
    assert value(f, (F(1, 2), F(1, 2))) == F(5, 2)
    zero = linear_form([0, 0])
    assert value(zero, (F(1, 3), F(2, 3))) == 0


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


def clamp_point(point):
    """The point clamp_extend hands to f at the given point, as Fractions."""
    seen = []
    f = ComputableFunction(len(point), on_fractions(lambda p: seen.append(p) or F(0)), lambda i: i)
    value(clamp_extend(f), point)
    return seen[0]


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
    assert value(g, x) == value(f, x) + dot(m, x)
    # f = g - <m, .> pointwise
    assert value(f, x) == value(g, x) - dot(m, x)


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
                    assert value(g, y) >= value(g, x)


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


def apply(iso, x):
    """matrix @ x + offset."""
    return vadd(tuple(dot(row, x) for row in iso.matrix), iso.offset)


def test_isometry_between():
    u, v = (F(1), F(0)), (F(3, 5), F(4, 5))
    iso = affine_isometry(gram_schmidt_basis(v))
    assert apply(iso, u) == v
    assert iso.apply_inverse(v) == u
    # exact distance preservation on rational samples
    rng = random.Random(3)
    for _ in range(40):
        a = tuple(F(rng.randrange(-16, 17), 16) for _ in range(2))
        b = tuple(F(rng.randrange(-16, 17), 16) for _ in range(2))
        d0 = norm_sq(tuple(p - q for p, q in zip(a, b)))
        d1 = norm_sq(tuple(p - q for p, q in zip(apply(iso, a), apply(iso, b))))
        assert d0 == d1


def test_isometry_identity_case():
    iso = affine_isometry(gram_schmidt_basis([1, 0]))
    for point in ((F(1, 3), F(5, 8)), (F(0), F(1))):
        assert apply(iso, point) == point


def test_compose_affine_matches_inner_product():
    f = linear_form([2, 3])
    iso = affine_isometry(gram_schmidt_basis([F(3, 5), F(4, 5)]))
    g = compose_affine(f, iso)
    for k in range(1, 9):
        t = F(k, 16)
        expected = F(18, 5) * t
        assert value(g, (t, F(0))) == expected
    assert g.modulus(4) == f.modulus(4)


def test_compose_affine_identity_transform():
    f = product_xy()
    ident = affine_isometry([[1, 0], [0, 1]])
    g = compose_affine(f, ident)
    x = (F(2, 7), F(3, 11))
    assert value(g, x) == value(f, x)


def test_compose_affine_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_affine(square_1d(), affine_isometry([[1, 0], [0, 1]]))


def test_piecewise_linear_eval_and_validation():
    zig = piecewise_linear([(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(1, 2)), (1, 1)])
    assert value(zig, (F(1, 8),)) == F(1, 16)
    assert value(zig, (F(3, 8),)) == F(5, 16)
    assert value(zig, (F(1),)) == 1
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
    f = ComputableFunction(1, on_fractions(lambda p: 4 * p[0]), lambda i: i)  # slope 4 needs i + 2
    violations = modulus_audit(f, 3, 50, random.Random(1))
    assert violations
    for v in violations:
        assert set(v) == {"x", "y", "difference", "allowed"}
        assert v["allowed"] == pow2(-3)
        assert abs(v["x"][0] - v["y"][0]) <= pow2(-f.modulus(3))
        assert v["difference"] == abs(value(f, v["x"]) - value(f, v["y"])) > v["allowed"]


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
        diff = abs(value(f, x) - value(f, y))
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

    def evaluator(numerators, denominator):
        points.append(fractions(numerators, denominator))
        return f.eval(numerators, denominator)

    recorded = ComputableFunction(f.dimension, evaluator, f.modulus)
    rng = CountedRandom(seed)
    violations = sampler(recorded, level, pairs, rng)
    return violations, list(zip(points[::2], points[1::2])), rng.draws


def steep(dimension, shift):
    """Slope 4 along every axis against a modulus i + shift: too small unless shift >= 2 + log2(sqrt(n))."""
    return ComputableFunction(dimension, on_fractions(lambda p: 4 * sum(p, F(0))), lambda i: i + shift)


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


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_modulus_audit_compares_values_not_numerators(seed):
    # 4 / (1 + x) as the pair (4 D, D + N): every value the audit reads has
    # the numerator 4 * 2**(h + 6), so only the denominators tell f(x) from f(y)
    f = ComputableFunction(1, lambda n, d: (4 * d, d + n[0]), lambda i: i)
    got = audited(modulus_audit, f, 3, 40, seed)
    assert got == audited(fraction_modulus_audit, f, 3, 40, seed)
    assert got[0]


def test_modulus_audit_past_the_cap_raises_as_the_fraction_sampler():
    f = ComputableFunction(1, on_fractions(lambda p: p[0]), lambda i: POW2_MATERIALIZE_CAP + 1)
    for sampler in (modulus_audit, fraction_modulus_audit):
        assert sampler(f, 0, 0, random.Random(1)) == []
        with pytest.raises(OverflowError, match=rf"2\*\*-{POW2_MATERIALIZE_CAP + 1} exceeds"):
            sampler(f, 0, 1, random.Random(1))


# ---------------------------------------------------------------------------
# Slopes over the dyadic grid against pointwise evaluation


def pointwise_slopes(f, level, start=0, stop=None):
    """2**L * (f((k + 1) / 2**L) - f(k / 2**L)) for start <= k < stop, one evaluation per end."""
    width = 1 << level
    stop = width if stop is None else stop
    return [(F(*f.eval((k + 1,), width)) - F(*f.eval((k,), width))) * width for k in range(start, stop)]


def window_slopes(f, level, start, stop):
    numerators, denominator = f.slopes(level, start, stop)
    assert denominator > 0
    return [F(n, denominator) for n in numerators]


def walked_slopes(f, level):
    """The deepest level of the one-variable slope walk, which evaluates f on the grid without a closed form."""
    *_, (numerators, denominator) = box_slope_martingale(f, 0, 0).levels(level)
    return [F(n, denominator) for n in numerators]


rationals = st.builds(F, st.integers(-24, 24), st.integers(1, 12))


# knots from 0 to 1: off the grid and closer than its spacing, or on it
knot_lists = st.lists(
    st.fractions(0, 1, max_denominator=3000) | st.builds(F, st.integers(1, 63), st.just(64)), max_size=5, unique=True
).map(lambda inner: [F(0)] + sorted(set(inner) - {0, 1}) + [F(1)])


def knots_through(xs):
    """(x, y) knots over the abscissae xs."""
    ys = st.sampled_from([F(0), F(1, 3), F(-2, 5)]) | rationals  # repeats make flat pieces
    return st.lists(ys, min_size=len(xs), max_size=len(xs)).map(lambda values: list(zip(xs, values)))


def pwlinear_through(xs):
    return knots_through(xs).map(piecewise_linear)


def interpolate(knots, x):
    """The Fraction interpolation formula through (x, y) knots from 0 to 1, at x."""
    if not 0 <= x <= 1:
        raise ValueError(f"{x} outside [0, 1]")
    (a, ya), (b, yb) = next(pair for pair in zip(knots, knots[1:]) if x <= pair[1][0])
    return ya + (x - a) * (yb - ya) / (b - a)


polynomials = st.sampled_from([square_1d(), cube_1d(), identity_1d()]) | rationals.map(lambda c: linear_form([c]))
closed_forms = polynomials | knot_lists.flatmap(pwlinear_through)
sums_and_scales = st.recursive(
    closed_forms,
    lambda parts: st.one_of(
        st.lists(parts, min_size=1, max_size=3).map(sum_functions),
        st.tuples(rationals, parts).map(lambda pair: scale_function(*pair)),
    ),
    max_leaves=5,
)


@given(polynomials | knot_lists.flatmap(knots_through), st.integers(0, 9))
@settings(max_examples=80, deadline=None)
def test_closed_form_grids_equal_pointwise_evaluation(form, level):
    # a whole level of slopes, as the slope walk reads it; a piecewise-linear
    # function's windows and values read one rule, so both also meet the
    # Fraction interpolation formula through its knots
    f = piecewise_linear(form) if isinstance(form, list) else form
    assert f.slopes is not None
    windows = window_slopes(f, level, 0, 1 << level)
    assert windows == walked_slopes(f, level) == pointwise_slopes(f, level)
    if isinstance(form, list):
        grid = [interpolate(form, F(k, 1 << level)) for k in range((1 << level) + 1)]
        assert windows == [(b - a) * (1 << level) for a, b in zip(grid, grid[1:])]


@given(sums_and_scales, st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_grids_of_sums_and_scales_over_closed_forms_equal_pointwise_evaluation(f, level):
    assert walked_slopes(f, level) == pointwise_slopes(f, level)


def test_grids_without_a_closed_form_evaluate_pointwise():
    mixed = sum_functions([abs_distance_1d(F(1, 3)), scale_function(F(2, 7), square_1d())])
    for f in (
        abs_distance_1d(F(1, 3)),
        clamp_extend(cube_1d()),
        mixed,
        scale_function(0, abs_distance_1d(F(1, 5))),
        constant_function(F(-5, 3)),
    ):
        assert f.slopes is None
        for level in (0, 1, 5):
            assert walked_slopes(f, level) == pointwise_slopes(f, level)


# ---------------------------------------------------------------------------
# Every descriptor kind reads N / D, whatever the common factor of N and D


def orthogonal_matrices(n):
    """Exactly orthogonal n x n matrices: signed permutations, and in two dimensions 3-4-5 ones."""
    signed = st.permutations(range(n)).flatmap(
        lambda order: st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n).map(
            lambda signs: [[F(signs[i]) if j == order[i] else F(0) for j in range(n)] for i in range(n)]
        )
    )
    if n != 2:
        return signed
    a, b = F(3, 5), F(4, 5)
    return signed | st.sampled_from([[[a, -b], [b, a]], [[a, b], [b, -a]]])


small = st.fractions(min_value=-2, max_value=2, max_denominator=12)
unit = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def descriptors(draw, n, depth=2):
    """A descriptor of dimension n of any kind function_from_descriptor reads, and its Fraction formula."""
    kinds = ["linear", "constant", "tent"]
    kinds += {1: ["abs", "square", "cube", "identity", "pwlinear"], 2: ["product", "abs-diff", "min-flip"], 3: []}[n]
    if depth:
        kinds += ["sum", "scale", "clamp-extend", "affine-compose"]
    kind = draw(st.sampled_from(kinds))
    if kind == "linear":
        m = draw(st.lists(small, min_size=n, max_size=n))
        return {"kind": kind, "coeffs": [str(c) for c in m]}, lambda x: dot(m, x)
    if kind == "constant":
        c = draw(small)
        return {"kind": kind, "value": str(c), "dimension": n}, lambda x: c
    if kind == "tent":
        scale = draw(st.integers(0, 3))
        corner = draw(st.lists(st.integers(0, (1 << scale) - 1), min_size=n, max_size=n))
        stage, index = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        desc = {"kind": kind, "cell": {"dim": n, "scale": scale, "corner": corner}, "stage": stage, "index": index}
        eps = pow2(-(stage + index + 1 + scale))

        def tent(x):
            result = F(1)
            for axis, (c, xi) in enumerate(zip(corner, x)):
                lo, hi = F(c, 1 << scale), F(c + 1, 1 << scale)
                near = min(xi - lo, hi - xi)
                if near <= 0:
                    return F(0)
                result *= near if axis == 0 else min(near / eps, 1)
            return result

        return desc, tent
    if kind in ("abs", "square", "cube", "identity", "product", "abs-diff", "min-flip"):
        center = draw(unit)
        formula = {
            "abs": lambda x: abs(x[0] - center),
            "square": lambda x: x[0] * x[0],
            "cube": lambda x: x[0] ** 3,
            "identity": lambda x: x[0],
            "product": lambda x: x[0] * x[1],
            "abs-diff": lambda x: abs(x[0] - x[1]),
            "min-flip": lambda x: min(x[0], 1 - x[1]),
        }[kind]
        return ({"kind": kind, "center": str(center)} if kind == "abs" else {"kind": kind}), formula
    if kind == "pwlinear":
        xs = [F(0)] + sorted(draw(st.sets(unit.filter(lambda c: 0 < c < 1), max_size=3))) + [F(1)]
        ys = draw(st.lists(small, min_size=len(xs), max_size=len(xs)))
        knots = list(zip(xs, ys))
        return {"kind": kind, "points": [[str(a), str(b)] for a, b in knots]}, lambda x: interpolate(knots, x[0])
    if kind == "sum":
        parts = draw(st.lists(descriptors(n, depth - 1), min_size=1, max_size=3))
        return {"kind": kind, "of": [d for d, _ in parts]}, lambda x: sum((g(x) for _, g in parts), F(0))
    inner, g = draw(descriptors(n, depth - 1))
    if kind == "scale":
        c = draw(small)
        return {"kind": kind, "by": str(c), "of": inner}, lambda x: c * g(x)
    if kind == "clamp-extend":
        return {"kind": kind, "of": inner}, lambda x: g(tuple(min(xi, 1) for xi in x))
    matrix = draw(orthogonal_matrices(n))
    offset = draw(st.lists(small, min_size=n, max_size=n))
    desc = {"kind": kind, "matrix": [[str(a) for a in row] for row in matrix], "offset": [str(b) for b in offset]}
    return {**desc, "of": inner}, lambda x: g(tuple(min(dot(row, x) + b, 1) for row, b in zip(matrix, offset)))


def outcome(call, *args):
    """The value of a call, or the text of the ValueError it raises."""
    try:
        return ("value", call(*args))
    except ValueError as exc:
        return ("raise", str(exc))


def exact(f):
    """f's evaluator as a Fraction, once its value is checked to be an integer pair with a positive denominator."""

    def read(numerators, denominator):
        a, b = f.eval(numerators, denominator)
        assert type(a) is int and type(b) is int and b > 0, (a, b)
        return F(a, b)

    return read


multiples = st.sampled_from([2, 3]) | st.integers(1, 80).map(lambda j: 1 << j)


@st.composite
def points(draw, n):
    """Integer numerators N over a denominator D, N / D in the unit cube."""
    denominator = draw(st.integers(1, 200))
    return draw(st.lists(st.integers(0, denominator), min_size=n, max_size=n)), denominator


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(descriptors(n), points(n))), multiples)
@settings(max_examples=300, deadline=None)
def test_every_descriptor_kind_reads_n_over_d_whatever_the_common_factor(drawn, k):
    (desc, formula), (numerators, denominator) = drawn
    f = function_from_descriptor(desc)
    expected = outcome(formula, fractions(numerators, denominator))
    assert outcome(exact(f), numerators, denominator) == expected
    assert outcome(exact(f), [k * n for n in numerators], k * denominator) == expected


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(descriptors(n, depth=3), points(n))), st.integers(1, 1 << 70))
@settings(max_examples=200, deadline=None)
def test_nested_descriptors_value_an_unreduced_point_as_its_lowest_terms(drawn, k):
    # sums of scales of clamps of compositions, three deep: every value is a
    # pair over a positive denominator, and the point k N / k D reads the same
    # number as N / D, which is the Fraction formula's
    (desc, formula), (numerators, denominator) = drawn
    f = function_from_descriptor(desc)
    expected = outcome(formula, fractions(numerators, denominator))
    assert outcome(exact(f), [k * n for n in numerators], k * denominator) == expected
    assert outcome(exact(f), numerators, denominator) == expected


@given(st.data(), multiples)
@settings(max_examples=100, deadline=None)
def test_a_tent_system_reads_n_over_d_whatever_the_common_factor(toy_system5, data, k):
    # points near the target sit in cells of every stage
    j = data.draw(st.integers(2, 60))
    near = st.integers(-3, 3).map(lambda t: (1 << j) + t)
    numerators, denominator = data.draw(
        st.tuples(st.lists(near, min_size=2, max_size=2), st.just(3 << j)) | points(2)
    )
    f = toy_system5.as_function()
    assert exact(f)([k * n for n in numerators], k * denominator) == exact(f)(numerators, denominator)



@st.composite
def slope_windows(draw):
    """A closed form, a level up to 2100, and a window that starts, ends or straddles on a knot, or lies anywhere."""
    xs = draw(knot_lists)
    f = draw(polynomials | pwlinear_through(xs))
    level = draw(st.sampled_from([0, 1, 2, 5, 10, 64, 2048]) | st.integers(0, 2100))
    top = 1 << level
    at_knot = st.sampled_from(xs).map(lambda x: x.numerator * top // x.denominator)  # the last k / 2**L <= x
    start = min(max(draw(at_knot | st.integers(0, top)) + draw(st.integers(-3, 3)), 0), top)
    return f, level, start, min(start + draw(st.integers(0, 6)), top)


@given(slope_windows())
@example((piecewise_linear([(0, 0), (F(1, 4), F(1, 3)), (F(1, 3), F(1, 2)), (1, 5)]), 2, 0, 4))  # 1/4 on the grid, 1/3 inside
@example((piecewise_linear([(0, 0), (F(1, 5), 1), (F(1, 3), 0), (F(2, 5), 3), (1, 1)]), 0, 0, 1))  # three knots in one interval
@example((piecewise_linear([(0, 0), (F(1, 5), 1), (F(1, 3), 0), (F(2, 5), 3), (1, 1)]), 1, 0, 2))
@example((piecewise_linear([(0, 0), (F(1, 3), F(1, 3)), (1, F(-7, 5))]), 2048, (1 << 2048) // 3 - 2, (1 << 2048) // 3 + 4))
@example((piecewise_linear([(0, 2), (F(1, 7), 2), (1, 2)]), 10, 140, 150))  # flat pieces
@example((square_1d(), 2100, (1 << 2100) - 3, 1 << 2100))
@example((cube_1d(), 2100, (1 << 2100) - 3, 1 << 2100))
@example((linear_form([F(-7, 3)]), 5, 30, 32))
@settings(max_examples=150, deadline=None)
def test_slope_windows_equal_the_evaluator_at_each_interval(window):
    f, level, start, stop = window
    assert window_slopes(f, level, start, stop) == pointwise_slopes(f, level, start, stop)


# ---------------------------------------------------------------------------
# A value is an integer pair: evaluating builds no Fraction


def test_evaluating_any_family_or_the_tent_sum_builds_no_fraction(toy_system5, counting_fractions):
    pwlinear = piecewise_linear([(0, F(1, 3)), (F(2, 7), F(-1, 2)), (F(5, 8), 2), (1, 0)])
    rotation = affine_isometry([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]], [F(1, 5), F(0)])
    tent = function_from_descriptor({"kind": "tent", "cell": {"dim": 2, "scale": 1, "corner": [0, 1]}, "stage": 1, "index": 2})
    one = [
        linear_form([F(-7, 3)]), constant_function(F(5, 6)), abs_distance_1d(F(1, 3)), square_1d(), cube_1d(),
        identity_1d(), pwlinear, clamp_extend(cube_1d()), scale_function(F(-3, 4), pwlinear),
        scale_function(0, square_1d()), sum_functions([pwlinear, abs_distance_1d(F(2, 5)), constant_function(F(1, 7))]),
    ]
    two = [
        linear_form([F(2, 3), F(-1, 5)]), constant_function(-2, 2), product_xy(), abs_diff_2d(), min_x_flip_y(), tent,
        compose_affine(sum_functions([product_xy(), tent]), rotation), kn_decompose(min_x_flip_y(), 1)[0],
    ]
    system = toy_system5.as_function()
    hit, miss = ([1, 1], 3), ([7, 1], 8)  # near the target (1/3, 1/3), and far from it
    assert toy_system5.partition.locate(toy_system5.cutoff + 1, *hit) is not None
    assert toy_system5.partition.locate(toy_system5.cutoff + 1, *miss) is None
    points = {1: [([0], 1), ([1], 3), ([10], 30), ([5], 8), ([1], 1)], 2: [([1, 1], 3), ([3, 6], 16), ([4, 12], 16)]}
    counting_fractions.clear()
    values = [f.eval(*point) for f in one for point in points[1]]
    values += [f.eval(*point) for f in two for point in points[2]]
    values += [system.eval(*hit), system.eval([5 * n for n in hit[0]], 5 * hit[1]), system.eval(*miss)]
    assert counting_fractions == []
    assert all(type(a) is int and type(b) is int and b > 0 for a, b in values)
    assert F(*values[-3]) == F(*values[-2]) != 0 and values[-1] == (0, 1)
