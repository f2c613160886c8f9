import dataclasses
import functools
import json
import math
import random
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopelab.bits import (
    bits_of_fraction,
    constant_bits,
    fraction_from_bits,
    interleave,
    pattern_bits,
)
from slopelab.functions import (
    ComputableFunction,
    abs_distance_1d,
    clamp_extend,
    constant_function,
    cube_1d,
    identity_1d,
    kn_decompose,
    linear_form,
    min_x_flip_y,
    piecewise_linear,
    product_xy,
    scale_function,
    square_1d,
    sum_functions,
)
from slopelab.martingales import (
    Martingale,
    MonotonicityError,
    NegativeCapitalError,
    all_on_ones_martingale,
    audit_monotone,
    box_slope_martingale,
    check_fairness,
    constant_martingale,
    interval_slope,
    run_bet,
    slope_martingale,
    table_martingale,
)
from slopelab.rationals import common_denominator, format_ratio, format_rational
from slopelab.serialize import bet_csv, canonical_json, function_from_descriptor, to_plain

F = Fraction


def pairs(capitals) -> tuple[tuple[int, int], ...]:
    """The capitals as run_bet holds them: (numerator, denominator > 0) in lowest terms."""
    return tuple(F(c).as_integer_ratio() for c in capitals)


def random_monotone_pwlinear(rng: random.Random):
    knots = sorted(rng.sample(range(1, 32), 4))
    xs = [F(0)] + [F(k, 32) for k in knots] + [F(1)]
    ys = [F(0)]
    for _ in range(len(xs) - 1):
        ys.append(ys[-1] + F(rng.randrange(0, 9), 8))
    return piecewise_linear(list(zip(xs, ys)))


def test_constant_martingale_fair():
    assert check_fairness(constant_martingale(1), 8) is None


def test_all_on_ones_values_and_fairness():
    m = all_on_ones_martingale()
    assert m.at((1, 1, 1)) == 8
    assert m.at((1, 0, 1)) == 0
    assert check_fairness(m, 10) is None


def test_slope_martingale_of_identity_is_one():
    m = slope_martingale(identity_1d())
    for sigma in ((), (0,), (1, 0, 1), (1,) * 6):
        assert m.at(sigma) == 1


def test_slope_martingale_of_square():
    m = slope_martingale(square_1d())
    assert m.at(()) == 1
    assert m.at((0,)) == F(1, 2)
    assert m.at((1,)) == F(3, 2)
    assert check_fairness(m, 10) is None


def test_slope_martingale_of_constant_is_zero():
    m = slope_martingale(piecewise_linear([(0, F(1, 3)), (1, F(1, 3))]))
    for sigma in ((), (0, 1), (1, 1, 0)):
        assert m.at(sigma) == 0


def test_slope_martingale_rejects_decreasing():
    with pytest.raises(MonotonicityError):
        slope_martingale(piecewise_linear([(0, 1), (1, 0)]))
    with pytest.raises(MonotonicityError):
        audit_monotone(box_slope_martingale(abs_distance_1d(F(1, 2)), 0, 0))


@pytest.mark.parametrize(
    "points, first",
    [
        ([(0, 0), (F(1, 64), F(1, 16)), (F(1, 32), F(1, 32)), (1, 1)], "f(1/32) < f(1/64)"),  # knots on the audit grid
        ([(0, 0), (F(1, 50), F(1, 10)), (F(1, 30), 0), (1, 1)], "f(1/32) < f(1/64)"),  # knots inside its intervals
        ([(0, 0), (F(63, 64), 1), (1, F(1, 2))], "f(1) < f(63/64)"),  # only the last interval falls
    ],
)
def test_the_monotone_audit_refuses_alike_with_and_without_slopes(points, first):
    f = piecewise_linear(points)
    assert f.slopes is not None
    rejected = ("raise", MonotonicityError, f"{first} on the audit grid")
    assert outcome(slope_martingale, f) == outcome(slope_martingale, dataclasses.replace(f, slopes=None)) == rejected


def test_slope_readers_refuse_two_variable_functions():
    for f in (product_xy(), constant_function(1, 2)):
        # refused before any evaluation, with one message for both readers
        refused = ("raise", ValueError, "slope martingales read one-variable functions")
        calls = []
        assert outcome(slope_martingale, counted(f, calls)) == outcome(interval_slope, f, (0, 1)) == refused
        assert calls == []


def test_every_closed_form_a_bet_descriptor_builds_states_its_slopes():
    # a closed form without slopes would fall back to the evaluator path unseen
    closed = [
        {"kind": "square"},
        {"kind": "cube"},
        {"kind": "identity"},
        {"kind": "linear", "coeffs": ["2/3"]},
        {"kind": "pwlinear", "points": [["0/1", "0/1"], ["1/3", "1/5"], ["1/1", "1/1"]]},
    ]
    evaluated = [
        {"kind": "sum", "of": [{"kind": "square"}, {"kind": "identity"}]},
        {"kind": "scale", "by": "2/1", "of": {"kind": "cube"}},
        {"kind": "clamp-extend", "of": {"kind": "square"}},
        {"kind": "abs", "center": "1/3"},
    ]
    assert [function_from_descriptor(d).slopes is not None for d in closed] == [True] * len(closed)
    assert [function_from_descriptor(d).slopes is None for d in evaluated] == [True] * len(evaluated)


def test_corrupted_table_fails_with_witness():
    table = {"": "1/1", "0": "1/2", "1": "3/2", "00": "1/2", "01": "1/2", "10": "9/7", "11": "3/2"}
    m = table_martingale(table)
    assert check_fairness(m, 3) == (1,)


def test_fairness_is_algebraic_for_arbitrary_exact_functions():
    # the identity 2*slope(I) = slope(left) + slope(right) needs no monotonicity
    for f in (square_1d(), cube_1d(), abs_distance_1d(F(1, 3))):
        for length in range(7):
            for sigma in product((0, 1), repeat=length):
                assert 2 * interval_slope(f, sigma) == interval_slope(f, sigma + (0,)) + interval_slope(f, sigma + (1,))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_random_monotone_pwlinear_slope_martingales_fair(seed):
    f = random_monotone_pwlinear(random.Random(seed))
    m = slope_martingale(f)
    assert check_fairness(m, 7) is None


def test_run_bet_trajectories():
    flat = run_bet(constant_martingale(1), constant_bits(0), 8)
    assert flat.trajectory == pairs([1] * 9)
    assert flat.max_capital == 1 and flat.min_tail_capital == 1

    doubling = run_bet(all_on_ones_martingale(), constant_bits(1), 10, thresholds=(F(8),))
    assert doubling.trajectory == pairs(2**k for k in range(11))
    assert doubling.threshold_crossings[F(8)] == 3

    busted = run_bet(all_on_ones_martingale(), pattern_bits([1, 1, 0]), 9)
    assert busted.trajectory == pairs([1, 2, 4] + [0] * 7)


def test_bet_run_csv_format():
    run = run_bet(constant_martingale(F(1, 3)), constant_bits(0), 2)
    assert bet_csv(run) == "length,capital\n0,1/3\n1,1/3\n2,1/3\n"


def test_bet_run_csv_renders_denominators_past_the_str_digit_limit():
    # str() refuses integers past 4300 digits; 3**10000 has 4772
    run = run_bet(constant_martingale(F(1, 3**10000)), pattern_bits([0, 1]), 3)
    assert run.trajectory == pairs([F(1, 3**10000)] * 4)
    header, *rows = bet_csv(run).splitlines()
    assert header == "length,capital"
    trajectory = to_plain(run)["trajectory"]
    assert [row.split(",") for row in rows] == [[str(k), entry] for k, entry in enumerate(trajectory)]
    assert trajectory == [format_rational(F(1, 3**10000))] * 4
    assert len(trajectory[0].split("/")[1]) == 4772


def test_bet_csv_rows_and_the_json_trajectory_render_the_same_strings():
    # square's slope over an interval of length 2**-L is (2i + 1) / 2**L, so its twos rise past 2**4096;
    # an interval that straddles the knot 1/3 has slope 4/7, and the table's 1, 3/2, 3 falls back to 2**0
    straddling = slope_martingale(piecewise_linear([(0, 0), (F(1, 3), F(1, 21)), (1, 1)]))
    table = table_martingale({"": "1/1", "0": "1/2", "1": "3/2", "10": "3/1", "11": "0/1"})
    runs = [
        run_bet(slope_martingale(square_1d()), bits_of_fraction(F(1, 3)), 4200),
        run_bet(straddling, bits_of_fraction(F(1, 3)), 300),
        run_bet(table, pattern_bits([1, 0]), 5),
    ]
    assert runs[0].trajectory[-1] == (2 * ((1 << 4200) // 3) + 1, 1 << 4200)
    for run in runs:
        csv = bet_csv(run)
        header, *rows = csv.splitlines()
        trajectory = json.loads(canonical_json(run))["trajectory"]
        assert rows == [f"{k},{text}" for k, text in enumerate(trajectory)]
        assert trajectory == [format_ratio(p, q) for p, q in run.trajectory]
        old_rows = [f"{k},{format_ratio(p, q)}" for k, (p, q) in enumerate(run.trajectory)]
        assert csv == "\n".join(["length,capital", *old_rows]) + "\n"
    assert [q for _, q in runs[2].trajectory] == [1, 2, 1, 1, 1, 1]


def test_run_bet_uses_exactly_the_prefix():
    calls = []

    def probe(length, index):
        calls.append((length, index))
        return F(1)

    run_bet(from_nodes(probe), pattern_bits([0, 1]), 4)
    # (length, index) of (), (0,), (0, 1), (0, 1, 0), (0, 1, 0, 1)
    assert calls == [(0, 0), (1, 0), (2, 1), (3, 2), (4, 5)]


def test_slope_bet_evaluates_f_once_per_step():
    # without a closed form the walk evaluates f
    calls = []
    m = slope_martingale(counted(dataclasses.replace(square_1d(), slopes=None), calls))
    calls.clear()  # the monotonicity audit's grid
    run = run_bet(m, bits_of_fraction(F(1, 3)), 1024)
    assert len(calls) == 1024 + 2  # f(0), f(1), then one midpoint per step
    assert len(set(calls)) == len(calls)
    expected = slope_oracle(square_1d(), bits_of_fraction(F(1, 3)).prefix(1024))
    assert run.trajectory[1024] == expected.as_integer_ratio()


def test_closed_form_slope_bet_never_calls_the_evaluator():
    calls = []
    pwlinear = piecewise_linear([(0, 0), (F(1, 3), F(1, 5)), (1, 1)])
    source = bits_of_fraction(F(1, 3))
    for f in (square_1d(), cube_1d(), identity_1d(), pwlinear):
        run = run_bet(slope_martingale(counted(f, calls)), source, 1024)
        assert calls == []
        assert run.trajectory[1024] == slope_oracle(f, source.prefix(1024)).as_integer_ratio()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_slope_average_identity_for_arbitrary_pwlinear(seed):
    rng = random.Random(seed)
    knots = sorted(rng.sample(range(1, 32), 3))
    xs = [F(0)] + [F(k, 32) for k in knots] + [F(1)]
    ys = [F(rng.randrange(-16, 17), 8) for _ in xs]  # not monotone in general
    f = piecewise_linear(list(zip(xs, ys)))
    for length in range(6):
        for sigma in product((0, 1), repeat=length):
            assert 2 * interval_slope(f, sigma) == interval_slope(
                f, sigma + (0,)
            ) + interval_slope(f, sigma + (1,))


@given(st.integers(0, 2**31 - 1), st.lists(st.integers(0, 1), max_size=12).map(tuple))
@settings(max_examples=60, deadline=None)
def test_interval_slope_and_the_grid_path_are_box_slope_capitals(seed, bits):
    # interval_slope reads a closed form's window, or f at both ends; the
    # n = 1 path reads the same windows, or walks f's endpoint column
    rng = random.Random(seed)
    center = F(rng.randrange(0, 97), 96)
    pwlinear = random_monotone_pwlinear(rng)
    summed = sum_functions([pwlinear, abs_distance_1d(center)])
    functions = [square_1d(), cube_1d(), pwlinear, abs_distance_1d(center), summed, unreduced(summed)]
    assert [f.slopes is not None for f in functions] == [True, True, True, False, False, False]
    for f in functions:
        expected = [slope_oracle(f, bits[:length]) for length in range(len(bits) + 1)]
        assert [interval_slope(f, bits[:length]) for length in range(len(bits) + 1)] == expected
        assert walked_path(box_slope_martingale(f, 0, 0), bits) == expected


# ---------------------------------------------------------------------------
# The level walk against the node-by-node reference


def prefix_indices(bits):
    """The indices of bits' prefixes of lengths 0..len(bits), each prefix read as a binary numeral."""
    return accumulate(bits, lambda index, bit: 2 * index + bit, initial=0)


def from_nodes(rule, label="hand-built"):
    """A hand-built Martingale whose level walk and path walk both read rule(length, index) -> Fraction."""
    return Martingale(
        lambda depth: (common_denominator(rule(length, i) for i in range(1 << length)) for length in range(depth + 1)),
        lambda bits: (rule(length, index).as_integer_ratio() for length, index in enumerate(prefix_indices(bits))),
        label,
    )


def checked(rule, label):
    """sigma -> rule(sigma), refused below zero as Martingale.at refuses a negative capital."""

    def capital(sigma):
        value = rule(tuple(sigma))
        if value < 0:
            raise NegativeCapitalError(f"{label}: negative capital {value} at {tuple(sigma)}")
        return value

    return capital


def fairness_oracle(capital, depth):
    """The node-by-node audit on bit tuples that check_fairness replaced."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    for length in range(depth):
        for sigma in product((0, 1), repeat=length):
            if 2 * capital(sigma) != capital(sigma + (0,)) + capital(sigma + (1,)):
                return sigma
    return None


def trajectory_oracle(capital, source, depth):
    """The capital path, one capital per prefix of the source."""
    prefix = source.prefix(depth)
    return tuple(capital(prefix[:k]) for k in range(depth + 1))


def outcome(call, *args):
    try:
        return ("value", call(*args))
    except Exception as exc:  # the exception's type and text are compared
        return ("raise", type(exc), str(exc))


def summary_oracle(trajectory, thresholds):
    """The summary by naive scans of the Fraction capitals: one per statistic and one per threshold."""
    depth = len(trajectory) - 1
    crossings = {}
    for threshold in thresholds:
        crossings[threshold] = next((k for k, c in enumerate(trajectory) if c >= threshold), None)
    return pairs(trajectory), max(trajectory), min(trajectory[(depth + 1) // 2 :]), list(crossings.items())


def assert_matches_oracles(m, rule, audit_depths, rng, path_depth):
    """check_fairness and run_bet on m agree with the per-node rule sigma -> capital."""
    capital = checked(rule, m.label)
    for depth in audit_depths:
        assert outcome(check_fairness, m, depth) == outcome(fairness_oracle, capital, depth)
    for _ in range(3):
        source = pattern_bits([rng.randrange(2) for _ in range(rng.randint(1, 6))])
        expected = outcome(trajectory_oracle, capital, source, path_depth)
        if expected[0] == "raise":
            assert outcome(run_bet, m, source, path_depth) == expected
            continue
        trajectory = expected[1]
        picked = rng.choice(trajectory)
        # a duplicate, the first capital, and a threshold never reached
        thresholds = [picked, F(rng.randrange(17), 4), trajectory[0], picked, max(trajectory) + 1]
        run = run_bet(m, source, path_depth, thresholds)
        summary = (run.trajectory, run.max_capital, run.min_tail_capital, list(run.threshold_crossings.items()))
        assert summary == summary_oracle(trajectory, thresholds)


def table_oracle(values: dict, sigma) -> F:
    """The string-keyed lookup table_martingale replaced: trim to a tabled prefix."""
    key = "".join(map(str, sigma))
    while key not in values:
        if not key:
            raise ValueError("table lacks the empty string")
        key = key[:-1]
    return F(values[key])


def all_on_ones_oracle(sigma) -> F:
    """2**|sigma| on a string of ones, 0 once a zero has come."""
    return F(2 ** len(sigma)) if all(sigma) else F(0)


def memoised(f):
    """f with a cache on its evaluator, keyed by the point in lowest terms.

    The node-by-node oracles read each point many times.
    """
    reduced = functools.cache(f.evaluator)

    def evaluator(numerators, denominator):
        common = math.gcd(*numerators, denominator)
        return reduced(tuple(n // common for n in numerators), denominator // common)

    return dataclasses.replace(f, evaluator=evaluator)


def value(f, point):
    """f at a Fraction point, handed over as numerators over one denominator, as a Fraction."""
    return F(*f.eval(*common_denominator(point)))


def fractions(numerators, denominator):
    """The point N / D that an evaluator reads, as Fractions."""
    return tuple(F(n, denominator) for n in numerators)


def slope_oracle(f, sigma) -> F:
    """Slope over [sigma] through the bit-tuple interval and a division."""
    left = fraction_from_bits(sigma)
    right = left + F(1, 2 ** len(sigma))
    return (value(f, (right,)) - value(f, (left,))) / (right - left)


def random_table(rng: random.Random, depth: int) -> dict:
    """A fair table from bets in [-1, 1], then a few entries corrupted or dropped."""
    values = {"": F(rng.randrange(0, 9), 4)}
    for length in range(depth):
        for sigma in product("01", repeat=length):
            key = "".join(sigma)
            bet = F(rng.randrange(-8, 9), 8)
            values[key + "0"] = values[key] * (1 + bet)
            values[key + "1"] = values[key] * (1 - bet)
    keys = sorted(values)
    for _ in range(rng.randrange(3)):
        values[rng.choice(keys)] = F(rng.randrange(-8, 17), 4)  # may be negative
    if rng.random() < 0.3:
        values.pop(rng.choice(keys[1:]))  # its strings fall back to a shorter prefix
    if rng.random() < 0.1:
        values.pop("")  # no string has a tabled prefix any more
    return values


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_table_martingales_match_node_by_node_oracles(seed):
    rng = random.Random(seed)
    depth = rng.randint(1, 4)
    table = random_table(rng, depth)
    m = table_martingale(table)
    rule = functools.partial(table_oracle, table)
    assert_matches_oracles(m, rule, range(depth + 3), rng, depth + 3)
    assert_walks_match(m, rule, depth + 2)


def walked_levels(m, depth):
    """m.levels(depth) read as Fractions, level by level."""
    return [[F(n, denominator) for n in level] for level, denominator in m.levels(depth)]


def walked_path(m, bits):
    """m.path(bits) read as Fractions, prefix by prefix."""
    return [F(*pair) for pair in m.path(bits)]


def oracle_levels(rule, depth):
    """The per-node rule on every string of lengths 0..depth, each level in index order."""
    return [[rule(sigma) for sigma in product((0, 1), repeat=length)] for length in range(depth + 1)]


def assert_walks_match(m, rule, depth):
    """m.levels(depth), and m.path(sigma) for every sigma of length depth, equal the per-node rule.

    Every shorter string is a prefix of some sigma, so its capital lies on that path.
    """
    expected = outcome(oracle_levels, rule, depth)
    assert outcome(walked_levels, m, depth) == expected
    for index, sigma in enumerate(product((0, 1), repeat=depth)):
        if expected[0] == "value":
            assert walked_path(m, sigma) == [expected[1][k][index >> (depth - k)] for k in range(depth + 1)]
        else:
            assert outcome(walked_path, m, sigma) == outcome(lambda: [rule(sigma[:k]) for k in range(depth + 1)])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_level_walks_of_the_cli_kinds_match_their_capitals_node_by_node(seed):
    rng = random.Random(seed)
    depth = rng.randint(1, 4)
    table = random_table(rng, depth)
    value = F(rng.randrange(0, 50), rng.randint(1, 7))
    kinds = [
        (table_martingale(table), functools.partial(table_oracle, table)),
        (all_on_ones_martingale(), all_on_ones_oracle),
        (constant_martingale(value), lambda _sigma: value),
    ]
    for m, rule in kinds:
        for audit_depth in range(depth + 4):  # below, at and beyond the table's depth
            assert_walks_match(m, rule, audit_depth)
            assert outcome(check_fairness, m, audit_depth) == outcome(fairness_oracle, checked(rule, m.label), audit_depth)
    if "" not in table:
        lacking = ("raise", ValueError, "table lacks the empty string")
        m, rule = kinds[0]
        assert outcome(walked_levels, m, 0) == outcome(walked_path, m, ()) == lacking
        assert outcome(fairness_oracle, checked(rule, m.label), 1) == lacking


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_closed_form_martingales_match_node_by_node_oracles(seed):
    rng = random.Random(seed)
    value = F(rng.randrange(0, 50), rng.randint(1, 7))
    for m, rule in ((all_on_ones_martingale(), all_on_ones_oracle), (constant_martingale(value), lambda _sigma: value)):
        assert_matches_oracles(m, rule, range(8), rng, 12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_slope_martingales_match_node_by_node_oracles(seed):
    rng = random.Random(seed)
    functions = (random_monotone_pwlinear(rng), square_1d(), cube_1d(), identity_1d())
    for f in functions:
        rule = functools.partial(slope_oracle, f)
        assert_walks_match(slope_martingale(memoised(dataclasses.replace(f, slopes=None))), rule, 7)
        m = slope_martingale(memoised(f))
        assert_walks_match(m, rule, 7)
        assert_matches_oracles(m, rule, (0, 1, 7), rng, 24)
        for length in (0, 1, 5, 40):
            sigma = tuple(rng.randrange(2) for _ in range(length))
            assert m.at(sigma) == slope_oracle(f, sigma)
    f = rng.choice(functions)
    assert_matches_oracles(slope_martingale(memoised(f)), functools.partial(slope_oracle, f), (), rng, rng.randint(200, 256))


def random_non_dyadic_pwlinear(rng: random.Random):
    """Monotone, with knots at thirds, fifths and sevenths: they fall between grid points."""
    inner = {F(rng.randrange(1, den), den) for den in rng.sample((3, 5, 7, 15, 21, 35), 3)}
    xs = [F(0)] + sorted(inner) + [F(1)]
    ys = [F(0)]
    for _ in range(len(xs) - 1):
        ys.append(ys[-1] + F(rng.randrange(0, 9), rng.choice((1, 3, 8))))
    return piecewise_linear(list(zip(xs, ys)))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_slope_paths_over_non_dyadic_knots_match_node_by_node_oracles(seed):
    rng = random.Random(seed)
    f = random_non_dyadic_pwlinear(rng)
    m = slope_martingale(memoised(f))
    rule = functools.partial(slope_oracle, f)
    assert_matches_oracles(m, rule, (0, 1, 7), rng, 24)
    # the closed-form path and the evaluating path agree capital by capital
    evaluating = slope_martingale(memoised(dataclasses.replace(f, slopes=None)))
    source = pattern_bits([rng.randrange(2) for _ in range(rng.randint(1, 6))])
    depth = rng.randint(200, 256)
    run = run_bet(m, source, depth)
    assert run == run_bet(evaluating, source, depth)
    trajectory = trajectory_oracle(rule, source, depth)
    assert run.trajectory == pairs(trajectory)
    # a threshold equal to a capital is crossed at the first length that reaches it
    top = max(trajectory)
    crossings = run_bet(m, source, depth, (top, trajectory[-1])).threshold_crossings
    assert crossings[top] == trajectory.index(top)
    assert crossings[trajectory[-1]] == next(k for k, c in enumerate(trajectory) if c >= trajectory[-1])


# a denominator 2**a * q, q odd; the large q and the large power of two are past 4300 digits
ODD_PARTS = st.integers(0, 40).map(lambda k: 2 * k + 1) | st.integers(0, 3).map(lambda k: 3**9100 + 2 * k)
TWOS = st.integers(0, 40) | st.just(14400)
NUMERATORS = st.integers(0, 300) | st.integers(10**4400, 10**4400 + 300)
CAPITALS = st.tuples(NUMERATORS, st.builds(lambda a, q: q << a, TWOS, ODD_PARTS))
SCALES = st.builds(lambda a, q: q << a, st.integers(0, 12), st.sampled_from([1, 3, 5, 15, 3**9100]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_run_bet_reduces_and_compares_unreduced_pairs_like_fractions(data):
    # a few capitals, each met at several unreduced scales, so that equal capitals tie
    capitals = data.draw(st.lists(CAPITALS, min_size=1, max_size=4))
    scaled = data.draw(st.lists(st.tuples(st.sampled_from(capitals), SCALES), min_size=2, max_size=12))
    path = [(n * c, d * c) for (n, d), c in scaled]
    trajectory = [F(n, d) for n, d in path]
    drawn = st.sampled_from(trajectory) | st.fractions(0, 300, max_denominator=64)
    thresholds = data.draw(st.lists(drawn, max_size=4))
    nodewise = from_nodes(lambda length, _index: trajectory[length])
    depth = len(path) - 1
    for m in (dataclasses.replace(nodewise, path=lambda bits: iter(path)), nodewise):  # the pairs as drawn, and reduced
        # the oracle's trajectory is each Fraction's as_integer_ratio(): lowest terms, denominator > 0
        run = run_bet(m, constant_bits(0), depth, thresholds)
        summary = (run.trajectory, run.max_capital, run.min_tail_capital, list(run.threshold_crossings.items()))
        assert summary == summary_oracle(trajectory, thresholds)


def test_fine_scale_dip_raises_like_the_oracles():
    # nondecreasing on the scale-6 audit grid, decreasing on [1/128, 1/64]
    f = piecewise_linear([(0, 0), (F(1, 128), F(1, 32)), (F(1, 64), F(1, 64)), (1, 1)])
    assert f.slopes is not None  # run_bet reads the closed form
    m = slope_martingale(f)
    dip = (0, 0, 0, 0, 0, 0, 1)
    message = f"slope: negative capital -2 at {dip}"
    rejected = ("raise", NegativeCapitalError, message)
    capital = checked(functools.partial(slope_oracle, f), "slope")
    assert outcome(check_fairness, m, 8) == rejected
    assert outcome(fairness_oracle, capital, 8) == rejected
    assert check_fairness(m, 6) is None
    source = pattern_bits(dip, repeat=False)
    assert outcome(lambda: run_bet(m, source, 9)) == rejected
    assert outcome(trajectory_oracle, capital, source, 9) == rejected
    evaluating = slope_martingale(dataclasses.replace(f, slopes=None))
    assert outcome(lambda: run_bet(evaluating, source, 9)) == rejected


def test_fairness_witness_precedes_a_later_negative_capital():
    # "0" is unfair; "11" is negative but comes later in length-major order
    table = {"": "1", "0": "1", "1": "1", "00": "1", "01": "2", "10": "2", "11": "-1"}
    m = table_martingale(table)
    assert check_fairness(m, 2) == fairness_oracle(checked(functools.partial(table_oracle, table), "table"), 2) == (0,)
    with pytest.raises(ValueError, match=r"negative capital -1 at \(1, 1\)"):
        m.at((1, 1))


def test_slope_audit_evaluates_f_once_per_grid_point():
    calls = []
    square = square_1d()

    def counted(numerators, denominator):
        calls.append(fractions(numerators, denominator))
        return square.eval(numerators, denominator)

    f = ComputableFunction(1, counted, square.modulus)
    m = slope_martingale(f)
    calls.clear()
    assert check_fairness(m, 10) is None
    assert len(calls) == 2**10 + 1
    assert len(set(calls)) == len(calls)

    tilted = sum_functions([min_x_flip_y(), linear_form([1, 1])])  # nondecreasing along x

    def counted_tilted(numerators, denominator):
        calls.append(fractions(numerators, denominator))
        return tilted.eval(numerators, denominator)

    m = box_slope_martingale(ComputableFunction(2, counted_tilted, tilted.modulus), 0, 6)
    for depth, axis_scale in ((1, 1), (5, 3), (12, 6)):
        calls.clear()
        assert check_fairness(m, depth) is None
        # x on the grid k / 2**axis_scale, by the 2**6 left corners of y
        assert len(calls) == len(set(calls)) == (2**axis_scale + 1) * 2**6


def counted(f, calls):
    """f with an evaluator that records every point it is called at."""

    def evaluator(numerators, denominator):
        calls.append(fractions(numerators, denominator))
        return f.evaluator(numerators, denominator)

    return dataclasses.replace(f, evaluator=evaluator)


def test_closed_form_slope_audit_never_calls_the_evaluator():
    calls = []
    pwlinear = piecewise_linear([(0, 0), (F(1, 3), F(1, 5)), (1, 1)])
    for f in (square_1d(), cube_1d(), identity_1d(), pwlinear):
        m = slope_martingale(counted(f, calls))
        assert check_fairness(m, 10) is None
        assert calls == []


def test_slope_audit_without_a_closed_form_stops_at_the_level_it_rejects():
    # slope -2 on [1/128, 1/64]; nondecreasing on the grid k / 64
    dip = piecewise_linear([(0, 0), (F(1, 128), F(1, 32)), (F(1, 64), F(1, 64)), (1, 1)])
    calls = []
    m = slope_martingale(counted(clamp_extend(dip), calls))
    calls.clear()
    with pytest.raises(NegativeCapitalError, match=r"negative capital -2 at \(0, 0, 0, 0, 0, 0, 1\)"):
        check_fairness(m, 16)
    assert len(calls) == 2**7 + 1


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_slope_martingales_of_sums_and_scales_match_node_by_node_oracles(seed):
    rng = random.Random(seed)
    tilt = scale_function(F(rng.randrange(0, 9), rng.randint(1, 5)), cube_1d())
    f = sum_functions([random_monotone_pwlinear(rng), tilt])
    # slope -2 + c on [1/128, 1/64]: negative there unless c >= 2
    dip = piecewise_linear([(0, 0), (F(1, 128), F(1, 32)), (F(1, 64), F(1, 64)), (1, 1)])
    dipped = sum_functions([dip, scale_function(F(rng.randrange(0, 18), 8), identity_1d())])
    for g in map(memoised, (f, scale_function(F(rng.randint(1, 9), rng.randint(1, 7)), f))):
        assert_matches_oracles(slope_martingale(g), functools.partial(slope_oracle, g), (0, 1, 7), rng, 24)
    dipped = memoised(dipped)
    assert_matches_oracles(slope_martingale(dipped), functools.partial(slope_oracle, dipped), (8,), rng, 24)


def test_the_audit_checks_the_law_of_a_level_walk():
    def walk(depth):
        for length in range(depth + 1):
            numerators = [3 << length] * (1 << length)  # capital 1 over 3 * 2**length
            if length == 3:
                numerators[5] += 1
            yield numerators, 3 << length

    m = dataclasses.replace(from_nodes(lambda _length, _index: F(1)), levels=walk)
    assert check_fairness(m, 2) is None
    assert check_fairness(m, 3) == (1, 0)


# ---------------------------------------------------------------------------
# Box-slope martingales


def deepest_length(n, axis, horizon):
    """The longest string whose other coordinates are no finer than the horizon."""
    return n * horizon + min(j for j in range(n) if j != axis)


def box_slope_oracle(f, axis, horizon, sigma):
    """Decode sigma coordinate by coordinate and average the 1-D sections' slopes."""
    n = f.dimension
    corners = []  # per other coordinate: left corners of the horizon grid in its cell
    for j in range(n):
        if j != axis:
            bits = sigma[j::n]
            if len(bits) > horizon:
                raise ValueError(
                    f"box-slope(axis={axis}, horizon={horizon}): a string of length {len(sigma)} "
                    f"is finer than the horizon {horizon} in coordinate {j}"
                )
            left = fraction_from_bits(bits)
            corners.append([left + F(t, 2**horizon) for t in range(2 ** (horizon - len(bits)))])
    slopes = []
    for y in product(*corners):
        y = list(y)
        section = ComputableFunction(
            1, lambda n, d, y=y: value(f, tuple(y[:axis] + [F(n[0], d)] + y[axis:])).as_integer_ratio(), lambda i: i
        )
        slopes.append(interval_slope(section, sigma[axis::n]))
    return sum(slopes, F(0)) / len(slopes)


def unreduced(f):
    """f with its pair at N / D scaled by 1 + N_0 mod 5, so the pairs of one grid carry different denominators."""

    def evaluator(numerators, denominator):
        a, b = f.eval(numerators, denominator)
        k = 1 + numerators[0] % 5
        return k * a, k * b

    return dataclasses.replace(f, evaluator=evaluator)


def random_exact_function(rng: random.Random, n: int):
    """One pwlinear part per coordinate plus products x_i * x_j, as unreduced pairs, and a Lipschitz bound."""
    parts, bound = [], F(0)
    for _ in range(n):
        xs = [F(0), F(rng.randint(1, 7), 8), F(1)]
        ys = [F(rng.randint(-8, 8), 8) for _ in xs]
        parts.append(piecewise_linear(list(zip(xs, ys))))
        bound += max(abs(ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]) for k in range(2))
    pairs = [(i, j, F(rng.randint(-4, 4), 4)) for i in range(n) for j in range(i + 1, n)]
    bound += sum(abs(c) for _, _, c in pairs)

    def fn(numerators, denominator):
        x = fractions(numerators, denominator)
        total = sum((value(g, (x[i],)) for i, g in enumerate(parts)), F(0))
        return (total + sum((c * x[i] * x[j] for i, j, c in pairs), F(0))).as_integer_ratio()

    return unreduced(ComputableFunction(n, fn, lambda i: i + 8)), bound + 1


@given(st.integers(0, 2**31 - 1), st.sampled_from([(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)]))
@settings(max_examples=30, deadline=None)
def test_box_slope_martingales_are_fair_and_match_the_section_oracle(seed, shape):
    n, horizon = shape
    rng = random.Random(seed)
    f, bound = random_exact_function(rng, n)
    g, _ = kn_decompose(f, bound)  # nondecreasing along every axis
    axis = rng.randrange(n)
    m = box_slope_martingale(g, axis, horizon)
    deepest = deepest_length(n, axis, horizon)
    assert check_fairness(m, deepest) is None
    for length in range(deepest + 1):
        sigma = tuple(rng.randrange(2) for _ in range(length))
        assert m.at(sigma) == box_slope_oracle(g, axis, horizon, sigma)


def test_box_slope_settles_at_the_grid_bias_of_x_times_y_plus_x():
    # d/dx (xy + x) = y + 1; at horizon 5 the capital reads y at the left
    # corner 5/16 of the point's y-cell, not at y = 1/3
    f = sum_functions([product_xy(), linear_form([1, 0])])
    m = box_slope_martingale(f, 0, 5)
    third = bits_of_fraction(F(1, 3))
    run = run_bet(m, interleave([third, third]), 11)
    assert run.trajectory[10] == run.trajectory[11] == (21, 16)
    assert check_fairness(m, 10) is None


def test_box_slope_in_one_dimension_is_the_slope_martingale():
    box, slope = box_slope_martingale(square_1d(), 0, 0), slope_martingale(square_1d())
    for length in range(7):
        for sigma in product((0, 1), repeat=length):
            assert box.at(sigma) == slope.at(sigma)
    deep = bits_of_fraction(F(1, 3)).prefix(40)
    assert box.at(deep) == slope.at(deep)


def test_box_slope_of_a_linear_form_is_its_coefficient():
    f = linear_form([2, 3])
    for axis, coefficient in ((0, 2), (1, 3)):
        m = box_slope_martingale(f, axis, 3)
        for length in range(deepest_length(2, axis, 3) + 1):
            for sigma in product((0, 1), repeat=length):
                assert m.at(sigma) == coefficient


def test_box_slope_rejects_a_decrease_along_the_axis():
    m = box_slope_martingale(linear_form([-1, 1]), 0, 2)
    with pytest.raises(NegativeCapitalError, match=r"box-slope\(axis=0, horizon=2\): negative capital -1 at \(\)"):
        check_fairness(m, 4)
    assert box_slope_martingale(linear_form([-1, 1]), 1, 2).at((1, 0, 1)) == 1


def test_box_slope_rejects_strings_finer_than_the_horizon():
    f = linear_form([2, 3])
    m = box_slope_martingale(f, 0, 2)
    assert m.at((0,) * 5) == 2  # coordinate 1 holds bits 1 and 3
    with pytest.raises(ValueError, match="finer than the horizon 2 in coordinate 1"):
        m.at((0,) * 6)
    with pytest.raises(ValueError, match="finer than the horizon 2 in coordinate 0"):
        box_slope_martingale(f, 1, 2).at((0,) * 5)
    with pytest.raises(ValueError, match="horizon 2"):
        check_fairness(m, 6)


def test_box_slope_rejects_bad_arguments():
    with pytest.raises(ValueError, match="axis 2 out of range"):
        box_slope_martingale(linear_form([2, 3]), 2, 3)
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        box_slope_martingale(linear_form([2, 3]), 0, -1)


@pytest.mark.parametrize("n, horizon", [(1, 0), (1, 3), (2, 3), (3, 2)])
def test_a_box_slope_path_evaluates_each_column_end_and_midpoint_once(n, horizon):
    # f at both axis ends of every corner's column, then one midpoint per
    # column still in the box at each axis bit; no point twice
    f, _ = random_exact_function(random.Random(10 * n + horizon), n)
    rng = random.Random(horizon)
    calls = []
    for axis in range(n):
        m = box_slope_martingale(counted(f, calls), axis, horizon)
        length = deepest_length(n, axis, horizon) if n > 1 else 12  # at n = 1 no length is too fine
        bits = tuple(rng.randrange(2) for _ in range(length))
        others = list(accumulate((p % n != axis for p in range(length)), initial=0))  # other coordinates' bits held
        corners = 2 ** ((n - 1) * horizon)
        left = [corners >> others[p] for p in range(length) if p % n == axis]  # columns left at each axis bit
        calls.clear()
        assert len(walked_path(m, bits)) == length + 1
        assert len(calls) == len(set(calls)) == 2 * corners + sum(left)


SHAPES = [(1, 0), (1, 4), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2)]  # (n, horizon)


@given(st.integers(0, 2**31 - 1), st.sampled_from(SHAPES))
@settings(max_examples=30, deadline=None)
def test_box_slope_level_walks_match_their_capitals_node_by_node(seed, shape):
    n, horizon = shape
    rng = random.Random(seed)
    if n == 1:  # closed forms, and the same functions without them; not monotone in general
        xs = [F(0)] + [F(k, 32) for k in sorted(rng.sample(range(1, 32), 3))] + [F(1)]
        ys = [F(rng.randrange(-16, 17), 8) for _ in xs]
        closed = [piecewise_linear(list(zip(xs, ys))), rng.choice((square_1d(), cube_1d()))]
        functions = closed + [dataclasses.replace(f, slopes=None) for f in closed]
    else:  # no closed forms: a function that is not monotone, and its monotone shift
        f, bound = random_exact_function(rng, n)
        functions = [f, kn_decompose(f, bound)[0]]
    for f in map(memoised, functions):
        for axis in range(n):
            m = box_slope_martingale(f, axis, horizon)
            rule = functools.cache(functools.partial(box_slope_oracle, f, axis, horizon))
            deepest = deepest_length(n, axis, horizon) if n > 1 else 8  # at n = 1 no length is too fine
            for depth in range(deepest + 2):  # one level past the deepest admissible length
                assert outcome(walked_levels, m, depth) == outcome(oracle_levels, rule, depth)
                assert outcome(check_fairness, m, depth) == outcome(fairness_oracle, checked(rule, m.label), depth)
            assert_walks_match(m, rule, deepest)
            too_fine = (0,) * (deepest + 1)
            assert outcome(walked_path, m, too_fine) == outcome(lambda: [rule(too_fine[:k]) for k in range(deepest + 2)])


def test_box_slope_walks_and_interval_slope_build_a_fraction_only_for_the_reported_slope(counting_fractions):
    # f's pairs reach the capitals as integers: the audits and the path walks
    # build no Fraction, and interval_slope builds only the one it returns
    f = sum_functions([min_x_flip_y(), linear_form([1, 1])])
    g = sum_functions([cube_1d(), scale_function(F(1, 2), abs_distance_1d(F(1, 3))), identity_1d()])
    box, slope = box_slope_martingale(f, 0, 6), slope_martingale(g)
    assert f.slopes is None and g.slopes is None
    box_bits = interleave([bits_of_fraction(F(1, 3)), bits_of_fraction(F(2, 5))]).prefix(12)
    slope_bits = bits_of_fraction(F(2, 7)).prefix(256)
    calls = [
        lambda: check_fairness(box, 12),
        lambda: list(box.path(box_bits)),
        lambda: check_fairness(slope, 12),
        lambda: list(slope.path(slope_bits)),
        lambda: interval_slope(g, slope_bits[:10]),
    ]
    built, results = [], []
    for call in calls:
        counting_fractions.clear()
        results.append(call())
        built.append(len(counting_fractions))
    assert built == [0, 0, 0, 0, 1]
    assert results[0] is None and results[2] is None
    assert [F(*pair) for pair in results[1]] == [box_slope_oracle(f, 0, 6, box_bits[:k]) for k in range(13)]
    assert results[4] == slope_oracle(g, slope_bits[:10]) == F(*results[3][10])
