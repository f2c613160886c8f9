"""Acceptance suite: one test per criterion, each printing a pass line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is zero: all comparisons are exact rational arithmetic.
"""

import random
from fractions import Fraction
from itertools import product

from slopelab.derivatives import (
    CONSISTENT,
    VIOLATED,
    diff_class_a,
    diff_class_b,
    dir_derivative_via_basis,
    linearity_defect,
)
from slopelab.functions import (
    abs_diff_2d,
    abs_distance_1d,
    identity_1d,
    kn_decompose,
    linear_form,
    min_x_flip_y,
    piecewise_linear,
    product_xy,
    square_1d,
)
from slopelab.martingales import (
    all_on_ones_martingale,
    check_fairness,
    constant_martingale,
    interval_slope,
    slope_martingale,
)
from slopelab.nullsets import (
    default_dore_maleva_params,
    dore_maleva_measure,
    dore_maleva_rectangles,
    stage_below_half,
)
from slopelab.rationals import common_denominator, dot, pow2, vadd

F = Fraction
TARGET = (F(1, 3), F(1, 3))


def value(f, point):
    """f at a Fraction point, handed over as numerators over one denominator, as a Fraction."""
    return F(*f.eval(*common_denominator(point)))


def _announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def _random_monotone_pwlinear(rng: random.Random):
    knots = sorted(rng.sample(range(1, 32), 4))
    xs = [F(0)] + [F(k, 32) for k in knots] + [F(1)]
    ys = [F(0)]
    for _ in range(len(xs) - 1):
        ys.append(ys[-1] + F(rng.randrange(0, 9), 8))
    return piecewise_linear(list(zip(xs, ys)))


def test_criterion_01_martingale_fairness_depth_12():
    rng = random.Random(20240101)
    builtins = [
        constant_martingale(1),
        all_on_ones_martingale(),
        slope_martingale(identity_1d()),
        slope_martingale(square_1d()),
    ]
    builtins += [slope_martingale(_random_monotone_pwlinear(rng)) for _ in range(3)]
    for martingale in builtins:
        assert check_fairness(martingale, 13) is None
    _announce(1, f"fairness law exact for |sigma| <= 12 on {len(builtins)} martingales")


def test_criterion_02_slope_average_identity_depth_10():
    functions = [
        square_1d(),
        abs_distance_1d(F(1, 3)),  # not monotone: the identity is algebraic
        piecewise_linear([(0, 1), (F(1, 3), F(1, 4)), (F(2, 3), F(5, 4)), (1, 0)]),
    ]
    for f in functions:
        for length in range(10):
            for sigma in product((0, 1), repeat=length):
                left = interval_slope(f, sigma + (0,))
                right = interval_slope(f, sigma + (1,))
                assert 2 * interval_slope(f, sigma) == left + right
    _announce(2, "slope over [sigma] equals the halves' average, exactly, depth 10")


def test_criterion_03_directional_reduction_exact_50_steps():
    f = linear_form([2, 3])
    x = (F(1, 4), F(1, 4))
    direction = (F(3, 5), F(4, 5))
    panel = [F(k, 101) for k in range(1, 51)]
    reduction = dir_derivative_via_basis(f, x, direction, w=[F(0), F(1, 4)], t_panel=panel)
    assert reduction.identity_holds
    for t in panel:
        g_quot = (value(reduction.g, vadd(reduction.z, (t, F(0)))) - value(reduction.g, reduction.z)) / t
        f_quot = (value(f, vadd(x, (t * direction[0], t * direction[1]))) - value(f, x)) / t
        assert g_quot == f_quot == F(18, 5)
    _announce(3, "pulled-back and direct quotients equal 18/5 exactly for 50 steps")


def test_criterion_04_oscillation_bounds_stages_3_4_5(toy_system5):
    for m in (3, 4, 5):
        report = toy_system5.oscillation_check(TARGET, m)
        best = max(abs(t) for t in report.totals.values())
        assert best >= F(4) ** (m - 1) - 4
        assert report.tail_ok
        for slopes in report.per_stage.values():
            for k, slope in slopes:
                if k > m:
                    assert abs(slope) <= pow2(-k + 2)
    _announce(4, "first-axis slopes reach 4^(m-1) - 4 at m = 3, 4, 5 with exact tails")


def test_criterion_05_exclusion_measures_bounded(toy_system5):
    for m in range(6):
        report = toy_system5.exclusion_visible(m, 1)
        assert report.visible_upper <= pow2(-3 * m)
        assert report.closed_form_bound <= pow2(-3 * m)
    _announce(5, "visible corner-interval measure <= 8^-m for all m <= 5")


def test_criterion_06_certified_evaluation_nested_intervals(toy_system8):
    rng = random.Random(20240106)
    points = [
        (F(rng.randrange(1025), 1024), F(rng.randrange(1025), 1024)) for _ in range(100)
    ]
    for q in points:
        values = {m: toy_system8.evaluate(q, m) for m in range(2, 9)}
        run_lo, run_hi = F(0), F(10)
        previous = None
        for m in range(2, 9):
            cv = values[m]
            assert cv.upper - cv.lower <= 2 * pow2(-m)
            if previous is not None:  # consecutive certified intervals intersect
                assert max(cv.lower, previous.lower) <= min(cv.upper, previous.upper)
            run_lo, run_hi = max(run_lo, cv.lower), min(run_hi, cv.upper)
            assert run_lo <= run_hi  # running intersection stays nonempty: nested
            previous = cv
        for m1 in range(2, 9):  # certification algebra
            for m2 in range(2, 9):
                assert abs(values[m1].value - values[m2].value) <= pow2(-m1) + pow2(-m2)
    _announce(6, "certified intervals at m = 2..8 are nested with widths <= 2*2^-m")


def test_criterion_07_modulus_audit(toy_system5):
    rng = random.Random(20240107)
    for m in range(1, 6):
        violations = toy_system5.modulus_audit(m, 200, rng)
        assert violations == []
    _announce(7, "200 sampled pairs per stage satisfy |f(x)-f(y)| <= 2^(2-m) exactly")


def test_criterion_08_partition_properties(toy_system5, toy_test):
    from slopelab.nullsets import constant_unit_test
    from slopelab.tentsystem import build_partition

    partitions = [
        toy_system5.partition,
        build_partition(constant_unit_test(2), 3, 2),
        build_partition(toy_test, 2, 4),
    ]
    for partition in partitions:
        partition.verify_properties()
        for m in range(1, partition.stage_count):
            parents = partition.stages[m - 1].blocks
            for block in partition.stages[m].blocks:
                cell_volume = block.cell(0).volume()
                for parent in parents:
                    if parent.source.intersects(block.source):
                        parent_volume = parent.cell(0).volume()
                        assert cell_volume <= pow2(-3 * m) * parent_volume
                assert block.cell(0).side() <= pow2(-3 * m) * block.source.side()
    _announce(8, "partition properties hold exactly on every build")


def test_criterion_09_lattice_measures():
    params = default_dore_maleva_params()
    for k, cells in ((1, 6), (2, 18), (3, 54)):
        rects = dore_maleva_rectangles(params, k)
        removed = 0
        for row in range(cells):
            for col in range(cells):
                cx = F(2 * col + 1, 2 * cells)
                cy = F(2 * row + 1, 2 * cells)
                if any(x0 < cx < x1 and y0 < cy < y1 for (x0, x1, y0, y1) in rects):
                    removed += 1
        grid_measure = 1 - F(removed, cells * cells)
        assert grid_measure == dore_maleva_measure(params, k)
    stage = stage_below_half(params)
    assert stage == 2
    assert dore_maleva_measure(params, stage) < F(1, 2) <= dore_maleva_measure(params, stage - 1)
    _announce(9, "grid-oracle measures equal the product formula; below 1/2 at stage 2")


def test_criterion_10_probe_sanity():
    bilinear = product_xy()
    points = [(F(i, 23), F(2 * i + 3, 47)) for i in range(1, 21)]
    for point in points:
        assert diff_class_a(bilinear, point, 6, separation=F(1, 2)).status == CONSISTENT
        assert diff_class_b(bilinear, point, 6).status == CONSISTENT
    kink = abs_distance_1d(F(1, 2))
    verdict_a = diff_class_a(kink, (F(1, 2),), 6, separation=F(1, 2))
    assert verdict_a.status == VIOLATED
    assert verdict_a.witness["lower"]["slope"] == -1
    assert verdict_a.witness["upper"]["slope"] == 1
    verdict_b = diff_class_b(kink, (F(1, 2),), 6)
    assert verdict_b.status == VIOLATED
    assert verdict_b.witness["row"][0] in (F(1), F(-1))
    defect = linearity_defect(
        abs_diff_2d(), (F(2, 5), F(2, 5)), [1, 0], [0, 1], F(1, 4), threshold=F(2)
    )
    assert defect.status == VIOLATED
    assert defect.bracket[0] == 2
    _announce(10, "probes consistent on x*y, violated with exact witnesses on kinks")


def test_criterion_11_orthant_monotone_decomposition():
    cases = [
        (abs_diff_2d(), F(2)),
        (min_x_flip_y(), F(1)),
        (linear_form([-1, F(1, 2)]), F(1)),
    ]
    step = F(1, 16)
    for f, bound in cases:
        g, m = kn_decompose(f, bound)
        for a in range(17):
            for b in range(17):
                x = (F(a, 16), F(b, 16))
                assert value(f, x) == value(g, x) - dot(m, x)
                for axis in range(2):
                    y = list(x)
                    y[axis] += step
                    if y[axis] <= 1:
                        assert value(g, y) >= value(g, x)
    _announce(11, "g = f + <m, .> is axis-nondecreasing on the full scale-4 grid")
