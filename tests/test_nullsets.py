from fractions import Fraction

import pytest

from slopelab.cubes import DyadicCube, union_measure, unit_cube
from slopelab.nullsets import (
    CubeStream,
    audit_nesting,
    concentric_test,
    constant_unit_test,
    default_dore_maleva_params,
    dore_maleva_measure,
    dore_maleva_measure_by_sweep,
    dore_maleva_rectangles,
    dore_maleva_stage,
    explicit_dore_maleva_params,
    explicit_test,
    rect_union_area,
    stage_below_half,
)

F = Fraction


def grid_oracle_removed(rects, cells_per_axis):
    """Independent oracle: count uniform grid cells hit by the union."""
    removed = 0
    for row in range(cells_per_axis):
        for col in range(cells_per_axis):
            cx = F(2 * col + 1, 2 * cells_per_axis)
            cy = F(2 * row + 1, 2 * cells_per_axis)
            if any(x0 < cx < x1 and y0 < cy < y1 for (x0, x1, y0, y1) in rects):
                removed += 1
    return F(removed, cells_per_axis**2)


def test_stream_measure_is_union_measure_of_prefix():
    cubes = (
        unit_cube(2),
        DyadicCube(2, 1, (0, 0)),
        DyadicCube(2, 2, (3, 3)),
    )
    stream = CubeStream(cubes)
    for steps in range(len(cubes) + 2):
        assert stream.take(steps) == list(cubes[:steps])
        assert union_measure(stream.take(steps)) == union_measure(cubes[:steps])


def test_stream_measure_monotone_for_shrinking_cubes():
    test = concentric_test([F(1, 3), F(1, 3)])
    values = [union_measure(test.stream_at(m).take(1)) for m in range(4)]
    assert values == [F(1), F(1, 16), F(1, 256), F(1, 4096)]


def test_empty_stream_measures_zero():
    assert CubeStream(()).take(3) == []
    assert union_measure(CubeStream(()).take(3)) == 0


def test_stream_exhaustion_detection():
    stream = CubeStream((unit_cube(1),))
    assert stream.exhausted_within(1) and not stream.exhausted_within(0)
    assert not CubeStream((unit_cube(1),) * 10).exhausted_within(3)
    assert CubeStream(()).exhausted_within(0)


def test_audit_nesting_passes_for_constant_and_concentric():
    assert audit_nesting(constant_unit_test(2), 4, 3) is None
    assert audit_nesting(concentric_test([F(1, 3), F(1, 3)]), 5, 3) is None


def test_audit_nesting_catches_swapped_stages():
    grown = explicit_test(
        [
            [DyadicCube(2, 2, (1, 1))],
            [DyadicCube(2, 1, (0, 0))],  # stage 1 escapes stage 0
        ]
    )
    witness = audit_nesting(grown, 1, 4)
    assert witness is not None
    stage, cube = witness
    assert stage == 1 and cube == DyadicCube(2, 1, (0, 0))


# ---------------------------------------------------------------------------
# Lattice construction


def test_default_params_staircase_and_clamp():
    params = default_dore_maleva_params()
    assert [params.n_at(i) for i in range(1, 10)] == [3, 3, 3, 5, 5, 5, 5, 5, 7]
    assert params.n_at(4) == 5
    assert params.p_raw_at(1) == 4
    assert params.p_at(1) == 2  # clamp min(4, N_1 - 1)
    assert params.p_at(4) == 4
    assert params.ball_side_denominator(3) == F(1, 27)


def test_stage_geometry_and_removed_fraction():
    params = default_dore_maleva_params()
    one = dore_maleva_stage(params, 1)
    assert one.pitch == 1 and one.count() == 1
    assert one.radius == F(1, 3)  # p_1 d_1 / 2 = 2/(3*2)
    assert one.removed_fraction_per_cell == F(4, 9)
    assert list(one.centers()) == [(F(1, 2), F(1, 2))]
    two = dore_maleva_stage(params, 2)
    assert two.pitch == F(1, 3) and two.count() == 9
    assert two.removed_fraction_per_cell == F(4, 9)


def test_degenerate_width_flags_whole_cell():
    params = explicit_dore_maleva_params([3], [3])
    stage = dore_maleva_stage(params, 1)
    assert stage.whole_cell
    assert stage.removed_fraction_per_cell == 1


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        dore_maleva_stage(explicit_dore_maleva_params([4], [1]), 1)  # even modulus
    with pytest.raises(ValueError):
        dore_maleva_stage(explicit_dore_maleva_params([3], [F(7, 2)]), 1)  # p > N
    with pytest.raises(ValueError):
        dore_maleva_stage(explicit_dore_maleva_params([5, 3], [1, 1]), 2)  # decreasing N


def test_explicit_params_name_the_stage_they_stop_at():
    params = explicit_dore_maleva_params([3, 3], [1, 1])
    with pytest.raises(ValueError, match="^explicit params stop at stage 2$"):
        stage_below_half(params)  # (8/9)**2 >= 1/2, so stage 3 is read
    with pytest.raises(ValueError, match="^explicit params stop at stage 2$"):
        dore_maleva_measure(params, 3)
    with pytest.raises(ValueError, match="^stages are 1-based$"):
        params.p_at(0)


def test_measures_match_product_formula_and_sweep():
    params = default_dore_maleva_params()
    assert dore_maleva_measure(params, 1) == F(5, 9)
    assert dore_maleva_measure(params, 2) == F(25, 81)
    for k in (1, 2, 3):
        assert dore_maleva_measure_by_sweep(params, k) == dore_maleva_measure(params, k)


def test_measures_match_brute_grid_oracle():
    params = default_dore_maleva_params()
    for k, cells in ((1, 6), (2, 18), (3, 54)):
        rects = dore_maleva_rectangles(params, k)
        assert 1 - grid_oracle_removed(rects, cells) == dore_maleva_measure(params, k)


def test_zero_width_keeps_full_measure():
    params = explicit_dore_maleva_params([3, 3], [1, 1])
    # p = 1 removes (1/3)^2 per cell; a hypothetical p = 0 is out of contract,
    # so check the smallest admissible width instead
    assert dore_maleva_measure(params, 2) == (1 - F(1, 9)) ** 2
    assert dore_maleva_measure(params, 0) == 1


def test_stage_balls_disjoint_within_stage():
    params = default_dore_maleva_params()
    for i in range(1, 6):
        stage = dore_maleva_stage(params, i)
        # side < pitch guarantees disjointness; verify the inequality exactly
        assert 2 * stage.radius < stage.pitch
    # and explicitly on the first two stages' rectangles
    for i in (1, 2):
        rects = list(dore_maleva_stage(params, i).rectangles())
        area = rect_union_area(rects)
        assert area == sum((x1 - x0) * (y1 - y0) for (x0, x1, y0, y1) in rects)


def test_measures_strictly_decreasing_until_below_half():
    params = default_dore_maleva_params()
    assert stage_below_half(params) == 2
    previous = F(1)
    for k in range(1, 8):
        current = dore_maleva_measure(params, k)
        assert current < previous
        previous = current


@pytest.mark.parametrize(
    "n_values, p_values, message",
    [
        ([3], ["5"], "p_1 = 5 violates 1 <= p <= N_1 = 3"),
        ([4], ["3"], "N_1 = 4 must be an odd integer > 1"),
        ([5, 3], ["1", "3"], "N must be nondecreasing"),
    ],
    ids=["p-past-N", "even-N", "decreasing-N"],
)
def test_stage_below_half_validates_each_stage_as_the_measure_does(n_values, p_values, message):
    params = explicit_dore_maleva_params(n_values, p_values)
    with pytest.raises(ValueError, match=message):
        dore_maleva_measure(params, len(n_values))
    with pytest.raises(ValueError, match=message):
        stage_below_half(params)


def test_rect_union_area_handles_overlap():
    rects = [
        (F(0), F(1, 2), F(0), F(1, 2)),
        (F(1, 4), F(3, 4), F(1, 4), F(3, 4)),
    ]
    assert rect_union_area(rects) == F(7, 16)
