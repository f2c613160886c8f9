from dataclasses import asdict
from fractions import Fraction
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopelab.cubes import DyadicCube, union_measure, unit_cube
from slopelab.nullsets import (
    CubeStream,
    audit_nesting,
    concentric_test,
    constant_unit_test,
    default_dore_maleva_params,
    dore_maleva_measure,
    dore_maleva_rectangles,
    dore_maleva_stages,
    explicit_dore_maleva_params,
    explicit_test,
    stage_below_half,
)

F = Fraction


def rect_union_area(rects):
    """Exact area of a union of axis-aligned rational rectangles (sweep)."""
    rects = [r for r in rects if r[0] < r[1] and r[2] < r[3]]
    if not rects:
        return F(0)
    xs = sorted({x for r in rects for x in (r[0], r[1])})
    total = F(0)
    for x0, x1 in zip(xs, xs[1:]):
        active = sorted((r[2], r[3]) for r in rects if r[0] <= x0 and r[1] >= x1)
        if not active:
            continue
        covered = F(0)
        cur_lo, cur_hi = active[0]
        for lo, hi in active[1:]:
            if lo > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        covered += cur_hi - cur_lo
        total += (x1 - x0) * covered
    return total


def dore_maleva_measure_by_sweep(params, through_stage):
    """Remaining measure via explicit rectangle-union accounting (small k)."""
    return 1 - rect_union_area(dore_maleva_rectangles(params, through_stage))


def stage(params, i):
    """Stage i of the walk (1-based)."""
    return next(islice(dore_maleva_stages(params), i - 1, None))


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


def test_audit_nesting_builds_each_stage_family_once_and_looks_up_by_key(monkeypatch):
    from slopelab.cubes import CubeFamily

    built = []
    maximal = CubeFamily.maximal.__func__

    def counted(cls, cubes):
        cubes = list(cubes)
        built.append(cubes)
        return maximal(cls, cubes)

    compared = []
    contains_cube = DyadicCube.contains_cube
    monkeypatch.setattr(CubeFamily, "maximal", classmethod(counted))
    monkeypatch.setattr(
        DyadicCube, "contains_cube", lambda self, other: compared.append(self) or contains_cube(self, other)
    )
    # every stage-m cube lies inside one stage-(m - 1) cube, so each query finds an ancestor
    stages = [
        [unit_cube(2), DyadicCube(2, 1, (0, 0))],
        [DyadicCube(2, 2, (c, 1)) for c in range(4)],
        [DyadicCube(2, 9, (c << 7, 172)) for c in range(4)],
        [DyadicCube(2, 9, (0, 172))],
    ]
    test = explicit_test(stages)
    assert audit_nesting(test, 3, 4) is None
    assert built == stages[:3]
    assert compared == []
    # a cube covered only by the finer cubes inside it is found by key too
    built.clear()
    filled = explicit_test([list(DyadicCube(2, 1, (0, 0)).children()), [DyadicCube(2, 1, (0, 0))]])
    assert audit_nesting(filled, 1, 4) is None
    assert len(built) == 1 and compared == []


def test_default_params_staircase_and_clamp():
    params = default_dore_maleva_params()
    assert [params.n_at(i) for i in range(1, 10)] == [3, 3, 3, 5, 5, 5, 5, 5, 7]
    assert params.n_at(4) == 5
    assert params.p_raw_at(1) == 4
    assert params.p_at(1) == 2  # clamp min(4, N_1 - 1)
    assert params.p_at(4) == 4
    assert stage(params, 4).pitch == F(1, 27)  # d_3 = 1/(N_1 N_2 N_3)
    assert stage(params, 4).cells_per_axis == 27


def test_stage_geometry_and_removed_fraction():
    params = default_dore_maleva_params()
    one = stage(params, 1)
    assert one.pitch == 1 and one.cells_per_axis**2 == 1
    assert one.radius == F(1, 3)  # p_1 d_1 / 2 = 2/(3*2)
    assert one.removed_fraction_per_cell == F(4, 9)
    assert list(one.rectangles()) == [(F(1, 2) - F(1, 3), F(1, 2) + F(1, 3), F(1, 2) - F(1, 3), F(1, 2) + F(1, 3))]
    two = stage(params, 2)
    assert two.pitch == F(1, 3) and two.cells_per_axis**2 == 9
    assert two.removed_fraction_per_cell == F(4, 9)


def test_degenerate_width_flags_whole_cell():
    params = explicit_dore_maleva_params([3], [3])
    one = stage(params, 1)
    assert one.whole_cell
    assert one.removed_fraction_per_cell == 1


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        stage(explicit_dore_maleva_params([4], [1]), 1)  # even modulus
    with pytest.raises(ValueError):
        stage(explicit_dore_maleva_params([3], [F(7, 2)]), 1)  # p > N
    with pytest.raises(ValueError):
        stage(explicit_dore_maleva_params([5, 3], [1, 1]), 2)  # decreasing N


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
    for one in islice(dore_maleva_stages(params), 5):
        # side < pitch guarantees disjointness; verify the inequality exactly
        assert 2 * one.radius < one.pitch
    # and explicitly on the first two stages' rectangles
    for i in (1, 2):
        rects = list(stage(params, i).rectangles())
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


# ---------------------------------------------------------------------------
# The stage walk against a stage-by-stage oracle


def oracle_error(ns, ps, i):
    """The refusal of stage i of explicit params, read off the lists, or None."""
    if i > len(ns):
        return f"explicit params stop at stage {len(ns)}"
    n, p = ns[i - 1], ps[i - 1]
    if n <= 1 or n % 2 == 0:
        return f"N_{i} = {n} must be an odd integer > 1"
    if i > 1 and ns[i - 2] > n:
        return "N must be nondecreasing"
    if not 1 <= p <= n:
        return f"p_{i} = {p} violates 1 <= p <= N_{i} = {n}"
    return None


def oracle_stage(ns, ps, i):
    """Stage i computed on its own: the pitch as the product of 1/N_k for k < i, the measure as a product from stage 1."""
    pitch = F(1)
    for k in range(1, i):
        pitch /= ns[k - 1]
    n, p = ns[i - 1], ps[i - 1]
    remaining = F(1)
    for k in range(1, i + 1):
        remaining *= 1 - (ps[k - 1] / ns[k - 1]) ** 2
    return {
        "pitch": pitch,
        "radius": p * (pitch / n) / 2,
        "cells_per_axis": pitch.denominator // pitch.numerator,
        "removed_fraction_per_cell": (p / n) ** 2,
        "whole_cell": p == n,
        "remaining": remaining,
    }


def oracle_rectangles(ns, ps, through_stage):
    """Each stage's squares around the centres (pitch/2 + col*pitch, pitch/2 + row*pitch), row-major."""
    rects = []
    for i in range(1, through_stage + 1):
        one = oracle_stage(ns, ps, i)
        pitch, radius, half = one["pitch"], one["radius"], one["pitch"] / 2
        for row in range(one["cells_per_axis"]):
            for col in range(one["cells_per_axis"]):
                cx, cy = half + col * pitch, half + row * pitch
                rects.append((cx - radius, cx + radius, cy - radius, cy + radius))
    return rects


@st.composite
def lattice_lists(draw):
    """Odd nondecreasing N in 3..11 with rational p in [1, N], then perhaps one fault."""
    ns = sorted(draw(st.lists(st.sampled_from([3, 5, 7, 9, 11]), min_size=1, max_size=6)))
    ps = []
    for n in ns:
        q = draw(st.integers(1, 4))
        ps.append(F(draw(st.integers(q, n * q)), q))
    fault = draw(st.sampled_from(["none", "none", "even-N", "p-past-N", "decreasing-N"]))
    at = draw(st.integers(0, len(ns) - 1))
    if fault == "even-N":
        ns[at] += draw(st.sampled_from([-1, 1]))
    elif fault == "p-past-N":
        ps[at] = ns[at] + F(1, draw(st.integers(1, 4)))
    elif fault == "decreasing-N" and at > 0:
        ns[at - 1] = ns[at] + 2
    return ns, ps, draw(st.integers(1, 6))  # k past len(ns) reads a stage the lists lack


RECTANGLE_BUDGET = 3000  # squares the oracle comparison builds per example


@given(lattice_lists())
@settings(max_examples=150, deadline=None)
def test_the_walk_matches_a_stage_by_stage_oracle(case):
    ns, ps, k = case
    params = explicit_dore_maleva_params(ns, ps)
    expected, error = [], None
    for i in range(1, k + 1):
        error = oracle_error(ns, ps, i)
        if error is not None:
            break
        expected.append(oracle_stage(ns, ps, i))
    walk = dore_maleva_stages(params)
    assert [asdict(next(walk)) for _ in expected] == expected
    if error is not None:
        for refused in (lambda: next(walk), lambda: dore_maleva_measure(params, k)):
            with pytest.raises(ValueError) as raised:
                refused()
            assert str(raised.value) == error
    built = sum(1 for total in accumulate(one["cells_per_axis"] ** 2 for one in expected) if total <= RECTANGLE_BUDGET)
    assert dore_maleva_rectangles(params, built) == oracle_rectangles(ns, ps, built)
    if error is not None and built == len(expected):  # no stage before the fault meets the cap
        with pytest.raises(ValueError) as raised:
            dore_maleva_rectangles(params, k)
        assert str(raised.value) == error


def test_rectangles_for_no_stages_are_empty_and_validate_nothing():
    params = explicit_dore_maleva_params([4], [9])
    assert dore_maleva_rectangles(params, 0) == []
    assert dore_maleva_rectangles(params, -3) == []
    assert dore_maleva_measure(params, 0) == 1
    with pytest.raises(ValueError, match="^stage count must be >= 0$"):
        dore_maleva_measure(params, -1)
