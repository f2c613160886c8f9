import json
import math
import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slopelab import tentsystem
from slopelab.cubes import CubeFamily, DyadicCube, union_measure, unit_cube
from slopelab.derivatives import diff_class_b
from slopelab.nullsets import concentric_test, constant_unit_test, explicit_test
from slopelab.rationals import POW2_MATERIALIZE_CAP, ceil_log2, common_denominator, floor_log2, pow2, pow2_upper
from slopelab.serialize import bundle, canonical_json
from slopelab.tentsystem import (
    Block,
    BuildBudgetError,
    ExclusionReport,
    InsufficientDepthError,
    Partition,
    PartitionError,
    StageData,
    TentSystem,
    build_partition,
    build_tent_system,
    ramp_exponent,
    tent_for,
)

F = Fraction
TARGET = (F(1, 3), F(1, 3))


# ---------------------------------------------------------------------------
# The Fraction tent formula, kept as the oracle of the integer one


def oracle_value(cell, eps, point):
    """Exact value at a rational point of the tent over a cell with ramps 2**-eps wide; zero outside the closed cell."""
    lo, hi = cell.interval(0)
    left, right = point[0] - lo, hi - point[0]
    if left <= 0 or right <= 0:
        return Fraction(0)
    result = min(left, right)
    for axis in range(1, cell.dimension):
        lo, hi = cell.interval(axis)
        near = min(point[axis] - lo, hi - point[axis])
        if near <= 0:
            return Fraction(0)
        if floor_log2(near) < -eps:
            # near < 2**-eps: the quotient near / 2**-eps needs a real power of 2
            if eps > POW2_MATERIALIZE_CAP:
                raise OverflowError("a representable point landed on an unrepresentably thin ramp")
            result *= near * pow2(eps)
    return result


def oracle_in_exclusion(cell, eps, point):
    """Whether the point misses the open region where the tent (as oracle_value) has first slope +-1."""
    lo, hi = cell.interval(0)
    if not lo < point[0] < hi:
        return True
    for axis in range(1, cell.dimension):
        lo, hi = cell.interval(axis)
        near = min(point[axis] - lo, hi - point[axis])
        if near <= 0 or ceil_log2(near) <= -eps:
            return True
    return False


def exclusion_intervals(cell, eps, axis):
    """The two removed corner intervals of the axis projection of the tent (as oracle_value)."""
    width = pow2(-eps)  # raises beyond the materialization cap
    lo, hi = cell.interval(axis)
    return ((lo, lo + width), (hi - width, hi))


def shifted_value(cell, eps, numerators, denominator, shift):
    """2**shift times the tent (as oracle_value) at N / D, by the system's integer rule: (r, u, j) reads r * 2**u / D**j."""
    r, u, j = tentsystem._tent_terms(cell.corner, cell.scale, eps, numerators, denominator, shift)
    return Fraction(r, denominator**j) * Fraction(2) ** u


def value(f, point):
    """f at a Fraction point, handed over as numerators over one denominator, as a Fraction."""
    return F(*f.eval(*common_denominator(point)))


def excludes(cell, eps, numerators, denominator):
    """The system's integer exclusion rule for the tent (as oracle_value), at N / D."""
    return tentsystem._tent_excludes(cell.corner, cell.scale, eps, numerators, denominator)


def excluded_at(cell, eps, point):
    return excludes(cell, eps, *common_denominator(point))


def located_cell(partition, stage, numerators, denominator):
    """partition.locate's integers (index, scale, corner) as (index, DyadicCube); None where no cell holds N / D."""
    hit = partition.locate(stage, numerators, denominator)
    if hit is None:
        return None
    index, scale, corner = hit
    return index, DyadicCube(partition.dimension, scale, corner)


def stage_values(system, point):
    """4**m times the tent over the point at each summed stage m that holds it, as the system's walk locates them."""
    at = common_denominator(point)
    return {
        m: shifted_value(DyadicCube(system.dimension, scale, corner), ramp_exponent(m, index, scale), *at, 2 * m)
        for m, (index, scale, corner) in system._walk(*at).items()
    }


# ---------------------------------------------------------------------------
# Partition building


def test_unit_stage_zero_stays_whole():
    partition = build_partition(constant_unit_test(2), 0, 1)
    blocks = partition.blocks_at(0)
    assert len(blocks) == 1
    assert blocks[0].cell_scale == 0 and blocks[0].count == 1
    assert blocks[0].start_index == 1 and blocks[0].cell(0) == unit_cube(2)


def test_toy_partition_scales(toy_system5):
    partition = toy_system5.partition
    # stage sides follow min(8^-m * 4^-m, previous) through the nesting chain
    assert [partition.first_cell_scale(m) for m in range(6)] == [0, 5, 11, 20, 32, 47]
    assert sum(b.count for b in partition.blocks_at(1)) == 64
    assert sum(b.count for b in partition.blocks_at(2)) == 16384


def test_partition_properties_verified(toy_system5):
    report = toy_system5.partition.verify_properties()
    for entry in report["stages"]:
        assert entry["covers_enumeration"]
        assert entry["volumes_nonincreasing"]
        assert entry["side_within_source"]
        if entry["stage"] > 0:
            assert entry["nested_with_ratio"]


def test_partition_past_the_pow2_cap_verifies(toy_test):
    # stage 75 of the toy has cells of scale 8552, so cell_scale * dimension
    # is past POW2_MATERIALIZE_CAP; the cell volume is an integer cell count
    partition = build_partition(toy_test, 75, 4)
    assert partition.first_cell_scale(75) * 2 > POW2_MATERIALIZE_CAP
    report = partition.verify_properties()
    assert all(entry["covers_enumeration"] for entry in report["stages"])


def test_a_built_partition_runs_its_checks_once(toy_test, monkeypatch):
    # each block's source is added to a family twice: once as the build
    # places it, once as construction verifies its stage; the verified
    # families are kept, so later checks and lookups add none
    added = []
    add = CubeFamily.add

    def counting_add(self, cube, item=None):
        if isinstance(item, Block):
            added.append(item)
        add(self, cube, item)

    monkeypatch.setattr(CubeFamily, "add", counting_add)
    partition = build_partition(toy_test, 3, 4)
    blocks = [block for stage in partition.stages for block in stage.blocks]
    assert Counter(map(id, added)) == {id(block): 2 for block in blocks}
    report = partition.verify_properties()
    assert partition.verify_properties() is report
    for stage in range(partition.stage_count):
        assert partition.locate(stage, *common_denominator(TARGET)) is not None
    assert len(added) == 2 * len(blocks)
    assert report["stages"][3]["nested_with_ratio"]


def test_bundle_keys_are_exactly_the_partition_fields(toy_system5):
    # a bundle renders the dataclass fields of the partition, its stages and
    # their blocks; what a partition keeps beside them must stay off the bytes
    data = json.loads(canonical_json(bundle(toy_system5)))
    assert set(data) == {"format", "cutoff", "budget", "test", "dimension", "stages"}
    assert {"dimension", "stages"} == {f.name for f in fields(Partition)}
    stage_keys = {"blocks", "sources", "raw", "exhausted"}
    block_keys = {"start_index", "source", "cell_scale", "delta_scale"}
    assert stage_keys == {f.name for f in fields(StageData)}
    assert block_keys == {f.name for f in fields(Block)}
    for stage in data["stages"]:
        assert set(stage) == stage_keys
        assert all(set(block) == block_keys for block in stage["blocks"])


def test_shuffled_mock_partition_rejected():
    # two blocks at one stage with increasing cell volume violate the order
    big = Block(1, DyadicCube(1, 1, (0,)), 2, 1)
    small = Block(big.count + 1, DyadicCube(1, 1, (1,)), 1, 1)
    with pytest.raises(PartitionError, match="stage 0: cell volumes increase"):
        Partition(
            dimension=1,
            stages=[StageData(blocks=[big, small], raw=[big.source, small.source], exhausted=True)],
        )


def test_overlapping_sources_rejected():
    # the second block's source lies inside the first one's
    whole = Block(1, DyadicCube(2, 1, (0, 0)), 1, 1)
    inner = Block(2, DyadicCube(2, 3, (1, 2)), 3, 3)
    with pytest.raises(PartitionError, match="stage 0: overlapping sources"):
        Partition(
            dimension=2,
            stages=[StageData(blocks=[whole, inner], raw=[whole.source], exhausted=True)],
        )


@st.composite
def shuffled_sources(draw):
    """Cubes of mixed scales in random order, each equal to, inside, around or apart from an earlier one."""
    dim = draw(st.integers(1, 3))

    def fresh():
        scale = draw(st.integers(1, 3))
        return DyadicCube(dim, scale, tuple(draw(st.integers(0, (1 << scale) - 1)) for _ in range(dim)))

    cubes = [fresh()]
    for _ in range(draw(st.integers(0, 5))):
        base = draw(st.sampled_from(cubes))
        kind = draw(st.sampled_from(["equal", "inside", "around", "fresh"]))
        if kind == "equal":
            cubes.append(base)
        elif kind == "inside":
            extra = draw(st.integers(1, 2))
            corner = tuple((c << extra) + draw(st.integers(0, (1 << extra) - 1)) for c in base.corner)
            cubes.append(DyadicCube(dim, base.scale + extra, corner))
        elif kind == "around":
            up = draw(st.integers(1, base.scale)) if base.scale else 0
            cubes.append(DyadicCube(dim, base.scale - up, tuple(c >> up for c in base.corner)))
        else:
            cubes.append(fresh())
    return dim, draw(st.permutations(cubes))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_verifier_refuses_a_stage_exactly_when_two_sources_meet(data):
    # one block per source, all with the same cell scale, at stage 0 or
    # under a unit-cube stage 0; the stage's raw cubes are its sources, so
    # every other check passes
    dim, sources = data.draw(shuffled_sources())
    m = data.draw(st.integers(0, 1))
    cell_scale = 3 * m + max(cube.scale for cube in sources)
    blocks, start = [], 1
    for cube in sources:
        blocks.append(Block(start, cube, cell_scale, cube.scale))
        start += blocks[-1].count
    stages = [StageData(blocks=[Block(1, unit_cube(dim), 0, 0)], raw=[unit_cube(dim)], exhausted=True)][:m]
    stages.append(StageData(blocks=blocks, raw=list(sources), exhausted=True))
    if any(a.intersects(b) for a, b in combinations(sources, 2)):
        with pytest.raises(PartitionError, match=f"^stage {m}: overlapping sources$"):
            Partition(dimension=dim, stages=stages)
    else:
        assert Partition(dimension=dim, stages=stages).verify_properties()["stages"][m]["covers_enumeration"]


def test_a_block_off_its_enumeration_is_rejected():
    # the block's cells have the raw cube's measure, but lie on the other
    # half of the unit interval
    moved = Block(1, DyadicCube(1, 1, (1,)), 1, 1)
    with pytest.raises(PartitionError, match="stage 0: cells do not tile the visible stage"):
        Partition(
            dimension=1,
            stages=[StageData(blocks=[moved], raw=[DyadicCube(1, 1, (0,))], exhausted=True)],
        )


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_a_partition_verifies_only_on_its_enumeration(data):
    # a built partition verifies, and so does the same partition made again
    # from its stages; moving one block's source to a cube of the same scale
    # outside its stage's enumeration is refused
    stages, budget = data.draw(nested_explicit_stages())
    partition = build_partition(explicit_test(stages), len(stages) - 1, budget)
    report = partition.verify_properties()
    assert all(entry["covers_enumeration"] for entry in report["stages"])
    remade = [StageData(blocks=list(s.blocks), raw=s.raw, exhausted=s.exhausted) for s in partition.stages]
    assert Partition(dimension=partition.dimension, stages=remade).verify_properties() == report
    # per block, the pieces of the unit cube off the stage's enumeration that
    # are no finer than the block's source
    movable = []
    for m, stage in enumerate(partition.stages):
        outside = CubeFamily.maximal(stage.raw).subtract(unit_cube(partition.dimension))
        for i, block in enumerate(stage.blocks):
            pieces = [piece for piece in outside if piece.scale <= block.source.scale]
            if pieces:
                movable.append((m, i, pieces))
    assume(movable)
    m, i, pieces = data.draw(st.sampled_from(movable))
    piece = data.draw(st.sampled_from(pieces))
    blocks = list(remade[m].blocks)
    shift = blocks[i].source.scale - piece.scale
    corner = tuple((c << shift) + data.draw(st.integers(0, (1 << shift) - 1)) for c in piece.corner)
    blocks[i] = replace(blocks[i], source=DyadicCube(partition.dimension, piece.scale + shift, corner))
    remade[m] = StageData(blocks=blocks, raw=remade[m].raw, exhausted=remade[m].exhausted)
    with pytest.raises(PartitionError, match=f"stage {m}: cells do not tile the visible stage"):
        Partition(dimension=partition.dimension, stages=remade)


# stage 1 mixes a scale-12 cube with a scale-2 cube; stage 2 nests in the
# coarse one
MIXED_STAGES = [
    [DyadicCube(2, 1, (0, 0))],
    [DyadicCube(2, 12, (1500, 1200)), DyadicCube(2, 2, (0, 0))],
    [DyadicCube(2, 16, (3, 3))],
]


def test_mixed_scale_stage_builds_and_verifies():
    system = build_tent_system(explicit_test(MIXED_STAGES), depth=2, cutoff=0, budget=4)
    report = system.partition.verify_properties()
    assert [s["covers_enumeration"] for s in report["stages"]] == [True] * 3
    assert report["stages"][2]["nested_with_ratio"]
    assert union_measure(system.partition.stages[1].sources) == pow2(-24) + pow2(-4)
    assert system.partition.blocks_at(1)[1].cell_scale == 15


def test_overlapping_enumeration_is_normalized():
    # the second cube is inside the first and must be skipped; the third
    # strictly contains the first and is split into fresh pieces
    stage0 = [
        DyadicCube(2, 2, (0, 0)),
        DyadicCube(2, 3, (1, 1)),
        DyadicCube(2, 1, (0, 0)),
    ]
    partition = build_partition(explicit_test([stage0]), 0, 8)
    sources = partition.stages[0].sources
    assert sources[0] == stage0[0]
    assert all(not a.intersects(b) for i, a in enumerate(sources) for b in sources[i + 1 :])
    report = partition.verify_properties()
    assert report["stages"][0]["covers_enumeration"]


def test_budget_exhaustion_reports_blocking_cube():
    stages = [
        [DyadicCube(2, 1, (0, 0))],
        [DyadicCube(2, 2, (3, 3))],  # not inside stage 0's visible part
    ]
    with pytest.raises(BuildBudgetError) as err:
        build_partition(explicit_test(stages), 1, 4)
    assert err.value.stage == 1
    assert err.value.cube == DyadicCube(2, 2, (3, 3))


def test_locate_matches_cell(toy_system5):
    partition = toy_system5.partition
    for stage in range(1, 6):
        index, cell = located_cell(partition, stage, *common_denominator(TARGET))
        assert cell.contains_point(TARGET)
        (block,) = [b for b in partition.blocks_at(stage) if 0 <= index - b.start_index < b.count]
        assert block.cell(index - block.start_index) == cell


# ---------------------------------------------------------------------------
# Tent functions


def test_tent_center_value_and_support():
    tent = tent_for(unit_cube(2), 0, 1)  # eps = 1/4
    assert value(tent, (F(1, 2), F(1, 2))) == F(1, 2)
    assert value(tent, (F(1, 2), F(1, 8))) == F(1, 4)  # on the ramp
    for boundary in ((F(0), F(1, 2)), (F(1), F(1, 2)), (F(1, 2), F(0)), (F(1, 2), F(1))):
        assert value(tent, boundary) == 0


def test_degenerate_tent_has_no_plateau():
    # eps is half the side, so the ramps in the second axis meet at the center
    tent = tent_for(unit_cube(2), 0, 0)
    assert value(tent, (F(1, 2), F(1, 2))) == F(1, 2)
    assert value(tent, (F(1, 2), F(1, 4))) == F(1, 4)
    assert value(tent, (F(1, 2), F(3, 8))) == F(3, 8)


def test_tent_slope_law_inside_plateau():
    tent = tent_for(unit_cube(2), 0, 1)
    x = (F(1, 3), F(1, 2))
    h = F(1, 16)
    left = (value(tent, (x[0] + h, x[1])) - value(tent, x)) / h
    assert left == 1
    y = (F(2, 3), F(1, 2))
    right = (value(tent, (y[0] + h, y[1])) - value(tent, y)) / h
    assert right == -1


@pytest.mark.parametrize("dimension", [2, 3])
def test_tent_modulus_holds_off_the_axes(dimension):
    # the pair walks along (-3/5, -4/5) from the center: both partials move
    # at once, so the gradient reaches sqrt(2) times the ramp slope
    tent = tent_for(unit_cube(dimension), 0, 0)
    center = tuple(F(1, 2) for _ in range(dimension))
    for i in range(1, 8):
        t = pow2(-tent.modulus(i))
        y = (center[0] - F(3, 5) * t, center[1] - F(4, 5) * t, *center[2:])
        assert sum((a - b) ** 2 for a, b in zip(center, y)) == t * t
        assert abs(value(tent, center) - value(tent, y)) <= pow2(-i)


def test_tent_bounded_by_half_side():
    cell = DyadicCube(2, 2, (1, 2))
    tent = tent_for(cell, 1, 3)
    rng = random.Random(3)
    for _ in range(200):
        p = (F(rng.randrange(257), 256), F(rng.randrange(257), 256))
        assert 0 <= value(tent, p) <= cell.side() / 2


def test_tent_exclusion_membership():
    cell, eps = unit_cube(2), ramp_exponent(0, 1, 0)  # the ramps of tent_for(cell, 0, 1), 1/4 wide
    assert eps == 2
    assert not excluded_at(cell, eps, (F(1, 2), F(1, 2)))
    assert excluded_at(cell, eps, (F(1, 2), F(1, 8)))  # inside the ramp corner
    assert excluded_at(cell, eps, (F(1, 2), F(1, 4)))  # on the ramp's inner end
    assert not excluded_at(cell, eps, (F(1, 2), F(1, 4) + F(1, 1 << 40)))
    assert excluded_at(cell, eps, (F(0), F(1, 2)))
    ((a0, a1), (b0, b1)) = exclusion_intervals(cell, eps, 1)
    assert (a1 - a0) + (b1 - b0) == 2 * pow2(-eps)


# ---------------------------------------------------------------------------
# The assembled system


def test_truncated_value_sums_visible_stages(toy_system5):
    system = toy_system5
    values = stage_values(system, TARGET)
    total = value(system.as_function(), TARGET)
    by_stage = sum((values.get(m, 0) for m in range(1, 6)), Fraction(0))
    assert total == by_stage
    # stage 0 holds the target but sits below the cutoff
    assert values.get(0, 0) == 0
    index, cell = located_cell(system.partition, 0, *common_denominator(TARGET))
    assert value(tent_for(cell, 0, index), TARGET) > 0


def test_truncated_value_zero_away_from_cells(toy_system5):
    assert value(toy_system5.as_function(), (F(1, 5), F(1, 5))) == 0


def test_evaluate_certifies_truth(toy_system8):
    system = toy_system8
    rng = random.Random(17)
    for _ in range(25):
        q = (F(rng.randrange(1025), 1024), F(rng.randrange(1025), 1024))
        truth = value(system.as_function(), q)  # streams exhausted: the exact sum
        for m in (2, 5, 8):
            cv = system.evaluate(q, m)
            assert cv.error <= pow2(-m)
            assert cv.lower <= truth <= cv.upper


def test_evaluate_requires_enough_depth(toy_system5):
    with pytest.raises(InsufficientDepthError):
        toy_system5.evaluate(TARGET, 7)


def test_modulus_exponent_formula(toy_system5):
    # d_{m,1} = 2^-scale implies h(m) = scale + 1
    assert toy_system5.modulus_exponent(3) == 21
    assert toy_system5.modulus_exponent(1) == 6


def test_modulus_exponent_toy_values():
    # a stage whose first cell has side 1/8 yields h = 4
    partition = build_partition(constant_unit_test(1), 1, 1)
    system = TentSystem(partition=partition, cutoff=0, budget=1)
    assert partition.first_cell_scale(1) == 3
    assert system.modulus_exponent(1) == 4


def test_modulus_audit_clean(toy_system5):
    rng = random.Random(5)
    for m in range(1, 6):
        assert toy_system5.modulus_audit(m, 60, rng) == []


def test_oscillation_check_bounds(toy_system5):
    for m in (3, 4, 5):
        report = toy_system5.oscillation_check(TARGET, m)
        assert report.passed and report.tail_ok
        assert report.bound == F(4) ** (m - 1) - 4
        assert report.full_stage_slope
        best = max(abs(t) for t in report.totals.values())
        assert best >= report.bound


def test_oscillation_vacuous_bound_flagged(toy_system5):
    report = toy_system5.oscillation_check(TARGET, 2)
    assert report.vacuous and report.passed


def test_oscillation_single_stage_hits_exact_power():
    # one-stage system: the only slope is the full +-4^m
    system = build_tent_system(constant_unit_test(2), depth=1, cutoff=0, budget=1)
    z = (F(1, 3), F(2, 3))
    report = system.oscillation_check(z, 1)
    assert report.full_stage_slope
    assert any(abs(t) == 4 for t in report.totals.values())


def test_oscillation_rejects_bad_targets(toy_system5):
    # each refusal names its cause, with the Fraction formula's text
    block = toy_system5.partition.blocks_at(3)[0]
    cell = block.cell(0)
    eps = ramp_exponent(3, block.start_index, block.cell_scale)
    lower = [Fraction(c, 1 << cell.scale) for c in cell.corner]
    ramp = (lower[0] + cell.side() / 3, lower[1] + pow2(-eps) / 3)
    refusals = []
    for point, stage in (((F(1, 2), F(1, 3)), 3), ((F(1, 5), F(1, 5)), 3), (ramp, 3), (TARGET, 9), (TARGET, 0)):
        with pytest.raises(ValueError) as err:
            toy_system5.oscillation_check(point, stage)
        with pytest.raises(ValueError) as oracle:
            fraction_oscillation(toy_system5, point, stage)
        assert str(err.value) == str(oracle.value)
        refusals.append(str(err.value))
    assert refusals == [
        "target point must have non-dyadic coordinates",
        "point is not inside any visible stage-3 cell",
        "point sits in the exclusion region of its cell",
        "stage 9 is outside the built range",  # beyond the build
        "stage 0 is outside the built range",  # at the cutoff
    ]


def test_tail_slopes_bounded_stagewise(toy_system8):
    # |slope of stage k| <= 2^(2-k) for k above the probed stage, exactly
    for m in (3, 4):
        report = toy_system8.oscillation_check(TARGET, m)
        for sign, slopes in report.per_stage.items():
            for k, s in slopes:
                if k > m:
                    assert abs(s) <= pow2(-k + 2)


def test_exclusion_reports(toy_system5):
    for m in range(6):
        report = toy_system5.exclusion_visible(m, 1)
        assert report.within_bound
        assert report.analytic_bound == pow2(-3 * m)
        assert report.visible_upper <= report.closed_form_bound


def test_exclusion_interval_lengths_match_formula():
    # lambda(E^k) = 2 * eps for a single visible tent
    system = build_tent_system(constant_unit_test(2), depth=1, cutoff=0, budget=1)
    report = sweep_at(system, 4).exclusion_visible(0, 1)
    ramps = [
        ramp_exponent(1, block.start_index + local, block.cell_scale)
        for block in system.partition.blocks_at(1)
        for local in range(min(4, block.count))
    ]
    expected = sum((2 * pow2(-eps) for eps in ramps), Fraction(0))
    # intervals of distinct cells in one slab may merge; the union is <= the sum
    assert report.visible_union <= expected
    assert report.visible_union > 0


def test_sum_is_first_order_consistent_off_the_deep_stages(toy_system5):
    # dyadic sample grid on stage-1 plateaus, clear of ridges and of the
    # deeper stages' cubes (cells 10..11 of each axis hold the next stage)
    f = toy_system5.as_function()
    for col in (8, 9, 13, 14):
        for row in (9, 14):
            q = (F(col, 32) + F(1, 128), F(row, 32) + F(1, 64))
            assert diff_class_b(f, q, 6).status == "consistent-to-depth"
    outside = (F(1, 5), F(1, 5))
    assert diff_class_b(f, outside, 4).status == "consistent-to-depth"


def test_sum_modulus_past_the_build_names_the_stage_and_the_depth():
    system = build_tent_system(concentric_test(["1/3", "1/3"], 2), 2, 0, 4)
    f = system.as_function()
    assert f.modulus(0) == system.modulus_exponent(2)
    with pytest.raises(InsufficientDepthError) as err:
        f.modulus(1)
    assert err.value.stage == 3
    assert str(err.value) == "stage 3 is beyond the built depth 2; rebuild with a larger budget or depth"


def test_lower_stage_slopes_hit_exact_powers(toy_system5):
    # at the oscillation step, every earlier stage contributes exactly +-4^k
    for m in (3, 4, 5):
        report = toy_system5.oscillation_check(TARGET, m)
        for slopes in report.per_stage.values():
            for k, s in slopes:
                if k < m:
                    assert abs(s) == F(4) ** k


def test_evaluate_raises_when_stream_outruns_budget():
    # stage 1 enumerates four cubes but only two fit the budget, and the
    # visible cells stay too coarse for the requested precision
    quadrants = [DyadicCube(2, 1, (a, b)) for a in (0, 1) for b in (0, 1)]
    test = explicit_test([[unit_cube(2)], quadrants])
    system = build_tent_system(test, depth=4, cutoff=0, budget=2)
    with pytest.raises(InsufficientDepthError) as err:
        system.evaluate((F(1, 3), F(1, 3)), 4)
    assert err.value.stage == 1


def test_evaluate_adds_a_deeper_stage_below_a_dropped_cell():
    # stage 1 sees two of its three cubes, so it is not exhausted, and the
    # point's stage-1 cell is finer than the precision needs: it is dropped,
    # while the exhausted stage 2 below it still contributes
    stages = [
        [unit_cube(2)],
        [DyadicCube(2, 1, (0, 0)), DyadicCube(2, 12, (3000, 3000)), DyadicCube(2, 1, (1, 0))],
        [DyadicCube(2, 20, (3000 * 256 + 7, 3000 * 256 + 9))],
    ]
    system = build_tent_system(explicit_test(stages), depth=2, cutoff=0, budget=2)
    inner = system.partition.blocks_at(2)[0].source
    point = tuple(F(c, 1 << inner.scale) + inner.side() / 3 for c in inner.corner)
    values = stage_values(system, point)
    assert sorted(values) == [1, 2] and values[1] > 0
    assert system.evaluate(point, 2).value == values[2]


def test_exclusion_union_matches_slab_maxima_oracle():
    # independent oracle: within one uniform block, corner intervals of the
    # cells sharing an axis slab nest, so the slab's union is its two maxima
    system = build_tent_system(constant_unit_test(2), depth=1, cutoff=0, budget=1)
    block = system.partition.blocks_at(1)[0]
    per_axis = block.cells_per_axis
    expected = F(0)
    for slab in range(per_axis):
        eps_list = []
        for local in range(block.count):
            cell = block.cell(local)
            if cell.corner[1] == block.cell(0).corner[1] + slab:
                j = block.start_index + local
                eps_list.append(pow2(-(1 + j + 1 + block.cell_scale)))
        expected += 2 * max(eps_list)
    report = sweep_at(system, block.count).exclusion_visible(0, 1)
    assert report.visible_union == expected
    assert report.visible_slack == 0


def test_evaluate_contains_the_analytic_series(toy_system8):
    # the target sits at offset 1/3 or 2/3 inside every stage cell, so each
    # stage contributes exactly 4^k * d_k / 3 and the full sum is a series
    # with exponents following e_1 = 5, e_k = e_{k-1} + 3k
    exponents = [5]
    for k in range(2, 12):
        exponents.append(exponents[-1] + 3 * k)
    terms = [F(4) ** (k + 1) * pow2(-e) / 3 for k, e in enumerate(exponents)]
    for stage in range(1, 9):
        assert stage_values(toy_system8, TARGET).get(stage, 0) == terms[stage - 1]
    truth_lower = sum(terms, F(0))
    truth_upper = truth_lower + pow2(-90)  # dwarfs the remaining tail
    for m in (2, 4, 6, 8):
        cv = toy_system8.evaluate(TARGET, m)
        assert cv.lower <= truth_lower
        assert truth_upper <= cv.upper


# ---------------------------------------------------------------------------
# Exclusion sums against the per-interval Fraction computation


def fraction_union_length(intervals):
    """Oracle: length of a union of Fraction intervals, merged one by one."""
    spans = sorted((lo, hi) for lo, hi in intervals if lo < hi)
    total = Fraction(0)
    cur = None
    for lo, hi in spans:
        if cur is None or lo > cur[1]:
            if cur is not None:
                total += cur[1] - cur[0]
            cur = (lo, hi)
        else:
            cur = (cur[0], max(cur[1], hi))
    if cur is not None:
        total += cur[1] - cur[0]
    return total


def sweep_at(system, per_block):
    """A new TentSystem over system's partition, its exclusion sweep made with VISIBLE_PER_BLOCK = per_block."""
    fresh = TentSystem(system.partition, system.cutoff, system.budget)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tentsystem, "VISIBLE_PER_BLOCK", per_block)
        fresh._exclusion_sweep  # made now, while the constant is patched
    return fresh


def fraction_exclusion(system, stage, axis, per_block):
    """Oracle: (union, slack, interval count, bound) summed term by term."""
    intervals = []
    slack = Fraction(0)
    count = 0
    bound = Fraction(0)
    for i in range(stage + 1, system.depth + 1):
        for block in system.partition.blocks_at(i):
            bound += pow2_upper(-(i + block.cell_scale + block.start_index - 1))
            for local in range(min(per_block, block.count)):
                eps = ramp_exponent(i, block.start_index + local, block.cell_scale)
                count += 2
                if eps > POW2_MATERIALIZE_CAP:
                    slack += 2 * pow2_upper(-eps)
                else:
                    intervals.extend(exclusion_intervals(block.cell(local), eps, axis))
    bound += Fraction(16) ** (-(system.depth + 1)) * Fraction(16, 15)
    return fraction_union_length(intervals), slack, count, bound


# the second stage-2 block starts past index 2**24, so its tents are too thin
# to materialize and its bound term is clamped
CLAMPED_STAGES = [
    [unit_cube(3)],
    [unit_cube(3)],
    [DyadicCube(3, 1, (0, 0, 0)), DyadicCube(3, 1, (1, 1, 1))],
]


# the stage-1 blocks are the scale-21 cube and then the pieces of the scale-17
# cube around it, in child order, with cells of scale 24; they start at
# 1 + 64 * k for k = 0, 1, 65, ..., 254, 255, so the last one starts at 16321:
# its first 38 tents materialize and its next 26 are too thin
STRADDLING_STAGES = [
    [unit_cube(2)],
    [DyadicCube(2, 21, ((1 << 21) - 1,) * 2), DyadicCube(2, 17, ((1 << 17) - 1,) * 2)],
]


@pytest.fixture(scope="module")
def clamped_system():
    return build_tent_system(explicit_test(CLAMPED_STAGES), depth=2, cutoff=0, budget=2)


def test_clamped_slack_counts_thin_tents(clamped_system):
    report = clamped_system.exclusion_visible(1, 2)
    assert report.visible_slack == 2 * 16 * pow2(-POW2_MATERIALIZE_CAP)
    assert report.interval_count == 64
    assert report.within_bound


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_exclusion_sums_match_fraction_oracle(toy_system5, toy_system8, clamped_system, data):
    system = data.draw(st.sampled_from([toy_system5, toy_system8, clamped_system]))
    stage = data.draw(st.integers(0, system.depth))
    axis = data.draw(st.integers(1, system.dimension - 1))
    per_block = data.draw(st.integers(1, 40))
    report = sweep_at(system, per_block).exclusion_visible(stage, axis)
    union, slack, count, bound = fraction_exclusion(system, stage, axis, per_block)
    assert report.visible_union == union
    assert report.visible_slack == slack
    assert report.interval_count == count
    assert report.closed_form_bound == bound


def all_cells_sweep(system, per_block):
    """Oracle: the exclusion sweep that builds every visible cell, thin ones included.

    Per stage m: each axis's union of the materializable corner intervals
    past m, the visible cells past m, those too thin to materialize, and the
    closed-form bound.
    """
    later = range(1, system.depth + 1)
    stages = [
        [
            (b.cell_scale, ramp_exponent(i, b.start_index + local, b.cell_scale), b.corner(local))
            for b in system.partition.blocks_at(i)
            for local in range(min(per_block, b.count))
        ]
        for i in later
    ]
    terms = [
        [min(i + b.cell_scale + b.start_index - 1, POW2_MATERIALIZE_CAP) for b in system.partition.blocks_at(i)]
        for i in later
    ]
    thick = [[c for c in cells if c[1] <= POW2_MATERIALIZE_CAP] for cells in stages]
    finest = max((eps for cells in thick for _, eps, _ in cells), default=0)
    finest_term = max((e for exponents in terms for e in exponents), default=0)
    tail = Fraction(16) ** (-(system.depth + 1)) * Fraction(16, 15)
    spans = {axis: [] for axis in range(1, system.dimension)}
    past = [({axis: Fraction(0) for axis in spans}, 0, 0, tail)]
    summed = 0
    for cells, materialized, exponents in zip(reversed(stages), reversed(thick), reversed(terms)):
        for axis in spans:
            for scale, eps, corner in materialized:
                lo = corner[axis] << (finest - scale)
                hi = lo + (1 << (finest - scale))
                width = 1 << (finest - eps)
                spans[axis] += [(lo, lo + width), (hi - width, hi)]
        unions = {
            axis: fraction_union_length([(Fraction(lo, 1 << finest), Fraction(hi, 1 << finest)) for lo, hi in found])
            for axis, found in spans.items()
        }
        summed += sum(1 << (finest_term - e) for e in exponents)
        _, seen, clamped, _ = past[-1]
        past.append((unions, seen + len(cells), clamped + len(cells) - len(materialized), Fraction(summed, 1 << finest_term) + tail))
    return past[::-1]


@st.composite
def nested_explicit_stages(draw):
    """A nested explicit test in dimension 2 or 3: each stage's cubes lie in the previous stage's visible cubes.

    Cubes may repeat or contain one another inside a stage, and the deeper
    stages of three-dimensional tests start their blocks past the
    materialization cap.
    """
    dim = draw(st.integers(2, 3))
    budget = draw(st.integers(1, 3))

    def subcube(parent):
        extra = draw(st.integers(0, 2))
        corner = tuple((c << extra) + draw(st.integers(0, (1 << extra) - 1)) for c in parent.corner)
        return DyadicCube(dim, parent.scale + extra, corner)

    stages = [[subcube(unit_cube(dim)) for _ in range(draw(st.integers(1, 3)))]]
    for _ in range(draw(st.integers(1, 2))):
        visible = stages[-1][:budget]
        stages.append([subcube(draw(st.sampled_from(visible))) for _ in range(draw(st.integers(1, 3)))])
    return stages, budget


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_every_exclusion_report_matches_the_all_cells_sweep(data):
    stages, budget = data.draw(
        st.one_of(nested_explicit_stages(), st.sampled_from([(CLAMPED_STAGES, 2), (STRADDLING_STAGES, 2)]))
    )
    system = build_tent_system(explicit_test(stages), depth=len(stages) - 1, cutoff=0, budget=budget)
    per_blocks = st.one_of(st.integers(1, 40), st.sampled_from([37, 38, 39, 64]))
    for per_block in data.draw(st.lists(per_blocks, min_size=1, max_size=3)):
        sweep = all_cells_sweep(system, per_block)
        swept = sweep_at(system, per_block)
        for stage in range(system.depth + 2):
            for axis in range(1, system.dimension):
                unions, seen, clamped, bound = sweep[min(stage, system.depth)]
                assert swept.exclusion_visible(stage, axis) == ExclusionReport(
                    stage=stage,
                    axis=axis,
                    visible_union=unions[axis],
                    visible_slack=2 * clamped * pow2(-POW2_MATERIALIZE_CAP),
                    interval_count=2 * seen,
                    closed_form_bound=bound,
                    analytic_bound=pow2(-3 * stage),
                )


# ---------------------------------------------------------------------------
# The sum descends the stage nesting


def located_stage_values(system, point):
    """Oracle: every summed stage located, with no early exit, and valued by the Fraction formula."""
    values = {}
    for stage in range(system.cutoff + 1, system.depth + 1):
        hit = located_cell(system.partition, stage, *common_denominator(point))
        if hit is not None:
            index, cell = hit
            values[stage] = Fraction(4) ** stage * oracle_value(cell, ramp_exponent(stage, index, cell.scale), point)
    return values


@pytest.fixture(scope="module")
def mixed_system():
    return build_tent_system(explicit_test(MIXED_STAGES), depth=2, cutoff=0, budget=4)


@st.composite
def probe_points(draw, system):
    """Cell corners and upper edges, coordinates at 1, audit-scale dyadics, ramp points, non-dyadic points."""
    n = system.dimension
    kind = draw(st.sampled_from(["corner", "upper", "one", "audit", "inside", "ramp", "rational"]))
    if kind == "ramp" and n > 1:
        # a materializable ramp of one of the first cells of a block: each axis
        # past the first sits on a ramp, at its inner end, or on the plateau
        cells = [
            (block, local, ramp_exponent(stage, block.start_index + local, block.cell_scale))
            for stage in range(system.depth + 1)
            for block in system.partition.blocks_at(stage)
            for local in range(min(block.count, 40))
        ]
        block, local, eps = draw(st.sampled_from([c for c in cells if c[2] <= POW2_MATERIALIZE_CAP]))
        cell = block.cell(local)
        lo, hi = cell.interval(0)
        point = [lo + cell.side() * Fraction(draw(st.integers(1, 2)), 3)]
        for axis in range(1, n):
            lo, hi = cell.interval(axis)
            near = pow2(-eps) * Fraction(draw(st.integers(1, 4)), 4) if draw(st.booleans()) else cell.side() / 2
            point.append(lo + near if draw(st.booleans()) else hi - near)
        return tuple(point)
    if kind in ("corner", "upper", "one", "inside", "ramp"):
        stage = draw(st.integers(0, system.depth))
        block = draw(st.sampled_from(system.partition.blocks_at(stage)))
        cell = block.cell(draw(st.integers(0, block.count - 1)))
        side = cell.side()
        lower = [Fraction(c, 1 << cell.scale) for c in cell.corner]
        if kind == "corner":
            return tuple(lower)
        if kind == "upper":
            raised = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            return tuple(x + side if up else x for x, up in zip(lower, raised))
        if kind == "one":
            axis = draw(st.integers(0, n - 1))
            return tuple(Fraction(1) if i == axis else x for i, x in enumerate(lower))
        offsets = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
        return tuple(x + side * Fraction(k, 3) for x, k in zip(lower, offsets))
    if kind == "audit":
        # the grid the modulus audit draws x from at a stage: scale h(m) + 6
        stage = draw(st.integers(1, system.depth))
        denom = 1 << (system.modulus_exponent(stage) + 6)
        return tuple(Fraction(draw(st.integers(0, denom)), denom) for _ in range(n))
    denom = draw(st.integers(1, 500)) * 2 + 1
    return tuple(Fraction(draw(st.integers(0, denom)), denom) for _ in range(n))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_stage_values_match_the_every_stage_oracle(
    toy_system5, toy_system8, clamped_system, mixed_system, data
):
    system = data.draw(st.sampled_from([toy_system5, toy_system8, clamped_system, mixed_system]))
    point = data.draw(probe_points(system))
    expected = located_stage_values(system, point)
    assert stage_values(system, point) == expected
    assert value(system.as_function(), point) == sum(expected.values(), Fraction(0))


def scan_locate(partition, stage, point):
    """Oracle: the first block in build order whose source holds the point, read with Fraction floors."""
    for block in partition.blocks_at(stage):
        if tuple(math.floor(p * 2**block.source.scale) for p in point) == block.source.corner:
            corner = tuple(math.floor(p * 2**block.cell_scale) for p in point)
            width = block.cells_per_axis
            local = 0
            for c, c_src in zip(corner, block.source.corner):
                local = local * width + c - c_src * width
            return block.start_index + local, DyadicCube(partition.dimension, block.cell_scale, corner)
    return None


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_locate_matches_the_block_scan_oracle(toy_system5, toy_system8, clamped_system, mixed_system, data):
    system = data.draw(st.sampled_from([toy_system5, toy_system8, clamped_system, mixed_system]))
    point = data.draw(probe_points(system))
    for stage in range(system.depth + 1):
        expected = scan_locate(system.partition, stage, point)
        assert located_cell(system.partition, stage, *common_denominator(point)) == expected
        if expected is not None:
            index, cell = expected
            assert system.partition.locate(stage, *common_denominator(point)) == (index, cell.scale, cell.corner)
            (block,) = [b for b in system.partition.blocks_at(stage) if 0 <= index - b.start_index < b.count]
            assert block.cell(index - block.start_index) == cell


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_integer_tent_rule_matches_the_fraction_formula(
    toy_system5, toy_system8, clamped_system, mixed_system, data
):
    # the tents located over the point at every stage, and one of the first
    # cells of a drawn block; N / D is also read over a denominator k times
    # larger than the least one, as the oscillation steps read it
    system = data.draw(st.sampled_from([toy_system5, toy_system8, clamped_system, mixed_system]))
    point = data.draw(probe_points(system))
    numerators, denominator = common_denominator(point)
    k = data.draw(st.sampled_from([1, 3, 1 << 70]))
    scaled = ([n * k for n in numerators], denominator * k)
    cells = []  # (stage, index, cell)
    for stage in range(system.depth + 1):
        assert system.partition.locate(stage, numerators, denominator) == system.partition.locate(stage, *scaled)
        hit = located_cell(system.partition, stage, numerators, denominator)
        if hit is not None:
            cells.append((stage, *hit))
    stage = data.draw(st.integers(0, system.depth))
    block = data.draw(st.sampled_from(system.partition.blocks_at(stage)))
    local = data.draw(st.integers(0, min(block.count, 40) - 1))
    cells.append((stage, block.start_index + local, block.cell(local)))
    for stage, index, cell in cells:
        tent, eps = tent_for(cell, stage, index), ramp_exponent(stage, index, cell.scale)
        try:
            expected = oracle_value(cell, eps, point)
        except OverflowError as exc:
            for at in ((numerators, denominator), scaled):
                with pytest.raises(OverflowError) as err:
                    tent.eval(*at)
                assert str(err.value) == str(exc)
        else:
            for at in ((numerators, denominator), scaled):
                assert F(*tent.eval(*at)) == expected
                assert shifted_value(cell, eps, *at, 2 * stage) == Fraction(4) ** stage * expected
        excluded = oracle_in_exclusion(cell, eps, point)
        assert excludes(cell, eps, numerators, denominator) == excludes(cell, eps, *scaled) == excluded


def test_a_point_on_an_over_cap_ramp_raises_the_fraction_formula_error():
    message = "a representable point landed on an unrepresentably thin ramp"
    thin = F(1, 1 << (POW2_MATERIALIZE_CAP + 2))
    for dimension, point in ((2, (F(1, 2), thin)), (2, (F(1, 3), 1 - thin)), (3, (F(1, 2), thin, F(0)))):
        # eps = 2**-(cap + 1); in dimension 3 the point also sits on a face
        # of the third axis, which comes after the thin ramp
        cell = unit_cube(dimension)
        tent, eps = tent_for(cell, 0, POW2_MATERIALIZE_CAP), ramp_exponent(0, POW2_MATERIALIZE_CAP, 0)
        with pytest.raises(OverflowError) as oracle:
            oracle_value(cell, eps, point)
        with pytest.raises(OverflowError) as integer:
            value(tent, point)
        assert str(integer.value) == str(oracle.value) == message
        assert excluded_at(cell, eps, point) and oracle_in_exclusion(cell, eps, point)
        middle = tuple(F(1, 2) for _ in range(dimension))
        assert value(tent, middle) == oracle_value(cell, eps, middle) == F(1, 2)


def counted_locate(monkeypatch, partition):
    """Replace partition.locate by a wrapper that records each (stage, point) it is asked.

    locate reads the point as numerators over one denominator; the record
    holds the point as Fractions again.
    """
    calls = []
    locate = partition.locate

    def counted(stage, numerators, denominator):
        calls.append((stage, tuple(Fraction(n, denominator) for n in numerators)))
        return locate(stage, numerators, denominator)

    monkeypatch.setattr(partition, "locate", counted)
    return calls


def unlocated(system):
    """A new TentSystem over system's partition, holding no point located before."""
    return TentSystem(system.partition, system.cutoff, system.budget)


def test_a_point_outside_stage_one_is_located_once(toy_system5, monkeypatch):
    system = unlocated(toy_system5)
    outside = (F(1, 5), F(1, 5))
    calls = counted_locate(monkeypatch, system.partition)
    assert value(system.as_function(), outside) == 0
    assert calls == [(1, outside)]
    calls.clear()
    system.evaluate(outside, 5)
    assert calls == [(1, outside)]


def test_oscillation_check_locates_the_target_once_per_stage(toy_system5, monkeypatch):
    # once per summed stage across all the checks and evaluations of a point,
    # not once per check; the stage-m tent is read from the same lookups
    system = unlocated(toy_system5)
    calls = counted_locate(monkeypatch, system.partition)

    def located(point):
        return sorted(stage for stage, at in calls if at == point)

    for m in (3, 4, 5):
        system.oscillation_check(TARGET, m)
    for precision in (1, 3, 5):
        system.evaluate(TARGET, precision)
    assert located(TARGET) == [1, 2, 3, 4, 5]
    # a point with TARGET's numerators over another denominator, then TARGET
    # again: each is located afresh
    other = (F(1, 5), F(1, 5))
    calls.clear()
    with pytest.raises(ValueError, match="not inside any visible stage-3 cell"):
        system.oscillation_check(other, 3)
    system.oscillation_check(TARGET, 3)
    system.evaluate(TARGET, 5)
    assert located(other) == [1]
    assert located(TARGET) == [1, 2, 3, 4, 5]


def test_the_exclusion_sweep_reads_each_visible_coordinate_once(toy_test, monkeypatch):
    # per stage and axis, the sweep reads one ramp exponent for each distinct
    # (scale, coordinate) of the materializable visible cells, that of the
    # first such cell, whose corner interval is the widest; it reads none for
    # a cell too thin to materialize, builds no corner, cell or tent, and a
    # second sweep of the same system reads nothing
    read = []
    ramp, corner = tentsystem.ramp_exponent, Block.corner

    def refuse(*args):
        raise AssertionError("the sweep built a corner, a cell or a tent")

    monkeypatch.setattr(tentsystem, "ramp_exponent", lambda *args: read.append(args) or ramp(*args))
    monkeypatch.setattr(tentsystem, "tent_for", refuse)
    monkeypatch.setattr(Block, "corner", refuse)
    monkeypatch.setattr(Block, "cell", refuse)
    thin = []
    for system in (
        build_tent_system(toy_test, depth=5, cutoff=0, budget=4),
        build_tent_system(explicit_test(STRADDLING_STAGES), depth=1, cutoff=0, budget=2),
        build_tent_system(explicit_test(CLAMPED_STAGES), depth=2, cutoff=0, budget=2),
    ):
        for per_block in (16, 3, 40):
            monkeypatch.setattr(tentsystem, "VISIBLE_PER_BLOCK", per_block)
            first = {}  # (stage, axis, scale, coordinate) -> the first visible index there
            thin_cells = 0
            for i in range(1, system.depth + 1):
                for block in system.partition.blocks_at(i):
                    for local in range(min(per_block, block.count)):
                        index = block.start_index + local
                        if ramp(i, index, block.cell_scale) > POW2_MATERIALIZE_CAP:
                            thin_cells += 1
                            continue
                        for axis in range(1, system.dimension):
                            key = (i, axis, block.cell_scale, corner(block, local)[axis])
                            first.setdefault(key, index)
            expected = sorted((i, index, scale) for (i, _, scale, _), index in first.items())
            fresh = TentSystem(system.partition, system.cutoff, system.budget)
            for read_now in (expected, []):
                read.clear()
                for m in range(system.depth + 1):  # the CLI's sweep
                    for axis in range(1, system.dimension):
                        fresh.exclusion_visible(m, axis)
                assert sorted(read) == read_now
        thin.append(thin_cells)
    # the straddling block has 2 of its first 40 cells past the cap, and the
    # clamped system's second stage-2 block all 40
    assert thin == [0, 2, 40]


def test_exclusion_visible_refuses_a_negative_stage(toy_system5):
    with pytest.raises(ValueError, match="stage must be >= 0"):
        toy_system5.exclusion_visible(-1, 1)


def test_repeated_and_alternating_exclusion_calls_match_the_oracle(toy_test):
    for system in (
        build_tent_system(toy_test, depth=5, cutoff=0, budget=4),
        build_tent_system(explicit_test(CLAMPED_STAGES), depth=2, cutoff=0, budget=2),
    ):
        for per_block in (16, 3, 16, 40, 3, 1):
            swept = sweep_at(system, per_block)
            for m in (system.depth, 0, 1, 0):
                for axis in range(1, system.dimension):
                    report = swept.exclusion_visible(m, axis)
                    union, slack, count, bound = fraction_exclusion(system, m, axis, per_block)
                    assert (report.visible_union, report.visible_slack) == (union, slack)
                    assert (report.interval_count, report.closed_form_bound) == (count, bound)


# ---------------------------------------------------------------------------
# Oscillation and evaluation against their Fraction formulas


def fraction_oscillation(system, z, stage):
    """Oracle: the oscillation report by Fraction slopes, every stage located afresh at z and at z +- h."""
    z = tuple(z)
    if any(c.denominator & (c.denominator - 1) == 0 for c in z):
        raise ValueError("target point must have non-dyadic coordinates")
    if not system.cutoff < stage <= system.depth:
        raise ValueError(f"stage {stage} is outside the built range")
    hit = located_cell(system.partition, stage, *common_denominator(z))
    if hit is None:
        raise ValueError(f"point is not inside any visible stage-{stage} cell")
    index, cell = hit
    if oracle_in_exclusion(cell, ramp_exponent(stage, index, cell.scale), z):
        raise ValueError("point sits in the exclusion region of its cell")
    d = cell.side()
    step = d / 4
    at_z = located_stage_values(system, z)
    totals, per_stage = {}, {}
    tail_ok, full_stage = True, False
    for sign in (1, -1):
        h = sign * step
        shifted = (z[0] + h, *z[1:])
        if not 0 <= shifted[0] <= 1:
            continue
        at_shifted = located_stage_values(system, shifted)
        slopes = []
        for k in range(system.cutoff + 1, system.depth + 1):
            s = (at_shifted.get(k, 0) - at_z.get(k, 0)) / h
            slopes.append((k, s))
            if k > stage and abs(s) > pow2(-k + 2):
                tail_ok = False
            if k == stage and abs(s) == Fraction(4) ** stage:
                full_stage = True
        totals[sign] = sum((s for _, s in slopes), Fraction(0))
        per_stage[sign] = tuple(slopes)
    if not totals:
        raise ValueError("both oscillation steps leave the unit cube")
    bound = Fraction(4) ** (stage - 1) - 4
    return tentsystem.OscillationReport(
        stage=stage,
        cell_index=index,
        cell_side=d,
        step=step,
        totals=totals,
        per_stage=per_stage,
        bound=bound,
        vacuous=bound <= 0,
        passed=any(abs(t) >= bound for t in totals.values()),
        full_stage_slope=full_stage,
        tail_ok=tail_ok,
        unbuilt_tail_bound=pow2(-system.depth + 2),
    )


def fraction_evaluate(system, point, precision):
    """Oracle: the certified value summed stage by stage in Fractions, every stage located afresh."""
    threshold = 3 * precision + (precision + 1).bit_length()
    if system.depth < precision:
        raise InsufficientDepthError(system.depth + 1, f"needs visible cells of side <= 2**-{threshold}")
    values = located_stage_values(system, point)
    value = error = Fraction(0)
    for stage in range(system.cutoff + 1, precision + 1):
        data = system.partition.stages[stage]
        cutoff_index = next((b.start_index for b in data.blocks if b.cell_scale >= threshold), None)
        if cutoff_index is None and not data.exhausted:
            raise InsufficientDepthError(stage, f"needs visible cells of side <= 2**-{threshold}")
        hit = located_cell(system.partition, stage, *common_denominator(point))
        if hit is not None and (cutoff_index is None or hit[0] < cutoff_index or data.exhausted):
            value += values[stage]
        if not data.exhausted:
            error += Fraction(4) ** stage * pow2(-threshold) / 2
    return tentsystem.CertifiedValue(value=value, error=error + pow2(-precision - 1))


def outcome(call, *args):
    """What a call returns, or the class and text of the error it raises."""
    try:
        return call(*args)
    except (ValueError, OverflowError, InsufficientDepthError) as exc:
        return type(exc), str(exc)


@st.composite
def oscillation_points(draw, system):
    """Points in stage cells at non-dyadic offsets, on their ramps, random rationals, dyadic points, TARGET."""
    n = system.dimension
    kind = draw(st.sampled_from(["inside"] * 3 + ["ramp"] * 2 + ["rational", "dyadic", "target"]))
    if kind == "target" and n == 2:
        return TARGET
    if kind in ("inside", "ramp"):
        stage = draw(st.integers(min(system.cutoff + 1, system.depth), system.depth))
        block = draw(st.sampled_from(system.partition.blocks_at(stage)))
        local = draw(st.integers(0, min(block.count, 40) - 1))
        cell = block.cell(local)
        eps = ramp_exponent(stage, block.start_index + local, block.cell_scale)
        lower = [Fraction(c, 1 << cell.scale) for c in cell.corner]
        offsets = [cell.side() * Fraction(draw(st.integers(1, 4)), 5) for _ in range(n)]
        if kind == "ramp" and eps <= POW2_MATERIALIZE_CAP:
            # one axis past the first sits on the ramp at a third of its width
            offsets[draw(st.integers(1, n - 1))] = pow2(-eps) / 3
        return tuple(x + o for x, o in zip(lower, offsets))
    if kind == "dyadic":
        return tuple(Fraction(draw(st.integers(0, 64)), 64) for _ in range(n))
    denom = draw(st.integers(1, 200)) * 2 + 1
    return tuple(Fraction(draw(st.integers(0, denom)), denom) for _ in range(n))


def drawn_system(data, toy_system5, toy_system8, clamped_system, mixed_system):
    """tent-toy (depth 5 and 8), the clamped or the mixed system, or a random nested explicit test, at a drawn cutoff."""
    source = data.draw(st.sampled_from(["toy5", "toy8", "clamped", "mixed", "random"]))
    if source == "random":
        stages, budget = data.draw(nested_explicit_stages())
        built = build_tent_system(explicit_test(stages), depth=len(stages) - 1, cutoff=0, budget=budget)
    else:
        built = {"toy5": toy_system5, "toy8": toy_system8, "clamped": clamped_system, "mixed": mixed_system}[source]
    cutoff = data.draw(st.integers(0, max(built.depth - 1, 0)))
    return TentSystem(built.partition, cutoff, built.budget)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_oscillation_and_evaluation_match_the_fraction_formulas(
    toy_system5, toy_system8, clamped_system, mixed_system, data
):
    # checks, evaluations and sums at a few points, in shuffled order, so
    # that the system's kept point changes between calls
    system = drawn_system(data, toy_system5, toy_system8, clamped_system, mixed_system)
    points = data.draw(st.lists(oscillation_points(system), min_size=1, max_size=3))
    calls = [("oscillation", p, m) for p in points for m in range(system.depth + 2)]
    calls += [("evaluate", p, m) for p in points for m in range(system.depth + 2)]
    calls += [("sum", p, None) for p in points]
    for check, point, m in data.draw(st.permutations(calls)):
        if check == "oscillation":
            assert outcome(system.oscillation_check, point, m) == outcome(fraction_oscillation, system, point, m)
        elif check == "evaluate":
            assert outcome(system.evaluate, point, m) == outcome(fraction_evaluate, system, point, m)
        else:
            assert value(system.as_function(), point) == sum(located_stage_values(system, point).values(), F(0))


# ---------------------------------------------------------------------------
# The modulus audit's own points


@st.composite
def audit_draws(draw, system):
    """Integer numerators over the audit grid 2**(h(m) + 6) of a stage m, as functions.modulus_audit draws them.

    Each coordinate is inside a drawn cell, 0, the top 2**(h + 6), a face
    of the cell, a point on or at the end of its ramp, or anywhere on the
    grid; the faces and ramps are those the grid holds exactly.  The
    audit's y moves one numerator by 1 to 64 either way and stays in the
    cube, so some draws do the same.
    """
    stage = draw(st.integers(1, system.depth))
    grid = system.modulus_exponent(stage) + 6
    top = 1 << grid
    cells = [
        (block, local, ramp_exponent(i, block.start_index + local, block.cell_scale))
        for i in range(system.depth + 1)
        for block in system.partition.blocks_at(i)
        for local in range(min(block.count, 40))
        if block.cell_scale <= grid
    ]
    block, local, eps = draw(st.sampled_from(cells))
    side = 1 << (grid - block.cell_scale)
    numerators = []
    for c in block.corner(local):
        kind = draw(st.sampled_from(["inside"] * 4 + ["zero", "top", "face", "ramp", "anywhere"]))
        if kind == "inside":
            numerators.append(c * side + draw(st.integers(1, side - 1)) if side > 1 else c)
        elif kind == "zero":
            numerators.append(0)
        elif kind == "top":
            numerators.append(top)
        elif kind == "face" or kind == "ramp" and eps > grid:
            numerators.append((c + draw(st.integers(0, 1))) * side)
        elif kind == "ramp":
            # a quarter-step of the ramp width from either face, up to its inner end
            near = (1 << (grid - eps)) * draw(st.integers(1, 4)) // 4 if eps + 2 <= grid else 1 << (grid - eps)
            numerators.append(c * side + near if draw(st.booleans()) else (c + 1) * side - near)
        else:
            numerators.append(draw(st.integers(0, top)))
    if draw(st.booleans()):
        axis = draw(st.integers(0, system.dimension - 1))
        moved = numerators[axis] + draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 64))
        assume(0 <= moved <= top)
        numerators[axis] = moved
    return numerators, top


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_the_sum_at_the_audits_points_equals_the_fraction_oracle(
    toy_system5, toy_system8, clamped_system, mixed_system, data
):
    # the audit hands f its numerators over 2**(h + 6) unreduced; the sum
    # must read them as the every-stage Fraction oracle reads the point
    system = drawn_system(data, toy_system5, toy_system8, clamped_system, mixed_system)
    assume(system.depth >= 1)
    numerators, denominator = data.draw(audit_draws(system))
    point = tuple(Fraction(n, denominator) for n in numerators)
    got = outcome(lambda: F(*system.as_function().eval(numerators, denominator)))
    expected = outcome(lambda: sum(located_stage_values(system, point).values(), F(0)))
    assert got == expected


# ---------------------------------------------------------------------------
# The tail of the oscillation slopes


def step_stays_as_fine(system, z, stage, sign):
    """Whether z + sign * (cell side) / 4 along axis 0 lies in no stage cell, or in one no coarser than z's."""
    at_z = system.partition.locate(stage, *common_denominator(z))
    shifted = (z[0] + sign * pow2(-at_z[1]) / 4, *z[1:])
    hit = system.partition.locate(stage, *common_denominator(shifted))
    return hit is None or hit[1] >= at_z[1]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_tail_slopes_past_the_probed_stage_are_at_most_2_to_the_1_minus_k(
    toy_system5, toy_system8, clamped_system, mixed_system, data
):
    # a stage-k tent is at most d_k / 2 high and h = d_m / 4; the nesting
    # ratio puts d_k <= 8**-k * d_m for the stage-k cells over z and over
    # z + h while z + h stays in stage-m cells no coarser than z's, so each
    # stage-k slope is at most 4**k * (d_k / 2) / (d_m / 4) <= 2**(1 - k),
    # half the 2**(2 - k) that tail_ok compares with
    system = drawn_system(data, toy_system5, toy_system8, clamped_system, mixed_system)
    z = data.draw(oscillation_points(system))
    for m in range(system.cutoff + 1, system.depth + 1):
        try:
            report = system.oscillation_check(z, m)
        except ValueError:
            continue
        bounded = [sign for sign in report.per_stage if step_stays_as_fine(system, z, m, sign)]
        for sign in bounded:
            for k, slope in report.per_stage[sign]:
                if k > m:
                    assert abs(slope) <= pow2(1 - k)
        if len(bounded) == len(report.per_stage):
            assert report.tail_ok


def test_tail_ok_fails_where_the_step_crosses_into_a_coarser_block():
    # stage 1 has a scale-4 block B = [1/2, 1] x [0, 1/2] and a scale-8 block
    # A just left of it; z sits in A, 1/3072 from B, so z + h (h = 1/1024)
    # lands in B's stage-2 cells of side 1/1024, whose tent slope is 16/3
    coarse, fine = DyadicCube(2, 1, (1, 0)), DyadicCube(2, 5, (15, 0))
    stages = [[unit_cube(2)], [coarse, fine], [DyadicCube(2, 4, (8, 0))]]
    system = build_tent_system(explicit_test(stages), depth=2, cutoff=0, budget=4)
    assert [b.cell_scale for b in system.partition.blocks_at(1)] == [4, 8]
    z = (F(1, 2) - F(1, 3072), F(1, 96))
    report = system.oscillation_check(z, 1)
    assert not step_stays_as_fine(system, z, 1, 1) and step_stays_as_fine(system, z, 1, -1)
    assert report.per_stage == {1: ((1, F(4, 3)), (2, F(16, 3))), -1: ((1, F(-4)), (2, F(0)))}
    assert report.passed and not report.tail_ok
    assert report == fraction_oscillation(system, z, 1)
