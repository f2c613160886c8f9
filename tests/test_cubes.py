import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopelab.cubes import (
    CubeFamily,
    DyadicCube,
    cube_union_contains,
    subtract_covered,
    union_measure,
    unit_cube,
)
from slopelab.rationals import pow2


def brute_grid_measure(cubes, common_scale):
    """Independent oracle: count grid cells of side 2**-common_scale inside."""
    if not cubes:
        return Fraction(0)
    dim = cubes[0].dimension
    count = 0
    total = 1 << (common_scale * dim)
    for flat in range(total):
        corner = []
        rest = flat
        for _ in range(dim):
            rest, c = divmod(rest, 1 << common_scale)
            corner.append(c)
        center = tuple(Fraction(2 * c + 1, 1 << (common_scale + 1)) for c in corner)
        if any(cube.contains_point(center) for cube in cubes):
            count += 1
    return count * pow2(-common_scale * dim)


# ---------------------------------------------------------------------------
# The scan functions CubeFamily replaced, kept as oracles of its key lookups


def scan_maximal_cubes(cubes):
    """The cubes not inside another cube of the family, each once, by scale."""
    kept = []
    for cube in sorted(cubes, key=lambda c: c.scale):
        if not any(k.contains_cube(cube) for k in kept):
            kept.append(cube)
    return kept


def scan_cells_at(cubes, scale):
    return sum(1 << ((scale - c.scale) * c.dimension) for c in cubes)


def scan_union_contains(cubes, target):
    """One cube contains the target, or the cubes inside it fill its volume."""
    inside = []
    for cube in cubes:
        if cube.contains_cube(target):
            return True
        if target.contains_cube(cube):
            inside.append(cube)
    kept = scan_maximal_cubes(inside)
    if not kept:
        return False
    finest = kept[-1].scale
    return scan_cells_at(kept, finest) == 1 << ((finest - target.scale) * target.dimension)


def scan_subtract_covered(cube, covering):
    overlapping = [c for c in covering if c.intersects(cube)]
    if not overlapping:
        return [cube]
    if any(c.contains_cube(cube) for c in overlapping):
        return []
    pieces = []
    for child in cube.children():
        pieces.extend(scan_subtract_covered(child, overlapping))
    return pieces


def scan_locate(cubes, numerators, denominator):
    """The cube whose half-open box holds N / D, by testing every cube."""
    for cube in cubes:
        if all(c * denominator <= n << cube.scale < (c + 1) * denominator for c, n in zip(cube.corner, numerators)):
            return cube
    return None


small_cubes = st.builds(
    lambda scale, corner_seed, dim: DyadicCube(
        dim, scale, tuple((corner_seed >> (4 * i)) % (1 << scale) for i in range(dim))
    ),
    st.integers(0, 3),
    st.integers(0, 2**12),
    st.integers(1, 2),
)


def test_cube_validation():
    with pytest.raises(ValueError):
        DyadicCube(2, 1, (0, 2))
    with pytest.raises(ValueError):
        DyadicCube(0, 0, ())
    with pytest.raises(ValueError):
        DyadicCube(1, -1, (0,))
    with pytest.raises(ValueError):
        DyadicCube(1, 3, (-1,))
    with pytest.raises(ValueError):
        DyadicCube(1, 3, (8,))
    assert DyadicCube(1, 3, (7,)).corner == (7,)


def test_a_fine_cube_is_checked_without_building_its_grid_width():
    # 2**(10**8) alone would take about 12 MB
    tracemalloc.start()
    try:
        DyadicCube(1, 10**8, (0,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_geometry_accessors():
    cube = DyadicCube(2, 2, (1, 3))
    assert cube.side() == Fraction(1, 4)
    assert cube.volume() == Fraction(1, 16)
    assert cube.interval(1) == (Fraction(3, 4), Fraction(1))
    assert cube.contains_point((Fraction(3, 10), Fraction(4, 5)))
    assert not cube.contains_point((Fraction(1, 4), Fraction(4, 5)))


def test_containment_is_corner_arithmetic():
    big = DyadicCube(2, 1, (1, 0))
    small = DyadicCube(2, 3, (5, 2))
    assert big.contains_cube(small)
    assert not small.contains_cube(big)
    assert big.contains_cube(big)
    assert not big.contains_cube(DyadicCube(2, 3, (3, 2)))


def test_two_halves_tile_the_interval():
    halves = [DyadicCube(1, 1, (0,)), DyadicCube(1, 1, (1,))]
    assert union_measure(halves) == 1


def test_repeated_cube_counted_once():
    cube = DyadicCube(2, 1, (0, 1))
    assert union_measure([cube, cube]) == cube.volume()


def test_overlapping_squares_measure():
    # [0,1/2)^2 union [1/4,3/4)^2 has measure 7/16
    squares = [
        DyadicCube(2, 1, (0, 0)),
        DyadicCube(2, 2, (1, 1)),
        DyadicCube(2, 2, (1, 2)),
        DyadicCube(2, 2, (2, 1)),
        DyadicCube(2, 2, (2, 2)),
    ]
    assert union_measure(squares) == Fraction(7, 16)


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        union_measure([unit_cube(1), unit_cube(2)])


@given(st.lists(small_cubes, min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_union_measure_matches_brute_grid(cubes):
    dim = cubes[0].dimension
    cubes = [c for c in cubes if c.dimension == dim]
    measured = union_measure(cubes)
    common = max(c.scale for c in cubes)
    assert measured == brute_grid_measure(cubes, common)


@given(st.lists(small_cubes, min_size=2, max_size=5))
@settings(max_examples=50, deadline=None)
def test_union_measure_monotone_and_subadditive(cubes):
    dim = cubes[0].dimension
    cubes = [c for c in cubes if c.dimension == dim]
    total = union_measure(cubes)
    assert union_measure(cubes[:-1]) <= total
    assert total <= sum(c.volume() for c in cubes)


@st.composite
def mixed_scale_family(draw, dim):
    """A target cube and a family mixing scales up to 8 apart around it.

    The family holds random cubes, and sometimes a tiling of the target made
    by splitting it and then one child per level, possibly with the first
    tile left out.  The finest scale times the dimension stays <= 12, so the
    oracle grid is small.
    """
    finest = 12 // dim
    low = draw(st.integers(0, finest - 1))
    high = draw(st.integers(low + 1, min(finest, low + 8)))

    def cube(scale):
        corner = tuple(draw(st.integers(0, (1 << scale) - 1)) for _ in range(dim))
        return DyadicCube(dim, scale, corner)

    def tiling(piece):
        tiles = list(piece.children())
        if piece.scale + 1 < high and draw(st.booleans()):
            k = draw(st.integers(0, len(tiles) - 1))
            tiles[k : k + 1] = tiling(tiles[k])
        return tiles

    target = cube(low)
    family = [cube(draw(st.integers(low, high))) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        family += tiling(target)[draw(st.integers(0, 1)) :]
    return target, draw(st.permutations(family))


@pytest.mark.parametrize("dim", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_mixed_scale_union_matches_brute_grid(dim, data):
    target, family = data.draw(mixed_scale_family(dim))
    common = max(c.scale for c in family + [target])
    kept = scan_maximal_cubes(family)
    assert all(not a.intersects(b) for i, a in enumerate(kept) for b in kept[i + 1 :])
    measure = brute_grid_measure(family, common)
    assert union_measure(family) == measure
    # the target is covered iff adding it leaves the union's measure unchanged
    covered = brute_grid_measure(family + [target], common) == measure
    assert cube_union_contains(family, target) == covered


def test_coarse_and_fine_cube_union_is_exact():
    # the fine cube lies inside the unit square, twelve scales below it
    assert union_measure([unit_cube(2), DyadicCube(2, 12, (2049, 7))]) == 1


def test_fine_cubes_do_not_cover_the_unit_square():
    corners = [(0, 0), (0, 2047), (2047, 0), (2047, 2047)]
    quads = [DyadicCube(2, 11, c) for c in corners]
    assert not cube_union_contains(quads, unit_cube(2))
    assert union_measure(quads) == 4 * pow2(-22)


def test_union_coverage():
    target = DyadicCube(1, 1, (0,))
    quarters = [DyadicCube(1, 2, (0,)), DyadicCube(1, 2, (1,))]
    assert cube_union_contains(quarters, target)
    assert not cube_union_contains(quarters[:1], target)
    assert cube_union_contains([unit_cube(1)], target)


def test_subtract_covered_splits_to_disjoint_pieces():
    whole = unit_cube(2)
    corner = DyadicCube(2, 1, (0, 0))
    pieces = subtract_covered(whole, [corner])
    assert len(pieces) == 3
    assert union_measure(pieces) == Fraction(3, 4)
    assert all(not p.intersects(corner) for p in pieces)
    assert subtract_covered(corner, [whole]) == []
    assert subtract_covered(corner, []) == [corner]


@pytest.mark.parametrize("dim", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_the_family_answers_as_the_scans_and_the_grid_do(dim, data):
    target, cubes = data.draw(mixed_scale_family(dim))
    family = CubeFamily.maximal(cubes)
    kept = scan_maximal_cubes(cubes)
    # the same members: each kept cube is its own ancestor, and no more are held
    assert len(family) == len(kept)
    assert all(family.ancestor(cube) == cube for cube in kept)
    meeting, covers = family.cover(target)
    assert sorted(meeting) == sorted(c for c in kept if c.intersects(target))
    common = max(c.scale for c in cubes + [target])
    measure = brute_grid_measure(cubes, common)
    assert family.measure() == measure
    covered = brute_grid_measure(cubes + [target], common) == measure
    assert covers == family.contains(target) == scan_union_contains(cubes, target) == covered
    assert family.subtract(target) == scan_subtract_covered(target, cubes)
    # points: a cell centre at the finest scale, and a random rational
    denominator = 1 << (common + 1)
    centre = [2 * data.draw(st.integers(0, (1 << common) - 1)) + 1 for _ in range(dim)]
    denominator_q = data.draw(st.integers(1, 40))
    point = [data.draw(st.integers(0, denominator_q - 1)) for _ in range(dim)]
    for numerators, d in ((centre, denominator), (point, denominator_q)):
        assert family.locate(numerators, d) == scan_locate(kept, numerators, d)


def test_members_carry_their_items_and_the_family_one_dimension():
    family = CubeFamily()
    coarse, fine = DyadicCube(2, 1, (0, 0)), DyadicCube(2, 3, (7, 7))
    family.add(coarse, "coarse")
    family.add(fine)
    assert family.cover(DyadicCube(2, 2, (1, 0))) == (["coarse"], True)
    assert family.cover(DyadicCube(2, 1, (1, 1))) == ([fine], False)
    assert family.cover(DyadicCube(2, 1, (1, 0))) == ([], False)
    assert family.locate((1, 1), 4) == "coarse"
    # a member added after a query at a coarser scale is found by its index
    later = DyadicCube(2, 2, (2, 2))
    family.add(later)
    meeting, covers = family.cover(DyadicCube(2, 1, (1, 1)))
    assert sorted(meeting) == [later, fine] and not covers
    with pytest.raises(ValueError, match=r"mixed dimensions in cube union: \[1, 2\]"):
        family.add(unit_cube(1))
    with pytest.raises(ValueError, match=r"mixed dimensions in cube union: \[1, 2\]"):
        CubeFamily.maximal([unit_cube(2), unit_cube(1)])
