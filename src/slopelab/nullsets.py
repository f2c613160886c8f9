"""Effective null sets as data: cube streams, nested tests, lattice removals.

A cube stream is a finite list of basic dyadic cubes read a budget at a
time; a nested test is a stage-indexed family of streams whose stages nest,
audited at finite budget.  The compact-set construction removes centered
squares on ever finer lattices; its stage measures are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Callable, Iterable, Iterator, Sequence

from .cubes import CubeFamily, DyadicCube, unit_cube
from .rationals import POW2_MATERIALIZE_CAP, format_rational, parse_rational


@dataclass(frozen=True)
class CubeStream:
    """A finite enumeration of dyadic cubes, read a budget at a time."""

    cubes: tuple[DyadicCube, ...]

    def take(self, budget: int) -> list[DyadicCube]:
        """First budget cubes (fewer when the enumeration ends)."""
        return list(self.cubes[:budget])

    def exhausted_within(self, budget: int) -> bool:
        """True iff the enumeration ends within budget cubes."""
        return len(self.cubes) <= budget


@dataclass(frozen=True, eq=False)
class NestedTest:
    """Stage m |-> cube stream for G_m, with G_{m+1} nested inside G_m."""

    stage_factory: Callable[[int], CubeStream]
    descriptor: dict | None = None

    def stream_at(self, stage: int) -> CubeStream:
        if stage < 0:
            raise ValueError("stage must be a natural number")
        return self.stage_factory(stage)


def audit_nesting(test: NestedTest, stages: int, budget: int) -> tuple[int, DyadicCube] | None:
    """Check each budget-visible cube of stage m+1 is covered one stage up.

    Returns (stage, cube) for the first uncovered cube, or None when the
    budget-visible parts nest all the way down.  Each stage's family is built
    once, so a cube with a covering ancestor costs one key lookup per scale.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    current = test.stream_at(0).take(budget)
    for stage in range(1, stages + 1):
        previous = CubeFamily.maximal(current)
        current = test.stream_at(stage).take(budget)
        for cube in current:
            if not previous.contains(cube):
                return (stage, cube)
    return None


# ---------------------------------------------------------------------------
# Ready-made nested tests


def constant_unit_test(dimension: int) -> NestedTest:
    def factory(_stage: int) -> CubeStream:
        return CubeStream((unit_cube(dimension),))

    return NestedTest(factory, {"kind": "constant-unit", "dimension": dimension})


def concentric_test(point: Sequence[Fraction | str], scale_step: int = 2) -> NestedTest:
    """Stage m = the single dyadic cube of side 2**-(scale_step*m) around the point.

    The point must avoid dyadic coordinates so each stage has a unique cube.
    """
    center = tuple(parse_rational(c) for c in point)
    if any(not 0 < c < 1 for c in center):
        raise ValueError("point must be interior to the unit cube")

    def factory(stage: int) -> CubeStream:
        scale = scale_step * stage
        if scale > POW2_MATERIALIZE_CAP:
            raise ValueError(
                f"stage {stage} of the concentric test has cube scale {scale}, past the cap "
                f"{POW2_MATERIALIZE_CAP}"
            )
        corner = tuple((c.numerator << scale) // c.denominator for c in center)
        return CubeStream((DyadicCube(len(center), scale, corner),))

    return NestedTest(
        factory,
        {"kind": "concentric", "point": [format_rational(c) for c in center], "scale_step": scale_step},
    )


def explicit_test(stages: Sequence[Sequence[DyadicCube]]) -> NestedTest:
    """The given stages, the last repeated; every cube must have one dimension."""
    fixed = [CubeStream(tuple(stage)) for stage in stages]
    if not fixed:
        raise ValueError("an explicit test needs at least one stage")
    dims = {cube.dimension for stream in fixed for cube in stream.cubes}
    if len(dims) > 1:
        raise ValueError(f"an explicit test mixes cube dimensions {sorted(dims)}")

    def factory(stage: int) -> CubeStream:
        return fixed[stage] if stage < len(fixed) else fixed[-1]

    stages_json = [[c.to_json() for c in stream.cubes] for stream in fixed]
    return NestedTest(factory, {"kind": "explicit", "stages": stages_json})


# ---------------------------------------------------------------------------
# Compact null-set construction on shrinking lattices


@dataclass(frozen=True)
class DoreMalevaParams:
    """Odd lattice moduli N_i and removal widths p_i with 1 <= p_i <= N_i."""

    n_at: Callable[[int], int]
    p_at: Callable[[int], Fraction]
    p_raw_at: Callable[[int], Fraction]

    def validate_stage(self, i: int) -> None:
        n = self.n_at(i)
        p = self.p_at(i)
        if i < 1:
            raise ValueError("stages are 1-based")
        if n <= 1 or n % 2 == 0:
            raise ValueError(f"N_{i} = {n} must be an odd integer > 1")
        if i > 1 and self.n_at(i - 1) > n:
            raise ValueError("N must be nondecreasing")
        if not 1 <= p <= n:
            raise ValueError(f"p_{i} = {p} violates 1 <= p <= N_{i} = {n}")


def default_dore_maleva_params() -> DoreMalevaParams:
    """The staircase 3,3,3,5,5,5,5,5,7,... with raw width 4, clamped to N_i - 1.

    The raw width exceeds N_1 = 3 at early stages, so the effective width is
    min(4, N_i - 1): this preserves 1 <= p_i <= N_i, the vanishing ratio, and
    strictly interior balls, and is recorded alongside the raw value.
    """

    def n_at(i: int) -> int:
        if i < 1:
            raise ValueError("stages are 1-based")
        n, remaining = 3, i
        while remaining > n:
            remaining -= n
            n += 2
        return n

    raw = Fraction(4)
    return DoreMalevaParams(
        n_at=n_at,
        p_at=lambda i: min(raw, Fraction(n_at(i) - 1)),
        p_raw_at=lambda _i: raw,
    )


def explicit_dore_maleva_params(
    n_values: Sequence[int], p_values: Sequence[Fraction | int | str]
) -> DoreMalevaParams:
    ns = list(n_values)
    ps = [parse_rational(p) for p in p_values]
    if len(ns) != len(ps):
        raise ValueError("N and p must have equal length")

    def at(values: list, i: int):
        if i < 1:
            raise ValueError("stages are 1-based")
        if i > len(values):
            raise ValueError(f"explicit params stop at stage {len(values)}")
        return values[i - 1]

    def n_at(i: int) -> int:
        return at(ns, i)

    def p_at(i: int) -> Fraction:
        return at(ps, i)

    return DoreMalevaParams(n_at=n_at, p_at=p_at, p_raw_at=p_at)


Rect = tuple[Fraction, Fraction, Fraction, Fraction]  # x0, x1, y0, y1


@dataclass(frozen=True)
class LatticeStage:
    """Stage-i removal: centered squares on the cell lattice inside [0,1]^2.

    The lattice is (pitch/2, pitch/2) + pitch * Z^2 with pitch d_{i-1} =
    1/(N_1...N_{i-1}): each stage-(i-1) cell loses a centered square of side
    p_i * d_i, a fraction (p_i/N_i)^2 of the cell, exactly.
    """

    pitch: Fraction
    radius: Fraction  # sup-norm ball radius p_i d_i / 2
    cells_per_axis: int  # the lattice modulus N_1...N_{i-1}
    removed_fraction_per_cell: Fraction
    whole_cell: bool  # p_i == N_i: the ball fills its cell (degenerate)
    remaining: Fraction  # measure left after stages 1..i: the product of 1 - (p_j/N_j)^2

    def rectangles(self) -> Iterator[Rect]:
        """The stage's squares, row by row from the bottom, each row from the left."""
        half, r = self.pitch / 2, self.radius
        for row in range(self.cells_per_axis):
            cy = half + row * self.pitch
            for col in range(self.cells_per_axis):
                cx = half + col * self.pitch
                yield (cx - r, cx + r, cy - r, cy + r)


def dore_maleva_stages(params: DoreMalevaParams) -> Iterator[LatticeStage]:
    """Stages 1, 2, ... in order, each validated once before it is built.

    The lattice modulus and the remaining measure are carried from the stage
    before.  The cell-centered removals are measure-independent, so the
    remainder is the running product of 1 - (p_i/N_i)^2; the tests' sweep
    and grid oracles confirm it by direct union accounting at small k.
    """
    cells_per_axis, remaining = 1, Fraction(1)
    for i in count(1):
        params.validate_stage(i)
        n, p = params.n_at(i), params.p_at(i)
        removed = Fraction(p, n) ** 2
        remaining *= 1 - removed
        yield LatticeStage(
            pitch=Fraction(1, cells_per_axis),
            radius=Fraction(p, 2 * cells_per_axis * n),
            cells_per_axis=cells_per_axis,
            removed_fraction_per_cell=removed,
            whole_cell=p == n,
            remaining=remaining,
        )
        cells_per_axis *= n


def dore_maleva_measure(params: DoreMalevaParams, through_stage: int) -> Fraction:
    """Exact remaining measure of the unit square after stages 1..k (1 at k = 0, validating nothing)."""
    if through_stage < 0:
        raise ValueError("stage count must be >= 0")
    remaining = Fraction(1)
    for stage in islice(dore_maleva_stages(params), through_stage):
        remaining = stage.remaining
    return remaining


RECTANGLE_CAP = 200_000


def lattice_rectangles(stages: Iterable[LatticeStage]) -> list[Rect]:
    """The squares of stages 1, 2, ... given in order, refused past RECTANGLE_CAP in all."""
    rects: list[Rect] = []
    for i, stage in enumerate(stages, start=1):
        if len(rects) + stage.cells_per_axis ** 2 > RECTANGLE_CAP:
            raise ValueError(f"stage {i} would exceed the rectangle cap {RECTANGLE_CAP}")
        rects.extend(stage.rectangles())
    return rects


def dore_maleva_rectangles(params: DoreMalevaParams, through_stage: int) -> list[Rect]:
    """The squares removed at stages 1..k, stage by stage; none for k <= 0."""
    return lattice_rectangles(islice(dore_maleva_stages(params), max(through_stage, 0)))


HALF_MEASURE_STAGE_LIMIT = 64


def stage_below_half(params: DoreMalevaParams) -> int:
    """First stage whose remaining measure drops below 1/2, validating each as the measure does."""
    for i, stage in enumerate(islice(dore_maleva_stages(params), HALF_MEASURE_STAGE_LIMIT), start=1):
        if stage.remaining < Fraction(1, 2):
            return i
    raise ValueError(f"measure stays >= 1/2 through stage {HALF_MEASURE_STAGE_LIMIT}")
