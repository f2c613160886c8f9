"""Staged refinement of a nested test into tents whose sum defeats one partial.

The builder turns each stage of a nested test into disjoint dyadic cells
whose sides collapse by a factor 8**-m per stage; every cell carries a tent:
a ridge along the first axis (slope exactly +-1 off a thin margin) tapered by
ramps of width eps = 2**-(m+j+1) * side in the remaining axes.  The weighted
sum of the tents is exactly evaluable at rational points, certifiedly
approximable everywhere, and oscillates at the designated point with slopes
growing like 4**m.

Stage cell counts grow like 8**(m^2), so cells are never materialized in
bulk: blocks store closed-form grids, cell indices are unbounded Python
integers, and the tent widths eps are kept as power-of-two exponents that are
compared in log space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .cubes import CubeFamily, DyadicCube
from .functions import ComputableFunction, modulus_audit
from .nullsets import NestedTest
from .rationals import (
    POW2_MATERIALIZE_CAP,
    ceil_sqrt,
    common_denominator,
    dyadic_fraction,
    in_unit_cube,
    int_ceil_log2,
    is_dyadic,
    pow2,
)

VISIBLE_PER_BLOCK = 16  # the first cells of each block that an exclusion report sees


class BuildBudgetError(RuntimeError):
    def __init__(self, stage: int, cube: DyadicCube):
        super().__init__(
            f"stage {stage}: cube {cube.to_json()} is not covered by the "
            f"budget-visible part of the previous stage"
        )
        self.stage = stage
        self.cube = cube


class InsufficientDepthError(RuntimeError):
    """A stage a request needs is unbuilt, or its visible cells are too coarse."""

    def __init__(self, stage: int, shortfall: str):
        super().__init__(f"stage {stage} {shortfall}; rebuild with a larger budget or depth")
        self.stage = stage


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class Block:
    """A uniform grid of cells partitioning one enumerated cube.

    Cells are indexed lexicographically by corner (last axis fastest) and
    numbered start_index, start_index + 1, ... in build order.
    """

    start_index: int
    source: DyadicCube
    cell_scale: int
    delta_scale: int  # scale of the min(source, covering parents) side

    def __post_init__(self) -> None:
        if self.cell_scale < self.source.scale:
            raise PartitionError("cells cannot be coarser than their cube")
        if self.start_index < 1:
            raise PartitionError("cell indices are 1-based")

    @property
    def dimension(self) -> int:
        return self.source.dimension

    @property
    def cells_per_axis(self) -> int:
        return 1 << (self.cell_scale - self.source.scale)

    @property
    def count(self) -> int:
        return self.cells_per_axis ** self.dimension

    def corner(self, local: int) -> tuple[int, ...]:
        """Grid corner of a local cell: its offsets are the base-2**shift digits of local."""
        shift = self.cell_scale - self.source.scale
        mask = (1 << shift) - 1
        last = self.dimension - 1
        return tuple(
            (c << shift) + ((local >> shift * (last - axis)) & mask)
            for axis, c in enumerate(self.source.corner)
        )

    def cell(self, local: int) -> DyadicCube:
        if not 0 <= local < self.count:
            raise IndexError("local cell index out of range")
        return DyadicCube(self.dimension, self.cell_scale, self.corner(local))


@dataclass(eq=False)
class StageData:
    blocks: list[Block]
    # a field, so bundles render it, but read off the blocks, so it cannot
    # disagree with them
    sources: list[DyadicCube] = field(init=False)
    raw: list[DyadicCube]
    exhausted: bool

    def __post_init__(self) -> None:
        self.sources = [b.source for b in self.blocks]


@dataclass(eq=False)
class Partition:
    """Indexed family of stage cells with provenance, kept in lazy blocks."""

    dimension: int
    stages: list[StageData]

    def __post_init__(self) -> None:
        # a partition exists only verified; its report and per stage the
        # family of sources, each carrying its block, stay off the bundle
        self._report: dict | None = None
        self.verify_properties()

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def blocks_at(self, stage: int) -> list[Block]:
        return self.stages[stage].blocks

    def locate(
        self, stage: int, numerators: Sequence[int], denominator: int
    ) -> tuple[int, int, tuple[int, ...]] | None:
        """Index, scale and integer corner of the stage cell whose half-open box holds the point N / D.

        A stage's sources are disjoint, so its source family finds the block
        with one lookup per source scale (CubeFamily.locate).
        """
        block = self._sources[stage].locate(numerators, denominator)
        if block is None:
            return None
        scale = block.cell_scale
        corner = tuple([(n << scale) // denominator for n in numerators])
        shift = scale - block.source.scale
        mask = (1 << shift) - 1
        local = 0
        for c in corner:  # the inverse of Block.corner
            local = (local << shift) | c & mask
        return block.start_index + local, scale, corner

    def first_cell_scale(self, stage: int) -> int:
        blocks = self.blocks_at(stage)
        if not blocks:
            raise ValueError(f"stage {stage} has no cells")
        return blocks[0].cell_scale

    def verify_properties(self) -> dict:
        """Exact checks of the four partition properties; raises on failure.

        A stage covers its enumeration when its sources are disjoint and have
        the raw cubes' union as a set (a block's cells tile its source).  The
        side-for-side reading of the fourth property (cell side <= 8**-m
        times the source side) is enforced; its literal mixed-units reading
        (side against source volume) is reported, not enforced.  The checks
        run when the partition is made: a later call returns the same report.
        """
        if self._report is not None:
            return self._report
        report: dict = {"stages": []}
        self._sources: list[CubeFamily] = []
        for m, stage in enumerate(self.stages):
            entry = {"stage": m}
            sources = CubeFamily()
            # coarsest first: dyadic cubes are nested or disjoint, so a source
            # meets an earlier one exactly when that one contains it
            for block in sorted(stage.blocks, key=lambda b: b.source.scale):
                if sources.ancestor(block.source) is not None:
                    raise PartitionError(f"stage {m}: overlapping sources")
                sources.add(block.source, block)
            raw = CubeFamily.maximal(stage.raw)
            entry["covers_enumeration"] = sources.measure() == raw.measure() and all(
                raw.contains(block.source) for block in stage.blocks
            )
            if not entry["covers_enumeration"]:
                raise PartitionError(f"stage {m}: cells do not tile the visible stage")
            scales = [b.cell_scale for b in stage.blocks]
            entry["volumes_nonincreasing"] = all(
                s1 <= s2 for s1, s2 in zip(scales, scales[1:])
            )
            if not entry["volumes_nonincreasing"]:
                raise PartitionError(f"stage {m}: cell volumes increase along the index")
            if m > 0:
                parents = self._sources[m - 1]
                for block in stage.blocks:
                    relevant, covered = parents.cover(block.source)
                    if not covered:
                        raise PartitionError(f"stage {m}: block escapes the previous stage")
                    for p in relevant:
                        if block.cell_scale < 3 * m + p.cell_scale:
                            raise PartitionError(
                                f"stage {m}: nesting ratio above 8**-{m} against a parent"
                            )
                entry["nested_with_ratio"] = True
            for block in stage.blocks:
                if block.cell_scale < 3 * m + block.source.scale:
                    raise PartitionError(f"stage {m}: cell side above 8**-{m} of its cube")
            entry["side_within_source"] = True
            entry["side_within_source_volume_literal"] = all(
                b.cell_scale >= 3 * m + self.dimension * b.source.scale
                for b in stage.blocks
            )
            report["stages"].append(entry)
            self._sources.append(sources)
        self._report = report
        return report


def build_partition(test: NestedTest, depth: int, budget: int) -> Partition:
    """Run the staged subdivision against the budget-visible test.

    Per stage: normalize the enumeration to disjoint cubes, wait for coverage
    by the previous stage's cells, then grid each cube at side
    min(8**-m * delta, previous cell side) with delta the smallest side among
    the cube and its covering parents.
    """
    if depth < 0 or budget < 1:
        raise ValueError("depth must be >= 0 and budget >= 1")
    dimension: int | None = None
    stages: list[StageData] = []
    parents = CubeFamily()  # the previous stage's sources, each carrying its block
    for m in range(depth + 1):
        stream = test.stream_at(m)
        raw = stream.take(budget)
        exhausted = stream.exhausted_within(budget)
        if dimension is None and raw:
            dimension = raw[0].dimension
        blocks: list[Block] = []
        family = CubeFamily()  # this stage's sources so far
        next_index = 1
        last_scale: int | None = None
        for cube in raw:
            for piece in family.subtract(cube):
                if m == 0:
                    delta_scale = piece.scale
                else:
                    covering, covered = parents.cover(piece)
                    if not covered:
                        raise BuildBudgetError(m, piece)
                    delta_scale = max(piece.scale, max(b.cell_scale for b in covering))
                cell_scale = 3 * m + delta_scale
                if last_scale is not None:
                    cell_scale = max(cell_scale, last_scale)
                block = Block(next_index, piece, cell_scale, delta_scale)
                blocks.append(block)
                family.add(piece, block)
                next_index += block.count
                last_scale = cell_scale
        stages.append(StageData(blocks=blocks, raw=raw, exhausted=exhausted))
        parents = family
    if dimension is None:
        raise ValueError("the test enumerated no cubes at all")
    return Partition(dimension=dimension, stages=stages)


# ---------------------------------------------------------------------------
# Tent functions


def _tent_terms(
    corner: Sequence[int], scale: int, eps_exponent: int, numerators: Sequence[int], denominator: int, shift: int
) -> tuple[int, int, int]:
    """2**shift times the exact value at N / D of the tent over a cell, as integers (r, u, j): the value is r * 2**u / D**j.

    The cell has side 2**-scale and corner c / 2**scale, and its ramps have
    width eps = 2**-eps_exponent.  Every distance to a cell face is an
    integer in the unit 1 / (D * 2**scale): a margin r lies on the ramp iff
    r * 2**t < D, for t = eps_exponent - scale, which a bit-length check
    decides before any shift by t.  A point that lands on a ramp thinner
    than 2**-POW2_MATERIALIZE_CAP raises OverflowError.  r = 0 outside the
    closed cell.  The one rule of a tent's value: tent_for's function returns
    it as an integer pair, and the system's sums and slopes add the triples.
    """
    t = eps_exponent - scale
    width = denominator.bit_length()
    ramped = result = 0
    for axis, (c, n) in enumerate(zip(corner, numerators)):
        at = (n << scale) - c * denominator
        near = min(at, denominator - at)
        if near <= 0:
            return 0, 0, 0
        if not axis:
            result = near  # the ridge
        elif near.bit_length() + t <= width and near << t < denominator:
            if eps_exponent > POW2_MATERIALIZE_CAP:
                raise OverflowError("a representable point landed on an unrepresentably thin ramp")
            result *= near
            ramped += 1
    # ridge * prod(near * 2**t / D) / (D * 2**scale), times 2**shift
    return result, ramped * t - scale + shift, ramped + 1


def _tent_excludes(
    corner: Sequence[int], scale: int, eps_exponent: int, numerators: Sequence[int], denominator: int
) -> bool:
    """Whether the point N / D misses the open region where the tent of _tent_terms has first slope +-1."""
    t = eps_exponent - scale
    width = denominator.bit_length()
    for axis, (c, n) in enumerate(zip(corner, numerators)):
        at = (n << scale) - c * denominator
        near = min(at, denominator - at)
        if near <= 0 or axis and near.bit_length() + t <= width and near << t <= denominator:
            return True
    return False


def ramp_exponent(stage: int, index: int, scale: int) -> int:
    """eps exponent of the tent over cell index of a stage, for cells of side 2**-scale."""
    return stage + index + 1 + scale


def tent_for(cell: DyadicCube, stage: int, index: int) -> ComputableFunction:
    """Tent over a cell with ramp width 2**-(stage+index+1) times the side: ridge in axis 1, ramps elsewhere.

    stage = index = 0 gives ramps of half the side, which leave no plateau.
    Its value is _tent_terms's, read at N / D; the tent sum reads its
    located cells as integers and calls no tent_for.
    """
    if stage < 0 or index < 0:
        raise ValueError("stage and index are natural numbers")
    corner, scale, eps = cell.corner, cell.scale, ramp_exponent(stage, index, cell.scale)

    def value(numerators: Sequence[int], denominator: int) -> tuple[int, int]:
        terms = _tent_terms(corner, scale, eps, numerators, denominator, 0)
        (summed,), below = _over_one_denominator([terms], denominator)
        return summed, below

    # each partial slope is at most 2**(stage+index), so the gradient is at
    # most sqrt(n) times that
    steep = stage + index + int_ceil_log2(ceil_sqrt(cell.dimension))
    return ComputableFunction(cell.dimension, value, lambda i: i + steep)


def _over_one_denominator(terms: Sequence[tuple[int, int, int]], denominator: int) -> tuple[list[int], int]:
    """The values r * 2**u / D**j as numerators over one denominator D**n * 2**e, and that denominator.

    n and e are the least that hold every nonzero term; a zero term reads 0.
    """
    n = e = 0
    for r, u, j in terms:
        if r:
            n, e = max(n, j), max(e, -u)
    return [(r * denominator ** (n - j)) << (u + e) if r else 0 for r, u, j in terms], denominator**n << e


# A located stage cell as plain integers: (index, scale, corner), with the
# cell's side 2**-scale and its corner over 2**scale (Partition.locate)
_StageCell = tuple[int, int, tuple[int, ...]]


def _stage_terms(
    stage: int, cell: _StageCell, numerators: Sequence[int], denominator: int, shift: int = 0
) -> tuple[int, int, int]:
    """2**shift * 4**stage times the tent over a located stage cell at N / D, as _tent_terms."""
    index, scale, corner = cell
    return _tent_terms(corner, scale, ramp_exponent(stage, index, scale), numerators, denominator, 2 * stage + shift)


@dataclass(eq=False)
class _Located:
    """A point N / D, its cell at each summed stage (TentSystem._walk), and their values once read.

    A stage is valued when first read, so a caller that reads a prefix of
    the stages never values the tents past it.
    """

    numerators: Sequence[int]
    denominator: int
    cells: dict[int, _StageCell]
    _valued: dict[int, tuple[int, int, int]] = field(default_factory=dict)

    def terms(self, stage: int) -> tuple[int, int, int]:
        """4**stage times the stage's tent at the point, as _stage_terms; zero where no cell holds it."""
        found = self._valued.get(stage)
        if found is None:
            cell = self.cells.get(stage)
            if cell is None:
                return 0, 0, 0
            found = self._valued[stage] = _stage_terms(stage, cell, self.numerators, self.denominator)
        return found


# ---------------------------------------------------------------------------
# The assembled system


@dataclass(frozen=True)
class CertifiedValue:
    """One-sided certificate: the true value lies in [value, value + error]."""

    value: Fraction
    error: Fraction

    @property
    def lower(self) -> Fraction:
        return self.value

    @property
    def upper(self) -> Fraction:
        return self.value + self.error


@dataclass(frozen=True)
class OscillationReport:
    stage: int
    cell_index: int
    cell_side: Fraction
    step: Fraction
    totals: Mapping[int, Fraction]  # sign -> exact first-axis slope of the sum
    per_stage: Mapping[int, tuple[tuple[int, Fraction], ...]]
    bound: Fraction
    vacuous: bool
    passed: bool
    full_stage_slope: bool
    tail_ok: bool
    unbuilt_tail_bound: Fraction


@dataclass(frozen=True)
class ExclusionReport:
    stage: int
    axis: int
    visible_union: Fraction
    visible_slack: Fraction
    interval_count: int
    closed_form_bound: Fraction
    analytic_bound: Fraction

    @property
    def visible_upper(self) -> Fraction:
        return self.visible_union + self.visible_slack

    @property
    def within_bound(self) -> bool:
        return self.visible_upper <= self.closed_form_bound <= self.analytic_bound


def _merge_spans(spans: list[tuple[int, int]]) -> int:
    """Replace intervals [lo, hi], lo < hi integers, by their union's spans in order; return its length."""
    spans.sort()
    merged: list[tuple[int, int]] = []
    total = 0
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            start, end = merged[-1]
            if hi > end:
                total += hi - end
                merged[-1] = (start, hi)
        else:
            merged.append((lo, hi))
            total += hi - lo
    spans[:] = merged
    return total


@dataclass(eq=False)
class TentSystem:
    """Partition plus tents plus the truncated weighted sum.

    cutoff is the first excluded stage index N: the sum runs over stages
    N < m <= depth.  It is caller-supplied: for a genuinely random target the
    construction cannot compute it, so experiments use constructed targets
    whose cutoff is known in advance.
    """

    partition: Partition
    cutoff: int
    budget: int
    test_descriptor: dict | None = None
    # the last point _located was asked for, by its integers, and its walk
    _last: tuple[tuple, _Located] | None = field(default=None, init=False, repr=False)

    @property
    def dimension(self) -> int:
        return self.partition.dimension

    @property
    def depth(self) -> int:
        return self.partition.stage_count - 1

    def _walk(self, numerators: Sequence[int], denominator: int) -> dict[int, _StageCell]:
        """The cell of N / D at each summed stage, from cutoff + 1 up to the first that misses."""
        cells: dict[int, _StageCell] = {}
        for stage in range(self.cutoff + 1, self.depth + 1):
            hit = self.partition.locate(stage, numerators, denominator)
            if hit is None:
                # each stage's half-open cells tile its sources, and
                # build_partition (and verify_properties) puts every stage-m
                # source inside the stage-(m-1) sources: no later stage holds it
                break
            cells[stage] = hit
        return cells

    def _located(self, numerators: Sequence[int], denominator: int) -> _Located:
        """The walk of N / D, kept for the next call: the checks of one point locate it once.

        One point is kept, keyed by its integers; another point replaces it.
        """
        key = (tuple(numerators), denominator)
        if self._last is None or self._last[0] != key:
            self._last = key, _Located(numerators, denominator, self._walk(numerators, denominator))
        return self._last[1]

    def as_function(self) -> ComputableFunction:
        """The built stages' sum, exact at every rational point."""

        def modulus(i: int) -> int:
            if i + 2 > self.depth:
                raise InsufficientDepthError(i + 2, f"is beyond the built depth {self.depth}")
            return self.modulus_exponent(i + 2)

        def value(numerators: Sequence[int], denominator: int) -> tuple[int, int]:
            cells = self._walk(numerators, denominator)
            if not cells:  # the point misses the first summed stage
                return 0, 1
            terms = [_stage_terms(k, cell, numerators, denominator) for k, cell in cells.items()]
            summed, below = _over_one_denominator(terms, denominator)
            return sum(summed), below

        return ComputableFunction(self.dimension, value, modulus)

    # -- certified evaluation -------------------------------------------------

    def _stage_threshold_scale(self, precision: int) -> int:
        # cells of side <= 8**-precision / (precision + 1)
        return 3 * precision + int_ceil_log2(precision + 2)

    def evaluate(self, point: Sequence[Fraction], precision: int) -> CertifiedValue:
        """Truncated sum with certified one-sided error at most 2**-precision.

        Follows the staged cutoff rule: a stage contributes its located cell
        only when the cell's index precedes the first visibly small cell;
        everything dropped or unseen is covered by exact tail bounds.
        """
        point = tuple(point)
        if not in_unit_cube(point):
            raise ValueError("evaluation point must lie in the unit cube")
        if precision < 0:
            raise ValueError("precision must be a natural number")
        threshold = self._stage_threshold_scale(precision)
        too_coarse = f"needs visible cells of side <= 2**-{threshold}"
        if self.depth < precision:
            # stages beyond the build would contribute up to 2**-(depth+1)
            raise InsufficientDepthError(self.depth + 1, too_coarse)
        numerators, denominator = common_denominator(point)
        walk = self._located(numerators, denominator)  # the stages past precision stay unvalued
        terms = []
        exposed = 0  # the sum of 4**m over the stages that are not exhausted
        for stage in range(self.cutoff + 1, precision + 1):
            data = self.partition.stages[stage]
            # the index of the first visibly small cell
            cutoff_index = next((b.start_index for b in data.blocks if b.cell_scale >= threshold), None)
            if cutoff_index is None and not data.exhausted:
                raise InsufficientDepthError(stage, too_coarse)
            cell = walk.cells.get(stage)
            if cell is not None and (cutoff_index is None or cell[0] < cutoff_index or data.exhausted):
                terms.append(walk.terms(stage))
            if not data.exhausted:
                exposed += 1 << 2 * stage
        summed, below = _over_one_denominator(terms, denominator)
        error = pow2(-precision - 1)  # all stages beyond the target precision
        if exposed:  # unseen or dropped cells at these stages have side <= 2**-threshold
            error += exposed * pow2(-threshold) / 2
        return CertifiedValue(value=Fraction(sum(summed), below), error=error)

    # -- modulus of continuity ------------------------------------------------

    def modulus_exponent(self, stage: int) -> int:
        """h(m) = floor(-log2 d_{m,1}) + 1, from the first cell of the stage."""
        return self.partition.first_cell_scale(stage) + 1

    def modulus_audit(self, stage: int, pairs: int, rng) -> list[dict]:
        """The modulus law at stage m: functions.modulus_audit of the built sum at level m - 2.

        as_function().modulus(m - 2) is h(m) and 2**-(m-2) = 2**(-m+2).
        """
        return modulus_audit(self.as_function(), stage - 2, pairs, rng)

    # -- the oscillation witness ----------------------------------------------

    def oscillation_check(self, z: Sequence[Fraction], stage: int) -> OscillationReport:
        """Exact first-axis slopes at steps +-(cell side)/4 against 4**(m-1) - 4.

        The target must sit inside a visible stage cell, off its exclusion
        region, with non-dyadic coordinates (dyadic points are excluded from
        the construction wholesale).  tail_ok asks each stage-k slope past m
        to be at most 2**(2-k).  The nesting ratio gives 2**(1-k) while the
        step z + h stays in stage-m cells no coarser than z's (its own cell,
        say): a stage-k tent is at most d_k / 2 high, the nesting ratio puts
        d_k <= 8**-k * d_m for the stage-k cells over z and over z + h, and
        h = d_m / 4, so a slope is at most 4**k * (d_k / 2) / (d_m / 4).  A
        step into a coarser stage-m block has no such bound, and tail_ok can
        be false there.
        """
        z = tuple(z)
        if any(is_dyadic(c) for c in z):
            raise ValueError("target point must have non-dyadic coordinates")
        if not self.cutoff < stage <= self.depth:
            raise ValueError(f"stage {stage} is outside the built range")
        numerators, denominator = common_denominator(z)
        walk = self._located(numerators, denominator)
        cell = walk.cells.get(stage)
        if cell is None:
            raise ValueError(f"point is not inside any visible stage-{stage} cell")
        index, scale, corner = cell
        if _tent_excludes(corner, scale, ramp_exponent(stage, index, scale), numerators, denominator):
            raise ValueError("point sits in the exclusion region of its cell")
        summed = range(self.cutoff + 1, self.depth + 1)
        # z + h * e1 over the denominator D * 2**up, for h = +-1 / 2**up and
        # up = scale + 2: a slope is 2**up times a difference of values
        up = scale + 2
        rest = [n << up for n in numerators[1:]]
        at_z = [(r, u + up, j) for r, u, j in map(walk.terms, summed)]
        bound = (1 << 2 * (stage - 1)) - 4  # 4**(m-1) - 4, for m > cutoff >= 0
        totals: dict[int, Fraction] = {}
        per_stage: dict[int, tuple[tuple[int, Fraction], ...]] = {}
        passed = full_stage = False
        tail_ok = True
        for sign in (1, -1):
            first = (numerators[0] << up) + sign * denominator
            if not 0 <= first <= denominator << up:
                continue
            shifted = ([first, *rest], denominator << up)
            cells = self._walk(*shifted)
            at_shifted = []
            for k in summed:
                r, u, j = _stage_terms(k, cells[k], *shifted, up) if k in cells else (0, 0, 0)
                at_shifted.append((r, u - up * j, j))  # (D * 2**up)**j = D**j * 2**(up * j)
            values, below = _over_one_denominator(at_shifted + at_z, denominator)
            # stage k's slope is a / below
            slopes = [sign * (s - v) for s, v in zip(values[: len(at_z)], values[len(at_z):])]
            for k, a in zip(summed, slopes):
                if k > stage and abs(a) << k > 4 * below:  # |slope| > 2**(2-k)
                    tail_ok = False
                if k == stage and abs(a) == below << 2 * stage:  # |slope| = 4**m
                    full_stage = True
            total = sum(slopes)
            passed = passed or abs(total) >= bound * below
            totals[sign] = Fraction(total, below)
            per_stage[sign] = tuple((k, Fraction(a, below)) for k, a in zip(summed, slopes))
        if not totals:
            raise ValueError("both oscillation steps leave the unit cube")
        d = pow2(-scale)
        return OscillationReport(
            stage=stage,
            cell_index=index,
            cell_side=d,
            step=d / 4,
            totals=totals,
            per_stage=per_stage,
            bound=Fraction(bound),
            vacuous=bound <= 0,
            passed=passed,
            full_stage_slope=full_stage,
            tail_ok=tail_ok,
            unbuilt_tail_bound=pow2(-self.depth + 2),
        )

    # -- exclusion bookkeeping -------------------------------------------------

    @cached_property
    def _exclusion_sweep(self) -> list[tuple[dict[int, Fraction], int, int, Fraction]]:
        """Per stage m: each axis's union of visible corner intervals past m, the cells past m, and the bound.

        The cells past m are counted twice: all visible ones, in closed form
        as the sum of min(VISIBLE_PER_BLOCK, count) over the blocks, and those
        too thin to materialize.  Ramp exponents grow with the cell index, so
        the materializable cells of a block are its first
        CAP - i - cell_scale - start_index locals.  A stage's cells at one scale
        and coordinate c along an axis have nested corner intervals, the first
        in index order the widest, so a stage reads one span pair per (scale,
        c), with c the source's coordinate shifted up plus a local's
        base-2**shift digit: no corner is built.  The closed-form bound sums
        2**-(i+j) * side over the cells past m by blocks, clamping
        unrepresentably small terms upward, plus the analytic 16**-i envelope
        of the stages beyond the build.  Built once and kept with the system.
        Spans are integer numerators over 2**e, for e the finest eps exponent
        read, bound terms over the finest term's power of two, and both are
        summed from the deepest up.
        """
        cap = POW2_MATERIALIZE_CAP
        axes = range(1, self.dimension)
        stages = []  # per stage: visible cells, materializable ones, per axis (scale, c) -> eps, bound exponents
        for i in range(1, self.depth + 1):
            blocks = self.partition.blocks_at(i)
            widest: dict[int, dict[tuple[int, int], int]] = {axis: {} for axis in axes}
            cells = thick = 0
            for b in blocks:
                count = min(VISIBLE_PER_BLOCK, b.count)
                k = max(min(count, cap - i - b.cell_scale - b.start_index), 0)
                cells, thick = cells + count, thick + k
                shift = b.cell_scale - b.source.scale
                for axis, spans in widest.items():
                    w = shift * (self.dimension - 1 - axis)  # a local's digit for the axis is local >> w & mask
                    base = b.source.corner[axis] << shift
                    for digit in range(min((k - 1 >> w) + 1, b.cells_per_axis)):  # first at local digit << w
                        key = (b.cell_scale, base + digit)
                        if key not in spans:
                            spans[key] = ramp_exponent(i, b.start_index + (digit << w), b.cell_scale)
            stages.append((cells, thick, widest, [min(i + b.cell_scale + b.start_index - 1, cap) for b in blocks]))
        finest = max((eps for _, _, widest, _ in stages for spans in widest.values() for eps in spans.values()), default=0)
        finest_term = max((e for *_, exponents in stages for e in exponents), default=0)
        tail = Fraction(16) ** (-(self.depth + 1)) * Fraction(16, 15)
        merged: dict[int, list[tuple[int, int]]] = {axis: [] for axis in axes}
        past = [({axis: Fraction(0) for axis in merged}, 0, 0, tail)]  # past the deepest stage
        summed = 0
        for cells, thick, widest, exponents in reversed(stages):
            for axis, spans in merged.items():
                for (scale, c), eps in widest[axis].items():
                    lo = c << (finest - scale)
                    hi = lo + (1 << (finest - scale))
                    width = 1 << (finest - eps)
                    spans += [(lo, lo + width), (hi - width, hi)]
            unions = {axis: dyadic_fraction(_merge_spans(spans), finest) for axis, spans in merged.items()}
            summed += sum(1 << (finest_term - e) for e in exponents)
            _, seen, clamped, _ = past[-1]
            bound = dyadic_fraction(summed, finest_term) + tail
            past.append((unions, seen + cells, clamped + cells - thick, bound))
        return past[::-1]

    def exclusion_visible(self, stage: int, axis: int) -> ExclusionReport:
        """Exact union of the budget-visible corner intervals along an axis.

        Visible means the first VISIBLE_PER_BLOCK cells of every block of the
        stages past the given one; intervals too thin to materialize are
        clamped into an explicit slack term of 2**-POW2_MATERIALIZE_CAP each.
        The union, slack, count and closed-form bound are read from the
        system's sweep (_exclusion_sweep).
        """
        if not 1 <= axis < self.dimension:
            raise ValueError("corner intervals live on axes >= 1")
        if stage < 0:
            raise ValueError("stage must be >= 0")
        unions, seen, clamped, bound = self._exclusion_sweep[min(stage, self.depth)]
        return ExclusionReport(
            stage=stage,
            axis=axis,
            visible_union=unions[axis],
            visible_slack=dyadic_fraction(2 * clamped, POW2_MATERIALIZE_CAP),
            interval_count=2 * seen,
            closed_form_bound=bound,
            analytic_bound=pow2(-3 * stage),
        )


def build_tent_system(
    test: NestedTest, depth: int, cutoff: int = 0, budget: int = 8
) -> TentSystem:
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    partition = build_partition(test, depth, budget)
    return TentSystem(
        partition=partition,
        cutoff=cutoff,
        budget=budget,
        test_descriptor=test.descriptor,
    )
