"""Basic dyadic n-cubes inside the unit cube, with exact measure accounting.

A cube is the open box prod_i (c_i * 2**-s, (c_i + 1) * 2**-s).  Measure and
coverage computations use half-open grid semantics, under which two basic
dyadic cubes are nested or disjoint; this agrees with the open reading up to
null boundaries.  A finite union is therefore the disjoint union of its
maximal cubes (the hyperoctree view of a cube family), and its measure is an
integer count of finest-scale cells over one power of two.  Nothing is
refined, so neither the number of cubes nor the gap between their scales is
capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

from .rationals import pow2


@dataclass(frozen=True, order=True)
class DyadicCube:
    """Basic dyadic cube of side 2**-scale at integer corner within [0,1]^n."""

    dimension: int
    scale: int
    corner: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.scale < 0:
            raise ValueError("scale must be a natural number")
        if len(self.corner) != self.dimension:
            raise ValueError("corner length must match dimension")
        for c in self.corner:  # 0 <= c < 2**scale, without building 2**scale
            if not (0 <= c and c >> self.scale == 0):
                raise ValueError(f"corner {self.corner} exceeds unit cube at scale {self.scale}")

    def side(self) -> Fraction:
        return pow2(-self.scale)

    def volume(self) -> Fraction:
        return pow2(-self.scale * self.dimension)

    def interval(self, axis: int) -> tuple[Fraction, Fraction]:
        lo = Fraction(self.corner[axis], 1 << self.scale)
        return lo, lo + self.side()

    def contains_point(self, point: Sequence[Fraction], closed: bool = False) -> bool:
        for axis, x in enumerate(point):
            lo, hi = self.interval(axis)
            inside = lo <= x <= hi if closed else lo < x < hi
            if not inside:
                return False
        return True

    def contains_cube(self, other: "DyadicCube") -> bool:
        """Dyadic cubes are nested or disjoint; containment is corner arithmetic."""
        if other.dimension != self.dimension or other.scale < self.scale:
            return False
        shift = other.scale - self.scale
        return all(oc >> shift == sc for oc, sc in zip(other.corner, self.corner))

    def intersects(self, other: "DyadicCube") -> bool:
        return self.contains_cube(other) or other.contains_cube(self)

    def children(self) -> Iterator["DyadicCube"]:
        base = tuple(c << 1 for c in self.corner)
        for offsets in product((0, 1), repeat=self.dimension):
            corner = tuple(b + o for b, o in zip(base, offsets))
            yield DyadicCube(self.dimension, self.scale + 1, corner)

    def to_json(self) -> dict:
        return {"dim": self.dimension, "scale": self.scale, "corner": list(self.corner)}


def unit_cube(dimension: int) -> DyadicCube:
    return DyadicCube(dimension, 0, (0,) * dimension)


def maximal_cubes(cubes: Iterable[DyadicCube]) -> list[DyadicCube]:
    """The cubes not inside another cube of the family, each once, by scale.

    Cubes are nested or disjoint, so the result is pairwise disjoint and has
    the family's union.  A cube is dropped when an ancestor or an equal cube
    is already kept; ancestors are looked up by (scale, corner >> shift) key
    at the scales kept so far.
    """
    kept: set[tuple[int, tuple[int, ...]]] = set()
    kept_scales: list[int] = []
    result: list[DyadicCube] = []
    for cube in sorted(cubes, key=lambda c: c.scale):
        scale, corner = cube.scale, cube.corner
        if any(
            (s, tuple(c >> (scale - s) for c in corner)) in kept for s in kept_scales
        ):
            continue
        if not kept_scales or kept_scales[-1] != scale:
            kept_scales.append(scale)
        kept.add((scale, corner))
        result.append(cube)
    return result


def _cells_at(cubes: Sequence[DyadicCube], scale: int) -> int:
    """Number of scale-`scale` grid cells in disjoint cubes no finer than it."""
    return sum(1 << ((scale - c.scale) * c.dimension) for c in cubes)


def union_measure(cubes: Iterable[DyadicCube]) -> Fraction:
    """Exact Lebesgue measure of a finite union, overlaps counted once.

    Sums the volumes of the maximal cubes as a count of finest-scale cells
    over one power of two.
    """
    kept = maximal_cubes(cubes)
    if not kept:
        return Fraction(0)
    dims = {c.dimension for c in kept}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions in cube union: {sorted(dims)}")
    finest = kept[-1].scale
    return Fraction(_cells_at(kept, finest), 1 << (finest * dims.pop()))


def cube_union_contains(cubes: Sequence[DyadicCube], target: DyadicCube) -> bool:
    """Whether the union of cubes covers target (half-open grid semantics).

    Either one cube contains the target, or the cubes inside the target fill
    its volume.
    """
    inside = []
    for cube in cubes:
        if cube.contains_cube(target):
            return True
        if target.contains_cube(cube):
            inside.append(cube)
    kept = maximal_cubes(inside)
    if not kept:
        return False
    finest = kept[-1].scale
    return _cells_at(kept, finest) == 1 << ((finest - target.scale) * target.dimension)


def subtract_covered(cube: DyadicCube, covering: Sequence[DyadicCube]) -> list[DyadicCube]:
    """Maximal dyadic subcubes of cube disjoint from every covering cube."""
    overlapping = [c for c in covering if c.intersects(cube)]
    if not overlapping:
        return [cube]
    if any(c.contains_cube(cube) for c in overlapping):
        return []
    pieces: list[DyadicCube] = []
    for child in cube.children():
        pieces.extend(subtract_covered(child, overlapping))
    return pieces
