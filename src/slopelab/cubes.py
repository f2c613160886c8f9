"""Basic dyadic n-cubes inside the unit cube, with exact measure accounting.

A cube is the open box prod_i (c_i * 2**-s, (c_i + 1) * 2**-s).  Measure and
coverage computations use half-open grid semantics, under which two basic
dyadic cubes are nested or disjoint; this agrees with the open reading up to
null boundaries.  A finite union is therefore the disjoint union of its
maximal cubes, which a CubeFamily keeps by scale and corner (the hyperoctree
view of a cube family): containment is a key lookup, and the measure is an
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

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        for axis, x in enumerate(point):
            lo, hi = self.interval(axis)
            if not lo < x < hi:
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


class CubeFamily:
    """Disjoint basic dyadic cubes of one dimension, keyed by scale and then by corner.

    Each member carries an item, the cube itself unless one is given.  Two
    basic dyadic cubes are nested or disjoint, so a query cube meets either
    the one member that contains it, found by one lookup of the key
    corner >> shift per kept scale no finer than the query, or only members
    inside it, found in an index of the finer members' keys at the query's
    scale.  The index is built on the first query at a scale and kept up to
    date as members are added.
    """

    def __init__(self) -> None:
        self.dimension: int | None = None  # set by the first member
        self._members: dict[int, dict[tuple[int, ...], object]] = {}  # scale -> corner -> item
        # query scale -> key there -> (scale, corner) of each finer member under it
        self._inside: dict[int, dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]] = {}

    @classmethod
    def maximal(cls, cubes: Iterable[DyadicCube]) -> "CubeFamily":
        """The cubes not inside another cube of the family, each once.

        A cube is dropped when an ancestor or an equal cube is already kept,
        so the members are pairwise disjoint and have the family's union.
        """
        family = cls()
        for cube in sorted(cubes, key=lambda c: c.scale):
            if family.ancestor(cube) is None:
                family.add(cube)
        return family

    def __len__(self) -> int:
        return sum(len(members) for members in self._members.values())

    def add(self, cube: DyadicCube, item: object = None) -> None:
        """Keep cube, which must be disjoint from every member, with its item."""
        if self.dimension is None:
            self.dimension = cube.dimension
        elif cube.dimension != self.dimension:
            raise ValueError(f"mixed dimensions in cube union: {sorted({self.dimension, cube.dimension})}")
        scale, corner = cube.scale, cube.corner
        self._members.setdefault(scale, {})[corner] = cube if item is None else item
        for at, index in self._inside.items():
            if at < scale:
                index.setdefault(tuple(c >> (scale - at) for c in corner), []).append((scale, corner))

    def ancestor(self, cube: DyadicCube) -> object | None:
        """The item of the member that contains cube (or equals it), if any."""
        scale, corner = cube.scale, cube.corner
        for at, members in self._members.items():
            if at <= scale:
                item = members.get(tuple([c >> (scale - at) for c in corner]))
                if item is not None:
                    return item
        return None

    def _below(self, cube: DyadicCube) -> list[tuple[int, tuple[int, ...]]]:
        """(scale, corner) of each member strictly inside cube."""
        at = cube.scale
        index = self._inside.get(at)
        if index is None:
            index = self._inside[at] = {}
            for scale, members in self._members.items():
                if scale > at:
                    for corner in members:
                        index.setdefault(tuple(c >> (scale - at) for c in corner), []).append((scale, corner))
        return index.get(cube.corner, [])

    def cover(self, cube: DyadicCube) -> tuple[list, bool]:
        """The items of the members that meet cube, and whether their union covers it.

        They are the one member containing cube, which covers it, or else the
        members inside it, which cover it when they fill its volume.
        """
        item = self.ancestor(cube)
        if item is not None:
            return [item], True
        inside = self._below(cube)
        if not inside:
            return [], False
        finest = max(scale for scale, _ in inside)
        cells = sum(1 << ((finest - scale) * cube.dimension) for scale, _ in inside)
        items = [self._members[scale][corner] for scale, corner in inside]
        return items, cells == 1 << ((finest - cube.scale) * cube.dimension)

    def contains(self, cube: DyadicCube) -> bool:
        """Whether the union covers cube (cover)."""
        return self.cover(cube)[1]

    def subtract(self, cube: DyadicCube) -> list[DyadicCube]:
        """Maximal dyadic subcubes of cube disjoint from every member, in child order."""
        if self.ancestor(cube) is not None:
            return []
        if not self._below(cube):
            return [cube]
        return [piece for child in cube.children() for piece in self.subtract(child)]

    def measure(self) -> Fraction:
        """Exact measure of the union: a count of finest-scale cells over one power of two."""
        if not self._members:
            return Fraction(0)
        finest = max(self._members)
        cells = sum(len(members) << ((finest - scale) * self.dimension) for scale, members in self._members.items())
        return Fraction(cells, 1 << (finest * self.dimension))

    def locate(self, numerators: Sequence[int], denominator: int) -> object | None:
        """The item of the member whose half-open box holds the point N / D, if any.

        The key at scale s is the grid corner floor(N_i * 2**s / D).
        """
        for scale, members in self._members.items():
            item = members.get(tuple([(n << scale) // denominator for n in numerators]))
            if item is not None:
                return item
        return None


def union_measure(cubes: Iterable[DyadicCube]) -> Fraction:
    """Exact Lebesgue measure of a finite union, overlaps counted once."""
    return CubeFamily.maximal(cubes).measure()


def cube_union_contains(cubes: Sequence[DyadicCube], target: DyadicCube) -> bool:
    """Whether the union of cubes covers target (half-open grid semantics)."""
    return CubeFamily.maximal(cubes).contains(target)


def subtract_covered(cube: DyadicCube, covering: Sequence[DyadicCube]) -> list[DyadicCube]:
    """Maximal dyadic subcubes of cube disjoint from every covering cube."""
    return CubeFamily.maximal(covering).subtract(cube)
