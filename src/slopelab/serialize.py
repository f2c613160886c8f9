"""Descriptors and canonical JSON for reproducible experiments.

Every numeric value crosses the wire as an exact "p/q" string; reports are
dumped with sorted keys and no environment-dependent fields, so identical
configs produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

from . import functions as fn
from . import martingales as mg
from . import nullsets as ns
from .bits import BitSource, bits_of_fraction, constant_bits, interleave, pattern_bits
from .cubes import DyadicCube
from .rationals import _digits, format_rational, parse_rational
from .tentsystem import ExclusionReport


def to_plain(value: Any) -> Any:
    """Recursively render exact values as JSON-safe plain data.

    A dataclass renders as the mapping of its fields.  A cell index is a
    decimal string, since it can outgrow the integers JSON readers hold, and
    an exclusion report also carries its within_bound verdict.
    """
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {
            format_rational(k) if isinstance(k, Fraction) else str(k): to_plain(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    if isinstance(value, DyadicCube):
        return value.to_json()
    if is_dataclass(value):
        plain = {f.name: to_plain(getattr(value, f.name)) for f in fields(value)}
        if "cell_index" in plain:
            plain["cell_index"] = _digits(value.cell_index)
        if isinstance(value, ExclusionReport):
            plain["within_bound"] = value.within_bound
        return plain
    return value


def canonical_json(payload: Any) -> str:
    return json.dumps(to_plain(payload), sort_keys=True, indent=2) + "\n"


def _kind(desc: object, default: str | None = None) -> object:
    """The kind of a descriptor, which must be a JSON object."""
    if not isinstance(desc, Mapping):
        raise ValueError(f"a descriptor must be a JSON object, not {desc!r}")
    return desc.get("kind", default)


# ---------------------------------------------------------------------------
# Function descriptors


def function_from_descriptor(desc: Mapping) -> fn.ComputableFunction:
    kind = _kind(desc)
    if kind == "linear":
        return fn.linear_form([parse_rational(c) for c in desc["coeffs"]])
    if kind == "constant":
        return fn.constant_function(parse_rational(desc["value"]), int(desc.get("dimension", 1)))
    if kind == "abs":
        return fn.abs_distance_1d(parse_rational(desc["center"]))
    if kind == "square":
        return fn.square_1d()
    if kind == "cube":
        return fn.cube_1d()
    if kind == "identity":
        return fn.identity_1d()
    if kind == "product":
        return fn.product_xy()
    if kind == "abs-diff":
        return fn.abs_diff_2d()
    if kind == "min-flip":
        return fn.min_x_flip_y()
    if kind == "pwlinear":
        return fn.piecewise_linear(
            [(parse_rational(x), parse_rational(y)) for x, y in desc["points"]]
        )
    if kind == "tent":
        from .tentsystem import tent_for

        return tent_for(
            DyadicCube.from_json(desc["cell"]), int(desc["stage"]), int(desc["index"])
        ).as_function()
    if kind == "sum":
        return fn.sum_functions([function_from_descriptor(d) for d in desc["of"]])
    if kind == "scale":
        return fn.scale_function(parse_rational(desc["by"]), function_from_descriptor(desc["of"]))
    if kind == "clamp-extend":
        return fn.clamp_extend(function_from_descriptor(desc["of"]))
    if kind == "affine-compose":
        matrix = [[parse_rational(v) for v in row] for row in desc["matrix"]]
        offset = [parse_rational(v) for v in desc.get("offset", ["0/1"] * len(matrix))]
        transform = fn.affine_isometry(matrix, offset)
        return fn.compose_affine(function_from_descriptor(desc["of"]), transform)
    raise ValueError(f"unknown function descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# Bit-source descriptors


def source_from_descriptor(desc: Mapping) -> BitSource:
    kind = _kind(desc)
    if kind == "rational":
        return bits_of_fraction(parse_rational(desc["value"]))
    if kind == "pattern":
        return pattern_bits([int(b) for b in desc["bits"]], bool(desc.get("repeat", True)))
    if kind == "constant":
        return constant_bits(int(desc["bit"]))
    if kind == "interleave":
        return interleave([source_from_descriptor(d) for d in desc["of"]])
    raise ValueError(f"unknown bit-source descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# Martingale descriptors


def martingale_from_descriptor(desc: Mapping) -> mg.Martingale:
    kind = _kind(desc)
    if kind == "constant":
        return mg.constant_martingale(parse_rational(desc.get("value", "1/1")))
    if kind == "all-on-ones":
        return mg.all_on_ones_martingale()
    if kind == "slope":
        return mg.slope_martingale(function_from_descriptor(desc["function"]))
    if kind == "table":
        return mg.table_martingale(desc["values"], int(desc["depth"]))
    raise ValueError(f"unknown martingale descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# Nested-test descriptors


def nested_test_from_descriptor(desc: Mapping) -> ns.NestedTest:
    kind = _kind(desc)
    if kind == "constant-unit":
        return ns.constant_unit_test(int(desc["dimension"]))
    if kind == "concentric":
        return ns.concentric_test(
            [parse_rational(c) for c in desc["point"]], int(desc.get("scale_step", 2))
        )
    if kind == "explicit":
        stages = [
            [DyadicCube.from_json(c) for c in stage] for stage in desc["stages"]
        ]
        return ns.explicit_test(stages)
    raise ValueError(f"unknown nested-test descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# Lattice parameter descriptors


def dore_maleva_params_from_descriptor(desc: Mapping) -> ns.DoreMalevaParams:
    kind = _kind(desc, "default")
    if kind == "default":
        return ns.default_dore_maleva_params()
    if kind == "explicit":
        return ns.explicit_dore_maleva_params(
            [int(n) for n in desc["N"]],
            [parse_rational(p) for p in desc["p"]],
            bool(desc.get("reciprocal_squares_diverge", False)),
            bool(desc.get("ratio_vanishes", False)),
        )
    raise ValueError(f"unknown parameter descriptor kind {kind!r}")


def parse_point(values: Sequence) -> tuple[Fraction, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"a point is a list of rational literals, not {values!r}")
    return tuple(parse_rational(v) for v in values)
