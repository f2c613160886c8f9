"""Descriptors, canonical JSON and every artifact format slopelab writes.

Every numeric value crosses the wire as an exact "p/q" string; reports,
tent-system bundles and bet CSV are rendered here, with sorted keys and no
environment-dependent fields, so identical configs produce byte-identical
output.  Config fields and descriptor sub-fields are read through `typed`,
so a value of the wrong JSON type is a ConfigError rather than a silent
coercion.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, Sequence

from . import functions as fn
from . import martingales as mg
from . import nullsets as ns
from .bits import BitSource, bits_of_fraction, constant_bits, interleave, pattern_bits
from .cubes import DyadicCube
from .rationals import POW2_MATERIALIZE_CAP, format_integer, format_ratios, format_rational, parse_rational
from .tentsystem import ExclusionReport, TentSystem, build_tent_system, tent_for


def to_plain(value: Any) -> Any:
    """One non-JSON value as JSON-shaped data, one level deep; anything else unchanged.

    A Fraction is its "p/q" string.  A dataclass is the mapping of its
    fields, its children left exact for canonical_json to render: a cell
    index is a decimal string, since it can outgrow the integers JSON readers
    hold; a bet run's trajectory is the list of format_ratios strings of its
    integer pairs, as bet_csv renders them, which canonical_json writes in
    one join; and an exclusion report also carries its within_bound verdict.
    """
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (dict, list, tuple)):
        return value
    if isinstance(value, DyadicCube):
        return value.to_json()
    if is_dataclass(value):
        shallow = {f.name: getattr(value, f.name) for f in fields(value)}
        if isinstance(value, mg.BetRun):
            shallow["trajectory"] = _Ratios(format_ratios(value.trajectory))
        if "cell_index" in shallow:
            shallow["cell_index"] = format_integer(value.cell_index)
        if isinstance(value, ExclusionReport):
            shallow["within_bound"] = value.within_bound
        return shallow
    return value


class _Ratios(list):
    """format_ratios strings: ASCII digits, "-" and "/", so each is its own JSON string body."""


def _key(key: Any) -> str:
    return format_rational(key) if isinstance(key, Fraction) else str(key)


_ATOMS = {  # exact type -> its JSON text
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    Fraction: lambda value: f'"{format_rational(value)}"',
}


def _render(value: Any, newline: str, out: list[str]) -> None:
    """Append value's canonical JSON to out; newline is the line break and indent of its depth."""
    atom = _ATOMS.get(type(value))
    if atom is not None:
        out.append(atom(value))
    elif isinstance(value, (dict, list, tuple)):
        _render_container(value, newline, out)
    elif (shallow := to_plain(value)) is not value:
        _render(shallow, newline, out)
    else:  # a subclass of a JSON type renders as json renders it
        base = next((kind for kind in (str, int, float) if isinstance(value, kind)), None)
        if base is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        out.append(_ATOMS[base](value))


def _render_container(value: dict | list | tuple, newline: str, out: list[str]) -> None:
    """A dict by sorted string keys, colliding keys keeping the last value; a list or tuple in order."""
    inner = newline + "  "
    if type(value) is _Ratios and value:  # one join, no escaper; an empty one is "[]" as below
        out.extend((f'[{inner}"', f'",{inner}"'.join(value), f'"{newline}]'))
        return
    if isinstance(value, dict):
        opening, closing = "{", "}"
        keyed = sorted({k if type(k) is str else _key(k): v for k, v in value.items()}.items())
        items = [(f"{inner}{encode_basestring_ascii(key)}: ", child) for key, child in keyed]
    else:
        opening, closing = "[", "]"
        items = [(inner, child) for child in value]
    if not items:
        out.append(opening + closing)
        return
    separator = opening
    for head, child in items:
        atom = _ATOMS.get(type(child))
        if atom is None:
            out.append(separator + head)
            _render(child, inner, out)
        else:
            out.append(separator + head + atom(child))
        separator = ","
    out.append(newline + closing)


def canonical_json(payload: Any) -> str:
    """The report's bytes, in one walk: keys sorted, an indent of 2, a closing newline.

    Each value that is not JSON renders by `to_plain`, straight into the
    output: the bytes json.dumps(sort_keys=True, indent=2) writes for the
    plain data, with no copy of it built.
    """
    out: list[str] = []
    _render(payload, "\n", out)
    out.append("\n")
    return "".join(out)


class ConfigError(ValueError):
    pass


def require(config: Mapping, key: str) -> object:
    if key not in config:
        raise ConfigError(f"config lacks required key {key!r}")
    return config[key]


_JSON_KINDS = {int: "an integer", bool: "a boolean", list: "a list", dict: "an object"}


def typed(config: Mapping, key: str, kind: type, default: object = None):
    """config[key], which must be a JSON value of the given kind; required without a default."""
    value = require(config, key) if default is None else config.get(key, default)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"config key {key!r} must be {_JSON_KINDS[kind]}, not {value!r}")
    return value


def integers(config: Mapping, key: str, default: list[int] | None = None) -> list[int]:
    values = typed(config, key, list, default)
    if not all(type(v) is int for v in values):
        raise ConfigError(f"config key {key!r} must list integers, not {values!r}")
    return values


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
        return fn.linear_form([parse_rational(c) for c in typed(desc, "coeffs", list)])
    if kind == "constant":
        value = parse_rational(require(desc, "value"))
        return fn.constant_function(value, typed(desc, "dimension", int, 1))
    if kind == "abs":
        return fn.abs_distance_1d(parse_rational(require(desc, "center")))
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
        # a knot that is not a pair fails to unpack with a ValueError
        return fn.piecewise_linear([parse_point(p) for p in typed(desc, "points", list)])
    if kind == "tent":
        cell = cube_from_descriptor(require(desc, "cell"))
        return tent_for(cell, typed(desc, "stage", int), typed(desc, "index", int))
    if kind == "sum":
        return fn.sum_functions([function_from_descriptor(d) for d in typed(desc, "of", list)])
    if kind == "scale":
        factor = parse_rational(require(desc, "by"))
        return fn.scale_function(factor, function_from_descriptor(require(desc, "of")))
    if kind == "clamp-extend":
        return fn.clamp_extend(function_from_descriptor(require(desc, "of")))
    if kind == "affine-compose":
        matrix = [parse_point(row) for row in typed(desc, "matrix", list)]
        offset = parse_point(desc["offset"]) if "offset" in desc else None
        transform = fn.affine_isometry(matrix, offset)
        return fn.compose_affine(function_from_descriptor(require(desc, "of")), transform)
    raise ValueError(f"unknown function descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# Bit-source descriptors


def source_from_descriptor(desc: Mapping) -> BitSource:
    kind = _kind(desc)
    if kind == "rational":
        return bits_of_fraction(parse_rational(require(desc, "value")))
    if kind == "pattern":
        bits = require(desc, "bits")  # a list of 0/1 integers or a string of ASCII 0/1 digits
        if isinstance(bits, str) and bits.strip("01"):
            raise ConfigError(f"config key 'bits' must spell ASCII 0s and 1s, not {bits!r}")
        pattern = [int(c) for c in bits] if isinstance(bits, str) else integers(desc, "bits")
        return pattern_bits(pattern, typed(desc, "repeat", bool, True))
    if kind == "constant":
        return constant_bits(typed(desc, "bit", int))
    if kind == "interleave":
        return interleave([source_from_descriptor(d) for d in typed(desc, "of", list)])
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
        return mg.slope_martingale(function_from_descriptor(require(desc, "function")))
    if kind == "table":
        return mg.table_martingale(typed(desc, "values", dict))
    raise ValueError(f"unknown martingale descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# Nested-test descriptors


def nested_test_from_descriptor(desc: Mapping) -> ns.NestedTest:
    kind = _kind(desc)
    if kind == "constant-unit":
        return ns.constant_unit_test(typed(desc, "dimension", int))
    if kind == "concentric":
        return ns.concentric_test(parse_point(require(desc, "point")), typed(desc, "scale_step", int, 2))
    if kind == "explicit":
        stages = typed(desc, "stages", list)
        if not all(isinstance(stage, list) for stage in stages):
            raise ConfigError(f"config key 'stages' must list lists of cubes, not {stages!r}")
        return ns.explicit_test([[cube_from_descriptor(c) for c in stage] for stage in stages])
    raise ValueError(f"unknown nested-test descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# Lattice parameter descriptors


def dore_maleva_params_from_descriptor(desc: Mapping) -> ns.DoreMalevaParams:
    kind = _kind(desc, "default")
    if kind == "default":
        return ns.default_dore_maleva_params()
    if kind == "explicit":
        return ns.explicit_dore_maleva_params(integers(desc, "N"), typed(desc, "p", list))
    raise ValueError(f"unknown parameter descriptor kind {kind!r}")


def cube_from_descriptor(desc: object) -> DyadicCube:
    """A cube from its to_json form {"dim", "scale", "corner"}.

    A scale past POW2_MATERIALIZE_CAP is refused before any cube is built.
    """
    if not isinstance(desc, Mapping):
        raise ConfigError(f"a cube must be a JSON object, not {desc!r}")
    scale = typed(desc, "scale", int)
    if scale > POW2_MATERIALIZE_CAP:
        raise ConfigError(f"cube scale {scale} is past the cap {POW2_MATERIALIZE_CAP}")
    return DyadicCube(typed(desc, "dim", int), scale, tuple(integers(desc, "corner")))


def parse_point(values: Sequence) -> tuple[Fraction, ...]:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"a point is a list of rational literals, not {values!r}")
    return tuple(parse_rational(v) for v in values)


# ---------------------------------------------------------------------------
# Artifacts: tent-system bundles and bet CSV


BUNDLE_FORMAT = "tent-system/1"


def bundle(system: TentSystem) -> dict:
    """The persisted system: its parameters, its test descriptor and its partition's exact fields."""
    return {
        "format": BUNDLE_FORMAT,
        "cutoff": system.cutoff,
        "budget": system.budget,
        "test": system.test_descriptor,
        **to_plain(system.partition),
    }


def check_bundle(data: Mapping) -> None:
    """Rebuild the system a bundle names; raise unless it is byte for byte the same."""
    if data.get("format") != BUNDLE_FORMAT:
        raise ValueError("unrecognized bundle format")
    if data.get("test") is None:
        raise ValueError("bundle has no test descriptor to rebuild from")
    stages = data.get("stages")
    if not isinstance(stages, list) or not stages:
        raise ValueError("bundle has no stages")
    test = nested_test_from_descriptor(data["test"])
    rebuilt = build_tent_system(
        test, len(stages) - 1, typed(data, "cutoff", int), typed(data, "budget", int)
    )
    if canonical_json(bundle(rebuilt)) != canonical_json(data):
        raise ValueError("bundle differs from the system its test descriptor builds")


def bet_csv(run: mg.BetRun) -> str:
    """One "length,capital" row per prefix of the bet path, rendered as the JSON trajectory is."""
    rows = (f"{k},{text}\n" for k, text in enumerate(format_ratios(run.trajectory)))
    return "".join(["length,capital\n", *rows])
