"""Fuzzed configs and bundles: every run ends in exit 0, 1 or 2, never a traceback.

Rational literals mix valid "p/q" strings with zero denominators, integers
past str()'s 4300-digit limit, JSON floats and junk.  Shape edits replace one
top-level config field, and descriptor edits one field at any depth of a
descriptor, with a small JSON value of any type.  Bundle edits
replace or drop one field of a small concentric-test bundle; --check-bundle
may pass only when the edited bundle is exactly the system its own fields
rebuild.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slopelab.cli import main
from slopelab.nullsets import concentric_test
from slopelab.serialize import bundle as render_bundle, canonical_json, nested_test_from_descriptor
from slopelab.tentsystem import build_tent_system

LITERALS = st.one_of(
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(1, 40)),
    st.builds("{}/0".format, st.integers(-3, 3)),
    st.builds(lambda sign, lead: f"{sign}{lead}{'0' * 5000}", st.sampled_from(["", "-"]), st.integers(1, 9)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.none(),
)


def run(tmp_path_factory, args, payload):
    """main() on a config holding payload; the report goes to a file.

    Exit 1 or 2 must come with exactly one line on stderr.
    """
    folder = tmp_path_factory.mktemp("fuzz")
    config = folder / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*args, str(config), "--out", str(folder / "out")])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    return code


@given(
    st.lists(LITERALS, max_size=3),
    st.fixed_dictionaries({"": LITERALS, "0": LITERALS, "1": LITERALS}),
)
@settings(max_examples=40, deadline=None)
def test_fuzzed_bet_literals_end_in_an_exit_code(tmp_path_factory, thresholds, values):
    payload = {
        "martingale": {"kind": "table", "values": values},
        "source": {"kind": "constant", "bit": 1},
        "depth": 4,
        "thresholds": thresholds,
    }
    run(tmp_path_factory, ["bet", "--config"], payload)


@given(LITERALS, st.lists(st.lists(LITERALS, min_size=1, max_size=1), min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_fuzzed_probe_literals_end_in_an_exit_code(tmp_path_factory, center, points):
    payload = {"function": {"kind": "abs", "center": center}, "points": points, "depth": 2}
    run(tmp_path_factory, ["probe", "--config"], payload)


# ---------------------------------------------------------------------------
# Config shapes


SHAPE_BASES = {
    "probe": {"function": {"kind": "abs", "center": "1/3"}, "points": [["1/3"]], "depth": 3},
    "bet": {
        "martingale": {"kind": "slope", "function": {"kind": "square"}},
        "source": {"kind": "rational", "value": "1/3"},
        "depth": 8,
    },
    "tent-system": {
        "test": {"kind": "concentric", "point": ["1/3", "1/3"], "scale_step": 2},
        "depth": 2,
        "budget": 4,
        "points": [["1/3", "1/3"]],
        "oscillation_stages": [2],
        "precisions": [1, 2],
        "modulus_pairs": 5,
    },
    "dore-maleva": {"params": {"kind": "default"}, "stages": 2, "geometry_stages": 1},
}
SHAPE_FIELDS = [
    ("probe", "function"), ("probe", "points"), ("probe", "depth"),
    ("bet", "martingale"), ("bet", "source"), ("bet", "depth"),
    ("tent-system", "test"), ("tent-system", "precisions"),
    ("dore-maleva", "params"), ("dore-maleva", "stages"),
]
SCALARS = st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=4)
JSON_VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS | st.lists(SCALARS, max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=4), SCALARS, max_size=3),
)


@given(st.sampled_from(SHAPE_FIELDS), JSON_VALUES)
@settings(max_examples=60, deadline=None)
def test_fuzzed_config_shapes_end_in_an_exit_code(tmp_path_factory, field, value):
    command, key = field
    payload = {**SHAPE_BASES[command], key: value}
    run(tmp_path_factory, [command, "--config"], payload)


def paths(value, prefix=()):
    """Every path to a field of a JSON value, parents before children."""
    yield prefix
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


DELETE = object()


def edited(base, path, replacement):
    """A copy of base with the field at path replaced, or deleted for DELETE."""
    value = copy.deepcopy(base)
    *parents, last = path
    owner = value
    for key in parents:
        owner = owner[key]
    if replacement is DELETE:
        del owner[last]
    else:
        owner[last] = replacement
    return value


# ---------------------------------------------------------------------------
# Descriptor sub-fields


CELL = {"dim": 2, "scale": 0, "corner": [0, 0]}
DESCRIPTOR_BASES = [
    ("probe", {
        "function": {"kind": "sum", "of": [
            {"kind": "linear", "coeffs": ["1/2", "1/3"]},
            {"kind": "scale", "by": "1/2", "of": {"kind": "clamp-extend", "of": {"kind": "product"}}},
            {
                "kind": "affine-compose",
                "matrix": [["3/5", "4/5"], ["4/5", "-3/5"]],
                "offset": ["0/1", "0/1"],
                "of": {"kind": "abs-diff"},
            },
            {"kind": "tent", "cell": CELL, "stage": 0, "index": 1},
            {"kind": "constant", "value": "1/2", "dimension": 2},
        ]},
        "points": [["1/3", "1/3"]],
        "depth": 2,
    }),
    ("probe", {
        "function": {"kind": "pwlinear", "points": [["0/1", "0/1"], ["1/2", "1/1"], ["1/1", "0/1"]]},
        "points": [["1/3"]],
        "depth": 2,
    }),
    ("bet", {
        "martingale": {"kind": "table", "values": {"": "1/1", "0": "1/2", "1": "3/2"}},
        "source": {"kind": "interleave", "of": [
            {"kind": "pattern", "bits": [1, 0], "repeat": False},
            {"kind": "constant", "bit": 1},
            {"kind": "rational", "value": "1/3"},
        ]},
        "depth": 6,
    }),
    ("bet", {
        "martingale": {"kind": "constant", "value": "2/1"},
        "source": {"kind": "pattern", "bits": "10"},
        "depth": 6,
    }),
    ("tent-system", {
        "test": {"kind": "explicit", "stages": [[CELL], [{"dim": 2, "scale": 1, "corner": [0, 1]}]]},
        "depth": 1, "budget": 2, "modulus_pairs": 2,
    }),
    ("tent-system", {
        "test": {"kind": "concentric", "point": ["1/3", "1/3"], "scale_step": 1},
        "depth": 1, "budget": 2, "modulus_pairs": 2,
    }),
    ("tent-system", {"test": {"kind": "constant-unit", "dimension": 2}, "depth": 1, "budget": 1, "modulus_pairs": 2}),
    ("dore-maleva", {
        "params": {"kind": "explicit", "N": [3, 5], "p": ["1/1", "2/1"]},
        "stages": 2,
        "geometry_stages": 1,
    }),
]
DESCRIPTOR_KEYS = {"function", "martingale", "source", "test", "params"}
DESCRIPTOR_FIELDS = [
    (command, payload, (key, *path))
    for command, payload in DESCRIPTOR_BASES
    for key in payload
    if key in DESCRIPTOR_KEYS
    for path in paths(payload[key])
    if path
]


@pytest.mark.parametrize("command, payload", DESCRIPTOR_BASES)
def test_descriptor_bases_pass(tmp_path_factory, command, payload):
    assert run(tmp_path_factory, [command, "--config"], payload) == 0


@given(st.sampled_from(DESCRIPTOR_FIELDS), JSON_VALUES | st.just(DELETE))
@settings(max_examples=500, deadline=None)  # about five edits per field
def test_fuzzed_descriptor_subfields_end_in_an_exit_code(tmp_path_factory, field, value):
    command, payload, path = field
    run(tmp_path_factory, [command, "--config"], edited(payload, path, value))


# ---------------------------------------------------------------------------
# Bundles


BASE = json.loads(
    canonical_json(render_bundle(build_tent_system(concentric_test(["1/3", "1/3"], 2), 3, 0, 4)))
)


FIELDS = [path for path in paths(BASE) if path]
LAST_STAGE = ("stages", len(BASE["stages"]) - 1)
REPLACEMENTS = st.one_of(
    st.integers(-2, 8), LITERALS, st.booleans(), st.just([]), st.just({}), st.just(DELETE)
)


def rebuild_matches(bundle):
    """The oracle: the bundle's own fields rebuild it byte for byte."""
    cutoff, budget, stages = bundle.get("cutoff"), bundle.get("budget"), bundle.get("stages")
    if type(cutoff) is not int or type(budget) is not int or cutoff < 0:
        return False
    if not isinstance(stages, list) or not stages:  # a long string is no depth to build to
        return False
    try:
        test = nested_test_from_descriptor(bundle["test"])
        system = build_tent_system(test, len(stages) - 1, cutoff, budget)
    except Exception:  # any refusal means the bundle does not rebuild
        return False
    return canonical_json(render_bundle(system)) == canonical_json(bundle)


@given(st.sampled_from(FIELDS), REPLACEMENTS)
@example(LAST_STAGE, DELETE)
@settings(max_examples=60, deadline=None)
def test_fuzzed_bundle_edits_verify_only_when_they_rebuild(tmp_path_factory, path, replacement):
    bundle = edited(BASE, path, replacement)
    code = run(tmp_path_factory, ["tent-system", "--check-bundle"], bundle)
    assert code == (0 if rebuild_matches(bundle) else 1)
    if canonical_json(bundle) == canonical_json(BASE) or (path == LAST_STAGE and replacement is DELETE):
        # dropping the last stage leaves the shallower build, which verifies
        assert code == 0
    elif path[0] == "stages" and len(path) >= 2:
        # the stages are a function of the untouched descriptor and budget
        assert code == 1
