"""canonical_json writes the bytes of the plain-data rule it replaced.

The oracle is that rule: render the payload as plain data by applying the
one-level `to_plain` at every depth, then let json.dumps write it with sorted
keys and an indent of 2.  It lives here only, as the oracle of the one walk.
"""

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopelab.bits import bits_of_fraction
from slopelab.cubes import DyadicCube
from slopelab.derivatives import ProbeVerdict
from slopelab.functions import cube_1d, square_1d
from slopelab.martingales import BetRun, run_bet, slope_martingale
from slopelab.nullsets import concentric_test, explicit_test
from slopelab.rationals import format_rational
from slopelab.serialize import bundle, canonical_json, to_plain
from slopelab.tentsystem import Block, ExclusionReport, OscillationReport, StageData, build_tent_system

F = Fraction


def plain(value):
    """The payload as JSON data: to_plain at every depth, Fraction keys as "p/q", other keys by str().

    JSON atoms come back from to_plain as they are.
    """
    value = to_plain(value)
    if isinstance(value, dict):
        return {format_rational(k) if isinstance(k, Fraction) else str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def oracle(payload) -> str:
    return json.dumps(plain(payload), sort_keys=True, indent=2) + "\n"


class Pair(NamedTuple):
    left: Any
    right: Any


texts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", '\\"', "\x00", "\n\t\x1f", "\x7f", "é", " ", "\ud800", "𝔽", "1/2"]),
)
fractions = st.fractions(max_denominator=10**6) | st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
integers = st.integers(-(2**70), 2**70) | st.integers(-(10**60), 10**60)
floats = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
leaves = st.one_of(texts, integers, floats, st.booleans(), st.none(), fractions)
keys = st.one_of(texts, integers, st.booleans(), fractions)
# Keys that render alike, in either order of insertion: the later value wins.
COLLIDING = [(F(1, 2), "1/2"), ("1/2", F(1, 2)), (2, "2"), ("False", False), (None, "None")]
cubes = st.integers(1, 3).flatmap(
    lambda n: st.integers(0, 6).flatmap(
        lambda s: st.builds(DyadicCube, st.just(n), st.just(s), st.tuples(*[st.integers(0, (1 << s) - 1)] * n))
    )
)
pairs = st.tuples(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
blocks = cubes.flatmap(
    lambda cube: st.builds(
        Block, st.integers(1, 2**70), st.just(cube), st.integers(cube.scale, cube.scale + 4), st.integers(0, 9)
    )
)


def objects(children):
    return st.one_of(
        cubes,
        st.builds(ProbeVerdict, texts, texts, st.integers(0, 30), st.none() | st.dictionaries(keys, children), children),
        st.builds(
            BetRun,
            st.lists(pairs, max_size=4).map(tuple),
            fractions,
            fractions,
            st.dictionaries(fractions, st.none() | st.integers(0, 99), max_size=3),
        ),
        st.builds(ExclusionReport, *[st.integers(0, 9)] * 2, fractions, fractions, st.integers(0, 9), fractions, fractions),
        st.builds(
            OscillationReport,
            st.integers(0, 9),
            st.integers(0, 2**40) | st.just(7**6000),
            fractions,
            fractions,
            st.dictionaries(st.sampled_from([-1, 1]), fractions),
            st.dictionaries(st.integers(0, 4), st.lists(st.tuples(st.integers(0, 4), fractions), max_size=2).map(tuple)),
            fractions,
            *[st.booleans()] * 4,
            fractions,
        ),
        blocks,
        st.builds(StageData, st.lists(blocks, max_size=2), st.lists(cubes, max_size=2), st.booleans()),
    )


payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.builds(
            lambda pair, first, second, rest: {**rest, pair[0]: first, pair[1]: second},
            st.sampled_from(COLLIDING),
            children,
            children,
            st.dictionaries(keys, children, max_size=3),
        ),
        st.builds(Pair, children, children),
        objects(children),
    ),
    max_leaves=30,
)


@given(payloads)
@settings(max_examples=300, deadline=None)
def test_canonical_json_matches_the_plain_data_rule(payload):
    assert canonical_json(payload) == oracle(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {F(1, 2): "fraction", "1/2": "string"},
        {"1/2": "string", F(1, 2): "fraction"},
        {"a": [], "b": {}, "c": [[], {}], "d": ()},
        {"run": BetRun(((1, 3), (-2, 1)), F(1, 3), F(-2), {F(1, 2): None, F(3): 1})},
        BetRun((), F(0), F(0), {}),
        BetRun(((-5, 3), (-1, 7), (0, 1), (-(10**60), 9), (4, 1 << 80)), F(4, 1 << 80), F(-5, 3), {F(-1): 0}),
        {"run": run_bet(slope_martingale(cube_1d()), bits_of_fraction(F(1, 3)), 1536, [F(1, 2)])},
        [DyadicCube(2, 1, (1, 0)), Pair(F(-1, 3), -0.0)],
        {True: 1, None: 2, 3: F(7, 5)},
        bundle(build_tent_system(concentric_test(["1/3", "1/3"], 2), 3, 0, 4)),
        bundle(build_tent_system(explicit_test([[DyadicCube(1, 0, (0,))], [DyadicCube(1, 2, (1,))]]), 2, 1, 2)),
    ],
)
def test_canonical_json_matches_the_plain_data_rule_on_fixed_payloads(payload):
    assert canonical_json(payload) == oracle(payload)


@pytest.mark.parametrize(
    "payload, error",
    [({"a": {1, 2}}, TypeError), ([object()], TypeError), ({"big": 10**5000}, ValueError)],
)
def test_canonical_json_refuses_what_json_refuses(payload, error):
    with pytest.raises(error) as expected:
        oracle(payload)
    with pytest.raises(error) as raised:
        canonical_json(payload)
    assert str(raised.value) == str(expected.value)


def escaper_calls(payload) -> int:
    """How many times json's C string escaper runs while canonical_json renders payload."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "c_call" and arg is encode_basestring_ascii

    sys.setprofile(profile)
    try:
        canonical_json(payload)
    finally:
        sys.setprofile(None)
    return calls


def test_a_bet_trajectory_is_written_without_escaping_each_capital():
    m = slope_martingale(square_1d())
    short, long = (run_bet(m, bits_of_fraction(F(1, 3)), depth) for depth in (16, 1500))
    counts = [escaper_calls({"command": "bet", **to_plain(run)}) for run in (short, long)]
    assert counts[0] > 0  # the keys are escaped, so the count sees the escaper
    assert counts[0] == counts[1]
