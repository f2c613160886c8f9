import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from slopelab.cli import main
from slopelab.rationals import POW2_MATERIALIZE_CAP, common_denominator
from slopelab.serialize import (
    canonical_json,
    function_from_descriptor,
    martingale_from_descriptor,
    source_from_descriptor,
    nested_test_from_descriptor,
)

F = Fraction


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Descriptors


def test_function_descriptor_round_trips():
    desc = {
        "kind": "sum",
        "of": [
            {"kind": "linear", "coeffs": ["2/1", "3/1"]},
            {"kind": "scale", "by": "1/2", "of": {"kind": "product"}},
        ],
    }
    f = function_from_descriptor(desc)
    assert f.eval(*common_denominator((F(1, 2), F(1, 2)))) == F(5, 2) + F(1, 8)
    with pytest.raises(ValueError):
        function_from_descriptor({"kind": "nope"})


def test_affine_descriptor_requires_isometry():
    desc = {
        "kind": "affine-compose",
        "matrix": [["3/5", "4/5"], ["4/5", "-3/5"]],
        "offset": ["0/1", "0/1"],
        "of": {"kind": "linear", "coeffs": ["2/1", "3/1"]},
    }
    g = function_from_descriptor(desc)
    assert g.eval(*common_denominator((F(1, 4), F(0)))) == F(1, 4) * F(18, 5)
    # a stretch breaks any modulus derived from the inner one: composed with
    # abs-diff, h(i + 1) = i + 2 allows 1/16 at i = 4 for points 1/64 apart,
    # but (0, 0) and (1/64, 0) would differ by 1/4
    stretch = [["16/1", "0/1"], ["0/1", "1/1"]]
    shear = [["1/1", "1/1"], ["0/1", "1/1"]]
    nearly_orthogonal = [["193/320", "4/5"], ["4/5", "-3/5"]]  # 3/5 + 1/64 in the corner
    for matrix in (stretch, shear, nearly_orthogonal):
        with pytest.raises(ValueError, match="not exactly orthogonal"):
            function_from_descriptor({**desc, "matrix": matrix, "of": {"kind": "abs-diff"}})


def test_probe_command_rejects_a_matrix_that_is_not_an_isometry(tmp_path, capsys):
    function = {
        "kind": "affine-compose",
        "matrix": [["16/1", "0/1"], ["0/1", "1/1"]],
        "of": {"kind": "product"},
    }
    config = write_config(
        tmp_path, "stretch.json", {"function": function, "points": [["1/3", "1/3"]], "depth": 4}
    )
    assert main(["probe", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: matrix is not exactly orthogonal")
    assert captured.err.count("\n") == 1


def test_source_and_martingale_descriptors():
    src = source_from_descriptor({"kind": "interleave", "of": [
        {"kind": "pattern", "bits": "1", "repeat": True},
        {"kind": "constant", "bit": 0},
    ]})
    assert src.prefix(6) == (1, 0, 1, 0, 1, 0)
    mart = martingale_from_descriptor({"kind": "slope", "function": {"kind": "square"}})
    assert mart.at((1,)) == F(3, 2)
    with pytest.raises(ValueError):
        source_from_descriptor({"kind": "rational", "value": "1/2"})


def test_canonical_json_renders_fractions():
    text = canonical_json({"value": F(2, 6), "nested": [F(1, 2)]})
    data = json.loads(text)
    assert data == {"value": "1/3", "nested": ["1/2"]}


# ---------------------------------------------------------------------------
# Commands


def test_probe_command_reports_and_is_deterministic(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "probe.json",
        {
            "function": {"kind": "abs", "center": "1/2"},
            "points": [["1/2"]],
            "depth": 5,
            "separation_threshold": "1/2",
            "oscillation_threshold": "2/1",
        },
    )
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["probe", "--config", config, "--out", str(out1)]) == 0
    assert main(["probe", "--config", config, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    point = report["results"][0]
    assert point["class_a"]["status"] == "violated"
    assert point["class_a"]["witness"]["upper"]["slope"] == "1/1"
    assert point["class_b"]["status"] == "violated"


def test_probe_command_linear_all_consistent(tmp_path):
    config = write_config(
        tmp_path,
        "probe.json",
        {
            "function": {"kind": "linear", "coeffs": ["2/1", "3/1"]},
            "points": [["1/2", "1/2"], ["1/3", "2/3"]],
            "depth": 4,
            "defect": {"u": ["1/1", "0/1"], "v": ["0/1", "1/1"], "max_step": "1/8"},
        },
    )
    out = tmp_path / "r.json"
    assert main(["probe", "--config", config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for entry in report["results"]:
        assert entry["class_a"]["status"] == "consistent-to-depth"
        assert entry["class_b"]["status"] == "consistent-to-depth"
        assert entry["defect"]["bracket"] == ["0/1", "0/1"]


def test_probe_command_usage_errors(tmp_path, capsys):
    missing = write_config(tmp_path, "bad.json", {"points": [["1/2"]]})
    assert main(["probe", "--config", missing]) == 2
    assert main(["probe", "--config", str(tmp_path / "absent.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["probe"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "change, line",
    [
        ({"points": [["1/3"]]}, "point ['1/3'] must have 2 coordinates, each in [0, 1]"),
        ({"points": [["1/3", "2/5"], ["1/3", "3/2"]]}, "point ['1/3', '3/2'] must have 2 coordinates, each in [0, 1]"),
        ({"points": [["-1/3", "1/3"]]}, "point ['-1/3', '1/3'] must have 2 coordinates, each in [0, 1]"),
        ({"defect": {"u": ["1"], "v": ["0", "1"]}}, "defect u ['1'] must have 2 coordinates"),
        ({"defect": {"u": ["1", "0"], "v": ["0", "1", "0"]}}, "defect v ['0', '1', '0'] must have 2 coordinates"),
    ],
    ids=["short-point", "point-outside-the-cube", "negative-point", "short-u", "long-v"],
)
def test_probe_command_refuses_a_point_or_direction_it_cannot_probe(tmp_path, capsys, change, line):
    config = write_config(
        tmp_path, "probe.json", {"function": {"kind": "product"}, "points": [["1/3", "2/5"]], **change}
    )
    assert main(["probe", "--config", config]) == 2
    assert capsys.readouterr() == ("", f"config error: {line}\n")


def test_probe_command_reports_an_evaluator_error_inside_the_cube(tmp_path, capsys):
    # z -> 1/2 - z maps 1/3 + 1/4 to -1/12, where the interpolant is undefined:
    # the step stays in the cube, so the error is the evaluator's, not the step's
    function = {
        "kind": "affine-compose",
        "matrix": [["-1"]],
        "offset": ["1/2"],
        "of": {"kind": "pwlinear", "points": [["0", "0"], ["1", "1"]]},
    }
    config = write_config(tmp_path, "probe.json", {"function": function, "points": [["1/3"]], "depth": 0})
    assert main(["probe", "--config", config]) == 2
    assert capsys.readouterr() == ("", "error: -1/12 outside [0, 1]\n")


def test_bet_command_csv_and_json(tmp_path):
    config = write_config(
        tmp_path,
        "bet.json",
        {
            "martingale": {"kind": "slope", "function": {"kind": "square"}},
            "source": {"kind": "rational", "value": "1/3"},
            "depth": 16,
        },
    )
    out_csv = tmp_path / "run.csv"
    assert main(["bet", "--config", config, "--out", str(out_csv), "--format", "csv"]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "length,capital"
    assert len(lines) == 18
    assert lines[1] == "0,1/1"
    # oracle: slope of x^2 over the 16-bit interval around 1/3 is a + b
    from slopelab.bits import bits_of_fraction, fraction_from_bits

    a = fraction_from_bits(bits_of_fraction(F(1, 3)).prefix(16))
    assert lines[17] == f"16,{(2 * a + F(1, 65536)).numerator}/65536"
    out_json = tmp_path / "run.json"
    assert main(["bet", "--config", config, "--out", str(out_json)]) == 0
    report = json.loads(out_json.read_text())
    assert len(report["trajectory"]) == 17


def test_bet_command_flat_for_constant(tmp_path):
    config = write_config(
        tmp_path,
        "bet.json",
        {
            "martingale": {"kind": "constant", "value": "1/1"},
            "source": {"kind": "pattern", "bits": "01"},
            "depth": 6,
        },
    )
    out = tmp_path / "flat.csv"
    assert main(["bet", "--config", config, "--out", str(out), "--format", "csv"]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.endswith(",1/1") for row in rows)


def test_bet_command_aborts_on_corrupt_table(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "bet.json",
        {
            "martingale": {
                "kind": "table",
                "values": {"": "1/1", "0": "1/3", "1": "1/1"},
            },
            "source": {"kind": "pattern", "bits": "0"},
            "depth": 4,
        },
    )
    assert main(["bet", "--config", config]) == 1
    assert "fairness" in capsys.readouterr().err


def test_bet_command_rejects_a_slope_negative_below_the_audit_grid(tmp_path, capsys):
    # nondecreasing on the scale-6 audit grid, slope -2 on [1/128, 1/64]
    points = [["0/1", "0/1"], ["1/128", "1/32"], ["1/64", "1/64"], ["1/1", "1/1"]]
    config = write_config(
        tmp_path,
        "bet.json",
        {
            "martingale": {"kind": "slope", "function": {"kind": "pwlinear", "points": points}},
            "source": {"kind": "rational", "value": "1/3"},
            "depth": 16,
        },
    )
    assert main(["bet", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "martingale rejected: slope: negative capital -2 at (0, 0, 0, 0, 0, 0, 1)\n"
    )


def test_bet_command_rejects_a_slope_function_that_decreases_on_the_audit_grid(tmp_path, capsys):
    # f(1/32) < f(1/64): the fairness audit to depth 4 and the path of 1/3
    # never reach the scale-6 grid where the decrease shows
    points = [["0/1", "0/1"], ["1/64", "1/16"], ["1/32", "1/32"], ["1/1", "1/1"]]
    config = write_config(
        tmp_path,
        "bet.json",
        {
            "martingale": {"kind": "slope", "function": {"kind": "pwlinear", "points": points}},
            "source": {"kind": "rational", "value": "1/3"},
            "audit_depth": 4,
        },
    )
    assert main(["bet", "--config", config]) == 1
    assert capsys.readouterr() == ("", "martingale rejected: f(1/32) < f(1/64) on the audit grid\n")


@pytest.mark.parametrize("key", ["1 ", "x", "012", "0a"])
def test_bet_command_rejects_table_keys_that_are_not_binary_strings(tmp_path, capsys, key):
    config = write_config(
        tmp_path,
        "bet.json",
        {
            "martingale": {
                "kind": "table",
                "values": {"": "1/1", "0": "1/1", "1": "1/1", key: "7/1"},
            },
            "source": {"kind": "pattern", "bits": "1"},
            "depth": 4,
        },
    )
    assert main(["bet", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: table key {key!r} is not a 0/1 string\n"


def test_bet_command_reads_a_threshold_past_the_str_digit_limit(tmp_path, capsys):
    huge = "1" + "0" * 5000  # past str()'s 4300 digits
    config = write_config(
        tmp_path,
        "bet.json",
        {
            "martingale": {"kind": "constant", "value": "1/1"},
            "source": {"kind": "constant", "bit": 0},
            "depth": 4,
            "thresholds": [huge, "1/1"],
        },
    )
    assert main(["bet", "--config", config]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["threshold_crossings"] == {f"{huge}/1": None, "1/1": 0}


def bet_config(thresholds=(), values=None):
    table = {"": "1/1", "0": "1/1", "1": "1/1", **(values or {})}
    return {
        "martingale": {"kind": "table", "values": table},
        "source": {"kind": "constant", "bit": 0},
        "depth": 4,
        "thresholds": list(thresholds),
    }


def test_bet_command_refuses_a_negative_audit_depth_as_read(tmp_path, capsys):
    config = write_config(tmp_path, "bet.json", {**bet_config(), "audit_depth": -1})
    assert main(["bet", "--config", config]) == 2
    assert capsys.readouterr() == ("", "config error: config key 'audit_depth' must be >= 0, not -1\n")


@pytest.mark.parametrize("depth", [-1, 0])
def test_bet_command_refuses_a_non_positive_depth_as_read(tmp_path, capsys, depth):
    config = write_config(tmp_path, "bet.json", {**bet_config(), "depth": depth})
    assert main(["bet", "--config", config]) == 2
    assert capsys.readouterr() == ("", f"config error: config key 'depth' must be >= 1, not {depth}\n")


@pytest.mark.parametrize("audit_depth", [0, 1, 3])
def test_bet_command_refuses_a_table_without_the_empty_string(tmp_path, capsys, audit_depth):
    # at audit depth 0 run_bet reads the empty string; deeper, the fairness audit's first level does
    payload = {**bet_config(), "audit_depth": audit_depth}
    payload["martingale"]["values"].pop("")
    config = write_config(tmp_path, "bet.json", payload)
    assert main(["bet", "--config", config]) == 2
    assert capsys.readouterr() == ("", "error: table lacks the empty string\n")


@pytest.mark.parametrize("function", [{"kind": "product"}, {"kind": "linear", "coeffs": ["1/1", "1/1"]}])
def test_bet_command_refuses_a_slope_function_of_two_variables(tmp_path, capsys, function):
    payload = {**bet_config(), "martingale": {"kind": "slope", "function": function}}
    config = write_config(tmp_path, "bet.json", payload)
    assert main(["bet", "--config", config]) == 2
    assert capsys.readouterr() == ("", "error: slope martingales read one-variable functions\n")


ZERO_DENOMINATOR = "error: rational literal '1/0' has a zero denominator\n"
NOT_A_LITERAL = 'error: 0.5 is not a rational literal; write it as a "p/q" string\n'


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("bet", bet_config(thresholds=["1/0"]), ZERO_DENOMINATOR),
        ("bet", bet_config(values={"1": "1/0"}), ZERO_DENOMINATOR),
        ("probe", {"function": {"kind": "abs", "center": "1/0"}, "points": [["1/3"]]}, ZERO_DENOMINATOR),
        ("bet", bet_config(thresholds=[0.5]), NOT_A_LITERAL),
        ("bet", bet_config(values={"1": 0.5}), NOT_A_LITERAL),
        ("probe", {"function": {"kind": "abs", "center": "1/2"}, "points": [[0.5]]}, NOT_A_LITERAL),
    ],
    ids=["zero-threshold", "zero-table-value", "zero-center", "float-threshold", "float-table-value", "float-point"],
)
def test_bad_rational_literals_are_config_errors(tmp_path, capsys, command, payload, message):
    config = write_config(tmp_path, "config.json", payload)
    assert main([command, "--config", config]) == 2
    assert capsys.readouterr() == ("", message)


NON_FINITE = [("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "-Infinity"), ("1e999", "Infinity"), ("-1e999", "-Infinity")]


def with_number(text: str, literal: str) -> str:
    """The JSON object text with a key holding literal, nested a list and an object deep."""
    return '{"note": [0.5, {"deep": ' + literal + "}], " + text.lstrip()[1:]


@pytest.mark.parametrize("literal, name", NON_FINITE)
@pytest.mark.parametrize(
    "command, config", [("probe", "probe-kink"), ("bet", "bet-square"), ("tent-system", "tent-toy"), ("dore-maleva", "dore-maleva-default")]
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, config, literal, name):
    path = tmp_path / "config.json"
    path.write_text(with_number((CONFIGS / f"{config}.json").read_text(encoding="utf-8"), literal), encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config error: config {path} holds a non-finite number {name!r}\n")


@pytest.mark.parametrize("literal, name", NON_FINITE)
def test_check_bundle_refuses_non_finite_numbers(tmp_path, capsys, literal, name):
    config = write_config(tmp_path, "tent.json", {"test": {"kind": "concentric", "point": ["1/3", "1/3"]}, "depth": 2})
    bundle = tmp_path / "bundle.json"
    assert main(["tent-system", "--config", config, "--bundle", str(bundle), "--out", str(tmp_path / "report.json")]) == 0
    bundle.write_text(with_number(bundle.read_text(encoding="utf-8"), literal), encoding="utf-8")
    assert main(["tent-system", "--check-bundle", str(bundle)]) == 2
    assert capsys.readouterr() == ("", f"config error: config {bundle} holds a non-finite number {name!r}\n")


def test_check_bundle_reports_a_bundle_it_cannot_read_as_a_config_error(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    bundle.write_text("[]", encoding="utf-8")
    assert main(["tent-system", "--check-bundle", str(bundle)]) == 2
    assert capsys.readouterr() == ("", f"config error: config {bundle} must be a JSON object, not list\n")


def test_check_bundle_reports_a_missing_bundle_as_a_config_error(tmp_path, capsys):
    bundle = tmp_path / "missing.json"
    assert main(["tent-system", "--check-bundle", str(bundle)]) == 2
    message = f"config error: cannot read config {bundle}: [Errno 2] No such file or directory: {str(bundle)!r}\n"
    assert capsys.readouterr() == ("", message)


def test_finite_floats_in_a_config_are_echoed(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(with_number((CONFIGS / "probe-kink.json").read_text(encoding="utf-8"), "-0.0"), encoding="utf-8")
    assert main(["probe", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["note"] == [0.5, {"deep": -0.0}]


def test_tent_system_command(tmp_path):
    config = write_config(
        tmp_path,
        "tent.json",
        {
            "test": {"kind": "concentric", "point": ["1/3", "1/3"], "scale_step": 2},
            "depth": 4,
            "cutoff": 0,
            "budget": 4,
            "points": [["1/3", "1/3"]],
            "oscillation_stages": [3, 4],
            "precisions": [2, 3, 4],
            "modulus_pairs": 20,
        },
    )
    out = tmp_path / "tent.json.out"
    bundle = tmp_path / "bundle.json"
    code = main(
        ["tent-system", "--config", config, "--out", str(out), "--seed", "3", "--bundle", str(bundle)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["failures"] == []
    assert all(rec["passed"] for rec in report["oscillation"])
    saved = json.loads(bundle.read_text())
    assert saved["format"] == "tent-system/1"


def test_tent_system_refuses_a_negative_modulus_pair_count(tmp_path, capsys):
    payload = json.loads((CONFIGS / "tent-toy.json").read_text())
    config = write_config(tmp_path, "tent.json", {**payload, "modulus_pairs": -3})
    out, bundle = tmp_path / "report.json", tmp_path / "bundle.json"
    assert main(["tent-system", "--config", config, "--out", str(out), "--bundle", str(bundle)]) == 2
    assert capsys.readouterr() == ("", "config error: config key 'modulus_pairs' must be >= 0, not -3\n")
    assert not out.exists() and not bundle.exists()


def test_tent_system_refuses_a_negative_modulus_pair_count_at_depth_0(tmp_path, capsys):
    payload = json.loads((CONFIGS / "tent-toy.json").read_text())
    for key in ("oscillation_stages", "precisions"):
        payload.pop(key, None)
    config = write_config(tmp_path, "tent.json", {**payload, "depth": 0, "modulus_pairs": -3})
    out = tmp_path / "report.json"
    assert main(["tent-system", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "config error: config key 'modulus_pairs' must be >= 0, not -3\n")
    assert not out.exists()


def test_tent_system_oscillation_stages_default_to_the_summed_stages(tmp_path, capsys):
    # with cutoff 2 the sum runs over stages 3..5, and only those are checked
    payload = json.loads((CONFIGS / "tent-toy.json").read_text())
    del payload["oscillation_stages"]
    config = write_config(tmp_path, "tent.json", {**payload, "cutoff": 2})
    out = tmp_path / "report.json"
    assert main(["tent-system", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    report = json.loads(out.read_text())
    assert report["failures"] == []
    assert [check["stage"] for check in report["oscillation"]] == [3, 4, 5]


@pytest.mark.parametrize(
    "cutoff, stages, summed",
    [(0, [9], "1..5"), (0, [0, 3], "1..5"), (2, [2, 3], "3..5"), (5, [5], "6..5")],
    ids=["past-depth", "stage-0", "at-cutoff", "vacuous"],
)
def test_tent_system_refuses_oscillation_stages_outside_the_sum(tmp_path, capsys, cutoff, stages, summed):
    payload = json.loads((CONFIGS / "tent-toy.json").read_text())
    config = write_config(tmp_path, "tent.json", {**payload, "cutoff": cutoff, "oscillation_stages": stages})
    out, bundle = tmp_path / "report.json", tmp_path / "bundle.json"
    assert main(["tent-system", "--config", config, "--out", str(out), "--bundle", str(bundle)]) == 2
    assert capsys.readouterr() == (
        "",
        f"config error: config key 'oscillation_stages' must list stages in {summed}, not {stages}\n",
    )
    assert not out.exists() and not bundle.exists()


def test_tent_system_command_rejects_broken_nesting(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "tent.json",
        {
            "test": {
                "kind": "explicit",
                "stages": [
                    [{"dim": 2, "scale": 2, "corner": [1, 1]}],
                    [{"dim": 2, "scale": 1, "corner": [0, 0]}],
                ],
            },
            "depth": 1,
            "budget": 4,
        },
    )
    assert main(["tent-system", "--config", config]) == 1
    assert "nesting audit failed" in capsys.readouterr().err


@pytest.mark.parametrize("placement", ["stage 0", "stage 1"])
def test_tent_system_refuses_a_test_that_mixes_dimensions(tmp_path, capsys, placement):
    # one reason wherever the one-dimensional cube sits: the test is refused as read
    line = {"dim": 1, "scale": 1, "corner": [0]}
    square = {"dim": 2, "scale": 1, "corner": [0, 0]}
    stages = [[square, line], [square]] if placement == "stage 0" else [[square], [line]]
    config = write_config(
        tmp_path, "tent.json", {"test": {"kind": "explicit", "stages": stages}, "depth": 1, "budget": 4}
    )
    out = tmp_path / "r.json"
    assert main(["tent-system", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: an explicit test mixes cube dimensions [1, 2]\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "point", [["1/3"], ["-1/3", "1/3"], ["1/3", "1/3", "1/3"]], ids=["short", "negative", "long"]
)
def test_tent_system_refuses_a_point_off_the_unit_cube_of_its_dimension(tmp_path, capsys, point):
    # refused as a config error once the build gives the dimension, not as a
    # failed oscillation check
    payload = json.loads((CONFIGS / "tent-toy.json").read_text())
    config = write_config(tmp_path, "tent.json", {**payload, "points": [["1/3", "1/3"], point]})
    out, bundle = tmp_path / "report.json", tmp_path / "bundle.json"
    assert main(["tent-system", "--config", config, "--out", str(out), "--bundle", str(bundle)]) == 2
    assert capsys.readouterr() == ("", f"config error: point {point!r} must have 2 coordinates, each in [0, 1]\n")
    assert not out.exists() and not bundle.exists()


def test_dore_maleva_command(tmp_path):
    config = write_config(tmp_path, "dm.json", {"stages": 3})
    out = tmp_path / "dm.out.json"
    assert main(["dore-maleva", "--config", config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [row["remaining"] for row in report["table"]] == ["5/9", "25/81", "125/729"]
    assert report["table"][0]["p_raw"] == "4/1"
    assert report["failures"] == []
    # byte-identical on re-run
    out2 = tmp_path / "dm2.out.json"
    assert main(["dore-maleva", "--config", config, "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "command, payload, report_sha256, line",
    [
        pytest.param(
            "dore-maleva",
            {"params": {"kind": "explicit", "N": [3, 3], "p": ["3", "1"]}, "stages": 2},
            "dc62c7bb5edf244e82217852e84fecfdea7768e3fda6715a213637a3e288260d",
            "failures in the report: 1; the first: remaining measure fails to decrease at stage 2\n",
            id="dore-maleva",
        ),
        pytest.param(
            "tent-system",
            {
                "test": {"kind": "concentric", "point": ["1/3", "1/3"], "scale_step": 2},
                "depth": 3,
                "points": [["1/5", "4/5"]],
            },
            "bb0c22f03ea1df02c75a355bdfd9859c8d278ed8ff32cd725058e24624d9b5fb",
            "failures in the report: 3; the first: oscillation check unusable at stage 1: "
            "point is not inside any visible stage-1 cell\n",
            id="tent-system",
        ),
    ],
)
def test_a_report_with_failures_exits_1_with_one_line_after_writing(
    tmp_path, capsys, command, payload, report_sha256, line
):
    # the report and the bundle are written first; the line names the first failure and the count
    config = write_config(tmp_path, "config.json", payload)
    bundle = ["--bundle", str(tmp_path / "bundle.json")] if command == "tent-system" else []
    assert main([command, "--config", config, *bundle]) == 1
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha256
    assert err == line
    assert f"report: {len(json.loads(out)['failures'])};" in err
    assert all(Path(path).exists() for path in bundle[1:])


def test_dore_maleva_zero_stages(tmp_path):
    config = write_config(tmp_path, "dm.json", {"stages": 0, "geometry": False})
    out = tmp_path / "dm.out.json"
    assert main(["dore-maleva", "--config", config, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["table"] == []


def test_dore_maleva_geometry_past_the_rectangle_cap_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, "dm.json", {"stages": 6, "params": {"kind": "default"}, "geometry_stages": 6})
    out = tmp_path / "dm.out.json"
    assert main(["dore-maleva", "--config", config, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr() == (
        "",
        "config error: config key 'geometry_stages' is 6, but stage 6 would exceed the rectangle cap 200000\n",
    )
    # the table alone has no cap
    table = write_config(tmp_path, "table.json", {"stages": 6, "geometry": False})
    assert main(["dore-maleva", "--config", table, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["geometry"] is None


@pytest.mark.parametrize("stages", [2, 3])
def test_dore_maleva_explicit_params_shorter_than_stages_exit_2(tmp_path, capsys, stages):
    params = {"kind": "explicit", "N": [3], "p": ["1"]}
    config = write_config(tmp_path, "dm.json", {"params": params, "stages": stages, "geometry": False})
    out = tmp_path / "dm.out.json"
    assert main(["dore-maleva", "--config", config, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: explicit params stop at stage 1\n"
    exact = write_config(tmp_path, "exact.json", {"params": params, "stages": 1, "geometry": False})
    assert main(["dore-maleva", "--config", exact, "--out", str(out)]) == 0


def test_dore_maleva_negative_stages_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, "dm.json", {"stages": -1})
    out = tmp_path / "dm.out.json"
    assert main(["dore-maleva", "--config", config, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr() == ("", "config error: config key 'stages' must be >= 0, not -1\n")


@pytest.mark.parametrize("geometry", [True, False])
def test_dore_maleva_negative_geometry_stages_exit_2(tmp_path, capsys, geometry):
    config = write_config(tmp_path, "dm.json", {"stages": 3, "geometry_stages": -2, "geometry": geometry})
    out = tmp_path / "dm.out.json"
    assert main(["dore-maleva", "--config", config, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr() == ("", "config error: config key 'geometry_stages' must be >= 0, not -2\n")
    zero = write_config(tmp_path, "zero.json", {"stages": 3, "geometry_stages": 0})
    assert main(["dore-maleva", "--config", zero, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["geometry"] == []


@pytest.mark.parametrize(
    "stages, geometry_stages", [(0, None), (1, None), (5, None), (5, 3)], ids=["0", "1", "5", "5-geometry-3"]
)
def test_dore_maleva_validates_each_stage_once(tmp_path, monkeypatch, stages, geometry_stages):
    # the geometry reads the stages the table has already walked
    from slopelab import nullsets, serialize

    validated = []

    class Counting(nullsets.DoreMalevaParams):
        def validate_stage(self, i):
            validated.append(i)
            super().validate_stage(i)

    params = nullsets.default_dore_maleva_params()
    counting = Counting(params.n_at, params.p_at, params.p_raw_at)
    monkeypatch.setattr(serialize, "dore_maleva_params_from_descriptor", lambda _desc: counting)
    payload = {"stages": stages, "geometry": False}
    if geometry_stages is not None:
        payload = {"stages": stages, "geometry_stages": geometry_stages}
    config = write_config(tmp_path, "dm.json", payload)
    out = tmp_path / "dm.out.json"
    assert main(["dore-maleva", "--config", config, "--out", str(out)]) == 0
    assert validated == list(range(1, stages + 1))
    report = json.loads(out.read_text())
    assert len(report["table"]) == stages
    if geometry_stages is not None:
        assert len(report["geometry"]) == 1 + 9 + 81  # the squares of stages 1 to 3


def test_tent_descriptor_loads():
    desc = {
        "kind": "tent",
        "cell": {"dim": 2, "scale": 0, "corner": [0, 0]},
        "stage": 0,
        "index": 1,
    }
    tent = function_from_descriptor(desc)
    assert tent.eval(*common_denominator((F(1, 2), F(1, 2)))) == F(1, 2)


def test_nested_test_descriptor_round_trips():
    desc = {"kind": "concentric", "point": ["1/3", "1/3"], "scale_step": 2}
    test = nested_test_from_descriptor(desc)
    assert test.descriptor == desc
    assert test.stream_at(2).take(1)[0].scale == 4


def test_tent_system_depth_zero_flagged_vacuous(tmp_path):
    config = write_config(
        tmp_path,
        "tent0.json",
        {"test": {"kind": "constant-unit", "dimension": 2}, "depth": 0, "cutoff": 0, "budget": 1},
    )
    out = tmp_path / "r.json"
    assert main(["tent-system", "--config", config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["vacuous"] is True
    assert report["failures"] == []


def test_tent_system_bundle_verification_cli(tmp_path):
    config = write_config(
        tmp_path,
        "tent.json",
        {
            "test": {"kind": "concentric", "point": ["1/3", "1/3"], "scale_step": 2},
            "depth": 3,
            "budget": 4,
        },
    )
    bundle = tmp_path / "bundle.json"
    assert main(["tent-system", "--config", config, "--bundle", str(bundle)]) == 0
    assert main(["tent-system", "--check-bundle", str(bundle)]) == 0
    data = json.loads(bundle.read_text())
    data["stages"][2]["blocks"][0]["cell_scale"] -= 9
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data), encoding="utf-8")
    assert main(["tent-system", "--check-bundle", str(tampered)]) == 1


def test_tent_system_bundle_past_the_pow2_cap_ends_cleanly(tmp_path, capsys):
    # cells of scale 20000 in dimension 2 still tile the last stage; their
    # volume 2**-40000 used to escape as an OverflowError traceback
    config = write_config(
        tmp_path,
        "tent.json",
        {
            "test": {"kind": "concentric", "point": ["1/3", "1/3"], "scale_step": 2},
            "depth": 3,
            "budget": 4,
        },
    )
    bundle = tmp_path / "bundle.json"
    assert main(["tent-system", "--config", config, "--bundle", str(bundle)]) == 0
    data = json.loads(bundle.read_text())
    data["stages"][-1]["blocks"][0]["cell_scale"] = 20000
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    # the edited cell scale is not what the embedded descriptor builds
    assert main(["tent-system", "--check-bundle", str(edited)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "bundle verification failed: bundle differs from the system its test descriptor builds\n"
    )


def toy_bundle(tmp_path, capsys):
    """The bundle of configs/tent-toy.json: concentric at (1/3, 1/3), depth 5, budget 4."""
    bundle = tmp_path / "toy-bundle.json"
    config = str(CONFIGS / "tent-toy.json")
    assert main(["tent-system", "--config", config, "--seed", "1", "--bundle", str(bundle)]) == 0
    capsys.readouterr()
    return json.loads(bundle.read_text())


def check_bundle(tmp_path, capsys, data):
    path = tmp_path / "checked.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["tent-system", "--check-bundle", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bundle_round_trip(tmp_path, capsys):
    data = toy_bundle(tmp_path, capsys)
    code, out, err = check_bundle(tmp_path, capsys, data)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "bundle": str(tmp_path / "checked.json"),
        "command": "tent-system",
        "verified": True,
    }
    # the cutoff is a parameter of the sum, not of the partition, and a
    # prefix of the stages is the shallower build: both name valid systems
    assert check_bundle(tmp_path, capsys, {**data, "cutoff": 3})[0] == 0
    assert check_bundle(tmp_path, capsys, {**data, "stages": data["stages"][:3]})[0] == 0


def edit_stage_block(data):
    stages = [dict(s) for s in data["stages"]]
    blocks = [dict(b) for b in stages[2]["blocks"]]
    blocks[0]["cell_scale"] -= 9
    stages[2]["blocks"] = blocks
    return {**data, "stages": stages}


@pytest.mark.parametrize(
    "edit, reason",
    [
        (edit_stage_block, "bundle differs from the system its test descriptor builds"),
        (lambda d: {**d, "format": "other/1"}, "unrecognized bundle format"),
        (lambda d: {**d, "stages": []}, "bundle has no stages"),
        (
            lambda d: {**d, "test": {**d["test"], "point": ["1/5", "1/3"]}},
            "bundle differs from the system its test descriptor builds",
        ),
        (lambda d: {**d, "test": None}, "bundle has no test descriptor to rebuild from"),
        (lambda d: {k: v for k, v in d.items() if k != "test"}, "bundle has no test descriptor to rebuild from"),
        (lambda d: {**d, "cutoff": -1}, "cutoff must be >= 0"),
        (lambda d: {**d, "budget": 4.0}, "config key 'budget' must be an integer, not 4.0"),
        (lambda d: {**d, "budget": True}, "config key 'budget' must be an integer, not True"),
        (lambda d: {**d, "test": {**d["test"], "point": ["1/0", "1/3"]}}, "rational literal '1/0' has a zero denominator"),
    ],
    ids=[
        "cell-scale", "format", "no-stages", "test-point", "null-test", "no-test", "cutoff", "float-budget",
        "bool-budget", "zero-denominator",
    ],
)
def test_tampered_bundle_rejected(tmp_path, capsys, edit, reason):
    code, out, err = check_bundle(tmp_path, capsys, edit(toy_bundle(tmp_path, capsys)))
    assert (code, out, err) == (1, "", f"bundle verification failed: {reason}\n")


def test_overflow_in_a_command_exits_2(monkeypatch, capsys):
    import slopelab.cli as cli

    def overflow(_args):
        raise OverflowError("2**-40000 exceeds the materialization cap")

    monkeypatch.setattr(cli, "cmd_bet", overflow)
    assert main(["bet", "--config", "unused.json"]) == 2
    assert capsys.readouterr().err == "error: 2**-40000 exceeds the materialization cap\n"


def test_probe_past_the_materialization_cap_exits_2_at_the_first_step_past_it(tmp_path, capsys):
    # depth 20000 puts the partial probe's tail at levels 10002..20002; the
    # first step past the cap, 2**-16385, is refused before f is evaluated
    config = json.loads((CONFIGS / "probe-kink.json").read_text(encoding="utf-8"))
    path = write_config(tmp_path, "deep.json", {**config, "depth": 20000})
    assert main(["probe", "--config", path]) == 2
    assert capsys.readouterr() == ("", "error: 2**-16385 exceeds the materialization cap\n")


def test_tent_system_reports_unattainable_precision(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "tent.json",
        {
            "test": {"kind": "concentric", "point": ["1/3", "1/3"], "scale_step": 2},
            "depth": 2,
            "budget": 4,
            "points": [["1/3", "1/3"]],
            "oscillation_stages": [],
            "precisions": [6],
        },
    )
    out = tmp_path / "r.json"
    assert main(["tent-system", "--config", config, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "config error: a precision in 'precisions' needs a deeper build: stage 3 needs "
        "visible cells of side <= 2**-21; rebuild with a larger budget or depth\n"
    )


@pytest.mark.parametrize(
    "command, payload",
    [
        ("probe", 5),
        ("probe", {"function": "x", "points": [["1/2"]]}),
        ("probe", {"function": {"kind": "square"}, "points": [["1/2"]], "depth": [1]}),
        ("probe", {"function": {"kind": "square"}, "points": 5}),
        ("bet", {"martingale": {"kind": "slope", "function": "sq"}, "source": {"kind": "constant", "bit": 1}}),
        ("dore-maleva", {"params": []}),
        ("tent-system", {"test": "x"}),
        ("probe", {"function": {"kind": "linear", "coeffs": 5}, "points": [["1/3"]]}),
        ("probe", {"function": {"kind": "pwlinear", "points": [1, 2]}, "points": [["1/3"]]}),
        ("probe", {"function": {"kind": "sum", "of": 3}, "points": [["1/3"]]}),
        ("probe", {"function": {"kind": "constant", "value": "1/2", "dimension": 1.9}, "points": [["1/3"]]}),
        ("probe", {"function": {"kind": "square"}, "points": [], "defect": 5}),
        ("bet", {**bet_config(), "martingale": {"kind": "table", "values": [1]}}),
        ("bet", {**bet_config(), "source": {"kind": "pattern", "bits": [1, 0], "repeat": "false"}}),
        ("tent-system", {"test": {"kind": "explicit", "stages": 5}}),
        ("dore-maleva", {"stages": 2, "geometry_stages": "x"}),
        # Arabic-Indic one and zero, which int() reads as 1 and 0
        ("bet", {"martingale": {"kind": "constant"}, "source": {"kind": "pattern", "bits": "\u0661\u0660"}}),
    ],
    ids=[
        "top-level-int", "function-string", "depth-list", "points-int", "slope-function-string", "params-list",
        "test-string", "linear-coeffs-int", "pwlinear-points-ints", "sum-of-int", "float-dimension",
        "defect-int-without-points", "table-values-list", "repeat-string", "explicit-stages-int",
        "geometry-stages-string", "pattern-non-ascii-digits",
    ],
)
def test_malformed_config_shapes_exit_2_with_one_line(tmp_path, capsys, command, payload):
    config = write_config(tmp_path, "bad.json", payload)
    assert main([command, "--config", config]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "test, depth",
    [
        ({"kind": "concentric", "point": ["1/3", "1/3"], "scale_step": 1000000}, 1),
        ({"kind": "explicit", "stages": [[{"dim": 2, "scale": 20000, "corner": [0, 0]}]]}, 0),
    ],
    ids=["concentric-scale-step", "explicit-cube-scale"],
)
def test_cube_scales_past_the_cap_exit_2_with_one_line(tmp_path, capsys, test, depth):
    config = write_config(tmp_path, "tent.json", {"test": test, "depth": depth, "budget": 1})
    assert main(["tent-system", "--config", config]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and f"past the cap {POW2_MATERIALIZE_CAP}\n" in err


def test_tent_system_reports_are_byte_identical(tmp_path):
    config = write_config(
        tmp_path,
        "tent.json",
        {
            "test": {"kind": "concentric", "point": ["1/3", "1/3"], "scale_step": 2},
            "depth": 3,
            "budget": 4,
            "points": [["1/3", "1/3"]],
            "oscillation_stages": [3],
            "modulus_pairs": 10,
        },
    )
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["tent-system", "--config", config, "--seed", "9", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_tent_system_renders_integers_past_the_str_digit_limit(tmp_path, capsys):
    # the second stage-2 block starts past index 2**24, so the exclusion
    # slack has the denominator 2**16384: 4933 digits, past str()'s 4300
    cube = {"dim": 3, "scale": 0, "corner": [0, 0, 0]}
    stages = [[cube], [cube], [{**cube, "scale": 1}, {"dim": 3, "scale": 1, "corner": [1, 1, 1]}]]
    config = write_config(
        tmp_path,
        "clamped.json",
        {"test": {"kind": "explicit", "stages": stages}, "depth": 2, "cutoff": 0, "budget": 2},
    )
    assert main(["tent-system", "--config", config]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["failures"] == []
    entry = next(e for e in report["exclusion"] if (e["stage"], e["axis"]) == (1, 2))
    numerator, denominator = (int(Decimal(part)) for part in entry["visible_slack"].split("/"))
    assert F(numerator, denominator) == 2 * 16 * F(1, 2**16384)


def test_dore_maleva_decimal_rendering(tmp_path):
    config = write_config(tmp_path, "dm.json", {"stages": 2, "geometry": False})
    out = tmp_path / "dm.json.out"
    assert main(["dore-maleva", "--config", config, "--out", str(out), "--decimals", "4"]) == 0
    report = json.loads(out.read_text())
    assert report["table"][0]["remaining_decimal"] == "0.5556"
    assert report["table"][1]["remaining_decimal"] == "0.3086"


# ---------------------------------------------------------------------------
# The configs/ runs, pinned byte for byte


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# arguments, exit code, sha256 of stdout, sha256 of stderr
GOLDEN_RUNS = [
    pytest.param(
        ["probe", "--config", "probe-kink.json"],
        0,
        "16923abde9b1915991c9211448b078c34d21e34d1298d3054022b11eafff76e7",
        EMPTY_SHA256,
        id="probe-kink",
    ),
    pytest.param(
        ["bet", "--config", "bet-square.json"],
        0,
        "8613a174325f53988a979d78b1e836cc74246005e03e04c1e6d442a0aaaabed9",
        EMPTY_SHA256,
        id="bet-square",
    ),
    pytest.param(
        ["bet", "--config", "bet-square.json", "--format", "csv"],
        0,
        "21550df1fe026ea96bc2631bb93c02ace0b3019ba87caa31f52ae50dbdfa21c1",
        EMPTY_SHA256,
        id="bet-square-csv",
    ),
    pytest.param(
        ["bet", "--config", "bet-square.json", "--decimals", "30"],
        0,
        "2517043a381c2b53c79537d65425cf50a83384712ebd0ff0bc999922b06093e2",
        EMPTY_SHA256,
        id="bet-square-decimals",
    ),
    pytest.param(
        ["tent-system", "--config", "tent-toy.json", "--seed", "1"],
        0,
        "906ca44623df98afc7e3a3ca93653cedcab454ca18a75f297c5a91aa7cb885c4",
        EMPTY_SHA256,
        id="tent-toy",
    ),
    pytest.param(
        ["dore-maleva", "--config", "dore-maleva-default.json", "--decimals", "6"],
        0,
        "57e1041899dca82a1f581b243cf91af63fdab74165195238ef77c7710524df1f",
        EMPTY_SHA256,
        id="dore-maleva-default",
    ),
]
TENT_TOY_BUNDLE_SHA256 = "b50bf329c8624c0d4885d929fe80841d8ffd98a24330c47ac498aea2effc6499"


def sha256(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


@pytest.mark.parametrize("args, code, out_sha, err_sha", GOLDEN_RUNS)
def test_configs_reports_match_golden_digests(args, code, out_sha, err_sha, capsys):
    args = [str(CONFIGS / a) if a.endswith(".json") else a for a in args]
    assert main(args) == code
    captured = capsys.readouterr()
    assert (sha256(captured.out), sha256(captured.err)) == (out_sha, err_sha)


def test_tent_toy_bundle_matches_golden_digest(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    args = ["tent-system", "--config", str(CONFIGS / "tent-toy.json"), "--seed", "1"]
    assert main([*args, "--bundle", str(bundle)]) == 0
    capsys.readouterr()
    assert sha256(bundle.read_bytes()) == TENT_TOY_BUNDLE_SHA256


CUBE_0 = {"dim": 2, "scale": 0, "corner": [0, 0]}
CUBE_1 = [{"dim": 2, "scale": 1, "corner": [0, 0]}, {"dim": 2, "scale": 2, "corner": [3, 3]}]
CUBE_2 = [{"dim": 2, "scale": 2, "corner": [0, 1]}, {"dim": 2, "scale": 3, "corner": [6, 7]}]


@pytest.mark.parametrize(
    "config, digest",
    [
        (
            {"test": {"kind": "constant-unit", "dimension": 2}, "depth": 3, "budget": 2},
            "8ae57ba648a6bfc477438cde97772f07bd93d37f868a7460609d9a426ae5c5c6",
        ),
        (
            {"test": {"kind": "explicit", "stages": [[CUBE_0], CUBE_1, CUBE_2]}, "depth": 2, "budget": 4},
            "7b9164af5c60596ecee10e97039645cff06fe71321438a172a13c438a7e6ab4d",
        ),
    ],
    ids=["constant-unit", "explicit"],
)
def test_nested_test_bundles_match_golden_digests(tmp_path, capsys, config, digest):
    bundle = tmp_path / "bundle.json"
    path = write_config(tmp_path, "tent.json", config)
    assert main(["tent-system", "--config", path, "--bundle", str(bundle)]) == 0
    capsys.readouterr()
    assert sha256(bundle.read_bytes()) == digest
    assert main(["tent-system", "--check-bundle", str(bundle)]) == 0


REFUSED_WITH_CHECK_BUNDLE = "config error: --check-bundle verifies a bundle and takes no --seed or --bundle"


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--config", str(CONFIGS / "tent-toy.json")], "argument --config: not allowed with argument --check-bundle"),
        (["--seed", "5"], REFUSED_WITH_CHECK_BUNDLE),
        (["--bundle", "written.json"], REFUSED_WITH_CHECK_BUNDLE),
    ],
    ids=["config", "seed", "bundle"],
)
def test_check_bundle_refuses_the_build_options(tmp_path, monkeypatch, capsys, extra, message):
    monkeypatch.chdir(tmp_path)
    assert main(["tent-system", "--config", str(CONFIGS / "tent-toy.json"), "--bundle", "b.json"]) == 0
    capsys.readouterr()
    try:
        code = main(["tent-system", "--check-bundle", "b.json", *extra])
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.endswith(message + "\n")
    assert not Path("written.json").exists()


def test_tent_system_needs_a_config_or_a_bundle(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tent-system"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("one of the arguments --config --check-bundle is required\n")


@pytest.mark.parametrize(
    "args",
    [
        ["bet", "--config", "bet-square.json", "--decimals", "-1"],
        ["dore-maleva", "--config", "dore-maleva-default.json", "--decimals", "-1"],
        ["bet", "--config", "absent.json", "--decimals", "-1"],
    ],
    ids=["bet", "dore-maleva", "before-the-config-is-read"],
)
def test_negative_decimals_is_a_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(CONFIGS / a) if a.endswith(".json") else a for a in args])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith("argument --decimals: must be an integer >= 0, not '-1'")


@pytest.mark.parametrize(
    "args",
    [
        ["probe", "--config", "probe-kink.json", "--format", "csv"],
        ["bet", "--config", "bet-square.json", "--seed", "1"],
        ["dore-maleva", "--config", "dore-maleva-default.json", "--seed", "1"],
        ["probe", "--config", "probe-kink.json", "--depth", "3"],
        ["bet", "--config", "bet-square.json", "--depth", "3"],
        ["tent-system", "--config", "tent-toy.json", "--depth", "3"],
        ["dore-maleva", "--config", "dore-maleva-default.json", "--depth", "3"],
    ],
    ids=[
        "probe-format", "bet-seed", "dore-maleva-seed",
        "probe-depth", "bet-depth", "tent-system-depth", "dore-maleva-depth",
    ],
)
def test_options_a_command_does_not_read_exit_2(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(CONFIGS / a) if a.endswith(".json") else a for a in args])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"unrecognized arguments: {args[-2]} {args[-1]}\n")


def test_one_process_reuses_the_parser_and_no_option_leaks(capsys):
    # main builds its parser once per process: each report must still be the
    # bytes the same command writes in a fresh interpreter
    runs = [
        ["probe", "--config", "probe-kink.json"],
        ["bet", "--config", "bet-square.json", "--decimals", "12"],
        ["bet", "--config", "bet-square.json"],
    ]
    env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")}
    for args in runs:
        args = [str(CONFIGS / a) if a.endswith(".json") else a for a in args]
        assert main(args) == 0
        alone = subprocess.run(
            [sys.executable, "-m", "slopelab.cli", *args], capture_output=True, env=env, check=True
        )
        assert capsys.readouterr().out.encode() == alone.stdout
