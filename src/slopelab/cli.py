"""Batch experiment driver: probes, bets, tent systems, lattice measures.

Every command reads a JSON config, writes machine-readable output (exact
"p/q" rationals throughout), and exits 0 only when every assertion in the
run held.  Reports contain nothing environment-dependent, so identical
configs yield byte-identical bytes.

Exit codes: 0 pass, 1 assertion failure, 2 usage or config error; EXITS in
main maps each error to its code and its one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from itertools import islice
from pathlib import Path

from . import derivatives as dv
from . import martingales as mg
from . import nullsets as ns
from . import serialize as sz
from . import tentsystem as ts
from .rationals import decimal_string, in_unit_cube, parse_rational
from .serialize import ConfigError, integers, require, typed


class _CheckFailed(Exception):
    """A check about the mathematics failed; the message is the whole stderr line of exit 1."""


def _verdict(failures: list[str]) -> int:
    """Exit 0 for a report that lists no failure; else exit 1, naming the first failure and the count."""
    if failures:
        raise _CheckFailed(f"failures in the report: {len(failures)}; the first: {failures[0]}")
    return 0


def _load_config(path: str) -> dict:
    """The JSON object in path, refused if it holds NaN, ±Infinity or a number that overflows a float.

    Reports echo their config, and a non-finite number would make them
    text that strict JSON readers refuse.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object, not {type(config).__name__}")
    unfinished = [config]
    while unfinished:
        value = unfinished.pop()
        if isinstance(value, dict):
            unfinished.extend(value.values())
        elif isinstance(value, list):
            unfinished.extend(value)
        elif isinstance(value, float) and value - value != 0:  # nan and inf - inf are nan
            name = "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"  # json's names
            raise ConfigError(f"config {path} holds a non-finite number {name!r}")
    return config


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _check_points(raws: list, points: list, dimension: int) -> None:
    """Refuse a point unless it has dimension coordinates, each in [0, 1]."""
    for raw, point in zip(raws, points):
        if len(point) != dimension or not in_unit_cube(point):
            raise ConfigError(f"point {raw!r} must have {dimension} coordinates, each in [0, 1]")


# ---------------------------------------------------------------------------
# probe


def cmd_probe(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    f = sz.function_from_descriptor(require(config, "function"))
    points = [sz.parse_point(p) for p in typed(config, "points", list)]
    _check_points(config["points"], points, f.dimension)
    depth = typed(config, "depth", int, 6)
    oscillation = config.get("oscillation_threshold")
    separation = config.get("separation_threshold")
    osc_thr = parse_rational(oscillation) if oscillation is not None else None
    sep_thr = parse_rational(separation) if separation is not None else None
    directions = typed(config, "defect", dict, {})
    if directions:
        u, v = (sz.parse_point(require(directions, key)) for key in ("u", "v"))
        for key, direction in (("u", u), ("v", v)):
            if len(direction) != f.dimension:
                raise ConfigError(f"defect {key} {directions[key]!r} must have {f.dimension} coordinates")
        max_step = parse_rational(directions.get("max_step", "1/4"))
        defect_thr = parse_rational(directions["threshold"]) if "threshold" in directions else None
    results = []
    for point in points:
        entry: dict = {"point": point}
        entry["partials"] = [
            dv.partial_probe(f, point, axis, depth, osc_thr) for axis in range(f.dimension)
        ]
        entry["class_a"] = dv.diff_class_a(f, point, depth, sep_thr)
        entry["class_b"] = dv.diff_class_b(f, point, depth)
        if directions:
            entry["defect"] = dv.linearity_defect(
                f, point, u, v, max_step, depth=depth, threshold=defect_thr
            )
        results.append(entry)
    report = {
        "command": "probe",
        "config": config,
        "norm": "euclidean",  # distance-sensitive checks compare squared norms
        "results": results,
    }
    _write_out(sz.canonical_json(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# bet


def cmd_bet(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    martingale = sz.martingale_from_descriptor(require(config, "martingale"))
    source = sz.source_from_descriptor(require(config, "source"))
    depth = typed(config, "depth", int, 16)
    if depth < 1:
        raise ConfigError(f"config key 'depth' must be >= 1, not {depth}")
    audit_depth = typed(config, "audit_depth", int, 8)
    if audit_depth < 0:
        raise ConfigError(f"config key 'audit_depth' must be >= 0, not {audit_depth}")
    witness = mg.check_fairness(martingale, min(depth, audit_depth))
    if witness is not None:
        raise _CheckFailed(f"fairness audit failed at sigma = {''.join(map(str, witness))!r}")
    thresholds = [parse_rational(t) for t in typed(config, "thresholds", list, [])]
    run = mg.run_bet(martingale, source, depth, thresholds)
    if args.format == "csv":
        _write_out(sz.bet_csv(run), args.out)
    else:
        summary = {"command": "bet", "config": config, **sz.to_plain(run)}
        if args.decimals is not None:
            summary["max_capital_decimal"] = decimal_string(run.max_capital, args.decimals)
        _write_out(sz.canonical_json(summary), args.out)
    return 0


# ---------------------------------------------------------------------------
# tent-system


def cmd_tent_system(args: argparse.Namespace) -> int:
    if args.check_bundle:
        if args.seed is not None or args.bundle is not None:
            raise ConfigError("--check-bundle verifies a bundle and takes no --seed or --bundle")
        bundle = _load_config(args.check_bundle)  # a bundle it cannot read is a config error
        try:
            sz.check_bundle(bundle)
        except (
            ValueError, KeyError, TypeError, AttributeError, OverflowError, ts.BuildBudgetError
        ) as exc:
            raise _CheckFailed(f"bundle verification failed: {exc}") from exc
        _write_out(
            sz.canonical_json(
                {"command": "tent-system", "bundle": args.check_bundle, "verified": True}
            ),
            args.out,
        )
        return 0
    config = _load_config(args.config)
    test = sz.nested_test_from_descriptor(require(config, "test"))
    depth = typed(config, "depth", int, 4)
    cutoff = typed(config, "cutoff", int, 0)
    budget = typed(config, "budget", int, 8)
    pairs = typed(config, "modulus_pairs", int, 50)
    if pairs < 0:  # refused as read: at depth 0 no stage reaches the audit's own check
        raise ConfigError(f"config key 'modulus_pairs' must be >= 0, not {pairs}")
    points = [sz.parse_point(p) for p in typed(config, "points", list, [])]
    summed = range(cutoff + 1, depth + 1)  # the stages the sum runs over
    stages = integers(config, "oscillation_stages", list(summed))
    if not all(m in summed for m in stages):
        raise ConfigError(
            f"config key 'oscillation_stages' must list stages in {cutoff + 1}..{depth}, not {stages}"
        )
    precisions = integers(config, "precisions", [])
    audit = ns.audit_nesting(test, depth, budget)
    if audit is not None:
        raise _CheckFailed(f"nesting audit failed at stage {audit[0]}: {audit[1].to_json()}")
    system = ts.build_tent_system(test, depth, cutoff, budget)
    _check_points(config.get("points", []), points, system.dimension)
    failures: list[str] = []
    report: dict = {
        "command": "tent-system",
        "config": config,
        "partition": system.partition.verify_properties(),
        # cutoff >= depth leaves no stage in the sum: checks pass vacuously
        "vacuous": cutoff >= depth,
    }
    exclusion = []
    for m in range(depth + 1):
        for axis in range(1, system.dimension):
            entry = system.exclusion_visible(m, axis)
            exclusion.append(entry)
            if not entry.within_bound:
                failures.append(f"exclusion bound fails at stage {m}, axis {axis}")
    report["exclusion"] = exclusion
    rng = random.Random(args.seed or 0)
    audits = {}
    for m in range(1, depth + 1):
        violations = system.modulus_audit(m, pairs, rng)
        audits[str(m)] = {"violations": violations}
        if violations:
            failures.append(f"modulus audit fails at stage {m}")
    report["modulus"] = audits
    oscillation = []
    for point in points:
        for m in stages:
            try:
                check = system.oscillation_check(point, m)
            except ValueError as exc:
                oscillation.append({"point": point, "stage": m, "error": str(exc)})
                failures.append(f"oscillation check unusable at stage {m}: {exc}")
                continue
            oscillation.append(check)
            if not check.passed or not check.tail_ok:
                failures.append(f"oscillation bound fails at stage {m}")
    report["oscillation"] = oscillation
    if precisions and points:
        evaluations = []
        for point in points:
            per_point = []
            for m in precisions:
                value = system.evaluate(point, m)
                per_point.append({"precision": m, "value": value.value, "error": value.error})
            evaluations.append({"point": point, "values": per_point})
        report["evaluations"] = evaluations
    report["failures"] = failures
    if args.bundle:
        Path(args.bundle).write_text(sz.canonical_json(sz.bundle(system)), encoding="utf-8")
    _write_out(sz.canonical_json(report), args.out)
    return _verdict(failures)


# ---------------------------------------------------------------------------
# dore-maleva


def cmd_dore_maleva(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    params = sz.dore_maleva_params_from_descriptor(config.get("params", {"kind": "default"}))
    stages = typed(config, "stages", int, 3)
    if stages < 0:
        raise ConfigError(f"config key 'stages' must be >= 0, not {stages}")
    table = []
    walked: list[ns.LatticeStage] = []  # validated once, and read again by the geometry
    failures: list[str] = []
    previous = 1  # the measure before stage 1
    for i, stage in enumerate(islice(ns.dore_maleva_stages(params), stages), start=1):
        walked.append(stage)
        if stage.remaining >= previous:
            failures.append(f"remaining measure fails to decrease at stage {i}")
        previous = stage.remaining
        row = {
            "stage": i,
            "n": params.n_at(i),
            "p": params.p_at(i),
            "p_raw": params.p_raw_at(i),
            "pitch": stage.pitch,
            "radius": stage.radius,
            "removed_fraction_per_cell": stage.removed_fraction_per_cell,
            "whole_cell": stage.whole_cell,
            "remaining": stage.remaining,
        }
        if args.decimals is not None:
            row["remaining_decimal"] = decimal_string(stage.remaining, args.decimals)
        table.append(row)
    geometry = None
    geometry_stages = typed(config, "geometry_stages", int, 2)
    if geometry_stages < 0:
        raise ConfigError(f"config key 'geometry_stages' must be >= 0, not {geometry_stages}")
    geometry_stages = min(stages, geometry_stages)
    if typed(config, "geometry", bool, True) and stages >= 1:
        try:  # the table has validated every stage, so only the rectangle cap is left to refuse
            rectangles = ns.lattice_rectangles(walked[:geometry_stages])
        except ValueError as exc:
            raise ConfigError(f"config key 'geometry_stages' is {geometry_stages}, but {exc}") from exc
        geometry = [{"x0": r[0], "x1": r[1], "y0": r[2], "y1": r[3]} for r in rectangles]
    report = {
        "command": "dore-maleva",
        "config": config,
        "table": table,
        "geometry": geometry,
        "failures": failures,
    }
    _write_out(sz.canonical_json(report), args.out)
    return _verdict(failures)


# ---------------------------------------------------------------------------


def _digit_count(text: str) -> int:
    """A --decimals value: argparse refuses anything but an integer >= 0."""
    if not text.isdecimal():  # digits only, so a sign is refused too
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not {text!r}")
    return int(text)


@functools.cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopelab",
        description="Exact-rational experiments: probes, bets, tents, lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, blurb in (
        ("probe", "differentiability probes on a function"),
        ("bet", "martingale simulation against a bit source"),
        ("tent-system", "build and verify a tent system"),
        ("dore-maleva", "lattice removal measures and geometry"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        commands[name] = p
    for name in ("probe", "bet", "dore-maleva"):
        commands[name].add_argument("--config", required=True, help="JSON config path")
    commands["bet"].add_argument("--format", choices=("json", "csv"), default="json")
    for name in ("bet", "dore-maleva"):
        commands[name].add_argument(
            "--decimals",
            type=_digit_count,
            default=None,
            help="also render key rationals as decimals with this many digits",
        )
    tent = commands["tent-system"]
    inputs = tent.add_mutually_exclusive_group(required=True)  # build, or verify a bundle
    inputs.add_argument("--config", help="JSON config path")
    inputs.add_argument("--check-bundle", help="verify a persisted bundle instead of building")
    tent.add_argument("--seed", type=int, help="seed for the sampled modulus audit (default 0)")
    tent.add_argument("--bundle", help="also persist the system bundle")
    return parser


# The first row whose classes match an error gives the exit code and the one
# stderr line: 1 only when a check about the mathematics failed, 2 when the
# input cannot be run as given.
EXITS = (
    (ConfigError, 2, "config error: {}"),
    (ts.InsufficientDepthError, 2, "config error: a precision in 'precisions' needs a deeper build: {}"),
    ((mg.MonotonicityError, mg.NegativeCapitalError), 1, "martingale rejected: {}"),
    ((ts.BuildBudgetError, ts.PartitionError), 1, "build failed: {}"),
    (_CheckFailed, 1, "{}"),
    ((ValueError, KeyError, OSError, OverflowError), 2, "error: {}"),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {  # read per call, so the module's current command runs
        "probe": cmd_probe, "bet": cmd_bet, "tent-system": cmd_tent_system, "dore-maleva": cmd_dore_maleva
    }[args.command]
    try:
        return handler(args)
    except Exception as exc:
        for classes, code, line in EXITS:
            if isinstance(exc, classes):
                sys.stderr.write(line.format(exc) + "\n")
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
