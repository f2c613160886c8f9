"""Seeded job pools for the four benchmark workloads, job execution, and digests.

A pool is a fixed list of jobs made by a seeded generator from the pool seed
(``POOL_SEEDS``).  Every job in a pool has a committed reference digest of its
exact output under ``perfbench/reference/<pool>/<workload>.json``, so any run
over the pool is checked bit for bit.  The harness's ``--seed`` only orders
the pool (a fresh shuffle per pass); it never changes which jobs exist.

Outputs are digested through ``encode``, which writes every integer in hex:
CPython refuses decimal conversion of integers above 4300 digits, and tent
systems produce rationals far beyond that.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("bet-audit", "bet-path", "probe-sweep", "tent-cover")

# "default" is the pool every timed run uses; "held-out" is kept for confirming
# a claimed gain on inputs that were not looked at while the change was made.
POOL_SEEDS = {"default": 20261017, "held-out": 77031}


@dataclasses.dataclass(frozen=True)
class Job:
    id: str
    kind: str  # "cli" (slopelab.cli.main in-process) or "tent" (library calls)
    config: dict
    args: tuple[str, ...] = ()  # CLI subcommand, then arguments that follow --config PATH
    seed: int = 0  # seed of the tent job's sampled modulus audit

    def config_sha256(self) -> str:
        text = json.dumps(
            {"kind": self.kind, "config": self.config, "args": list(self.args), "seed": self.seed},
            sort_keys=True,
        )
        return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass
class Outcome:
    ok: bool  # returned normally and, for CLI jobs, exited 0
    label: str  # "ok", "exit N" or "raise ErrorClass"
    digest: str


# ---------------------------------------------------------------------------
# Generators


def _q(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _odd_rational(rng: random.Random) -> Fraction:
    """A non-dyadic rational strictly inside (0, 1)."""
    den = rng.choice((3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33))
    return Fraction(rng.randrange(1, den), den)


def _monotone_pwlinear(rng: random.Random) -> dict:
    # Built as acceptance criterion 1 builds its monotone interpolants.
    knots = sorted(rng.sample(range(1, 32), 4))
    xs = [Fraction(0)] + [Fraction(k, 32) for k in knots] + [Fraction(1)]
    ys = [Fraction(0)]
    for _ in range(len(xs) - 1):
        ys.append(ys[-1] + Fraction(rng.randrange(0, 9), 8))
    return {"kind": "pwlinear", "points": [[_q(x), _q(y)] for x, y in zip(xs, ys)]}


def _fair_table(rng: random.Random, depth: int) -> dict:
    """Table martingale with B(s0) = B(s)(1 + b), B(s1) = B(s)(1 - b): fair."""
    values = {"": Fraction(1)}
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for key in frontier:
            bet = Fraction(rng.randrange(-8, 9), 8)
            values[key + "0"] = values[key] * (1 + bet)
            values[key + "1"] = values[key] * (1 - bet)
            nxt += [key + "0", key + "1"]
        frontier = nxt
    return {"kind": "table", "depth": depth, "values": {k: _q(v) for k, v in values.items()}}


def _source(rng: random.Random) -> dict:
    kind = rng.choice(("rational", "pattern", "interleave"))
    if kind == "rational":
        return {"kind": "rational", "value": _q(_odd_rational(rng))}
    if kind == "pattern":
        return {"kind": "pattern", "bits": [rng.randrange(2) for _ in range(rng.randint(2, 9))]}
    return {
        "kind": "interleave",
        "of": [
            {"kind": "rational", "value": _q(_odd_rational(rng))},
            {"kind": "pattern", "bits": [rng.randrange(2) for _ in range(rng.randint(2, 5))]},
        ],
    }


def _slope_function(rng: random.Random) -> dict:
    kind = rng.choice(("square", "cube", "identity", "pwlinear"))
    return _monotone_pwlinear(rng) if kind == "pwlinear" else {"kind": kind}


def bet_audit_pool(rng: random.Random) -> list[Job]:
    kinds = ["square", "cube", "identity", "pwlinear", "pwlinear", "all-on-ones", "table", "table"]
    jobs = []
    for i, kind in enumerate(kinds):
        if kind == "all-on-ones":
            martingale = {"kind": "all-on-ones"}
        elif kind == "table":
            martingale = _fair_table(rng, rng.randint(6, 10))
        elif kind == "pwlinear":
            martingale = {"kind": "slope", "function": _monotone_pwlinear(rng)}
        else:
            martingale = {"kind": "slope", "function": {"kind": kind}}
        config = {
            "martingale": martingale,
            "source": _source(rng),
            "depth": rng.randint(16, 64),
            "audit_depth": rng.choice((12, 13)),
            "thresholds": ["2/1", "4/1"],
        }
        jobs.append(Job(f"bet-audit-{i:02d}", "cli", config, ("bet",)))
    return jobs


def bet_path_pool(rng: random.Random) -> list[Job]:
    jobs = []
    for i in range(8):
        if i % 3 == 2:
            martingale = _fair_table(rng, rng.randint(6, 10))
        else:
            martingale = {"kind": "slope", "function": _slope_function(rng)}
        config = {
            "martingale": martingale,
            "source": _source(rng),
            "depth": rng.randint(1024, 2048),
            "audit_depth": rng.randint(1, 4),
            "thresholds": ["2/1", "16/1", "1/16"],
        }
        style = rng.choice(("json", "csv", "decimals"))
        if style == "csv":
            extra = ("--format", "csv")
        elif style == "decimals":
            extra = ("--decimals", str(rng.randint(10, 60)))
        else:
            extra = ()
        jobs.append(Job(f"bet-path-{i:02d}", "cli", config, ("bet",) + extra))
    return jobs


_PROBE_KINDS = (
    "abs", "square", "cube", "pwlinear", "linear", "product", "abs-diff", "min-flip",
    "sum", "scale", "clamp-extend",
)


def _probe_function(rng: random.Random, kind: str) -> dict:
    if kind == "abs":
        return {"kind": "abs", "center": _q(_odd_rational(rng))}
    if kind in ("square", "cube", "product", "abs-diff", "min-flip"):
        return {"kind": kind}
    if kind == "pwlinear":
        xs = [Fraction(0)] + sorted(Fraction(k, 16) for k in rng.sample(range(1, 16), 3)) + [Fraction(1)]
        return {"kind": "pwlinear", "points": [[_q(x), _q(Fraction(rng.randrange(-8, 9), 4))] for x in xs]}
    if kind == "linear":
        dim = rng.randint(1, 3)
        return {"kind": "linear", "coeffs": [_q(Fraction(rng.randrange(-9, 10), rng.randint(1, 4))) for _ in range(dim)]}
    inner = _probe_function(rng, rng.choice(("abs", "square", "linear", "product", "abs-diff", "min-flip")))
    if kind == "scale":
        return {"kind": "scale", "by": _q(Fraction(rng.randrange(1, 9), rng.randint(1, 4))), "of": inner}
    if kind == "clamp-extend":
        return {"kind": "clamp-extend", "of": inner}
    other = _probe_function(rng, rng.choice(("abs", "square", "linear", "product", "abs-diff", "min-flip")))
    if _dimension(other) != _dimension(inner):
        other = {"kind": "linear", "coeffs": ["1/2"] * _dimension(inner)}
    return {"kind": "sum", "of": [inner, other]}


def _dimension(desc: dict) -> int:
    kind = desc["kind"]
    if kind == "linear":
        return len(desc["coeffs"])
    if kind in ("product", "abs-diff", "min-flip"):
        return 2
    if kind == "sum":
        return _dimension(desc["of"][0])
    if kind in ("scale", "clamp-extend"):
        return _dimension(desc["of"])
    return 1


def probe_sweep_pool(rng: random.Random) -> list[Job]:
    jobs = []
    for i in range(2 * len(_PROBE_KINDS)):
        function = _probe_function(rng, _PROBE_KINDS[i % len(_PROBE_KINDS)])
        dim = _dimension(function)
        config = {
            "function": function,
            "points": [[_q(_odd_rational(rng)) for _ in range(dim)] for _ in range(rng.randint(1, 3))],
            "depth": rng.randint(6, 10),
        }
        if rng.random() < 0.5:
            config["oscillation_threshold"] = _q(Fraction(rng.randint(1, 4), 2))
            config["separation_threshold"] = _q(Fraction(rng.randint(1, 4), 4))
        if rng.random() < 0.4:
            config["defect"] = {
                "u": [_q(Fraction(rng.randrange(-2, 3), 2)) for _ in range(dim)],
                "v": [_q(Fraction(rng.randrange(-2, 3), 2)) for _ in range(dim)],
                "max_step": "1/4",
                "threshold": "1/8",
            }
        jobs.append(Job(f"probe-sweep-{i:02d}", "cli", config, ("probe",)))
    return jobs


def _cube(dim: int, scale: int, corner) -> dict:
    return {"dim": dim, "scale": scale, "corner": list(corner)}


def _subcube(rng: random.Random, parent: dict, extra: int) -> dict:
    corner = [(c << extra) + rng.randrange(1 << extra) for c in parent["corner"]]
    return _cube(parent["dim"], parent["scale"] + extra, corner)


def _explicit_stages(rng: random.Random, dim: int, gap: int, stages: int, budget: int) -> list[list[dict]]:
    """Nested stages; one stage mixes scales `gap` apart, and raw cubes overlap.

    Every cube of stage m lies inside one of the first `budget` cubes of stage
    m - 1, so the nesting audit passes.  Inside a stage, finer cubes are
    enumerated before the coarse cube that contains them, which leaves
    subtract_covered real work, and a covered duplicate follows it.
    """
    top = _cube(dim, 0, [0] * dim)
    result = [[_subcube(rng, top, 1) for _ in range(rng.randint(1, 3))]]
    heavy = rng.randrange(1, stages)
    for m in range(1, stages):
        visible = result[-1][:budget]
        spread = gap if m == heavy else rng.randint(0, 2)
        coarse = _subcube(rng, rng.choice(visible), rng.randint(1, 2))
        fine = [_subcube(rng, coarse, spread) for _ in range(rng.randint(1, 3))]
        # cubes elsewhere sit near the fine scale, so the coarse cube alone
        # sets the size of the stage's refinement
        others = []
        for _ in range(rng.randint(0, 2)):
            parent = rng.choice(visible)
            others.append(_subcube(rng, parent, max(1, coarse["scale"] + spread - parent["scale"] - rng.randint(0, 2))))
        covered = _subcube(rng, coarse, rng.randint(0, spread))
        result.append(fine + [coarse] + others + [covered])
    return result


def _inner_point(rng: random.Random, cube: dict) -> list[str]:
    side = Fraction(1, 1 << cube["scale"])
    return [_q(c * side + _odd_rational(rng) * side) for c in cube["corner"]]


def tent_cover_pool(rng: random.Random) -> list[Job]:
    jobs = []
    specs = [("explicit", 2)] * 7 + [("explicit", 3)] * 5 + [("concentric", 2)] * 2 + [("concentric", 3)] * 2
    for i, (kind, dim) in enumerate(specs):
        budget = rng.randint(4, 8)
        if kind == "explicit":
            stages = _explicit_stages(rng, dim, rng.randint(0, 12 if dim == 2 else 8), rng.randint(3, 4), budget)
            depth = len(stages) - 1
            test = {"kind": "explicit", "stages": stages}
            points = [_inner_point(rng, rng.choice(stages[-1][:budget]))]
        else:
            depth = rng.randint(8, 12)
            point = [_q(_odd_rational(rng)) for _ in range(dim)]
            test = {"kind": "concentric", "point": point, "scale_step": rng.randint(1, 2)}
            points = [point]
        config = {
            "test": test,
            "depth": depth,
            "cutoff": 0,
            "budget": budget,
            "points": points,
            "oscillation_stages": list(range(1, depth + 1)),
            "precisions": sorted(rng.sample(range(1, depth + 1), min(3, depth))),
            "modulus_pairs": 20,
        }
        jobs.append(Job(f"tent-cover-{i:02d}", "tent", config, seed=rng.randrange(1 << 30)))
    return jobs


_POOLS = {
    "bet-audit": bet_audit_pool,
    "bet-path": bet_path_pool,
    "probe-sweep": probe_sweep_pool,
    "tent-cover": tent_cover_pool,
}


def make_pool(workload: str, pool: str = "default") -> list[Job]:
    return _POOLS[workload](random.Random(f"{workload}:{POOL_SEEDS[pool]}"))


def warmup_job(workload: str) -> Job:
    """A small fixed job per workload that fills lazy caches before timing."""
    if workload.startswith("bet"):
        config = {"martingale": {"kind": "slope", "function": {"kind": "square"}},
                  "source": {"kind": "rational", "value": "1/3"}, "depth": 16, "audit_depth": 6}
        return Job("warmup", "cli", config, ("bet",))
    if workload == "probe-sweep":
        config = {"function": {"kind": "abs", "center": "1/3"}, "points": [["1/3"]], "depth": 4}
        return Job("warmup", "cli", config, ("probe",))
    config = {"test": {"kind": "concentric", "point": ["1/3", "1/3"], "scale_step": 2},
              "depth": 3, "budget": 4, "points": [["1/3", "1/3"]], "precisions": [2], "modulus_pairs": 5}
    return Job("warmup", "tent", config)


# ---------------------------------------------------------------------------
# Digests


def encode(value):
    """Plain JSON data for an exact result; every int is written in hex."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return hex(value)
    if isinstance(value, Fraction):
        return f"{value.numerator:#x}/{value.denominator:#x}"
    if isinstance(value, dict):
        return {json.dumps(encode(k)): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {"@": type(value).__name__} | {
            f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if hasattr(value, "to_json"):
        return encode(value.to_json())
    raise TypeError(f"cannot encode {type(value).__name__}")


def digest(value) -> str:
    text = json.dumps(encode(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Execution


def write_configs(jobs: list[Job], workdir: Path) -> dict[str, str]:
    """Write each job's config file and return job id -> path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        path = workdir / f"{job.id}.json"
        path.write_text(json.dumps(job.config, sort_keys=True), encoding="utf-8")
        paths[job.id] = str(path)
    return paths


def run_cli(slopelab, job: Job, config_path: str) -> tuple[int, str, str]:
    """slopelab.cli.main in-process with its report and messages captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = slopelab.cli.main([job.args[0], "--config", config_path, *job.args[1:]])
    return code, out.getvalue(), err.getvalue()


def run_tent(slopelab, job: Job) -> dict:
    """The calls `slopelab tent-system` makes, through the library, unrendered."""
    ns, ts, sz = slopelab.nullsets, slopelab.tentsystem, slopelab.serialize
    config = job.config
    test = sz.nested_test_from_descriptor(config["test"])
    depth, cutoff, budget = config["depth"], config.get("cutoff", 0), config["budget"]
    audit = ns.audit_nesting(test, depth, budget)
    if audit is not None:
        return {"audit": audit}
    try:
        system = ts.build_tent_system(test, depth, cutoff, budget)
    except (ts.BuildBudgetError, ts.PartitionError) as exc:
        return {"build_failed": str(exc)}
    result: dict = {"partition": system.partition.verify_properties()}
    result["exclusion"] = [
        system.exclusion_visible(m, axis)
        for m in range(depth + 1)
        for axis in range(1, system.dimension)
    ]
    rng = random.Random(job.seed)
    result["modulus"] = [
        system.modulus_audit(m, config.get("modulus_pairs", 50), rng) for m in range(1, depth + 1)
    ]
    oscillation = []
    points = [sz.parse_point(p) for p in config.get("points", [])]
    for point in points:
        for m in config.get("oscillation_stages", range(1, depth + 1)):
            try:
                oscillation.append(system.oscillation_check(point, m))
            except ValueError as exc:
                oscillation.append(str(exc))
    result["oscillation"] = oscillation
    evaluations = []
    for point in points:
        for m in config.get("precisions", []):
            try:
                evaluations.append(system.evaluate(point, m))
            except ts.InsufficientDepthError as exc:
                evaluations.append(str(exc))
                break
    result["evaluations"] = evaluations
    return result


def execute(slopelab, job: Job, config_path: str):
    """Run one job; returns (raw result, exception or None) for `outcome`."""
    try:
        if job.kind == "cli":
            return run_cli(slopelab, job, config_path), None
        return run_tent(slopelab, job), None
    except Exception as exc:  # a raising job is a failed job, recorded by class
        return None, exc


def outcome(job: Job, result, error) -> Outcome:
    if error is not None:
        label = f"raise {type(error).__name__}"
        return Outcome(False, label, digest([label, str(error)]))
    if job.kind == "cli":
        code, out, err = result
        label = "ok" if code == 0 else f"exit {code}"
        return Outcome(code == 0, label, digest([code, out, err]))
    return Outcome(True, "ok", digest(result))


# ---------------------------------------------------------------------------
# References


REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, pool: str) -> Path:
    return REFERENCE_DIR / pool / f"{workload}.json"


def load_reference(workload: str, pool: str, jobs: list[Job]) -> dict[str, dict]:
    """Committed reference entries by job id; raises if the pool has drifted."""
    data = json.loads(reference_path(workload, pool).read_text(encoding="utf-8"))
    entries = {e["id"]: e for e in data["jobs"]}
    for job in jobs:
        entry = entries.get(job.id)
        if entry is None or entry["config_sha256"] != job.config_sha256():
            raise RuntimeError(f"reference for {job.id} does not match the generated pool")
    if len(entries) != len(jobs):
        raise RuntimeError(f"reference for {workload} lists {len(entries)} jobs, pool has {len(jobs)}")
    return entries
