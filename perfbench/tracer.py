"""Per-layer tracing of slopelab, installed from outside the package.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that time each call on a stack of open spans.  A
function that another module binds with ``from .x import f`` is replaced in
every ``slopelab`` module namespace that holds it, so internal calls are seen
too.  Nothing under ``src/`` changes, and ``uninstall`` restores the
originals.

Self time is a span's duration minus the time its traced children cover;
``Fraction`` arithmetic is not traced, so it is charged to the calling layer.
Spans of the boundary functions (everything but the per-evaluation leaves in
``LEAVES``) are kept in memory with their job id and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# span name -> (module, qualified attribute)
TARGETS = {
    "rationals.pow2": ("rationals", "pow2"),
    "rationals.pow2_upper": ("rationals", "pow2_upper"),
    "bits.fraction_from_bits": ("bits", "fraction_from_bits"),
    "bits.BitSource.prefix": ("bits", "BitSource.prefix"),
    "functions.eval": ("functions", "ComputableFunction.eval"),
    "derivatives.partial_probe": ("derivatives", "partial_probe"),
    "derivatives.diff_class_a": ("derivatives", "diff_class_a"),
    "derivatives.diff_class_b": ("derivatives", "diff_class_b"),
    "derivatives.linearity_defect": ("derivatives", "linearity_defect"),
    "martingales.check_fairness": ("martingales", "check_fairness"),
    "martingales.Martingale.at": ("martingales", "Martingale.at"),
    "martingales.run_bet": ("martingales", "run_bet"),
    "cubes.union_measure": ("cubes", "union_measure"),
    "cubes.cube_union_contains": ("cubes", "cube_union_contains"),
    "cubes.subtract_covered": ("cubes", "subtract_covered"),
    "nullsets.audit_nesting": ("nullsets", "audit_nesting"),
    "nullsets.CubeStream.take": ("nullsets", "CubeStream.take"),
    "tentsystem.build_partition": ("tentsystem", "build_partition"),
    "tentsystem.Partition.verify_properties": ("tentsystem", "Partition.verify_properties"),
    "tentsystem.tent_for": ("tentsystem", "tent_for"),
    "tentsystem.TentSystem.evaluate": ("tentsystem", "TentSystem.evaluate"),
    "tentsystem.TentSystem.oscillation_check": ("tentsystem", "TentSystem.oscillation_check"),
    "tentsystem.TentSystem.exclusion_visible": ("tentsystem", "TentSystem.exclusion_visible"),
    "tentsystem.TentSystem.modulus_audit": ("tentsystem", "TentSystem.modulus_audit"),
    "serialize.canonical_json": ("serialize", "canonical_json"),
    "cli.main": ("cli", "main"),
}

# Called per evaluation or per node: counted and timed, but not kept as spans.
LEAVES = {
    "rationals.pow2",
    "rationals.pow2_upper",
    "bits.fraction_from_bits",
    "functions.eval",
    "martingales.Martingale.at",
    "nullsets.CubeStream.take",
    "tentsystem.tent_for",
}

MODULES = (
    "rationals", "bits", "cubes", "functions", "derivatives", "martingales",
    "nullsets", "tentsystem", "serialize", "cli",
)


class Tracer:
    def __init__(self, slopelab):
        self.slopelab = slopelab
        self.stack: list[list] = []  # open spans: [name, ns covered by children]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.job: str | None = None
        self._seen_evals: set = set()
        self._restore: list[tuple[object, str, object]] = []
        self._cap = slopelab.rationals.POW2_MATERIALIZE_CAP

    # -- counters taken from arguments and results ---------------------------

    def _before(self, name: str, args: tuple, kwargs: dict) -> tuple[tuple, int]:
        """Counters read from the arguments; returns the arguments to call with."""
        note = 0
        if name == "functions.eval":
            point = tuple(args[1] if len(args) > 1 else kwargs.pop("point"))
            args = (args[0], point) + args[2:]
            precision = args[2] if len(args) > 2 else kwargs.get("precision", 0)
            # the function itself, not its id: the set keeps it alive, so no
            # id is reused for another function within the job
            key = (args[0], point, precision)
            if key in self._seen_evals:
                self.counts["functions.eval.repeats"] += 1
            else:
                self._seen_evals.add(key)
        elif name == "rationals.pow2_upper":
            if args[0] < -self._cap:
                self.counts["rationals.pow2_upper.clamped"] += 1
        elif name == "bits.fraction_from_bits":
            self.counts["bits.fraction_from_bits.bits"] += len(args[0])
        elif name == "martingales.check_fairness":
            depth = args[1] if len(args) > 1 else kwargs["depth"]
            self.counts["martingales.check_fairness.nodes"] += (1 << depth) - 1
        elif name == "martingales.run_bet":
            self.counts["martingales.run_bet.steps"] += args[2] if len(args) > 2 else kwargs["depth"]
        elif name == "cubes.union_measure":
            # materialize once so the count and the call see the same cubes
            cubes = list(args[0])
            args = (cubes,) + args[1:]
            if cubes:
                common = max(c.scale for c in cubes)
                note = sum(1 << ((common - c.scale) * c.dimension) for c in cubes)
        return args, note

    def _after(self, name: str, result, note: int) -> None:
        """Counters read from a returned result (a raising call counts none)."""
        if name == "cubes.union_measure":
            self.counts["cubes.union_measure.cells"] += note
        elif name == "serialize.canonical_json":
            self.counts["serialize.canonical_json.bytes"] += len(result.encode())
        elif name == "tentsystem.build_partition":
            self.counts["tentsystem.partitions"] += 1
            self.counts["tentsystem.blocks"] += sum(len(s.blocks) for s in result.stages)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        keep = name not in LEAVES
        stack, self_ns, calls, spans = self.stack, self.self_ns, self.calls, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args, note = self._before(name, args, kwargs)
            frame = [name, 0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if keep:
                    spans.append((name, start, end, parent, self.job))
            self._after(name, result, note)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"slopelab.{m}") for m in MODULES]
        modules.append(self.slopelab)
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(f"slopelab.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def begin_job(self, job_id: str) -> None:
        self.job = job_id
        self._seen_evals = set()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(
                    json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "job": job})
                    + "\n"
                )

    # -- per-layer metrics -----------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def layer_metrics(self) -> dict[str, float]:
        calls, counts = self.calls, self.counts
        evals = calls["functions.eval"]
        partitions = counts["tentsystem.partitions"]
        metrics = {
            "rationals.pow2.calls": calls["rationals.pow2"],
            "rationals.pow2_upper.clamped": counts["rationals.pow2_upper.clamped"],
            "bits.fraction_from_bits.calls": calls["bits.fraction_from_bits"],
            "bits.fraction_from_bits.bits": counts["bits.fraction_from_bits.bits"],
            "bits.fraction_from_bits.s": self.seconds("bits.fraction_from_bits"),
            "bits.BitSource.prefix.s": self.seconds("bits.BitSource.prefix"),
            "functions.eval.calls": evals,
            "functions.eval.s": self.seconds("functions.eval"),
            "functions.eval.repeat_share": counts["functions.eval.repeats"] / evals if evals else 0.0,
            "derivatives.partial_probe.s": self.seconds("derivatives.partial_probe"),
            "derivatives.diff_class_a.s": self.seconds("derivatives.diff_class_a"),
            "derivatives.diff_class_b.s": self.seconds("derivatives.diff_class_b"),
            "derivatives.linearity_defect.s": self.seconds("derivatives.linearity_defect"),
            "martingales.check_fairness.s": self.seconds("martingales.check_fairness"),
            "martingales.check_fairness.nodes": counts["martingales.check_fairness.nodes"],
            "martingales.Martingale.at.calls": calls["martingales.Martingale.at"],
            "martingales.Martingale.at.s": self.seconds("martingales.Martingale.at"),
            "martingales.run_bet.s": self.seconds("martingales.run_bet"),
            "martingales.run_bet.steps": counts["martingales.run_bet.steps"],
            "cubes.union_measure.s": self.seconds("cubes.union_measure"),
            "cubes.union_measure.calls": calls["cubes.union_measure"],
            "cubes.union_measure.cells": counts["cubes.union_measure.cells"],
            "cubes.cube_union_contains.s": self.seconds("cubes.cube_union_contains"),
            "cubes.cube_union_contains.calls": calls["cubes.cube_union_contains"],
            "cubes.subtract_covered.s": self.seconds("cubes.subtract_covered"),
            "cubes.subtract_covered.calls": calls["cubes.subtract_covered"],
            "nullsets.audit_nesting.s": self.seconds("nullsets.audit_nesting"),
            "nullsets.CubeStream.take.calls": calls["nullsets.CubeStream.take"],
            "tentsystem.build_partition.s": self.seconds("tentsystem.build_partition"),
            "tentsystem.Partition.verify_properties.s": self.seconds("tentsystem.Partition.verify_properties"),
            "tentsystem.blocks": counts["tentsystem.blocks"] / partitions if partitions else 0.0,
            "tentsystem.TentSystem.evaluate.s": self.seconds("tentsystem.TentSystem.evaluate"),
            "tentsystem.TentSystem.oscillation_check.s": self.seconds("tentsystem.TentSystem.oscillation_check"),
            "tentsystem.TentSystem.exclusion_visible.s": self.seconds("tentsystem.TentSystem.exclusion_visible"),
            "tentsystem.TentSystem.modulus_audit.s": self.seconds("tentsystem.TentSystem.modulus_audit"),
            "tentsystem.tent_for.calls": calls["tentsystem.tent_for"],
            "serialize.canonical_json.s": self.seconds("serialize.canonical_json"),
            "serialize.canonical_json.bytes": counts["serialize.canonical_json.bytes"],
            "cli.self_s": self.seconds("cli.main"),
        }
        return metrics


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, unit in ((".s", "s"), ("_s", "s"), (".bits", "bits"), (".bytes", "bytes"),
                         ("share", "share"), (".failed", "share"), ("ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"
