"""slopelab benchmark harness: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload bet-audit --seed 1 --seconds 20 --trace 0

Run from the root of a slopelab checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Each workload is a closed loop
over its committed job pool (``jobs.py``): one job at a time, in one thread,
the next job starting when the previous one returns.  ``--seed`` shuffles the
pool afresh for every pass, and the loop runs whole passes until ``--seconds``
have elapsed, so every run measures the same job mix.  Every job's exact
output is checked against its committed reference digest.

The host's CPU speed drifts by up to a factor of two over minutes on shared
machines, which would swamp any change to the program.  So a fixed stdlib
kernel is timed before and after every job, and each job's time is rescaled
to reference seconds: wall seconds times ``KERNEL_REFERENCE_S`` over the
kernel's current time.  The raw wall figures are printed on the line before
the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass in
which every job runs plain and then again with the per-layer wrappers of
``tracer.py`` installed, checks that both runs give identical digests, and
prints the per-layer metrics with the tracing overhead.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import time

HARNESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import jobs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
# Median time of speed_probe's kernel on the machine the benchmark was defined
# on (an Intel Xeon at 2.0 GHz under Python 3.11); it sets the reference second.
KERNEL_REFERENCE_S = 0.0028


def _kernel() -> float:
    start = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, 2 * i + 1) * Fraction(3, i + 2)
    cells: set[tuple[int, int]] = set()
    cells.update((i >> 7, i & 127) for i in range(10000))
    return (time.perf_counter_ns() - start) / 1e9


def speed_probe() -> float:
    """Host speed now, as reference seconds per wall second.

    The kernel does fixed Fraction, tuple and set work with the standard
    library only, so a change to slopelab cannot move it.
    """
    return KERNEL_REFERENCE_S / statistics.median(_kernel() for _ in range(3))


def import_slopelab():
    """Import slopelab from this checkout's src/, refusing any other copy."""
    package = ROOT / "src" / "slopelab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a slopelab checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import slopelab
    import slopelab.cli

    if Path(slopelab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported slopelab from {slopelab.__file__}, not {package}")
    return slopelab


class Row(NamedTuple):
    job: jobs.Job
    seconds: float  # wall time from call to outcome
    outcome: jobs.Outcome
    matched: bool  # the digest equals the committed reference
    ref_seconds: float = 0.0  # seconds rescaled to the reference host speed

    @property
    def verified(self) -> bool:
        return self.matched and self.outcome.ok


class Bench:
    """Set-up state of one workload: the package, the pool and its references."""

    def __init__(self, workload: str, pool: str, workdir: Path):
        self.slopelab = import_slopelab()
        self.jobs = jobs.make_pool(workload, pool)
        self.reference = jobs.load_reference(workload, pool, self.jobs)
        warmup = jobs.warmup_job(workload)
        self.paths = jobs.write_configs(self.jobs + [warmup], workdir)
        self.execute(warmup)

    def execute(self, job: jobs.Job):
        return jobs.execute(self.slopelab, job, self.paths[job.id])

    def run_job(self, job: jobs.Job) -> Row:
        t0 = time.perf_counter_ns()
        result, error = self.execute(job)
        elapsed = (time.perf_counter_ns() - t0) / 1e9
        out = jobs.outcome(job, result, error)
        return Row(job, elapsed, out, out.digest == self.reference[job.id]["digest"])

    def run_pass(self, order: list[jobs.Job]) -> list[Row]:
        """Run jobs back to back, probing host speed between them.

        A job's speed is the mean of the probes just before and after it.
        """
        rows = []
        before = speed_probe()
        for job in order:
            row = self.run_job(job)
            after = speed_probe()
            rows.append(row._replace(ref_seconds=row.seconds * (before + after) / 2))
            before = after
        return rows


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_samples(args, own: float) -> list[float]:
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--pool", args.pool, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(child.stdout.split()[-1]))
    return samples


def timed_run(bench: Bench, args, setup_s: float) -> dict:
    rng = random.Random(args.seed)
    rows: list[Row] = []
    rates = []  # verified jobs per reference second of each pass
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        order = list(bench.jobs)
        rng.shuffle(order)
        pass_rows = bench.run_pass(order)
        rows += pass_rows
        rates.append(sum(row.verified for row in pass_rows) / sum(row.ref_seconds for row in pass_rows))
    wall = time.perf_counter() - start
    # Each pool job ran once per pass; its median time is its typical time.
    # The p50 is the median of those, which the passes' noise moves little.
    per_job: dict[str, list[float]] = {}
    for row in rows:
        per_job.setdefault(row.job.id, []).append(row.ref_seconds)
    print(f"{args.workload}: {len(rows)} jobs in {len(rates)} passes, {wall:.3f} s wall; "
          f"jobs per reference s by pass {' '.join(f'{r:.4f}' for r in rates)}; "
          f"p50 over {len(per_job)} pool jobs x {len(rates)} passes; "
          f"wall p50 {statistics.median(row.seconds for row in rows):.4f} s")
    return {
        "correct": all(row.matched for row in rows),
        "attempted": len(rows),
        "failed": sum(not row.verified for row in rows),
        "metrics": {
            "jobs_per_s": metric(statistics.median(rates), "1/s"),
            "job_s.p50": metric(statistics.median(statistics.median(t) for t in per_job.values()), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": metric(setup_s, "s"),
        },
    }


def traced_run(bench: Bench, args) -> dict:
    from tracer import Tracer, unit_of

    order = list(bench.jobs)
    random.Random(args.seed).shuffle(order)
    # Each job runs plain and then traced, back to back and with host speed
    # probes around both, so the overhead ratio compares like with like.
    plain_rows, traced_rows = [], []
    plain_s = traced_s = 0.0
    tracer = Tracer(bench.slopelab)
    for job in order:
        before = speed_probe()
        plain_rows.append(bench.run_job(job))
        between = speed_probe()
        tracer.begin_job(job.id)
        tracer.install()
        try:
            traced_rows.append(bench.run_job(job))
        finally:
            tracer.uninstall()
        after = speed_probe()
        plain_s += plain_rows[-1].seconds * (before + between) / 2
        traced_s += traced_rows[-1].seconds * (between + after) / 2
    tracer.write_spans(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    same = all(p.outcome.digest == t.outcome.digest for p, t in zip(plain_rows, traced_rows))
    failed = sum(not row.verified for row in traced_rows)
    cli_failed = 0.0
    if args.workload == "tent-cover":
        # The same configs through `slopelab tent-system`, untraced: the CLI
        # renders rationals in decimal and can fail where the library does not.
        cli_jobs = [jobs.Job(job.id, "cli", job.config, ("tent-system", "--seed", str(job.seed)))
                    for job in order]
        cli_failed = sum(not jobs.outcome(job, *bench.execute(job)).ok for job in cli_jobs) / len(cli_jobs)
    print(f"{args.workload}: {len(order)} jobs traced in {traced_s:.3f} s, plain in {plain_s:.3f} s (reference), "
          f"traced digests {'equal' if same else 'DIFFER from'} plain digests")
    values = tracer.layer_metrics()
    values["failed_share"] = failed / len(traced_rows)
    values["cli.tent_system.failed"] = cli_failed
    values["trace.overhead_ratio"] = traced_s / plain_s
    return {
        "correct": same and all(row.matched for row in plain_rows + traced_rows),
        "attempted": len(traced_rows),
        "failed": failed,
        "metrics": {name: metric(value, unit_of(name)) for name, value in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="slopelab benchmark harness")
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="orders the job pool")
    parser.add_argument("--seconds", type=int, default=20, help="minimum measured time, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", choices=tuple(jobs.POOL_SEEDS), default="default",
                        help="job pool; held-out confirms a claim on unseen inputs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        bench = Bench(args.workload, args.pool, workdir)
        own_setup = (time.perf_counter() - HARNESS_START) * speed_probe()
        if args.setup_only:
            print(f"{own_setup!r}")
            return 0
        if args.trace:
            result = traced_run(bench, args)
        else:
            setup_s = statistics.median(setup_samples(args, own_setup))
            result = timed_run(bench, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
