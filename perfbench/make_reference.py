"""Recompute the committed reference digests of every workload's job pools.

    python3 perfbench/make_reference.py [--workload NAME] [--pool NAME]

Run from the root of a slopelab checkout.  Each job runs twice and must give
the same digest both times.  Jobs that raise or exit nonzero are recorded with
their outcome and message as known failures.  Only a change to the benchmark
itself should rerun this; a change to slopelab is checked against these files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import jobs
from run import ROOT, import_slopelab


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, action="append")
    parser.add_argument("--pool", choices=tuple(jobs.POOL_SEEDS), action="append")
    args = parser.parse_args()
    slopelab = import_slopelab()
    workdir = ROOT / ".perfbench_work" / "reference"
    try:
        for pool in args.pool or jobs.POOL_SEEDS:
            for workload in args.workload or jobs.WORKLOADS:
                pool_jobs = jobs.make_pool(workload, pool)
                paths = jobs.write_configs(pool_jobs, workdir)
                entries = []
                for job in pool_jobs:
                    runs = [jobs.execute(slopelab, job, paths[job.id]) for _ in range(2)]
                    first, second = (jobs.outcome(job, *run) for run in runs)
                    if first.digest != second.digest:
                        raise SystemExit(f"error: {job.id} is not deterministic")
                    entry = {"id": job.id, "config_sha256": job.config_sha256(),
                             "outcome": first.label, "digest": first.digest}
                    result, error = runs[0]
                    if error is not None:
                        entry["message"] = str(error)
                    elif not first.ok:
                        entry["message"] = result[2].strip()
                    entries.append(entry)
                    print(f"{pool} {job.id}: {first.label}", file=sys.stderr)
                path = jobs.reference_path(workload, pool)
                path.parent.mkdir(parents=True, exist_ok=True)
                data = {"workload": workload, "pool": pool, "pool_seed": jobs.POOL_SEEDS[pool],
                        "jobs": entries}
                path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
