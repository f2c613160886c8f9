"""Every job of the four default benchmark pools reproduces its reference digest.

perfbench/jobs.py is loaded by path with bytecode writing off, so nothing is
written under perfbench/; job configs go to a temporary directory.  The
held-out pool is left out: it exists to confirm a claimed gain on inputs
that were not looked at while a change was made.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

import slopelab
import slopelab.cli
import slopelab.serialize

JOBS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"


def load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


jobs = load_jobs()


def assert_default_pool_matches_reference_digests(workload, tmp_path):
    pool = jobs.make_pool(workload)
    reference = jobs.load_reference(workload, "default", pool)
    paths = jobs.write_configs(pool, tmp_path)
    for job in pool:
        result, error = jobs.execute(slopelab, job, paths[job.id])
        assert jobs.outcome(job, result, error).digest == reference[job.id]["digest"], job.id


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_default_pool_matches_reference_digests(workload, tmp_path):
    assert_default_pool_matches_reference_digests(workload, tmp_path)


def test_bet_path_pool_matches_reference_digests_without_closed_forms(tmp_path, monkeypatch):
    # every function loses its closed form, so the slope paths evaluate f step by step
    parse = slopelab.serialize.function_from_descriptor
    stripped = []

    def without_closed_form(desc):
        f = parse(desc)
        stripped.append(f.slopes is not None)
        return dataclasses.replace(f, slopes=None)

    monkeypatch.setattr(slopelab.serialize, "function_from_descriptor", without_closed_form)
    assert_default_pool_matches_reference_digests("bet-path", tmp_path)
    assert any(stripped)
