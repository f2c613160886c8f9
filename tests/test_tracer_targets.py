"""The benchmark tracer wraps slopelab's public names from outside the package.

These tests read perfbench/tracer.py without writing anything under
perfbench/, and check that every name it wraps still exists, so that traced
benchmark runs keep working when the library is refactored.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import slopelab
from slopelab.cli import main

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    for name, (module_name, attr) in tracer.TARGETS.items():
        owner = getattr(slopelab, module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            # install() wraps the method found in the class's own namespace
            assert method in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr)), name


def test_traced_bet_report_equals_the_plain_one(tmp_path):
    tracer_module = load_tracer()
    config = str(ROOT / "configs" / "bet-square.json")
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert main(["bet", "--config", config, "--out", str(plain)]) == 0
    tracer = tracer_module.Tracer(slopelab)
    tracer.install()
    try:
        assert main(["bet", "--config", config, "--out", str(traced)]) == 0
    finally:
        tracer.uninstall()
    assert traced.read_bytes() == plain.read_bytes()
    assert tracer.calls["martingales.check_fairness"] == 1
    assert tracer.calls["martingales.run_bet"] == 1


@pytest.mark.parametrize(
    "command, config, evaluations",
    [("probe", "probe-kink.json", 21), ("tent-system", "tent-toy.json", 500)],
)
def test_traced_report_equals_the_plain_one_and_counts_every_evaluation(tmp_path, command, config, evaluations):
    # every evaluation goes through ComputableFunction.eval, the method the
    # tracer wraps, so the traced run counts each one
    tracer_module = load_tracer()
    config = str(ROOT / "configs" / config)
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert main([command, "--config", config, "--out", str(plain)]) == 0
    tracer = tracer_module.Tracer(slopelab)
    tracer.install()
    try:
        assert main([command, "--config", config, "--out", str(traced)]) == 0
    finally:
        tracer.uninstall()
    assert traced.read_bytes() == plain.read_bytes()
    assert tracer.calls["functions.eval"] == evaluations
