"""The benchmark harness under bench/ still runs on this source tree: every
workload of BENCHMARK.json sets up a valid scenario that a config file can
carry, and the tracer resolves every target and restores every binding it
wrapped."""

import json
import sys
from pathlib import Path

import pytest
import yaml

import bisweep.solver
from bisweep.geometry import Scenario, validate

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """bench/'s ``workloads`` and ``tracing`` modules, imported as bench/run.py does."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import tracing
        import workloads
        yield workloads, tracing
    finally:
        sys.path.remove(str(ROOT / "bench"))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_setup_runs(bench, name):
    workloads, _ = bench
    state = workloads.WORKLOADS[name].setup(1)
    assert isinstance(state, dict) and "s" in state
    # the scenario comes back equal from its dict and from that dict's YAML text
    s = state["s"]
    assert Scenario.from_dict(s.to_dict()) == s
    assert Scenario.from_dict(yaml.safe_load(yaml.safe_dump(s.to_dict()))) == s
    assert validate(s).ok


def test_tracer_installs_on_every_target_and_restores_every_binding(bench):
    _, tracing = bench
    owners = [tracing._resolve(target) for target, *_ in tracing.TARGETS]
    before = [(owner, attr, getattr(owner, attr, None))
              for owner, (_, attr, *_) in zip(owners, tracing.TARGETS)]
    original = bisweep.solver.solve_lower
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bisweep.solver.solve_lower is not original
        assert bisweep.solver.solve_lower.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert bisweep.solver.solve_lower is original
    for owner, attr, fn in before:
        assert getattr(owner, attr, None) is fn, attr
