"""The benchmark harness under bench/ still runs on this source tree: every
workload of BENCHMARK.json sets up a valid scenario that a config file can
carry and runs one pass with every check passing, the tracer resolves every
target and restores every binding it wrapped, and its per-layer metrics
still see the forward propagation, also the lower solve's."""

import json
import sys
from pathlib import Path

import pytest
import yaml

import bisweep.dynamics
import bisweep.solver
import bisweep.transcription
import numpy as np
from bisweep.dynamics import ControlProfile, TimeGrid, plan_path
from bisweep.geometry import Scenario, straight_corridor, validate

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


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_pass_passes_every_check(bench, name):
    # one pass of the workload as bench/run.py times it: a change that fails a
    # bench check fails here, not first as a failed benchmark run
    workloads, _ = bench
    wl, rec = workloads.WORKLOADS[name], workloads.Recorder()
    state = wl.setup(1)
    rec.begin_pass()
    wl.run_pass(state, rec)
    rec.end_pass()
    assert rec.attempted > 0
    assert rec.failed == 0, rec.failures


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


def test_tracer_counts_every_forward_propagation(bench):
    # the dynamics.propagate.* metrics come from wrapping propagate_smooth; a
    # forward that bypassed it would read 0 there without any error
    _, tracing = bench
    s, grid = straight_corridor(), TimeGrid(8)
    cp = ControlProfile(grid, v=np.tile((0.5, 0.0), (9, 1)), u=np.tile((0.3, 0.1), (9, 1)),
                        u0=np.full(9, 0.5), omega=np.full(9, 2.0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = 0
        bisweep.dynamics.integrate_smooth(cp, (0.0, 0.0), 12.0, s)
        bisweep.dynamics.propagate_smooth(plan_path(cp.v, cp.omega, s, grid), cp.u, cp.u0,
                                          (0.0, 0.0), np.array([12.0, 24.0, 48.0]), s)
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, 1)
    assert m["dynamics.propagate.calls"] == 2
    assert m["dynamics.propagate.trajectories"] == 4
    assert m["dynamics.propagate.node_steps"] == 4 * 8
    assert m["dynamics.integrate_smooth.calls"] == 1


def test_tracer_counts_every_forward_of_a_lower_solve(bench, monkeypatch):
    # the lower solve propagates each new SLSQP iterate once, on its prebuilt
    # plan path, through the traced propagate_smooth binding of the solver
    # and never through integrate_smooth; a forward that bypassed that
    # binding would read 0 there without any error
    _, tracing = bench
    s, n = straight_corridor(), 9
    iterates = []
    split = bisweep.transcription.NLPInstance.split

    def recorded(self, flat):
        iterates.append(np.asarray(flat, dtype=float).tobytes())
        return split(self, flat)

    monkeypatch.setattr(bisweep.transcription.NLPInstance, "split", recorded)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = 0
        bisweep.solver.solve_lower(np.full(n, 4.0), np.tile((1.0, 0.0), (n, 1)), 24.0, s,
                                   bisweep.solver.SolverOptions(lower_max_iter=60))
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, 1)
    assert m["solver.lower.calls"] == 1
    assert m["dynamics.integrate_smooth.calls"] == 0
    assert m["dynamics.propagate.calls"] == len(set(iterates)) > 1
