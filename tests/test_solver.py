"""Lower-level solve, its KKT weights, value sensitivities, and penalty gap."""

import numpy as np
import pytest

from bisweep import solver
from bisweep.dynamics import ControlProfile, SmoothingSchedule, TimeGrid, integrate_smooth
from bisweep.geometry import straight_corridor
from bisweep.oracle import EnumSpec, brute_lower, fd_check
from bisweep.transcription import assemble_lower
from bisweep.solver import (
    ACTIVE_BAND,
    SolverOptions,
    penalty_gap,
    solve_bilevel,
    solve_lower,
    value_subgradient,
)

S = straight_corridor()
GAMMA = 24.0
FAST = SolverOptions(lower_max_iter=40, lower_al_rounds=3)  # a short lower solve


def stationary_inputs(n):
    return np.ones(n + 1), np.zeros((n + 1, 2))


def dragged_inputs(n, speed=4.0, vx=1.0):
    omega = np.full(n + 1, speed)
    v = np.tile([vx, 0.0], (n + 1, 1))
    return omega, v


# ---------------------------------------------------------------- options
@pytest.mark.parametrize("field, value", [("lower_al_rounds", 0), ("n_intervals", 2.5),
                                          ("seeds", 0), ("upper_max_iter", False),
                                          ("refresh_max_iter", "30"), ("seed", -1)])
def test_solver_options_refuse_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


# ---------------------------------------------------------------- lower solve
def test_lower_solve_stationary_is_free():
    omega, v = stationary_inputs(10)
    ls = solve_lower(omega, v, GAMMA, S, FAST)
    assert ls.value == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(ls.decision.controls.u, 0.0, atol=1e-6)
    assert np.allclose(ls.decision.controls.u0, 0.0, atol=1e-6)


def test_lower_solve_value_is_cost_of_returned_decision():
    omega, v = dragged_inputs(8)
    ls = solve_lower(omega, v, GAMMA, S, FAST)
    tr = integrate_smooth(ls.decision.controls, ls.decision.x_init, GAMMA, S)
    assert ls.value == pytest.approx(tr.z[-1], rel=1e-10)


def test_lower_solve_matches_enumeration_on_tiny_grid():
    spec = EnumSpec(n_intervals=4, levels_per_control=3)
    n = spec.n_intervals
    omega, v = dragged_inputs(n)
    oracle_val = brute_lower(omega, v, GAMMA, spec, S)
    ls = solve_lower(omega, v, GAMMA, S,
                     SolverOptions(lower_max_iter=200, lower_al_rounds=6, seeds=1))
    # the descent searches a continuum containing the enumeration grid
    assert ls.value <= oracle_val + 1e-6


def test_lower_solve_value_nonnegative_random_plans():
    rng = np.random.default_rng(7)
    for _ in range(3):
        n = 6
        omega = rng.uniform(0.5, 3.0, n + 1)
        v = rng.uniform(-0.6, 0.6, (n + 1, 2))
        ls = solve_lower(omega, v, GAMMA, S, FAST)
        assert ls.value >= -1e-12


def test_warm_start_from_another_grid_is_refused():
    warm = solve_lower(*dragged_inputs(8), GAMMA, S, FAST)
    with pytest.raises(ValueError, match="9 nodes, the solve 11"):
        solve_lower(*dragged_inputs(10), GAMMA, S, FAST, warm=warm)


def test_lower_solve_deterministic():
    omega, v = dragged_inputs(6)
    a = solve_lower(omega, v, GAMMA, S, FAST)
    b = solve_lower(omega, v, GAMMA, S, FAST)
    assert a.value == b.value
    assert np.array_equal(a.decision.controls.u, b.decision.controls.u)


def test_lower_value_lipschitz_in_plan():
    # finite effort response to small plan perturbations
    n = 8
    omega, v = dragged_inputs(n, speed=3.0, vx=0.8)
    base = solve_lower(omega, v, GAMMA, S, FAST)
    rng = np.random.default_rng(11)
    h = 1e-2
    for _ in range(3):
        delta = rng.standard_normal((n + 1, 2))
        delta /= np.linalg.norm(delta)
        pert = solve_lower(omega, v + h * delta, GAMMA, S, FAST)
        assert abs(pert.value - base.value) <= 50.0 * h


# ---------------------------------------------------------------- value gradient
def test_value_subgradient_zero_for_stationary_plan():
    omega, v = stationary_inputs(8)
    ls = solve_lower(omega, v, GAMMA, S, FAST)
    z1, z2 = value_subgradient(omega, v, ls, S)
    assert np.allclose(z2, 0.0, atol=1e-8)


def test_value_subgradient_matches_finite_differences():
    n = 8
    omega, v = dragged_inputs(n, speed=3.0, vx=0.8)
    opts = SolverOptions(lower_max_iter=200, lower_al_rounds=6, seeds=1)
    ls = solve_lower(omega, v, GAMMA, S, opts)
    z1, z2 = value_subgradient(omega, v, ls, S)

    w = np.full(n + 1, 1.0 / n)
    w[0] *= 0.5
    w[-1] *= 0.5

    def phi_of_v(flat):
        vv = flat.reshape(n + 1, 2)
        return solve_lower(omega, vv, GAMMA, S, opts).value

    rng = np.random.default_rng(2)
    dirs = [rng.standard_normal(2 * (n + 1)) for _ in range(2)]
    dirs = [d / np.linalg.norm(d) for d in dirs]
    grad = (z2 * w[:, None]).ravel()
    err = fd_check(phi_of_v, grad, v.ravel(), dirs, h=3e-2)
    assert err <= 5e-2


def test_value_subgradient_requires_multipliers():
    omega, v = dragged_inputs(6)
    ls = solve_lower(omega, v, GAMMA, S, FAST, with_multipliers=False)
    assert ls.eta is None
    with pytest.raises(ValueError, match="no multipliers"):
        value_subgradient(omega, v, ls, S)


def test_lower_multiplier_structure():
    # eta is a nonnegative NNLS fit over the nodes within ACTIVE_BAND of the
    # rim, so it vanishes elsewhere; the dragged disk does touch the rim
    n = 10
    omega, v = dragged_inputs(n)
    ls = solve_lower(omega, v, GAMMA, S, FAST)
    assert ls.eta.shape == (n + 1,)
    assert np.all(ls.eta >= 0.0)
    h = assemble_lower(omega, v, GAMMA, S, TimeGrid(n)).residuals(ls.decision)
    assert np.all(ls.eta[h < -ACTIVE_BAND * S.R1 ** 2] == 0.0)
    assert np.any(ls.eta > 0.0)


# ---------------------------------------------------------------- penalty gap
class _FakeSolution:
    # minimal stand-in carrying the fields consumed by penalty_gap
    def __init__(self, decision, lower, gamma):
        self.decision = decision
        self.lower = lower
        self.gamma_final = gamma
        self.trajectory = integrate_smooth(decision.controls, decision.x_init,
                                           gamma, S)


def test_penalty_gap_zero_when_lower_decision_is_copied():
    n = 8
    omega, v = dragged_inputs(n)
    ls = solve_lower(omega, v, GAMMA, S, FAST)
    sol = _FakeSolution(ls.decision, ls, GAMMA)
    assert penalty_gap(sol) == pytest.approx(0.0, abs=1e-12)


def test_penalty_gap_positive_for_wasteful_controls():
    import dataclasses
    n = 8
    omega, v = dragged_inputs(n)
    ls = solve_lower(omega, v, GAMMA, S, FAST)
    cp = ls.decision.controls
    wasteful = dataclasses.replace(
        ls.decision,
        controls=ControlProfile(cp.grid, cp.v, np.clip(cp.u + 0.5, -1, 1),
                                np.clip(cp.u0 + 0.4, 0, 1), cp.omega))
    sol = _FakeSolution(wasteful, ls, GAMMA)
    assert penalty_gap(sol) > 1e-3


# ---------------------------------------------------------------- continuation
def test_upper_stage_records_lower_re_solves_without_solving_them(monkeypatch):
    def no_lower(*args, **kwargs):
        raise AssertionError("an upper stage must not solve the lower problem")

    monkeypatch.setattr(solver, "solve_lower", no_lower)
    grid = TimeGrid(8)
    opts = SolverOptions(n_intervals=8)
    gamma = SmoothingSchedule.default_for(S).gammas[0]
    v0, om0 = solver._initial_guesses(S, grid, opts)[0]
    out = solver._run_stage(S, grid, gamma, v0, om0, None, 3, 2)
    records = out["records"]
    # full budget at the start and after each AL round, reduced ones in between
    assert records[0][3] and records[-1][3]
    assert any(not full for *_, full in records)
    assert all(g == gamma for g, *_ in records)
    np.testing.assert_array_equal(records[-1][1], out["omega"])
    np.testing.assert_array_equal(records[-1][2], out["v"])


def test_seed_screening_solve_regression():
    """Three seeds at tiny budgets, pinned to the values of a solve whose upper
    descent itself re-solved the lower level.  Guess 1 wins the screening, so
    solving the lower re-solves recorded for another seed changes phi."""
    sol = solve_bilevel(S, opts=SolverOptions(n_intervals=8, seeds=3, lower_max_iter=15,
                                              upper_max_iter=6))
    assert sol.T_star == 7.9900016654050505
    assert sol.lower.value == 2.132909903500649
    assert [tuple(h.values()) for h in sol.history] == [
        (3.0, 7.999885160743003, 0.0, 1.7733269534087537),
        (6.0, 7.992573770836386, 0.0, 1.77696483193772),
        (12.0, 7.990000643489084, 0.0, 1.8202860989877037),
        (24.0, 7.990001460261883, 0.0, 2.1825229648165414),
        (48.0, 7.990000886613747, 0.0, 2.1322083896983983),
        (96.0, 7.99000166540505, 0.0, 2.132909903500649),
    ]
    assert [list(h) for h in sol.history] == [["gamma", "T", "violation", "phi"]] * 6
    assert sol.upper_mults["target"] == 0.9988480624562381
    np.testing.assert_array_equal(sol.upper_mults["h_upper"], np.zeros(9))
