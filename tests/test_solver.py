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
                                          ("screen_iters", "30"), ("seed", -1)])
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
class _PlanSolved(Exception):
    pass


def _plan_of(monkeypatch, gammas):
    """The plan (omega, v) solve_bilevel hands to the lower path for ``gammas``;
    the solve stops there, and solving any lower problem before it fails."""
    def no_lower(*args, **kwargs):
        raise AssertionError("the plan solve must not solve the lower problem")

    def stop(omega, v, *args):
        raise _PlanSolved(omega, v)

    monkeypatch.setattr(solver, "solve_lower", no_lower)
    monkeypatch.setattr(solver, "_solve_lower_path", stop)
    with pytest.raises(_PlanSolved) as caught:
        solve_bilevel(S, SmoothingSchedule(gammas),
                      SolverOptions(n_intervals=8, seeds=2, upper_max_iter=6, screen_iters=2))
    return caught.value.args


def test_plan_solve_reads_no_gamma_and_solves_no_lower_problem(monkeypatch):
    default = SmoothingSchedule.default_for(S).gammas[:3]
    om_a, v_a = _plan_of(monkeypatch, default)
    om_b, v_b = _plan_of(monkeypatch, (1e3, 1e5, 1e6))
    np.testing.assert_array_equal(om_a, om_b)
    np.testing.assert_array_equal(v_a, v_b)


def test_seed_screening_solve_regression():
    """Three seeds at tiny budgets.  Guess 1 wins the screening (T = 8.221
    against 8.507 and 8.637); the plan and lower path of guess 0 or 2 end at
    phi = 1.8877 or 2.5825, so phi pins the kept seed."""
    sol = solve_bilevel(S, opts=SolverOptions(n_intervals=8, seeds=3, lower_max_iter=15,
                                              upper_max_iter=6))
    assert sol.T_star == 7.9900016654050505
    assert sol.lower.value == 1.859138728869071
    assert [tuple(h.values()) for h in sol.history] == [
        (3.0, 1.9872922147323506, True, 0.0, 3),
        (6.0, 1.9038790678188506, True, 0.0, 2),
        (12.0, 1.7966979810881585, False, 0.0011167289782796352, 5),
        (24.0, 1.8807161729959665, True, 0.0, 4),
        (48.0, 1.8779337819774815, True, 0.0, 2),
        (96.0, 1.8642475730444144, True, 0.0, 4),
    ]
    assert [list(h) for h in sol.history] == [
        ["gamma", "phi", "converged", "max_violation", "al_rounds"]] * 6
    assert sol.status == {"lower_converged": True, "max_violation": 0.0, "converged": True}
    assert sol.upper_mults["target"] == 0.9988480624562381
    np.testing.assert_array_equal(sol.upper_mults["h_upper"], np.zeros(9))
