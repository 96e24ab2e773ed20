"""Lower-level solve, its multipliers, value sensitivities, and penalty gap."""

import numpy as np
import pytest

from bisweep import solver
from bisweep.dynamics import ControlProfile, SmoothingSchedule, TimeGrid, integrate_smooth
from bisweep.geometry import DriftSpec, straight_corridor, target_direction
from bisweep.oracle import EnumSpec, brute_lower, fd_check
from bisweep.transcription import assemble_lower
from bisweep.solver import (
    SolverOptions,
    penalty_gap,
    solve_bilevel,
    solve_lower,
    value_subgradient,
)

S = straight_corridor()
GAMMA = 24.0
# a short lower solve: the dragged plans below take at most 27 SLSQP iterations
FAST = SolverOptions(lower_max_iter=60)


def stationary_inputs(n):
    return np.ones(n + 1), np.zeros((n + 1, 2))


def dragged_inputs(n, speed=4.0, vx=1.0):
    omega = np.full(n + 1, speed)
    v = np.tile([vx, 0.0], (n + 1, 1))
    return omega, v


# ---------------------------------------------------------------- options
@pytest.mark.parametrize("field, value", [("lower_max_iter", 0), ("n_intervals", 2.5),
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
    ls = solve_lower(omega, v, GAMMA, S)
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
    ls = solve_lower(omega, v, GAMMA, S)
    z1, z2 = value_subgradient(omega, v, ls, S)

    w = np.full(n + 1, 1.0 / n)
    w[0] *= 0.5
    w[-1] *= 0.5

    def phi_of_v(flat):
        vv = flat.reshape(n + 1, 2)
        return solve_lower(omega, vv, GAMMA, S).value

    rng = np.random.default_rng(2)
    dirs = [rng.standard_normal(2 * (n + 1)) for _ in range(2)]
    dirs = [d / np.linalg.norm(d) for d in dirs]
    grad = (z2 * w[:, None]).ravel()
    err = fd_check(phi_of_v, grad, v.ravel(), dirs, h=3e-2)
    assert err <= 5e-2


def test_lower_multiplier_structure():
    # eta is SLSQP's multiplier vector of the contact rows h_lower <= 0: it is
    # nonnegative, exactly zero at every node more than 1e-3 R1^2 inside the
    # rim (the last QP leaves those rows out of its active set), and the
    # dragged disk does push on x
    n = 10
    omega, v = dragged_inputs(n)
    ls = solve_lower(omega, v, GAMMA, S, FAST)
    assert ls.status["converged"]
    assert ls.eta.shape == (n + 1,)
    assert np.all(ls.eta >= 0.0)
    h = assemble_lower(omega, v, GAMMA, S, TimeGrid(n)).residuals(ls.decision)
    inactive = h < -1e-3 * S.R1 ** 2
    assert np.any(inactive) and np.all(ls.eta[inactive] == 0.0)
    assert np.any(ls.eta > 0.0)


def test_cold_lower_solve_converges_under_affine_drift():
    # A4's affine-drift corridor, the plan aimed at the target at 8 M/R1
    s = straight_corridor(drift=DriftSpec(name="affine", A=((0.0, 0.05), (-0.05, 0.0))),
                          K_f=0.05, M1=1.2)
    n = 41
    v = np.tile(s.v_bound * target_direction(s.y0_arr, s), (n, 1))
    ls = solve_lower(np.full(n, 8.0), v, 8.0 * s.cone_gain, s)
    assert ls.status["converged"] and ls.status["exit_status"] == 0
    assert ls.status["max_violation"] <= 1e-7


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


def test_corridor_lower_path_converges_and_phi_grows_with_gamma(corridor_run):
    # every solve of the path stops at an optimum, not on a budget, so phi_gamma
    # moves smoothly with gamma; on the corridor it does not decrease
    history = corridor_run["solution"].history
    assert [h["converged"] for h in history] == [True] * 6
    phi = [h["phi"] for h in history]
    assert all(b >= a for a, b in zip(phi, phi[1:])), phi


def test_seed_screening_solve_regression():
    """Three seeds at tiny budgets.  Guess 1 wins the screening (T = 8.221
    against 8.507 and 8.636); the plan and lower path of guess 0 or 2 end at
    phi = 2.0699 or 1.8791, so phi pins the kept seed."""
    sol = solve_bilevel(S, opts=SolverOptions(n_intervals=8, seeds=3, upper_max_iter=6))
    assert sol.T_star == 7.990001665388467
    assert sol.lower.value == 1.8780846393699342
    assert [tuple(h.values()) for h in sol.history] == [
        (3.0, 1.7684178720932264, True, 3.7192471324942744e-12, 15, 0, 4.462359953216755e-06),
        (6.0, 1.7727868017147532, True, 3.3306690738754696e-16, 12, 0, 1.7337094538327769e-06),
        (12.0, 1.7900986792954328, True, 2.21651585974314e-11, 21, 0, 0.28758918602467165),
        (24.0, 1.8208344056408037, True, 2.503552920529728e-12, 13, 0, 5.206971135485183e-06),
        (48.0, 1.8778853204035255, True, 6.0880189778345084e-12, 32, 0, 7.56853532788603e-06),
        (96.0, 1.8780846393699342, True, 3.2085445411667024e-13, 28, 0, 0.04762818082533715),
    ]
    assert [list(h) for h in sol.history] == [
        ["gamma", "phi", "converged", "max_violation", "iterations", "exit_status",
         "kkt_residual"]] * 6
    assert sol.status == {"lower_converged": True, "max_violation": 0.0, "converged": True,
                          "plan_steps": 89, "plan_al_rounds": 15}
    assert sol.upper_mults["target"] == 0.9988480029470317
    np.testing.assert_array_equal(sol.upper_mults["h_upper"], np.zeros(9))
