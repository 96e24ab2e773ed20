"""Lower-level solve, its multipliers, value sensitivities, and penalty gap."""

import numpy as np
import pytest

from bisweep import solver
from bisweep.dynamics import ControlProfile, SmoothingSchedule, TimeGrid, integrate_smooth
from bisweep.geometry import (DriftSpec, ExitArc, Scenario, h_lower, straight_corridor,
                              target_direction, target_distance)
from bisweep.oracle import EnumSpec, brute_lower, fd_check
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
                                          ("n_intervals", 1), ("seeds", 0), ("upper_max_iter", False),
                                          ("screen_iters", "30")])
def test_solver_options_refuse_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


def test_solver_options_have_no_seed():
    # the multi-start guesses come from one fixed stream
    with pytest.raises(TypeError, match="seed"):
        SolverOptions(seed=0)


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
    # the solve's forward on its prebuilt plan path is integrate_smooth's own
    assert ls.value == tr.z[-1]


def test_lower_solve_matches_enumeration_on_tiny_grid():
    spec = EnumSpec(n_intervals=4, levels_per_control=3)
    n = spec.n_intervals
    omega, v = dragged_inputs(n)
    oracle_val = brute_lower(omega, v, GAMMA, spec, S)[0]
    ls = solve_lower(omega, v, GAMMA, S)
    # SLSQP searches a continuum containing the enumeration grid
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


def _with(a, index, value):
    a = np.array(a, dtype=float)
    a[index] = value
    return a


# malformed plans (omega, v) of 8 nodes and the key each refusal names
BAD_PLANS = {
    "omega-scalar": (5.0, np.zeros((8, 2)), "plan omega must be a 1-D array"),
    "omega-2d": (np.ones((8, 1)), np.zeros((8, 2)), "plan omega must be a 1-D array"),
    "omega-nan": (_with(np.ones(8), 3, np.nan), np.zeros((8, 2)), "plan omega must be finite"),
    "omega-inf": (_with(np.ones(8), 7, np.inf), np.zeros((8, 2)), "plan omega must be finite"),
    "v-nan": (np.ones(8), _with(np.zeros((8, 2)), (2, 1), np.nan), "plan v must be finite"),
    "v-1d": (np.ones(8), np.zeros(8), "plan v must be a 2-D array"),
}


@pytest.mark.parametrize("omega, v, gamma, key", [
    (np.ones(9), np.zeros((8, 2)), GAMMA, "v must have 9 node values"),   # omega one node too many
    (np.ones(8), np.zeros((8, 3)), GAMMA, "control v must have 2 columns"),
    (np.ones(8), np.tile([1.01, 0.0], (8, 1)), GAMMA, "control v exceeds"),   # |v| > v_bound = 1
    (np.full(8, -0.5), np.zeros((8, 2)), GAMMA, "omega must be nonnegative"),
    (np.ones(1), np.zeros((1, 2)), GAMMA, "plan omega: need at least 2 intervals"),   # one node
    (np.ones(8), np.zeros((8, 2)), 1.5, "gamma"),                           # gamma = M/R1
    (np.ones(8), np.zeros((8, 2)), float("nan"), "gamma"),
    (np.ones(8), np.zeros((8, 2)), float("inf"), "gamma"),
    *[(omega, v, GAMMA, key) for omega, v, key in BAD_PLANS.values()],
], ids=["omega-nodes", "v-columns", "v-ball", "omega-negative", "one-node",
        "gamma-cone-gain", "gamma-nan", "gamma-inf", *BAD_PLANS])
def test_lower_solve_refuses_a_bad_plan_or_gain(omega, v, gamma, key):
    with pytest.raises(ValueError, match=key):
        solve_lower(omega, v, gamma, S, FAST)


def test_lower_solve_builds_its_plan_path_once_and_no_plan_cotangents(monkeypatch):
    # one solve_lower builds the plan path of its frozen plan once for all its
    # SLSQP iterates and sweeps only the swept point; value_subgradient reads
    # the plan cotangents, so it runs the plan path's reverse once.  No
    # iterate builds a control profile or a decision: the solve builds one
    # profile for frozen_plan's check and one for the returned decision
    import bisweep.dynamics as dynamics
    import bisweep.transcription as transcription

    calls = {"plan_path": 0, "reverse_plan_path": 0, "ControlProfile": 0, "DecisionVector": 0}

    def counted(owner, name, attr=None):
        fn = getattr(owner, attr or name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr or name, wrapped)

    counted(dynamics, "plan_path")
    counted(dynamics, "reverse_plan_path")
    counted(dynamics.ControlProfile, "ControlProfile", "__post_init__")
    counted(transcription.DecisionVector, "DecisionVector", "__post_init__")
    omega, v = dragged_inputs(8)
    ls = solve_lower(omega, v, GAMMA, S, FAST)
    assert ls.status["iterations"] > 2
    assert calls == {"plan_path": 1, "reverse_plan_path": 0, "ControlProfile": 2,
                     "DecisionVector": 1}
    value_subgradient(omega, v, ls, S)
    assert calls == {"plan_path": 2, "reverse_plan_path": 1, "ControlProfile": 3,
                     "DecisionVector": 1}


@pytest.mark.parametrize("zero_nodes", [(0, 3, 4), (8,), (2, 3, 4, 5)],
                         ids=["start-and-inner", "end", "inner-run"])
def test_lower_solve_converges_at_a_plan_with_zero_omega_nodes(zero_nodes):
    # where omega_i = 0 the effort has no curvature and the transcription
    # floors the node scale; the solve still stops at a KKT point, and its
    # value is the effort of the returned decision
    omega, v = dragged_inputs(8)
    omega[list(zero_nodes)] = 0.0
    ls = solve_lower(omega, v, GAMMA, S, FAST)
    assert ls.status["converged"], ls.status
    assert ls.status["kkt_residual"] <= solver.LOWER_KKT_TOL
    tr = integrate_smooth(ls.decision.controls, ls.decision.x_init, GAMMA, S)
    assert ls.value == tr.z[-1]
    assert np.all(np.linalg.norm(ls.decision.controls.u, axis=1) <= S.u_bound * (1 + 1e-9))


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


# ---------------------------------------------------------------- working sets: u0's floors and caps, u-balls
CONFTEST = SolverOptions(n_intervals=40, seeds=1, screen_iters=3)


def _lower_path(monkeypatch, s):
    """``solve_bilevel`` of s at the conftest options, and per lower solve of
    its gamma-path the returned solution and its SLSQP runs, each as
    (iterations, u0's upper bounds in the scaled decision, the nodes given a
    u-ball row, u0's lower bounds)."""
    runs, solves, rows = [], [], {}
    minimize, lower, ball_rows = solver.minimize, solver.solve_lower, solver._ball_rows

    def run(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        n = (len(x0) - s.dim) // (s.dim + 1)   # a lower decision is (x_init, u, u0)
        u0_bounds = np.array(kwargs["bounds"][-n:], dtype=float)
        runs.append((res.nit, list(u0_bounds[:, 1]), rows["nodes"], u0_bounds[:, 0]))
        return res

    def balls(start, nodes, *args):
        rows["nodes"] = np.array(nodes)
        return ball_rows(start, nodes, *args)

    def solve(*args, **kwargs):
        start = len(runs)
        ls = lower(*args, **kwargs)
        solves.append((ls, runs[start:]))
        return ls

    monkeypatch.setattr(solver, "minimize", run)
    monkeypatch.setattr(solver, "_ball_rows", balls)
    monkeypatch.setattr(solver, "solve_lower", solve)
    return solve_bilevel(s, opts=CONFTEST), solves


def test_u0_caps_are_added_where_they_bind(monkeypatch):
    # with the u-ball shrunk to 0.25 and M to 0.75, 25 nodes end at u0 = 1
    # (within 1e-12): the cold solve's first round has no cap, a later round
    # caps the nodes it ended above 1, and every gamma converges to the phi
    # of the solve that capped every node from the start
    sol, solves = _lower_path(monkeypatch, straight_corridor(u_bound=0.25, M=0.75))
    assert [h["converged"] for h in sol.history] == [True] * 6
    assert abs(sol.lower.value - 5.776819305807211) <= 1e-9
    assert np.sum(sol.lower.decision.controls.u0 >= 1.0 - 1e-12) == 25
    cold = solves[0][1]
    assert not np.isfinite(cold[0][1]).any() and np.isfinite(cold[-1][1]).any()
    for ls, runs in solves:
        cp = ls.decision.controls
        assert 0.0 <= cp.u0.min() and cp.u0.max() <= 1.0
        assert np.linalg.norm(cp.u, axis=1).max() <= 0.25 * (1 + 1e-9)
        assert ls.status["iterations"] == sum(nit for nit, *_ in runs)


def test_u_ball_rows_are_added_where_they_bind(monkeypatch):
    # on the cap-binding instance the cold solve starts with no u-ball row,
    # later rounds add the nodes that ended outside their ball, and every
    # solve converges inside every ball to the phi that every row from the
    # start gave (5.776819305807083)
    sol, solves = _lower_path(monkeypatch, straight_corridor(u_bound=0.25, M=0.75))
    assert solves[0][1][0][2].size == 0
    assert any(nodes.size for _, runs in solves for _, _, nodes, _ in runs)
    assert [h["converged"] for h in sol.history] == [True] * 6
    for ls, _ in solves:
        assert np.linalg.norm(ls.decision.controls.u, axis=1).max() <= 0.25 * (1 + 1e-9)
    assert sol.lower.value == pytest.approx(5.776819305807083, rel=1e-13, abs=0.0)


def test_corridor_lower_solves_get_no_u0_cap_and_no_u_ball_row(monkeypatch):
    # no u0 reaches 1 and no u its ball on the corridor, so each solve of its
    # path is one SLSQP run with no finite upper bound on u0 and no u-ball row
    _, solves = _lower_path(monkeypatch, S)
    assert len(solves) == 6
    for _, runs in solves:
        assert len(runs) == 1 and not np.isfinite(runs[0][1]).any()
        assert runs[0][2].size == 0


def test_corridor_warm_solves_get_u0_floors_only_where_u0_starts_at_0(monkeypatch):
    # the cold solve starts from u0 = 0 and keeps all 41 floors; a warm
    # solve has a floor only where its start has u0 at most 1e-3, none on
    # the rim, where u0 is about 0.46 (7 to 11 floors measured)
    _, solves = _lower_path(monkeypatch, S)
    assert np.array_equal(solves[0][1][0][3], np.zeros(41))
    for (start, _), (ls, runs) in zip(solves, solves[1:]):
        floored = np.isfinite(runs[0][3])
        assert np.array_equal(floored, start.decision.controls.u0 <= 1e-3)
        assert floored.sum() <= 12 and ls.status["converged"]


def _warm_solve_with_u0_6_below_0(monkeypatch, budget_left=True):
    """The dragged plan's warm solve at 2 GAMMA from its cold solve at GAMMA,
    whose u0 is at most 1e-3 at nodes 0-3 and from 0.06 to 0.48 at nodes
    4-8.  Its first SLSQP round is made to end with u0_6 = -0.1 and, without
    ``budget_left``, to report the whole budget used.  Returns the solution
    and each round's u0 lower bounds."""
    omega, v = dragged_inputs(8)
    cold = solve_lower(omega, v, GAMMA, S, FAST)
    floors, minimize = [], solver.minimize

    def run(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        floors.append(np.array([lo for lo, _ in kwargs["bounds"][-9:]], dtype=float))
        if len(floors) == 1:
            res.x[-3] = -0.1   # u0_6, scaled
            if not budget_left:
                res.nit = FAST.lower_max_iter
        return res

    monkeypatch.setattr(solver, "minimize", run)
    return solve_lower(omega, v, 2.0 * GAMMA, S, FAST, warm=cold), floors


def test_a_round_ending_with_u0_below_0_without_its_floor_adds_the_floor(monkeypatch):
    ls, floors = _warm_solve_with_u0_6_below_0(monkeypatch)
    assert [list(np.flatnonzero(np.isfinite(f))) for f in floors] == [[0, 1, 2, 3],
                                                                      [0, 1, 2, 3, 6]]
    u0 = ls.decision.controls.u0
    assert 0.0 <= u0.min() and u0.max() <= 1.0
    assert ls.status["converged"], ls.status


def test_a_decision_with_u0_below_0_is_not_reported_stationary(monkeypatch):
    # the round that ended with u0_6 = -0.1 spent the budget, so no round
    # adds its floor: the returned decision is clipped to u0_6 = 0, and its
    # KKT residual is the full problem's there
    ls, floors = _warm_solve_with_u0_6_below_0(monkeypatch, budget_left=False)
    assert len(floors) == 1 and ls.decision.controls.u0[6] == 0.0
    assert ls.status["kkt_residual"] > solver.LOWER_KKT_TOL
    assert not ls.status["converged"]


A4 = straight_corridor(drift=DriftSpec(name="affine", A=((0.0, 0.05), (-0.05, 0.0))),
                       K_f=0.05, M1=1.2)


@pytest.mark.parametrize("s, n, phi", [
    (Scenario(y0=(2.0, -5.0), exit=ExitArc(-0.3, 0.4)), 40, 1.112915158940171),
    (S, 80, 1.7806063538570749),
    (A4, 40, 1.8778540379932667),
], ids=["wide-arc", "corridor-80", "A4"])
def test_lower_path_ends_at_the_same_kkt_point(s, n, phi):
    # a working-set rule can move the gamma-path to another local minimum
    # without changing any verdict: contact rows given only where the start
    # has h_lower above -1e-3 ended the wide arc at phi = 1.1129527665460144
    # (+3.4e-5).  These are phi before u0's floors had a working set
    sol = solve_bilevel(s, opts=SolverOptions(n_intervals=n, seeds=1, screen_iters=3))
    assert sol.lower.value == pytest.approx(phi, rel=1e-10, abs=0.0)


def test_lower_solve_rounds_share_one_budget(monkeypatch):
    # at M = 0.7 the lower path cannot converge (with every cap given from
    # the start SLSQP exits 9 and 8 too); the rounds of a solve still run at
    # most lower_max_iter SLSQP iterations in all, and status counts them all.
    # Where a solve ends with budget left, every u outside its ball has a
    # row; the last solve returns |u| up to 2.53, where every u-ball row
    # given from the start returned 2.94
    sol, solves = _lower_path(monkeypatch, straight_corridor(u_bound=0.25, M=0.7))
    assert not sol.status["lower_converged"]
    assert any(len(runs) > 1 for _, runs in solves)
    for ls, runs in solves:
        assert ls.status["iterations"] == sum(nit for nit, *_ in runs) <= CONFTEST.lower_max_iter
        assert 0.0 <= ls.decision.controls.u0.min() and ls.decision.controls.u0.max() <= 1.0
        out = np.flatnonzero(np.linalg.norm(ls.decision.controls.u, axis=1) > 0.25)
        if ls.status["iterations"] < CONFTEST.lower_max_iter:
            assert np.isin(out, runs[-1][2]).all()
    assert np.linalg.norm(sol.lower.decision.controls.u, axis=1).max() <= 2.943


def test_a_failed_round_with_u_outside_a_ball_without_its_row_adds_the_row(monkeypatch):
    # the first round is made to fail (exit 8) with u_4 far outside its ball,
    # where it has no row: a second round runs with that one row, and the
    # solve returns every u inside its ball, at a KKT point
    rows, minimize = [], solver.minimize

    def run(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        rows.append(kwargs["constraints"][1]["fun"](x0).size)
        if len(rows) == 1:
            res.x[S.dim * 5] = 100.0   # u_4's first entry, scaled by D_4 = 1
            res.status = 8
        return res

    monkeypatch.setattr(solver, "minimize", run)
    ls = solve_lower(*dragged_inputs(8), GAMMA, S, FAST)
    assert rows == [0, 1]
    assert np.linalg.norm(ls.decision.controls.u, axis=1).max() <= S.u_bound * (1 + 1e-9)
    assert ls.status["converged"], ls.status


def test_slsqp_runs_at_one_scipy_blas_thread_and_restores_the_count(monkeypatch):
    # scipy's bundled OpenBLAS is found, or the solves would run unpinned;
    # set to 2 threads, it reads 1 inside a lower solve and inside the plan
    # solve, and 2 again after a normal return and after an exception
    lib = solver._scipy_blas()
    assert lib is not None
    caller = lib.scipy_openblas_get_num_threads()
    seen, forward, residuals = [], solver.propagate_smooth, solver._plan_residuals

    def counted(fn, fail=False):
        def wrapped(*args, **kwargs):
            seen.append(lib.scipy_openblas_get_num_threads())
            if fail:
                raise RuntimeError("inside the solve")
            return fn(*args, **kwargs)
        return wrapped

    lib.scipy_openblas_set_num_threads(2)
    try:
        monkeypatch.setattr(solver, "propagate_smooth", counted(forward))
        solve_lower(*dragged_inputs(8), GAMMA, S, FAST)
        assert seen and set(seen) == {1}
        assert lib.scipy_openblas_get_num_threads() == 2
        monkeypatch.setattr(solver, "_plan_residuals", counted(residuals))
        seen.clear()
        solver._solve_plan(S, TimeGrid(8), *solver._initial_guesses(S, TimeGrid(8), FAST)[0], 3)
        assert seen and set(seen) == {1}
        assert lib.scipy_openblas_get_num_threads() == 2
        monkeypatch.setattr(solver, "propagate_smooth", counted(forward, fail=True))
        with pytest.raises(RuntimeError, match="inside the solve"):
            solve_lower(*dragged_inputs(8), GAMMA, S, FAST)
        assert lib.scipy_openblas_get_num_threads() == 2
    finally:
        lib.scipy_openblas_set_num_threads(caller)


# ---------------------------------------------------------------- value gradient
def test_value_subgradient_zero_for_stationary_plan():
    omega, v = stationary_inputs(8)
    ls = solve_lower(omega, v, GAMMA, S, FAST)
    z1, z2 = value_subgradient(omega, v, ls, S)
    assert np.allclose(z2, 0.0, atol=1e-8)


@pytest.mark.parametrize("name", BAD_PLANS)
def test_value_subgradient_refuses_a_bad_plan(name):
    # checked once, where its frozen plan is built, as in solve_lower
    omega, v, key = BAD_PLANS[name]
    ls = solve_lower(*stationary_inputs(7), GAMMA, S, FAST)
    with pytest.raises(ValueError, match=key):
        value_subgradient(omega, v, ls, S)


def test_value_subgradient_refuses_a_lower_solution_of_another_grid():
    # a lower solution of 8 nodes at a plan of 11: the forward's shape check
    # refuses it, naming u and both shapes, not a broadcast error
    ls = solve_lower(*stationary_inputs(7), GAMMA, S, FAST)
    with pytest.raises(ValueError, match=r"u must have shape \(11, 2\) on the plan's 11-node grid, "
                                         r"got shape \(8, 2\)"):
        value_subgradient(*stationary_inputs(10), ls, S)


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
    tr = integrate_smooth(ls.decision.controls, ls.decision.x_init, GAMMA, S)
    h = h_lower(tr.x, tr.y, S)
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
    # minimal stand-in carrying the fields consumed by penalty_gap: the lower
    # solve and the trajectory of a decision, its own or another
    def __init__(self, decision, lower, gamma):
        self.lower = lower
        self.trajectory = integrate_smooth(decision.controls, decision.x_init,
                                           gamma, S)


def test_penalty_gap_zero_when_lower_decision_is_copied():
    n = 8
    omega, v = dragged_inputs(n)
    ls = solve_lower(omega, v, GAMMA, S, FAST)
    sol = _FakeSolution(ls.decision, ls, GAMMA)
    assert penalty_gap(sol) == pytest.approx(0.0, abs=1e-12)


def test_corridor_penalty_gap_is_exactly_zero(corridor_run):
    # z(T*) and phi are the same forward's effort for the same decision
    assert penalty_gap(corridor_run["solution"]) == 0.0


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


def _plan_of(monkeypatch, gammas, opts=SolverOptions(n_intervals=8, seeds=2, upper_max_iter=6,
                                                      screen_iters=2)):
    """The plan (omega, v) solve_bilevel hands to the lower path for ``gammas``,
    and the record of its last plan solve; the solve stops there, and solving
    any lower problem before it fails."""
    solves = []
    plan_solve = solver._solve_plan

    def recorded(*args):
        solves.append(plan_solve(*args))
        return solves[-1]

    def no_lower(*args, **kwargs):
        raise AssertionError("the plan solve must not solve the lower problem")

    def stop(omega, v, *args):
        raise _PlanSolved(omega, v)

    monkeypatch.setattr(solver, "_solve_plan", recorded)
    monkeypatch.setattr(solver, "solve_lower", no_lower)
    monkeypatch.setattr(solver, "_solve_lower_path", stop)
    with pytest.raises(_PlanSolved) as caught:
        solve_bilevel(S, SmoothingSchedule(gammas), opts)
    return caught.value.args + (solves[-1],)


def test_plan_solve_reads_no_gamma_and_solves_no_lower_problem(monkeypatch):
    # schedules of 3, 3, 1 and 6 entries: the plan is solved once, whatever
    # the schedule's values and length
    default = SmoothingSchedule.default_for(S).gammas
    om_a, v_a, _ = _plan_of(monkeypatch, default[:3])
    for gammas in ((1e3, 1e5, 1e6), (default[-1],), default):
        om_b, v_b, _ = _plan_of(monkeypatch, gammas)
        np.testing.assert_array_equal(om_a, om_b)
        np.testing.assert_array_equal(v_a, v_b)


@pytest.mark.parametrize("guess", [None, *range(8)],
                         ids=["n8-three-seeds"] + [f"n40-guess{i}" for i in range(8)])
def test_plan_solve_reaches_the_closed_form(monkeypatch, guess):
    """The plan solve of the regression's three-seed N = 8 solve, and one from
    each of the 8 default guesses at N = 40, reaches the corridor's closed-form
    time (d - TARGET_TOL_FACTOR*R)/v_bound at an SLSQP optimum."""
    if guess is None:
        opts = SolverOptions(n_intervals=8, seeds=3, upper_max_iter=6)
        _, _, plan = _plan_of(monkeypatch, SmoothingSchedule.default_for(S).gammas, opts)
    else:
        opts = SolverOptions()
        grid = TimeGrid(opts.n_intervals)
        v, omega = solver._initial_guesses(S, grid, opts)[guess]
        plan = solver._solve_plan(S, grid, v, omega, opts.upper_max_iter)
    d = float(target_distance(S.y0_arr, S))
    assert plan["exit_status"] == 0
    assert plan["violation"] <= solver.UPPER_VIOLATION_TOL
    assert abs(plan["T"] - (d - solver.TARGET_TOL_FACTOR * S.R) / S.v_bound) <= 1e-9


def test_corridor_lower_path_converges_and_phi_grows_with_gamma(corridor_run):
    # every solve of the path stops at an optimum, not on a budget, so phi_gamma
    # moves smoothly with gamma; on the corridor it does not decrease
    history = corridor_run["solution"].history
    assert [h["converged"] for h in history] == [True] * 6
    phi = [h["phi"] for h in history]
    assert all(b >= a for a, b in zip(phi, phi[1:])), phi


def test_corridor_lower_path_iterations_stay_few(corridor_run):
    # on the scaled decision SLSQP's identity start is the effort's Hessian:
    # the N = 40 path takes 52 SLSQP iterations (12/7/7/8/9/9), where the
    # unscaled decision took 78; SLSQP runs at one scipy BLAS thread, so
    # the counts do not depend on OPENBLAS_NUM_THREADS
    its = [h["iterations"] for h in corridor_run["solution"].history]
    assert sum(its) <= 65, its


def test_seed_screening_solve_regression():
    """Three seeds at tiny budgets.  Guess 0 wins the screening: after its 5
    SLSQP iterations it is feasible at T = 7.990000000000093, while guess 1
    still misses by 1.5e-5 (T = 7.98997) and guess 2 by 3.08 (T = 5.288).
    The plan solve ends at one point of the corridor's degenerate set of
    T-optimal plans (every node's h_upper multiplier is 0).  At that plan
    every solve of the warm gamma-path converges, at a KKT residual of at
    most 1.2e-6, and phi rises along the path.  On the unscaled decision
    (x_init, u, u0) the gamma = 12 solve took 86 iterations and the
    gamma = 48 solve ended at phi = 1.9045 in another local minimum of the
    lower level, from which the gamma = 96 solve fell back to 1.8358; on the
    scaled one the gamma = 48 solve ends at 1.8290, and phi at gamma = 96
    agrees with that run's to 2e-13.  (Under the earlier min cap the
    gamma = 48 solve stopped on its budget, exit 9, and the gamma = 96
    solve read a KKT residual of 5.5.)"""
    sol = solve_bilevel(S, opts=SolverOptions(n_intervals=8, seeds=3, upper_max_iter=6))
    assert sol.T_star == 7.990000000000093
    assert sol.lower.value == 1.8357923573951784
    assert [tuple(h.values()) for h in sol.history] == [
        (3.0, 1.772586055410377, True, 2.220446049250313e-16, 12, 0, 1.2563101975393565e-07),
        (6.0, 1.774533741991294, True, 0.0, 6, 0, 7.344167780587441e-07),
        (12.0, 1.7971945508236833, True, 2.220446049250313e-16, 7, 0, 6.783275042776538e-07),
        (24.0, 1.821594571171512, True, 1.531841320456806e-11, 9, 0, 5.6420564276127294e-08),
        (48.0, 1.8289653158594539, True, 1.0885514711844735e-11, 12, 0, 1.1823600143401336e-06),
        (96.0, 1.8357923573951784, True, 7.993605777301127e-15, 20, 0, 3.5594418701379027e-07),
    ]
    assert [list(h) for h in sol.history] == [
        ["gamma", "phi", "converged", "max_violation", "iterations", "exit_status",
         "kkt_residual"]] * 6
    assert all(h["kkt_residual"] <= solver.LOWER_KKT_TOL for h in sol.history)
    assert sol.status == {"lower_converged": True, "max_violation": 0.0, "converged": True,
                          "plan_iterations": 6, "plan_exit_status": 0}
    assert sol.upper_mults["target"] == 0.9999999999992214
    np.testing.assert_array_equal(sol.upper_mults["h_upper"], np.zeros(9))
