"""End-to-end acceptance checks.

Each test prints a single summary line (criterion id, measured value, budget)
so the run log doubles as the acceptance report.
"""

import dataclasses
import time
import warnings

import numpy as np
import pytest

from bisweep.certificate import certify, sigma_smooth_value, sigma_value
from bisweep.dynamics import (
    ControlProfile,
    FeasibilityLossWarning,
    SmoothingSchedule,
    TimeGrid,
    convergence_study,
    integrate_catchup,
    integrate_smooth,
    plan_nodes,
)
from bisweep.geometry import (
    DriftSpec,
    h_lower,
    h_upper,
    straight_corridor,
    target_distance,
    validate,
)
from bisweep.oracle import EnumSpec, brute_bilevel, brute_lower, fd_check, sigma_sup_oracle
from bisweep import solver
from bisweep.solver import SolverOptions, penalty_gap, solve_lower, value_subgradient

S = straight_corridor()


def report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{tag} failed: {detail}"


# --------------------------------------------------------------------- A1
def test_a1_support_values_match_sup_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n_samples = 10_000
    k = S.cone_gain
    worst = 0.0
    for i in range(n_samples):
        ang = rng.uniform(0, 2 * np.pi)
        y = rng.uniform(-3, 3, 2)
        x = y + S.R1 * np.array([np.cos(ang), np.sin(ang)])  # on the rim
        q = rng.uniform(-3, 3, 2)
        nu = rng.uniform(0, 3)
        r = rng.uniform(1e-3, 3)
        ref = sigma_sup_oracle(q, nu, r, x, y, S)
        worst = max(worst, abs(sigma_value(y, x, q, nu, r, S) - ref))
        if i % 2 == 0:
            gamma = rng.uniform(2.1 * k, 200.0)
            lam = r
            ref_s = sigma_sup_oracle(q, nu, lam, x, y, S, coeff=k)
            worst = max(worst, abs(sigma_smooth_value(y, x, q, nu, lam, gamma, S)
                                   - ref_s))
    # continuity across the two branch seams
    for r in (0.3, 1.0, 2.5):
        x = np.array([1.0, 0.0])
        for seam in (0.0, 2 * r / k):
            lo = sigma_value(np.zeros(2), x, np.array([-(seam - 1e-10), 0.0]), 0.0, r, S)
            hi = sigma_value(np.zeros(2), x, np.array([-(seam + 1e-10), 0.0]), 0.0, r, S)
            worst = max(worst, abs(hi - lo))
    el = time.perf_counter() - t0
    report("A1", worst <= 1e-9 and el < 5.0,
           f"max |sigma - sup oracle| = {worst:.2e} over {n_samples} samples, {el:.1f}s")


# --------------------------------------------------------------------- A2
def test_a2_smoothing_convergence_boundary_ride():
    t0 = time.perf_counter()
    n = 200
    m = n + 1
    cp = ControlProfile(grid=TimeGrid(n), v=np.zeros((m, 2)),
                        u=np.tile([1.0, 0.0], (m, 1)),
                        u0=np.ones(m), omega=np.full(m, 2.0))
    sched = SmoothingSchedule.default_for(S)  # {2,4,8,16,32,64} * M/R1
    errs = convergence_study(cp, (1.0, 0.0), sched, S)
    el = time.perf_counter() - t0
    bound = 5 * (S.M1 + S.M) / n
    ok = errs[-1] < errs[1] and errs[-1] <= bound and el < 10.0
    report("A2", ok,
           f"error gamma=4k: {errs[1]:.3e} -> gamma=64k: {errs[-1]:.3e} "
           f"(bound {bound:.3e}), {el:.1f}s")


# --------------------------------------------------------------------- A3
def test_a3_solver_trajectory_feasibility(corridor_run):
    sol = corridor_run["solution"]
    tr = sol.trajectory
    hl = max(h_lower(tr.x[i], tr.y[i], S) for i in range(tr.grid.n_nodes))
    hu = max(h_upper(tr.y[i], S) for i in range(tr.grid.n_nodes))
    # catching-up rerun of the same controls keeps exact node membership
    tc = integrate_catchup(sol.decision.controls, sol.decision.x_init, S, warn=False)
    hl_cu = max(h_lower(tc.x[i], tc.y[i], S) for i in range(tc.grid.n_nodes))
    ok = hl <= 1e-6 and hu <= 1e-6 and hl_cu <= 1e-12
    report("A3", ok,
           f"max h_lower {hl:.2e}, max h_upper {hu:.2e}, catch-up {hl_cu:.2e}")


# --------------------------------------------------------------------- A4
def test_a4_step_halving_stability():
    t0 = time.perf_counter()
    scenarios = [
        straight_corridor(),
        straight_corridor(M=1.8, u_bound=0.8),
        straight_corridor(drift=DriftSpec(name="affine",
                                          A=((0.0, 0.05), (-0.05, 0.0))),
                          K_f=0.05, M1=1.2),
    ]
    worst_margin = np.inf
    for s in scenarios:
        n = 50
        speed = 2.0
        horizon = speed  # omega constant: physical time = omega * 1
        for nn in (n,):
            m = n + 1
            cp = ControlProfile(grid=TimeGrid(n), v=np.tile([0.4, 0.1], (m, 1)),
                                u=np.tile([1.0, 0.0], (m, 1)),
                                u0=np.full(m, 0.9), omega=np.full(m, speed))
            m2 = 2 * n + 1
            cp2 = ControlProfile(grid=TimeGrid(2 * n),
                                 v=np.tile([0.4, 0.1], (m2, 1)),
                                 u=np.tile([1.0, 0.0], (m2, 1)),
                                 u0=np.full(m2, 0.9), omega=np.full(m2, speed))
            tr = integrate_catchup(cp, (1.0, 0.0), s, warn=False)
            tr2 = integrate_catchup(cp2, (1.0, 0.0), s, warn=False)
            diff = np.max(np.linalg.norm(tr.x - tr2.x[::2], axis=1))
            bound = 2 * (s.K_f + 1) * (s.M1 + s.M) * (horizon / n)
            worst_margin = min(worst_margin, bound - diff)
            assert diff <= bound, (diff, bound, s.drift.name)
    el = time.perf_counter() - t0
    report("A4", worst_margin >= 0 and el < 5.0,
           f"3 scenarios, min bound margin {worst_margin:.3e}, {el:.1f}s")


# --------------------------------------------------------------------- A5
def test_a5_corridor_time_matches_closed_form(corridor_run):
    sol = corridor_run["solution"]
    t0 = time.perf_counter()
    T_brute, dec = brute_bilevel(EnumSpec(n_intervals=4, levels_per_control=3), S)
    brute_time = time.perf_counter() - t0
    total = corridor_run["wall_time"] + brute_time
    d = target_distance(S.y0_arr, S)
    lo, hi = 0.98 * d / S.v_bound, 1.02 * d / S.v_bound
    # one grid step of the enumeration: coarsest omega-level change over one
    # interval, omega_max/(levels-1) * dt
    grid_step = 10.0 / 2 * 0.25
    ok = (lo <= sol.T_star <= hi
          and abs(sol.T_star - T_brute) <= grid_step
          and total < 120.0)
    report("A5", ok,
           f"T* = {sol.T_star:.4f} in [{lo:.2f}, {hi:.2f}], brute {T_brute:.4f} "
           f"(step {grid_step}), solve {corridor_run['wall_time']:.0f}s + "
           f"brute {brute_time:.0f}s")


# --------------------------------------------------------------------- A6
def test_a6_hamiltonian_conservation(corridor_certificate):
    rep = corridor_certificate["report"]
    cond = rep.conditions["conservation"]
    el = corridor_certificate["wall_time"]
    ok = cond["ok"] and el < 5.0
    report("A6", ok,
           f"stdev(H) = {cond['residual']:.2e} <= {cond['tol']:.2e}, "
           f"certify {el:.1f}s")


# --------------------------------------------------------------------- A7
PLAN_KKT_TOL = 1e-6
# central-difference step and tolerance of the Lagrangian gradient's check;
# the corridor plan measures 1.5e-8
PLAN_GRAD_FD_H = 1e-3
PLAN_GRAD_TOL = 1e-5


def plan_lagrangian(v, omega, mults, s):
    """The plan as a flat vector, the upper Lagrangian t_N + mu.res as a
    function of it, and that function's exact gradient there."""
    n = omega.shape[0]
    grid = TimeGrid(n - 1)
    flat = np.concatenate([v.ravel(), omega])
    mu = np.concatenate([mults["h_upper"], [mults["target"]]])

    def lagrangian(pt):
        _, ts = plan_nodes(pt[:s.dim * n].reshape(n, s.dim), pt[s.dim * n:], s, grid)
        res = solver._plan_residuals(pt, s, grid)
        return float(ts[-1] + res @ mu), res

    # grad t_N is the trapezoid weights on omega; J is the plan solve's Jacobian
    _, jac = solver._plan_residuals(flat, s, grid, jac=True)
    grad_t = np.concatenate([np.zeros(s.dim * n), solver._trapz_weights(grid)])
    return flat, lagrangian, grad_t + jac.T @ mu


def plan_kkt_residual(v, omega, mults, s):
    """KKT residual of the plan (v, omega) with the upper multipliers: the
    projected Lagrangian stationarity max |x - P(x - grad L)| under the plan
    solve's v-ball and omega-cap projection P, the largest constraint residual,
    and max |mu * res|."""
    n, d = omega.shape[0], s.dim * omega.shape[0]
    flat, lagrangian, grad = plan_lagrangian(v, omega, mults, s)
    _, res = lagrangian(flat)
    mu = np.concatenate([mults["h_upper"], [mults["target"]]])
    step = flat - grad
    omega_cap = solver.OMEGA_CAP_FACTOR * (2.0 * s.R) / s.v_bound
    proj = np.concatenate([solver._project_ball_rows(step[:d].reshape(n, s.dim), s.v_bound).ravel(),
                           np.clip(step[d:], 0.0, omega_cap)])
    return (float(np.max(np.abs(flat - proj))), float(np.max(res)),
            float(np.max(np.abs(mu * res))))


def plan_kkt_ok(stationarity, violation, complementarity):
    return (stationarity <= PLAN_KKT_TOL and violation <= solver.UPPER_VIOLATION_TOL
            and complementarity <= PLAN_KKT_TOL)


def test_a7_penalty_exactness(corridor_run):
    sol = corridor_run["solution"]
    gap = penalty_gap(sol)
    cp = sol.decision.controls
    kkt = plan_kkt_residual(cp.v, cp.omega, sol.upper_mults, S)
    # the stationarity reads the solver's own gradient: check it against
    # central differences of the Lagrangian at the plan
    flat, lagrangian, grad = plan_lagrangian(cp.v, cp.omega, sol.upper_mults, S)
    dirs = np.random.default_rng(1).standard_normal((12, flat.size))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    grad_err = fd_check(lambda pt: lagrangian(pt)[0], grad, flat, dirs, h=PLAN_GRAD_FD_H)
    ok = gap <= 1e-6 and plan_kkt_ok(*kkt) and grad_err <= PLAN_GRAD_TOL
    report("A7", ok, f"gap = {gap:.2e} (zero by construction), plan KKT: stationarity "
                     f"{kkt[0]:.2e}, violation {kkt[1]:.2e}, |mu*res| {kkt[2]:.2e} "
                     f"(tol {PLAN_KKT_TOL:.0e}, {solver.UPPER_VIOLATION_TOL:.0e}, "
                     f"{PLAN_KKT_TOL:.0e}), gradient vs central differences "
                     f"{grad_err:.1e} (tol {PLAN_GRAD_TOL:.0e})")


def test_a7_plan_kkt_clause_fails_on_mutated_plans(corridor_run):
    sol = corridor_run["solution"]
    cp, mults = sol.decision.controls, sol.upper_mults
    noise = np.random.default_rng(3).standard_normal(cp.v.shape)
    mutated = {
        "omega x 1.01": (cp.v, 1.01 * cp.omega, mults),
        "omega x 0.999": (cp.v, 0.999 * cp.omega, mults),
        "v + 0.01 noise": (solver._project_ball_rows(cp.v + 0.01 * noise, S.v_bound),
                           cp.omega, mults),
        "mu_term x 2": (cp.v, cp.omega, {**mults, "target": 2.0 * mults["target"]}),
    }
    for name, (v, omega, mu) in mutated.items():
        kkt = plan_kkt_residual(v, omega, mu, S)
        assert not plan_kkt_ok(*kkt), f"{name}: {kkt}"


# --------------------------------------------------------------------- A8
def test_a8_maximum_conditions(corridor_run, corridor_certificate, corridor_scenario):
    t0 = time.perf_counter()
    sol = corridor_run["solution"]
    rep = corridor_certificate["report"]
    gap5 = rep.conditions["max_control"]["residual"]

    # discrimination: noise at 5% of the control bound must blow the same
    # residual up by at least 10x
    rng = np.random.default_rng(0)
    cp = sol.decision.controls
    noisy_u = cp.u + 0.05 * S.u_bound * rng.standard_normal(cp.u.shape)
    norms = np.linalg.norm(noisy_u, axis=1, keepdims=True)
    noisy_u = noisy_u * np.minimum(1.0, S.u_bound / np.maximum(norms, 1e-12))
    noisy_cp = ControlProfile(cp.grid, cp.v, noisy_u, cp.u0, cp.omega)
    noisy_tr = integrate_smooth(noisy_cp, sol.decision.x_init, sol.gamma_final, S)
    noisy_sol = dataclasses.replace(
        sol, decision=dataclasses.replace(sol.decision, controls=noisy_cp),
        trajectory=noisy_tr)
    noisy_rep = certify(noisy_sol, corridor_scenario, check_value_selection=False,
                        multipliers=rep.multipliers)
    gap5_noisy = noisy_rep.conditions["max_control"]["residual"]

    cond6 = rep.conditions["max_plan"]
    fdres = rep.conditions["value_selection"]
    el = time.perf_counter() - t0
    discrimination = gap5_noisy / max(gap5, 1e-12)
    ok = (gap5 <= 1e-4 and discrimination >= 10.0
          and cond6["ok"] and fdres["ok"] and el < 30.0)
    report("A8", ok,
           f"control gap {gap5:.2e} (noisy {gap5_noisy:.2e}, x{discrimination:.0f}), "
           f"plan residual {cond6['residual']:.2e}, fd check "
           f"{fdres['residual']:.2e}, {el:.1f}s")


# --------------------------------------------------------------------- A9
def test_a9_lower_solver_beats_enumeration():
    t0 = time.perf_counter()
    spec = EnumSpec(n_intervals=4, levels_per_control=3)
    n = spec.n_intervals
    omega = np.full(n + 1, 4.0)
    v = np.tile([1.0, 0.0], (n + 1, 1))
    gamma = 24.0
    oracle_val = brute_lower(omega, v, gamma, spec, S)
    ls = solve_lower(omega, v, gamma, S, SolverOptions(lower_max_iter=200))
    el = time.perf_counter() - t0
    ok = ls.value <= oracle_val + 1e-6 and el < 60.0
    report("A9", ok,
           f"solver {ls.value:.6f} <= oracle {oracle_val:.6f} + 1e-6, {el:.1f}s")


# --------------------------------------------------------------------- A10
def test_a10_truncation_window_diagnostics():
    t0 = time.perf_counter()
    high = validate(straight_corridor(M=5.0))
    low = validate(straight_corridor(M=-1.0))
    rejects = (not high.ok) and (not low.ok)

    # correction budget below the outward drift: the catching-up integrator
    # must flag the first node where membership is lost
    s = straight_corridor(M=0.5)
    n = 20
    m = n + 1
    cp = ControlProfile(grid=TimeGrid(n), v=np.zeros((m, 2)),
                        u=np.tile([1.0, 0.0], (m, 1)),
                        u0=np.zeros(m), omega=np.full(m, 2.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        integrate_catchup(cp, (1.0, 0.0), s)
    warned = any(issubclass(w.category, FeasibilityLossWarning) for w in caught)
    el = time.perf_counter() - t0
    ok = rejects and warned and el < 5.0
    report("A10", ok,
           f"window rejects M=5/M=-1: {rejects}, feasibility-loss warning: "
           f"{warned}, {el:.1f}s")
