"""Nested numerical optimization of the bilevel sweeping problem.

Layout of the nested scheme:

* ``solve_lower`` -- one SLSQP solve of the transcribed lower effort problem
  for frozen (omega, v), on exact derivatives from the reverse sweep
  ``_reverse_rk4``; produces the value phi, the minimizing decision and
  SLSQP's multipliers eta of its contact constraints, the one lower
  multiplier set.
* ``value_subgradient`` -- a subgradient selection of phi with respect to the
  upper controls, derived from eta through the exact discrete adjoint of the
  forward RK4 step map (``dynamics.rk4_stages``, ``plan_path``).
* ``solve_bilevel`` -- the plan (v, omega) first, then the lower problem at
  that plan.  The plan problem reads only the plan (travel time, containment
  of the plan disk, terminal miss), so it does not depend on the smoothing
  gain gamma.  ``_solve_plan`` solves it with one SLSQP run, the same
  mechanism as ``solve_lower``: the constraint Jacobian comes from one
  reverse sweep of the plan nodes (``dynamics.reverse_plan_nodes``), and
  SLSQP's multipliers of the constraint rows are the upper multipliers.
  Seeds are screened with a small iteration cap, and the kept seed's plan is
  solved once.  ``_solve_lower_path`` then solves the lower problem at the
  plan for each gamma of the schedule, each solve warm-started from the one
  before -- the passage gamma -> infinity at the solved plan -- and its last
  solve is the returned one.

``SolverOptions`` holds only the grid, the multi-start seeds and the
iteration budgets; SLSQP's accuracy and the other numerical settings are the
module constants below.  All randomness is confined to seeded multi-start
control guesses.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .dynamics import (
    RK4_OFFSETS,
    RK4_WEIGHTS,
    ControlProfile,
    StateTrajectory,
    TimeGrid,
    SmoothingSchedule,
    integrate_smooth,
    plan_nodes,
    plan_path,
    reverse_plan_nodes,
    rk4_stages,
    stage_controls,
    stage_slope,
    stage_values,
)
from .geometry import (
    Scenario,
    dot_rows,
    h_lower,
    h_upper,
    target_distance,
    target_direction,
    validate,
)
from .transcription import DecisionVector, assemble_lower

__all__ = [
    "SolverOptions",
    "LowerSolution",
    "BilevelSolution",
    "solve_lower",
    "value_subgradient",
    "solve_bilevel",
    "penalty_gap",
]


UPPER_VIOLATION_TOL = 1e-9  # a plan solve converged: SLSQP exit 0 and its violation at most this
TARGET_TOL_FACTOR = 1e-3    # the upper terminal constraint allows a miss of this times R
OMEGA_CAP_FACTOR = 10.0     # omega is capped at this times 2R / v_bound
SLSQP_FTOL = 1e-10          # SLSQP's accuracy target (its ftol) in the plan and lower solves
LOWER_VIOLATION_TOL = 1e-7  # a lower solve converged: SLSQP exit 0 and h_lower at most this


@dataclass(frozen=True)
class SolverOptions:
    n_intervals: int = 40
    seeds: int = 8
    seed: int = 0
    lower_max_iter: int = 150
    upper_max_iter: int = 30
    screen_iters: int = 5

    def __post_init__(self):
        for name, value in vars(self).items():
            least = 0 if name == "seed" else 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"solver option {name} must be an integer >= {least}: {value!r}")


@dataclass(frozen=True)
class LowerSolution:
    decision: DecisionVector
    value: float
    # (N+1,) SLSQP multipliers of the contact constraints h_lower <= 0; the
    # contact measure mu_L is their reversed cumulative sum and p_L follows
    # from ``_reverse_rk4``
    eta: np.ndarray
    # converged, max_violation, iterations, exit_status (SLSQP's) and
    # kkt_residual
    status: dict
    gamma: float


@dataclass(frozen=True)
class BilevelSolution:
    decision: DecisionVector
    T_star: float
    gamma_final: float
    lower: LowerSolution
    # one record per gamma of the lower path at the plan: gamma, phi and that
    # solve's status
    history: tuple
    trajectory: StateTrajectory
    upper_mults: dict
    # lower_converged (the returned lower solve), max_violation (the plan's
    # upper violation), converged (both within their stops, the plan's SLSQP
    # exit 0), plan_iterations (SLSQP's, its seed's screening included) and
    # plan_exit_status (SLSQP's own code of the plan solve)
    status: dict

    def to_dict(self) -> dict:
        return {
            "T_star": self.T_star,
            "gamma_final": self.gamma_final,
            "phi": self.lower.value,
            "gap": penalty_gap(self),
            "status": self.status,
            "history": list(self.history),
        }


# --------------------------------------------------------------------------
# helpers

def _trapz_weights(grid: TimeGrid) -> np.ndarray:
    w = np.full(grid.n_nodes, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _project_ball_rows(arr: np.ndarray, bound: float) -> np.ndarray:
    nrm = np.linalg.norm(arr, axis=-1, keepdims=True)
    scale = np.where(nrm > bound, bound / np.maximum(nrm, 1e-300), 1.0)
    return arr * scale


def _ball_rows(start, n, d, bound):
    """SLSQP inequality rows 0.5 (bound^2 - |a_i|^2) >= 0, with their
    Jacobian, for the n vectors a_i of length d packed at flat[start:start + n d]."""
    stop = start + n * d

    def jac(flat):
        out = np.zeros((n, flat.size))
        out[np.repeat(np.arange(n), d), np.arange(start, stop)] = -flat[start:stop]
        return out

    return {"type": "ineq", "jac": jac,
            "fun": lambda f: 0.5 * (bound ** 2 - np.sum(f[start:stop].reshape(n, d) ** 2, axis=1))}


# --------------------------------------------------------------------------
# lower-level solve

def solve_lower(omega, v, gamma: float, s: Scenario, opts: Optional[SolverOptions] = None,
                warm: Optional[LowerSolution] = None) -> LowerSolution:
    """One SLSQP solve of the transcribed lower effort problem on the grid of
    ``omega``'s nodes, from ``warm``'s decision or else from rest at y0.

    The contacts h_lower <= 0 include node 0, where they are x_init's disk;
    the u-balls are inequality constraints and u0 has the bounds [0, 1].  The
    effort gradient and the contact Jacobian come from one batched
    ``_reverse_rk4`` sweep per iterate, and eta is SLSQP's multiplier vector
    of the contact rows.
    """
    opts = opts or SolverOptions()
    omega = np.asarray(omega, dtype=float)
    v = np.asarray(v, dtype=float)
    grid = TimeGrid(omega.shape[0] - 1)
    nlp = assemble_lower(omega, v, gamma, s, grid)
    n, d = grid.n_nodes, s.dim
    k = d + d * n                     # u0 follows x_init and u in the packed decision
    flat = np.concatenate([s.y0_arr, np.zeros(k - d + n)])
    if warm is not None:
        warm_n = warm.decision.controls.grid.n_nodes
        if warm_n != n:
            raise ValueError(f"warm start has {warm_n} nodes, the solve {n}")
        flat = nlp.pack(warm.decision)

    # weight column 0 sweeps the effort alone, column 1 + i adds h_lower_i
    cols = np.hstack([np.zeros((n, 1)), np.eye(n)])
    last = {"flat": None}

    def at(flat, sweep=False):
        """The iterate's propagation and, with ``sweep``, its (dim, 1 + n)
        gradients of the effort and of the effort plus each h_lower_i; each is
        computed once per iterate."""
        if last["flat"] is None or not np.array_equal(last["flat"], flat):
            dv = nlp.unpack(flat)
            tr = integrate_smooth(dv.controls, dv.x_init, gamma, s)
            last.update(flat=flat.copy(), dv=dv, tr=tr, h=h_lower(tr.x, tr.y, s), g=None)
        if sweep and last["g"] is None:
            _, q_x, _, _, d_u, d_u0 = _reverse_rk4(last["tr"], last["dv"].controls, cols, gamma, s)
            last["g"] = np.concatenate([q_x[0], d_u.reshape(d * n, -1), d_u0])
        return last

    def contact_jac(flat):
        g = at(flat, sweep=True)["g"]
        return (g[:, 1:] - g[:, :1]).T

    # SLSQP writes into the gradient it is handed, so it gets a copy
    res = minimize(lambda f: at(f)["tr"].z[-1], flat, method="SLSQP",
                   jac=lambda f: at(f, sweep=True)["g"][:, 0].copy(),
                   bounds=[(None, None)] * k + [(0.0, 1.0)] * n,
                   constraints=[{"type": "ineq", "fun": lambda f: -at(f)["h"],
                                 "jac": lambda f: -contact_jac(f)},
                                _ball_rows(d, n, d, s.u_bound)],
                   options={"maxiter": opts.lower_max_iter, "ftol": SLSQP_FTOL})
    sol = at(res.x, sweep=True)
    eta = np.array(res.multipliers[:n])
    viol = float(np.max(sol["h"], initial=0.0))
    # projected gradient of the Lagrangian z + eta.h_lower over the u-balls
    # and u0's box, and complementarity
    step = res.x - (sol["g"][:, 0] + contact_jac(res.x).T @ eta)
    step[d:k] = _project_ball_rows(step[d:k].reshape(n, d), s.u_bound).ravel()
    step[k:] = np.clip(step[k:], 0.0, 1.0)
    kkt = max(float(np.max(np.abs(res.x - step))), float(np.max(np.abs(eta * sol["h"]))))
    status = {"converged": res.status == 0 and viol <= LOWER_VIOLATION_TOL,
              "max_violation": viol, "iterations": int(res.nit),
              "exit_status": int(res.status), "kkt_residual": kkt}
    return LowerSolution(decision=sol["dv"], value=float(sol["tr"].z[-1]), eta=eta,
                         status=status, gamma=gamma)


def _reverse_rk4(tr: StateTrajectory, cp: ControlProfile, eta: np.ndarray,
                 gamma: float, s: Scenario, terminal_y=None):
    """Exact discrete adjoint of the RK4 propagation of the smoothed system.

    Backpropagates L = z(T*) + sum_i eta_i * h_lower_i through the forward's
    own step map: stage states of every interval from ``plan_path`` and
    ``rk4_stages``, field Jacobians of every (stage, interval) pair from one
    ``stage_slope`` call; only the 2x2 backward recursion over nodes is
    sequential.  Returns node cotangents (q_y, q_x) = dL/d(y_i, x_i) and the
    control gradients (dL/domega, dL/dv, dL/du, dL/du0), exact to roundoff.
    ``eta`` may be an (N+1, K) array: its K weight columns are swept at once,
    and every output then has a trailing axis of K columns.
    """
    grid = tr.grid
    dt = grid.dt
    eye = np.eye(s.dim)
    w = _trapz_weights(grid)
    _, y_st, _ = plan_path(cp.v, cp.omega, s, grid)
    controls = stage_controls(cp.u, cp.u0, cp.omega)
    x_st, _ = rk4_stages(tr.x[:-1], slice(None), y_st, controls, gamma, s, dt)
    X, Y, U, U0, W = (np.stack(a) for a in (x_st, y_st) + controls)   # (4, N, ...)
    V, U0W = np.stack(stage_values(cp.v)), U0 * W
    _, (k_x, k_y, k_u, k_w, k_u0w) = stage_slope(X, Y, U, W, U0W, gamma, s, jacobians=True)

    # stage cotangents are linear in lam_x = dL/dx_{i+1}: g_j = G_j lam_x, where
    # g_j = b_j lam_x + a_{j+1} dt k_x[j+1]^T g_{j+1} unrolls the stage updates
    b = (dt / 6.0) * np.asarray(RK4_WEIGHTS)
    kxT, kyT = np.swapaxes(k_x, -1, -2), np.swapaxes(k_y, -1, -2)
    G = np.empty_like(k_x)
    G[3] = b[3] * eye
    for j in (2, 1, 0):
        G[j] = b[j] * eye + (RK4_OFFSETS[j + 1] * dt) * (kxT[j + 1] @ G[j + 1])
    phiT = eye + np.sum(kxT @ G, axis=0)           # (dx_{i+1}/dx_i)^T
    psiT = np.sum(kyT @ G, axis=0)                 # (dx_{i+1}/dy_i)^T

    cols = eta.reshape(eta.shape[0], -1)           # (N+1, K)
    hd = (tr.x - tr.y)[..., None] * cols[:, None, :]   # eta_i grad_x h_lower_i, (N+1, dim, K)
    q_x = np.empty_like(hd)
    q_x[-1] = hd[-1]
    for i in range(grid.n_intervals - 1, -1, -1):
        q_x[i] = phiT[i] @ q_x[i + 1] + hd[i]
    lam_x = q_x[1:]
    # q_y needs no recursion: its increments are known once lam_x is
    term = 0.0 if terminal_y is None else np.asarray(terminal_y, dtype=float)[:, None]
    dq_y = np.concatenate([psiT @ lam_x - hd[:-1], [term - hd[-1]]])
    q_y = np.cumsum(dq_y[::-1], axis=0)[::-1]

    gx = G @ lam_x                                             # (4, N, dim, K)
    jy = kyT @ gx
    gy = b[:, None, None, None] * q_y[1:]
    gy[:3] += (np.asarray(RK4_OFFSETS[1:]) * dt)[:, None, None, None] * jy[1:]
    g_u0w = np.einsum("jid,jidk->jik", k_u0w, gx)

    def to_nodes(g, effort):
        # every column starts from the effort integrand's own derivative; stage
        # 0 reads node i, stages 1 and 2 the average of nodes i and i+1, stage 3 node i+1
        into = np.repeat(effort[..., None], cols.shape[1], axis=-1)
        mid = 0.5 * (g[1] + g[2])
        into[:-1] += g[0] + mid
        into[1:] += g[3] + mid
        return into

    d_om = to_nodes(np.einsum("jid,jidk->jik", k_w, gx) + np.einsum("jid,jidk->jik", V, gy)
                    + U0[..., None] * g_u0w, w * (np.sum(cp.u * cp.u, axis=1) + cp.u0 ** 2))
    d_v = to_nodes(W[..., None, None] * gy, np.zeros_like(cp.v))
    d_u = to_nodes(np.swapaxes(k_u, -1, -2) @ gx, w[:, None] * 2.0 * cp.u * cp.omega[:, None])
    d_u0 = to_nodes(W[..., None] * g_u0w, w * 2.0 * cp.u0 * cp.omega)
    out = (q_y, q_x, d_om, d_v, d_u, d_u0)
    return out if eta.ndim > 1 else tuple(a[..., 0] for a in out)


def _project_out_normal(zeta2: np.ndarray, v: np.ndarray, s: Scenario) -> np.ndarray:
    """Remove the outward normal-cone component at nodes with |v| on the ball."""
    nrm = np.linalg.norm(v, axis=1)
    vhat = v / np.maximum(nrm, 1e-300)[:, None]
    on_ball = (s.v_bound > 0) & (nrm >= s.v_bound * (1.0 - 1e-9))
    outward = np.where(on_ball, np.maximum(0.0, dot_rows(zeta2, vhat)), 0.0)
    return zeta2 - outward[:, None] * vhat


def value_subgradient(omega, v, lower: LowerSolution, s: Scenario):
    """Value-function subgradient selection (zeta1 wrt omega, zeta2 wrt v).

    zeta1 is the per-node density of dphi/domega against the trapezoidal
    weights; zeta2 the corresponding vector density for v, with the outward
    normal-cone component removed at nodes where |v| sits on the ball.  Both
    come from the reverse sweep of the integrator with the lower solve's
    weights eta, so they agree with central differences of the lower
    Lagrangian to roundoff.
    """
    dec = lower.decision
    cp = ControlProfile(dec.controls.grid, v, dec.controls.u, dec.controls.u0, omega)
    tr = integrate_smooth(cp, dec.x_init, lower.gamma, s)
    _, _, d_om, d_v, _, _ = _reverse_rk4(tr, cp, lower.eta, lower.gamma, s)
    w = _trapz_weights(cp.grid)
    return d_om / w, _project_out_normal(d_v / w[:, None], cp.v, s)


# --------------------------------------------------------------------------
# bilevel solve

def _initial_guesses(s: Scenario, grid: TimeGrid, opts: SolverOptions):
    """Structured aim-at-target guess plus seeded random perturbations."""
    n = grid.n_nodes
    d = target_distance(s.y0_arr, s)
    dhat = target_direction(s.y0_arr, s)
    if np.linalg.norm(dhat) < 1e-12:
        dhat = np.array([1.0, 0.0])
    omega0 = max(float(d) / max(s.v_bound, 1e-9), 0.5)
    guesses = [(np.tile(s.v_bound * dhat, (n, 1)), np.full(n, 1.1 * omega0))]
    rng = np.random.default_rng(opts.seed)
    for _ in range(opts.seeds - 1):
        ang = rng.normal(scale=0.4)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        scale = float(np.exp(rng.normal(scale=0.25)))
        guesses.append((np.tile(s.v_bound * (rot @ dhat), (n, 1)),
                        np.full(n, 1.1 * omega0 * scale)))
    return guesses


def _plan_residuals(flat, s: Scenario, grid: TimeGrid, jac=False):
    """The N+2 constraint residuals of one plan ``flat`` = (v, omega), each
    <= 0 on a feasible plan: h_upper at the nodes (node 0's is constant),
    then the terminal miss target_distance(y_N) - TARGET_TOL_FACTOR*R, all
    from the closed-form plan nodes.  With ``jac``, also their (N+2, 3(N+1))
    Jacobian from one ``reverse_plan_nodes`` sweep of N+2 cotangent columns:
    y_i - q0 at node i for h_upper_i, and -target_direction(y_N) at node N
    for the miss where target_distance is positive.

    The returned decision is the lower solve's at the plan, so the penalty
    term rho*(z - phi) of the flattened problem is zero and the plan problem
    reads only the plan: the travel time t_N and these residuals.  The
    penalty weight only scales the certificate multipliers (see
    ``certificate.extract_multipliers``).
    """
    n = grid.n_nodes
    v, omega = flat[:s.dim * n].reshape(n, s.dim), flat[s.dim * n:]
    ys, _ = plan_nodes(v, omega, s, grid)
    res = np.append(h_upper(ys, s), target_distance(ys[-1], s) - TARGET_TOL_FACTOR * s.R)
    if not jac:
        return res
    lam_y = np.zeros((n, s.dim, n + 1))
    lam_y[np.arange(n), :, np.arange(n)] = ys - s.q0_arr
    if target_distance(ys[-1], s) > 0.0:
        lam_y[-1, :, n] = -target_direction(ys[-1], s)
    d_v, d_om = reverse_plan_nodes(v, omega, lam_y, grid)
    return res, np.vstack([d_v.reshape(s.dim * n, n + 1), d_om]).T


def _solve_plan(s: Scenario, grid: TimeGrid, v, omega, max_iter: int) -> dict:
    """One SLSQP solve of the plan problem from (v, omega), within
    ``max_iter`` iterations: minimize t_N = trapz(omega), whose gradient is
    constant, subject to the rows of ``_plan_residuals`` <= 0 on their exact
    Jacobian, the v-balls as inequality rows and omega in [0, cap] as bounds.
    It reads no gamma and solves no lower problem; ``mults`` are SLSQP's
    multipliers of the N+2 residual rows, split into h_upper's and the
    terminal miss's."""
    n, k = grid.n_nodes, s.dim * grid.n_nodes
    w = _trapz_weights(grid)
    grad_t = np.concatenate([np.zeros(k), w])
    omega_cap = OMEGA_CAP_FACTOR * (2.0 * s.R) / max(s.v_bound, 1e-9)
    # SLSQP writes into the gradient it is handed, so it gets a copy
    res = minimize(lambda f: w @ f[k:], np.concatenate([v.ravel(), omega]), method="SLSQP",
                   jac=lambda f: grad_t.copy(),
                   bounds=[(None, None)] * k + [(0.0, omega_cap)] * n,
                   constraints=[{"type": "ineq", "fun": lambda f: -_plan_residuals(f, s, grid),
                                 "jac": lambda f: -_plan_residuals(f, s, grid, jac=True)[1]},
                                _ball_rows(0, n, s.dim, s.v_bound)],
                   options={"maxiter": max_iter, "ftol": SLSQP_FTOL})
    return {"v": res.x[:k].reshape(n, s.dim), "omega": res.x[k:], "T": float(w @ res.x[k:]),
            "violation": float(np.max(_plan_residuals(res.x, s, grid), initial=0.0)),
            "mults": {"h_upper": np.array(res.multipliers[:n]),
                      "target": float(res.multipliers[n])}, "iterations": int(res.nit),
            "exit_status": int(res.status)}


def solve_bilevel(s: Scenario, gamma_sched: Optional[SmoothingSchedule] = None,
                  opts: Optional[SolverOptions] = None) -> BilevelSolution:
    """The plan once, then the lower problem at that plan along the gamma schedule."""
    opts = opts or SolverOptions()
    report = validate(s)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures())
        raise ValueError(f"scenario fails validation: {names}")
    gamma_sched = gamma_sched or SmoothingSchedule.default_for(s)
    gamma_sched.validate_against(s)
    gammas = gamma_sched.gammas

    grid = TimeGrid(opts.n_intervals)

    # seed screening with a small budget, on the plan problem alone; it reads
    # no gamma, so the kept seed's plan is solved once, whatever the schedule
    screened = [_solve_plan(s, grid, v0, om0, opts.screen_iters)
                for v0, om0 in _initial_guesses(s, grid, opts)]
    start = min(screened, key=lambda cand: cand["T"] + 10.0 * cand["violation"])
    plan = _solve_plan(s, grid, start["v"], start["omega"], opts.upper_max_iter)

    path = _solve_lower_path(plan["omega"], plan["v"], gammas, s, opts)
    history = [{"gamma": lo.gamma, "phi": lo.value, **lo.status} for lo in path]
    # the path's last solve is the returned one
    lower, gamma_f = path[-1], gammas[-1]
    tr = integrate_smooth(lower.decision.controls, lower.decision.x_init, gamma_f, s)
    lower_ok, viol = bool(lower.status["converged"]), plan["violation"]
    plan_ok = plan["exit_status"] == 0 and viol <= UPPER_VIOLATION_TOL
    return BilevelSolution(
        decision=lower.decision, T_star=tr.T, gamma_final=gamma_f,
        lower=lower, history=tuple(history), trajectory=tr,
        upper_mults=plan["mults"],
        status={"lower_converged": lower_ok, "max_violation": viol,
                "converged": lower_ok and plan_ok,
                "plan_iterations": start["iterations"] + plan["iterations"],
                "plan_exit_status": plan["exit_status"]},
    )


def _solve_lower_path(omega, v, gammas, s: Scenario, opts: SolverOptions) -> list:
    """The lower problem at the plan (omega, v) for each gamma in ``gammas``:
    cold at the first, each later one warm-started from the one before."""
    path = []
    for gamma in gammas:
        path.append(solve_lower(omega, v, gamma, s, opts, warm=path[-1] if path else None))
    return path


def penalty_gap(sol: BilevelSolution) -> float:
    """z(T*) of the returned decision minus the lower-level value: zero by
    construction, as both are ``propagate_smooth``'s effort for the returned
    lower solve's decision; it shows that decision is returned, not that it is optimal."""
    return float(sol.trajectory.z[-1] - sol.lower.value)
