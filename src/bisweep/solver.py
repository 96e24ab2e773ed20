"""Nested numerical optimization of the bilevel sweeping problem.

Layout of the nested scheme:

* ``solve_lower`` -- projected-gradient / augmented-Lagrangian descent on the
  transcribed lower effort problem for frozen (omega, v); produces the value
  phi, the minimizing decision and the nodal KKT weights eta of its contact
  constraints, the one lower multiplier set.
* ``value_subgradient`` -- a subgradient selection of phi with respect to the
  upper controls, derived from eta through the exact discrete adjoint of the
  forward RK4 step map (``dynamics.rk4_stages``, ``plan_path``).
* ``solve_bilevel`` -- the plan (v, omega) first, then the lower problem at
  that plan.  The upper merit reads only the plan (travel time, containment
  of the plan disk, terminal miss), so the plan does not depend on the
  smoothing gain gamma: seeds are screened on that merit, and the plan is
  solved by the same projected-gradient descent as the lower level, one
  augmented-Lagrangian pass per schedule entry.  ``_solve_lower_path`` then
  solves the lower problem at the plan for each gamma of the schedule, each
  solve warm-started from the one before -- the passage gamma -> infinity at
  the solved plan -- and a final solve at twice the budget gives the
  returned decision.

``SolverOptions`` holds only the grid, the multi-start seeds and the
iteration budgets; the descent's step rule, stopping rules, initial
penalties and the other numerical settings are the module constants below.
All randomness is confined to seeded multi-start control guesses.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.optimize import nnls

from .dynamics import (
    RK4_OFFSETS,
    RK4_WEIGHTS,
    ControlProfile,
    StateTrajectory,
    TimeGrid,
    SmoothingSchedule,
    integrate_smooth,
    plan_path,
    rk4_stages,
    stage_controls,
    stage_slope,
    stage_values,
)
from .geometry import (
    Scenario,
    dot_rows,
    h_upper,
    project_disk,
    target_distance,
    target_direction,
    validate,
)
from .transcription import DecisionVector, assemble_lower, fd_grad_jac

__all__ = [
    "SolverOptions",
    "LowerSolution",
    "BilevelSolution",
    "solve_lower",
    "value_subgradient",
    "solve_bilevel",
    "penalty_gap",
]


UPPER_VIOLATION_TOL = 1e-9  # the upper AL stops once its constraint violation is this small
FD_STEP = 1e-6              # central-difference step of both descents' gradients
STEP0 = 0.5                 # first trial step, divided by max(1, |gradient|)
ARMIJO = 1e-4               # sufficient-decrease fraction of the backtracking search
# stopping rule of one descent: (step tolerance, step halvings, gradient floor)
LOWER_STOP = (1e-10, 12, 1e-14)
UPPER_STOP = (1e-9, 14, 1e-13)
LOWER_PENALTY0 = 20.0       # initial AL penalties of the two levels
UPPER_PENALTY0 = 4.0
UPPER_AL_ROUNDS = 6         # AL rounds of one pass of the plan solve
SCREEN_AL_ROUNDS = 2        # ... and of the pass that screens a seed
TARGET_TOL_FACTOR = 1e-3    # the upper terminal constraint allows a miss of this times R
OMEGA_CAP_FACTOR = 10.0     # omega is capped at this times 2R / v_bound
ACTIVE_BAND = 0.25          # nodes with h_lower above -ACTIVE_BAND*R1^2 may carry weight


@dataclass(frozen=True)
class SolverOptions:
    n_intervals: int = 40
    seeds: int = 8
    seed: int = 0
    lower_max_iter: int = 80
    lower_al_rounds: int = 5
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
    # (N+1,) nodal KKT weights of the contact constraints h_lower <= 0, None
    # when solved without multipliers; the contact measure mu_L is their
    # reversed cumulative sum and p_L follows from ``_reverse_rk4``
    eta: Optional[np.ndarray]
    status: dict
    gamma: float


@dataclass(frozen=True)
class BilevelSolution:
    decision: DecisionVector
    T_star: float
    gamma_final: float
    lower: LowerSolution
    # one record per gamma of the lower path at the plan: gamma, phi and that
    # solve's converged, max_violation and al_rounds
    history: tuple
    trajectory: StateTrajectory
    upper_mults: dict
    # lower_converged (the final lower solve), max_violation (the plan's
    # upper violation) and converged (both within their stops)
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


def _al_merit(obj, res, mu, c):
    """Augmented-Lagrangian value for inequality residuals res <= 0."""
    shifted = np.maximum(0.0, mu + c * res)
    return obj + np.sum(shifted ** 2 - mu ** 2, axis=-1) / (2.0 * c)


def _pg_minimize(eval_many, project, flat, mu, c, max_iter, stop):
    """Projected gradient with Armijo backtracking on the AL merit, from a
    projected ``flat``; with ``stop`` = (step_tol, halvings, gtol), stops at
    ``max_iter`` steps, a gradient norm below ``gtol``, no Armijo step among
    ``halvings`` halvings, or a step below ``step_tol``.  ``project`` maps a
    batch (B, dim) of points row by row."""
    step_tol, halvings, gtol = stop
    obj, res = eval_many(flat[None, :])
    merit = float(_al_merit(obj, res, mu, c)[0])
    for _ in range(max_iter):
        grad, jac = fd_grad_jac(eval_many, flat, FD_STEP)
        shifted = np.maximum(0.0, mu + c * res[0])
        g = grad + jac.T @ shifted
        gnorm = np.linalg.norm(g)
        if gnorm < gtol:
            break
        alphas = STEP0 * 0.5 ** np.arange(halvings) / max(1.0, gnorm)
        cands = project(flat - alphas[:, None] * g)
        obj_c, res_c = eval_many(cands)
        merits = _al_merit(obj_c, res_c, mu, c)
        decrease = np.array([ARMIJO * np.dot(g, flat - cand) for cand in cands])
        ok = merits <= merit - np.maximum(decrease, 0.0)
        if not np.any(ok):
            break
        j = int(np.argmax(ok))
        step = np.linalg.norm(cands[j] - flat)
        flat = cands[j]
        merit = float(merits[j])
        obj, res = obj_c[j:j + 1], res_c[j:j + 1]
        if step < step_tol:
            break
    return flat, float(obj[0]), res[0], merit


# --------------------------------------------------------------------------
# lower-level solve

def solve_lower(omega, v, gamma: float, s: Scenario, opts: Optional[SolverOptions] = None,
                warm: Optional[LowerSolution] = None,
                with_multipliers: bool = True) -> LowerSolution:
    """Augmented-Lagrangian projected-gradient solve of the lower effort problem
    on the grid of ``omega``'s nodes."""
    opts = opts or SolverOptions()
    omega = np.asarray(omega, dtype=float)
    v = np.asarray(v, dtype=float)
    grid = TimeGrid(omega.shape[0] - 1)
    nlp = assemble_lower(omega, v, gamma, s, grid)
    n = grid.n_nodes

    def project(flat):
        d, k, batch = s.dim, s.dim + s.dim * n, flat.shape[:-1]
        out = flat.copy()
        out[..., :d] = project_disk(out[..., :d], s.y0_arr, s.R1)
        u = out[..., d:k].reshape(*batch, n, d)
        out[..., d:k] = _project_ball_rows(u, s.u_bound).reshape(*batch, d * n)
        out[..., k:] = np.clip(out[..., k:], 0.0, 1.0)
        return out

    if warm is not None:
        warm_n = warm.decision.controls.grid.n_nodes
        if warm_n != n:
            raise ValueError(f"warm start has {warm_n} nodes, the solve {n}")
        flat = nlp.pack(DecisionVector(warm.decision.x_init, ControlProfile(
            grid, v, warm.decision.controls.u, warm.decision.controls.u0, omega)))
        mu = warm.eta.copy() if warm.eta is not None else np.zeros(n)
        c = min(warm.status["penalty"], 100.0 * LOWER_PENALTY0)
    else:
        cp0 = ControlProfile(grid, v, np.zeros((n, s.dim)), np.zeros(n), omega)
        flat = nlp.pack(DecisionVector(s.y0_arr.copy(), cp0))
        mu = np.zeros(n)
        c = LOWER_PENALTY0

    prev_viol = np.inf
    iters = 0
    for rnd in range(opts.lower_al_rounds):
        flat, obj, res, _ = _pg_minimize(nlp.eval_many, project, project(flat), mu, c,
                                         opts.lower_max_iter, LOWER_STOP)
        iters += 1
        viol = float(np.max(res, initial=0.0))
        mu = np.maximum(0.0, mu + c * res)
        if viol <= 1e-8:
            break
        if viol > 1e-7 and viol > 0.25 * prev_viol:
            c = min(c * 4.0, 1e6)
        prev_viol = viol

    dv = nlp.unpack(flat)
    value = float(obj)
    status = {"converged": float(np.max(res, initial=0.0)) <= 1e-7,
              "al_rounds": iters, "penalty": c,
              "max_violation": float(np.max(res, initial=0.0))}
    eta = _kkt_weights(nlp, flat, res, s) if with_multipliers else None
    return LowerSolution(decision=dv, value=value, eta=eta, status=status, gamma=gamma)


def _kkt_weights(nlp, flat, res, s: Scenario) -> np.ndarray:
    """Nonnegative nodal constraint weights fitted to the stationarity system.

    The projected-gradient iterates settle with the contact constraints
    slightly inside the rim (the smoothed pull equilibrates there), so the
    weights are recovered from a nonnegative least-squares fit of
    grad z + J^T eta = 0 over the near-active nodes.
    """
    grad, jac = fd_grad_jac(nlp.eval_many, flat, FD_STEP)
    eta = np.zeros(res.shape[0])
    act = res >= -ACTIVE_BAND * s.R1 ** 2
    if np.any(act):
        sol, _ = nnls(jac[act].T, -grad)
        eta[act] = sol
    return eta


def _reverse_rk4(tr: StateTrajectory, cp: ControlProfile, eta: np.ndarray,
                 gamma: float, s: Scenario, terminal_y=None):
    """Exact discrete adjoint of the RK4 propagation of the smoothed system.

    Backpropagates L = z(T*) + sum_i eta_i * h_lower_i through the forward's
    own step map: stage states of every interval from ``plan_path`` and
    ``rk4_stages``, field Jacobians of every (stage, interval) pair from one
    ``stage_slope`` call; only the 2x2 backward recursion over nodes is
    sequential.  Returns node cotangents (q_y, q_x) = dL/d(y_i, x_i) and the
    control gradients (dL/domega, dL/dv, dL/du, dL/du0), exact to roundoff.
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

    d = tr.x - tr.y
    q_x = np.empty_like(d)
    q_x[-1] = eta[-1] * d[-1]
    for i in range(grid.n_intervals - 1, -1, -1):
        q_x[i] = phiT[i] @ q_x[i + 1] + eta[i] * d[i]
    lam_x = q_x[1:]
    # q_y needs no recursion: its increments are known once lam_x is
    dq_y = np.concatenate([(psiT @ lam_x[..., None])[..., 0] - eta[:-1, None] * d[:-1],
                           [-eta[-1] * d[-1] + (0.0 if terminal_y is None else terminal_y)]])
    q_y = np.cumsum(dq_y[::-1], axis=0)[::-1]

    gx = (G @ lam_x[..., None])[..., 0]                        # (4, N, dim)
    jy = (kyT @ gx[..., None])[..., 0]
    gy = b[:, None, None] * q_y[1:]
    gy[:3] += (np.asarray(RK4_OFFSETS[1:]) * dt)[:, None, None] * jy[1:]
    g_u0w = np.sum(k_u0w * gx, axis=-1)

    def to_nodes(g, into):
        # stage 0 reads node i, stages 1 and 2 the average of nodes i and i+1, stage 3 node i+1
        mid = 0.5 * (g[1] + g[2])
        into[:-1] += g[0] + mid
        into[1:] += g[3] + mid
        return into

    # the effort integrand's own derivatives, then the stage cotangents
    d_om = to_nodes(np.sum(k_w * gx, axis=-1) + np.sum(V * gy, axis=-1) + U0 * g_u0w,
                    w * (np.sum(cp.u * cp.u, axis=1) + cp.u0 ** 2))
    d_v = to_nodes(W[..., None] * gy, np.zeros_like(cp.v))
    d_u = to_nodes((np.swapaxes(k_u, -1, -2) @ gx[..., None])[..., 0],
                   w[:, None] * 2.0 * cp.u * cp.omega[:, None])
    d_u0 = to_nodes(W * g_u0w, w * 2.0 * cp.u0 * cp.omega)
    return q_y, q_x, d_om, d_v, d_u, d_u0


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
    if lower.eta is None:
        raise ValueError("the lower solution carries no multipliers "
                         "(solved with with_multipliers=False)")
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


def _upper_eval_many(flats, s: Scenario, grid: TimeGrid, target_tol):
    """Objective and residuals of the plan-level merit for plans (v, omega).

    The returned decision is the lower solve's at the plan, so the penalty
    term rho*(z - phi) of the flattened problem is zero and the merit reads only
    the plan: the travel time t(T*), h_upper at the nodes and the terminal
    miss, all from the closed-form plan path.  The penalty weight only
    scales the certificate multipliers (see ``certificate.extract_multipliers``).
    """
    n = grid.n_nodes
    flats = np.atleast_2d(flats)
    B = flats.shape[0]
    v = flats[:, :s.dim * n].reshape(B, n, s.dim).transpose(1, 0, 2)
    omega = np.clip(flats[:, s.dim * n:].T, 0.0, None)
    ys, _, ts = plan_path(v, omega, s, grid)
    obj = ts[-1]
    hu = h_upper(ys, s).T                     # (B, N+1)
    term = np.atleast_1d(target_distance(ys[-1], s)) - target_tol
    res = np.concatenate([hu, term[:, None]], axis=1)
    return obj, res


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

    # seed screening with a small budget, on the upper merit alone
    screened = [_run_stage(s, grid, v0, om0, None, opts.screen_iters, SCREEN_AL_ROUNDS)
                for v0, om0 in _initial_guesses(s, grid, opts)]
    plan = min(screened, key=lambda cand: cand["T"] + 10.0 * cand["violation"])
    # the merit does not read gamma: the schedule only sets the plan's budget,
    # one AL pass per entry with the weights carried over
    for _ in gammas:
        plan = _run_stage(s, grid, plan["v"], plan["omega"], plan["weights"], opts.upper_max_iter)

    path = _solve_lower_path(plan["omega"], plan["v"], gammas, s, opts)
    history = [{"gamma": lo.gamma, "phi": lo.value, "converged": lo.status["converged"],
                "max_violation": lo.status["max_violation"], "al_rounds": lo.status["al_rounds"]}
               for lo in path]

    gamma_f = gammas[-1]
    # final accurate lower solve; its decision is the returned one
    final_opts = replace(opts, lower_max_iter=2 * opts.lower_max_iter,
                         lower_al_rounds=opts.lower_al_rounds + 2)
    lower = solve_lower(plan["omega"], plan["v"], gamma_f, s, final_opts, warm=path[-1])
    tr = integrate_smooth(lower.decision.controls, lower.decision.x_init, gamma_f, s)
    lower_ok, viol = bool(lower.status["converged"]), plan["violation"]
    mu_hu, mu_term, _ = plan["weights"]
    return BilevelSolution(
        decision=lower.decision, T_star=tr.T, gamma_final=gamma_f,
        lower=lower, history=tuple(history), trajectory=tr,
        upper_mults={"h_upper": mu_hu.copy(), "target": float(mu_term)},
        status={"lower_converged": lower_ok, "max_violation": viol,
                "converged": lower_ok and viol <= UPPER_VIOLATION_TOL},
    )


def _run_stage(s, grid, v, omega, weights, max_iter, al_rounds=UPPER_AL_ROUNDS):
    """One upper AL pass from the plan (v, omega) and the AL ``weights``
    (mu_hu, mu_term, c) of the pass before (None: a fresh start).  It reads
    no gamma and solves no lower problem."""
    n = grid.n_nodes
    target_tol = TARGET_TOL_FACTOR * s.R
    omega_cap = OMEGA_CAP_FACTOR * (2.0 * s.R) / max(s.v_bound, 1e-9)
    mu_hu, mu_term, c = weights or (np.zeros(n), 0.0, UPPER_PENALTY0)

    def project(flat):
        out, batch = flat.copy(), flat.shape[:-1]
        vv = out[..., :s.dim * n].reshape(*batch, n, s.dim)
        out[..., :s.dim * n] = _project_ball_rows(vv, s.v_bound).reshape(*batch, s.dim * n)
        out[..., s.dim * n:] = np.clip(out[..., s.dim * n:], 0.0, omega_cap)
        return out

    def eval_many(pts):
        return _upper_eval_many(pts, s, grid, target_tol)

    flat = project(np.concatenate([v.ravel(), omega]))
    for _ in range(al_rounds):
        mu = np.concatenate([mu_hu, [mu_term]])
        flat, _, res, _ = _pg_minimize(eval_many, project, flat, mu, c, max_iter, UPPER_STOP)
        viol = float(np.max(res, initial=0.0))
        mu_hu = np.maximum(0.0, mu_hu + c * res[:n])
        mu_term = max(0.0, mu_term + c * res[n])
        if viol <= UPPER_VIOLATION_TOL:
            break
        c = min(c * 2.0, 1e7)

    vv, om = flat[:s.dim * n].reshape(n, s.dim), flat[s.dim * n:]
    _, res = eval_many(flat[None, :])
    return {"v": vv, "omega": om, "weights": (mu_hu, mu_term, c),
            "T": float(np.sum(_trapz_weights(grid) * om)),
            "violation": float(np.max(res[0], initial=0.0))}


def _solve_lower_path(omega, v, gammas, s: Scenario, opts: SolverOptions) -> list:
    """The lower problem at the plan (omega, v) for each gamma in ``gammas``:
    cold at the first, each later one warm-started from the one before."""
    path = []
    for gamma in gammas:
        path.append(solve_lower(omega, v, gamma, s, opts, warm=path[-1] if path else None,
                                with_multipliers=False))
    return path


def penalty_gap(sol: BilevelSolution) -> float:
    """z(T*) of the returned decision minus the lower-level value: zero by
    construction, as both are ``propagate_smooth``'s effort for the final lower
    solve's decision; it shows that decision is returned, not that it is optimal."""
    return float(sol.trajectory.z[-1] - sol.lower.value)
