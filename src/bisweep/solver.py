"""Nested numerical optimization of the bilevel sweeping problem.

Layout of the nested scheme:

* ``solve_lower`` -- one SLSQP solve of the transcribed lower effort problem
  for frozen (omega, v), on exact derivatives from the reverse sweep
  ``dynamics.reverse_smooth``; produces the value phi, the minimizing
  decision and SLSQP's multipliers eta of its contact constraints, the one
  lower multiplier set.  The plan is checked and its plan path built once
  per solve (``dynamics.frozen_plan``) and passed to each SLSQP iterate's
  forward and reverse with its lower controls (x_init, u, u0); the reverse
  reads the forward's RK4 stage points and sweeps only the swept point,
  never the plan's cotangents.  u0's floor and cap and the u-balls go to
  SLSQP only where they bind, so the QP pays for no row that never binds.
  SLSQP works on the transcription's scaled decision, in which the effort is
  half a squared norm: its quasi-Newton matrix starts at the identity on
  every solve, warm ones included, and that is then the effort's exact
  Hessian.
* ``value_subgradient`` -- a subgradient selection of phi with respect to the
  upper controls, derived from eta through the same exact discrete adjoint
  of the forward RK4 step map, the one reader of its plan cotangents.
* ``solve_bilevel`` -- the plan (v, omega) first, then the lower problem at
  that plan.  The plan problem reads only the plan (travel time, containment
  of the plan disk, terminal miss), so it does not depend on the smoothing
  gain gamma.  ``_solve_plan`` solves it with one SLSQP run, the same
  mechanism as ``solve_lower``: the constraint Jacobian comes from one
  reverse sweep of the plan path (``dynamics.reverse_plan_path``), and
  SLSQP's multipliers of the constraint rows are the upper multipliers.
  Seeds are screened with a small iteration cap, and the kept seed's plan is
  solved once.  ``_solve_lower_path`` then solves the lower problem at the
  plan for each gamma of the schedule, each solve warm-started from the one
  before -- the passage gamma -> infinity at the solved plan -- and its last
  solve is the returned one.

``SolverOptions`` holds only the grid, the number of multi-start guesses and
the iteration budgets; SLSQP's accuracy and the other numerical settings are
the module constants below.  All randomness is confined to the multi-start
control guesses, drawn from a fixed stream, so a solve is deterministic.
Every SLSQP run, plan and lower, runs at one scipy BLAS thread
(``_one_blas_thread``), so no result depends on ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .dynamics import (
    StateTrajectory,
    TimeGrid,
    SmoothingSchedule,
    frozen_plan,
    integrate_smooth,
    plan_nodes,
    propagate_smooth,
    reverse_plan_path,
    reverse_smooth,
    trapz_weights,
)
from .geometry import (
    Scenario,
    checked,
    h_lower,
    h_upper,
    project_ball_rows,
    project_out_normal,
    target_distance,
    target_direction,
    validate,
)
from .transcription import SCALE_FLOOR, DecisionVector, NLPInstance

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
LOWER_VIOLATION_TOL = 1e-7  # a lower solve converged: SLSQP exit 0, h_lower at most this and
LOWER_KKT_TOL = 1e-4        # its KKT residual at most this


@dataclass(frozen=True)
class SolverOptions:
    n_intervals: int = 40
    seeds: int = 8
    lower_max_iter: int = 150
    upper_max_iter: int = 30
    screen_iters: int = 5

    def __post_init__(self):
        # a grid has at least 2 intervals (TimeGrid)
        for name, value in vars(self).items():
            checked(f"solver option {name}", value, int, least=2 if name == "n_intervals" else 1)


@dataclass(frozen=True)
class LowerSolution:
    decision: DecisionVector
    value: float
    # (N+1,) SLSQP multipliers of the contact constraints h_lower <= 0; the
    # contact measure mu_L is their reversed cumulative sum and p_L follows
    # from ``dynamics.reverse_smooth``
    eta: np.ndarray
    # converged, max_violation, iterations, exit_status (SLSQP's) and
    # kkt_residual
    status: dict
    gamma: float


@dataclass(frozen=True)
class BilevelSolution:
    T_star: float
    lower: LowerSolution
    # one record per gamma of the lower path at the plan: gamma, phi and that
    # solve's status
    history: tuple
    trajectory: StateTrajectory
    upper_mults: dict
    # lower_converged (every solve of the lower path), max_violation (the plan's
    # upper violation), converged (both within their stops, the plan's SLSQP
    # exit 0), plan_iterations (SLSQP's, its seed's screening included) and
    # plan_exit_status (SLSQP's own code of the plan solve)
    status: dict

    def to_dict(self) -> dict:
        return {
            "T_star": self.T_star,
            "gamma_final": self.lower.gamma,
            "phi": self.lower.value,
            "gap": penalty_gap(self),
            "status": self.status,
            "history": list(self.history),
        }


# --------------------------------------------------------------------------
# helpers

def _ball_rows(start, nodes, d, bound):
    """SLSQP inequality rows 0.5 (bound_i^2 - |a_i|^2) >= 0, with their
    Jacobian, for the vectors a_i of length d packed at flat[start + i d:start
    + (i + 1) d], one row per i of the index array ``nodes``; ``bound`` is one
    radius for every row or an array of them, one per row."""
    cols = start + d * nodes[:, None] + np.arange(d)
    rows = np.repeat(np.arange(len(cols)), d)

    def jac(flat):
        out = np.zeros((len(cols), flat.size))
        out[rows, cols.ravel()] = -flat[cols.ravel()]
        return out

    return {"type": "ineq", "jac": jac,
            "fun": lambda f: 0.5 * (bound ** 2 - np.sum(f[cols] ** 2, axis=1))}


@functools.cache
def _scipy_blas():
    """scipy's bundled OpenBLAS, found among this process's mapped libraries
    by its unsuffixed thread setter (numpy's bundled copy has a 64-bit
    suffix), or None where there is none or no ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "libscipy_openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads"):
            return lib
    return None


@contextmanager
def _one_blas_thread():
    """Run at one scipy BLAS thread, restoring the caller's count on exit.
    SLSQP's QP rounds differently with OpenBLAS's worker threads, so this
    makes every solve independent of ``OPENBLAS_NUM_THREADS``."""
    lib = _scipy_blas()
    if lib is None:
        yield
        return
    count = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(count)


# --------------------------------------------------------------------------
# lower-level solve

@_one_blas_thread()
def solve_lower(omega, v, gamma: float, s: Scenario, opts: Optional[SolverOptions] = None,
                warm: Optional[LowerSolution] = None) -> LowerSolution:
    """One SLSQP solve of the transcribed lower effort problem on the grid of
    ``omega``'s nodes, from ``warm``'s decision or else from rest at y0.

    A gain that ``Scenario.smoothing_gain`` or a plan (omega, v) that
    ``dynamics.frozen_plan`` refuses is a ValueError, checked once per call
    where the plan path is built; the iterates read that path and build no
    control profile.  The contacts h_lower <= 0 include node 0, where they
    are x_init's disk.  Three constraints go to SLSQP only at a working set
    of nodes, each round warm-starting the next within the one budget
    ``lower_max_iter`` (``status["iterations"]`` counts every round):
    - the u-ball |u_i| <= u_bound, an inequality row scaled by the
      transcription's node scale D, where the start has |u_i| at u_bound
      (within 1e-6 relative) and where a round, a failed one too, ends with
      |u_i| above it;
    - u0's floor 0, a bound and ``NLPInstance.split``'s clip, where the
      start has u0 at most 1e-3 (every node of a cold start) and where a
      round, a failed one too, ends with u0 below 0;
    - u0's cap 1, likewise, where the start has u0 at 1, where D is floored
      (the effort hardly bounds u0 there), and where a round that SLSQP ends
      at an optimum has u0 above 1.
    The returned decision, its KKT residual and ``converged`` are the full
    problem's: u0 clipped to [0, 1] at every node, and the KKT residual
    measured against every u-ball.  The effort gradient and the contact
    Jacobian come from one batched ``reverse_smooth`` sweep of the swept
    point per iterate, from the forward's stage points, divided by the
    scale for SLSQP, and eta is SLSQP's multiplier vector of the contact
    rows, which the scaling leaves unchanged.  The KKT residual is read in
    the unscaled decision.
    """
    opts = opts or SolverOptions()
    gamma = s.smoothing_gain(gamma)
    plan = frozen_plan(omega, v, s)
    n, d = plan.grid.n_nodes, s.dim
    nlp = NLPInstance(plan, s)
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
    # u0's floor and cap: 0 and 1 in their working sets, infinite elsewhere;
    # the u-balls' rows only in theirs
    _, u, u0 = nlp.split(flat)
    nlp.u0_floor = np.where(u0 <= 1e-3, 0.0, -np.inf)
    nlp.u0_cap = np.where((u0 >= 1.0) | (nlp.node_scale <= SCALE_FLOOR), 1.0, np.inf)
    ball = np.linalg.norm(u, axis=1) >= s.u_bound * (1.0 - 1e-6)

    def at(flat, sweep=False):
        """The iterate's propagation and, with ``sweep``, its (dim, 1 + n)
        gradients of the effort and of the effort plus each h_lower_i with
        respect to (x_init, u, u0); each is computed once per iterate."""
        if last["flat"] is None or not np.array_equal(last["flat"], flat):
            flat = flat.copy()
            x_init, *lower = nlp.split(flat)
            xs, zs, x_st = propagate_smooth(plan, *lower, x_init, gamma, s, stages=True)
            last.update(flat=flat, lower=lower, x=xs[:, 0], x_st=x_st[:, :, 0], z=zs[-1],
                        h=h_lower(xs[:, 0], plan.y, s), g=None)
        if sweep and last["g"] is None:
            q_x, d_u, d_u0, _ = reverse_smooth(plan, last["x"], last["x_st"], *last["lower"],
                                               cols, gamma, s)
            last["g"] = np.concatenate([q_x[0], d_u.reshape(d * n, -1), d_u0])
        return last

    def contact_jac(flat):
        g = at(flat, sweep=True)["g"]
        return (g[:, 1:] - g[:, :1]).T

    # SLSQP reads the gradients in the scaled decision: d/dxi = d/d(x_init, u,
    # u0) / scale.  It writes into the gradient it is handed, which is a new
    # array.  Each round gets what is left of the budget
    used = 0
    while True:
        bounds = [(None, None)] * k + list(zip(nlp.node_scale * nlp.u0_floor,
                                               nlp.node_scale * nlp.u0_cap))
        res = minimize(lambda f: at(f)["z"], flat, method="SLSQP",
                       jac=lambda f: at(f, sweep=True)["g"][:, 0] / nlp.scale, bounds=bounds,
                       constraints=[{"type": "ineq", "fun": lambda f: -at(f)["h"],
                                     "jac": lambda f: -contact_jac(f) / nlp.scale},
                                    _ball_rows(d, np.flatnonzero(ball), d,
                                               s.u_bound * nlp.node_scale[ball])],
                       options={"maxiter": opts.lower_max_iter - used, "ftol": SLSQP_FTOL})
        used += res.nit
        _, u, u0 = nlp.split(res.x)
        over, under, out = u0 > 1.0, u0 < 0.0, (np.linalg.norm(u, axis=1) > s.u_bound) & ~ball
        # a u outside its ball or a u0 below 0 joins even after a failed round
        if used >= opts.lower_max_iter or not (out | under | (over & (res.status == 0))).any():
            break
        nlp.u0_cap[over], nlp.u0_floor[under], ball[out] = 1.0, 0.0, True
        flat, last["flat"] = res.x, None   # the split changes where u0 is newly clipped
    if (over | under).any():
        # a failed or last round ended outside [0, 1]: read the full problem's point
        nlp.u0_cap[:], nlp.u0_floor[:], last["flat"] = 1.0, 0.0, None
    sol = at(res.x, sweep=True)
    eta = np.array(res.multipliers[:n])
    viol = float(np.max(sol["h"], initial=0.0))
    # projected gradient of the Lagrangian z + eta.h_lower over the u-balls
    # and u0's box, and complementarity, in the unscaled decision; eta is
    # the same in either
    point = np.concatenate([a.ravel() for a in nlp.split(res.x)])
    step = point - (sol["g"][:, 0] + contact_jac(res.x).T @ eta)
    step[d:k] = project_ball_rows(step[d:k].reshape(n, d), s.u_bound).ravel()
    step[k:] = np.clip(step[k:], 0.0, 1.0)
    kkt = max(float(np.max(np.abs(point - step))), float(np.max(np.abs(eta * sol["h"]))))
    status = {"converged": (res.status == 0 and viol <= LOWER_VIOLATION_TOL
                            and kkt <= LOWER_KKT_TOL),
              "max_violation": viol, "iterations": used,
              "exit_status": int(res.status), "kkt_residual": kkt}
    return LowerSolution(decision=nlp.unpack(sol["flat"]), value=float(sol["z"]), eta=eta,
                         status=status, gamma=gamma)


def value_subgradient(omega, v, lower: LowerSolution, s: Scenario):
    """Value-function subgradient selection (zeta1 wrt omega, zeta2 wrt v).

    zeta1 is the per-node density of dphi/domega against the trapezoidal
    weights; zeta2 the corresponding vector density for v, with the outward
    normal-cone component removed at nodes where |v| sits on the ball.  Both
    come from the reverse sweep of the integrator with the lower solve's
    weights eta, so they agree with central differences of the lower
    Lagrangian to roundoff.  The plan is checked as in ``solve_lower``.
    """
    plan = frozen_plan(omega, v, s)
    dec = lower.decision
    u, u0 = dec.controls.u, dec.controls.u0
    xs, _, x_st = propagate_smooth(plan, u, u0, dec.x_init, lower.gamma, s, stages=True)
    *_, plan_cotangents = reverse_smooth(plan, xs[:, 0], x_st[:, :, 0], u, u0,
                                         lower.eta[:, None], lower.gamma, s)
    d_om, d_v = (a[..., 0] for a in plan_cotangents())
    w = plan.weights
    return d_om / w, project_out_normal(d_v / w[:, None], plan.v, s.v_bound)


# --------------------------------------------------------------------------
# bilevel solve

def _initial_guesses(s: Scenario, grid: TimeGrid, opts: SolverOptions):
    """Structured aim-at-target guess plus random perturbations of a fixed stream."""
    n = grid.n_nodes
    d = target_distance(s.y0_arr, s)
    dhat = target_direction(s.y0_arr, s)
    if np.linalg.norm(dhat) < 1e-12:
        dhat = np.array([1.0, 0.0])
    omega0 = max(float(d) / max(s.v_bound, 1e-9), 0.5)
    guesses = [(np.tile(s.v_bound * dhat, (n, 1)), np.full(n, 1.1 * omega0))]
    rng = np.random.default_rng(0)
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
    Jacobian from one ``reverse_plan_path`` sweep of N+2 cotangent columns:
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
    d_v, d_om = reverse_plan_path(v, omega, lam_y, grid)
    return res, np.vstack([d_v.reshape(s.dim * n, n + 1), d_om]).T


@_one_blas_thread()
def _solve_plan(s: Scenario, grid: TimeGrid, v, omega, max_iter: int) -> dict:
    """One SLSQP solve of the plan problem from (v, omega), within
    ``max_iter`` iterations: minimize t_N = trapz(omega), whose gradient is
    constant, subject to the rows of ``_plan_residuals`` <= 0 on their exact
    Jacobian, the v-balls as inequality rows and omega in [0, cap] as bounds.
    It reads no gamma and solves no lower problem; ``mults`` are SLSQP's
    multipliers of the N+2 residual rows, split into h_upper's and the
    terminal miss's."""
    n, k = grid.n_nodes, s.dim * grid.n_nodes
    w = trapz_weights(grid)
    grad_t = np.concatenate([np.zeros(k), w])
    omega_cap = OMEGA_CAP_FACTOR * (2.0 * s.R) / max(s.v_bound, 1e-9)
    # SLSQP writes into the gradient it is handed, so it gets a copy
    res = minimize(lambda f: w @ f[k:], np.concatenate([v.ravel(), omega]), method="SLSQP",
                   jac=lambda f: grad_t.copy(),
                   bounds=[(None, None)] * k + [(0.0, omega_cap)] * n,
                   constraints=[{"type": "ineq", "fun": lambda f: -_plan_residuals(f, s, grid),
                                 "jac": lambda f: -_plan_residuals(f, s, grid, jac=True)[1]},
                                _ball_rows(0, np.arange(n), s.dim, s.v_bound)],
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
    lower = path[-1]
    tr = integrate_smooth(lower.decision.controls, lower.decision.x_init, lower.gamma, s)
    lower_ok, viol = all(h["converged"] for h in history), plan["violation"]
    plan_ok = plan["exit_status"] == 0 and viol <= UPPER_VIOLATION_TOL
    return BilevelSolution(
        T_star=tr.T, lower=lower, history=tuple(history), trajectory=tr,
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
