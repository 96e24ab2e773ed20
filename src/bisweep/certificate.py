"""Optimality-certificate construction and residual checks.

Given a solved trajectory, a candidate multiplier set in Gamkrelidze form is
assembled (cost multiplier, adjoint arcs, monotone constraint measures, the
penalty-scaled effort multiplier, and the conservation constant), and each of
the stationarity conditions is evaluated as a numerical residual.  The support
value ``sigma`` of the truncated-cone term has a three-branch closed form in
the auxiliary quantity sigma_tilde = nu_L*R1^2 - <q_L, x - y>; its third
branch grows linearly with slope M/R1.

One contact rule, ``_in_contact``, gates sigma and its adjoint slope and
picks the fit's free measure nodes.  It reads the trajectory being
certified, so a fixed candidate passed to ``certify`` is gated by that
trajectory, not by the one it was fitted on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import optimize

from . import oracle, solver
from .dynamics import drift, feasibility_monitor, float_cone_coefficient, trapz_weights
from .geometry import Scenario, dot_rows, project_ball_rows, project_out_normal, target_direction
from .transcription import DecisionVector

__all__ = [
    "GamkrelidzeMultipliers",
    "CertificateReport",
    "sigma_value",
    "sigma_smooth_value",
    "hamiltonian_upper",
    "extract_multipliers",
    "certify",
]

# exact-penalty weight rho; the effort multiplier is r = lam * rho.  A constant:
# on the corridor at N = 40 every verdict is the same for rho from 1 to 1024
PENALTY_WEIGHT = 64.0
RIM_ACTIVITY_TOL = 0.1       # fraction of R1: how far inside the rim still counts as contact
# the gate of every check but the adjoint's, which is 10/N on a grid of N intervals
TOLERANCES = {"nontriviality": 1e-9, "boundary": 1e-6, "conservation": 1e-3,
              "max_control": 1e-4, "max_plan": 5e-2, "value_selection": 5e-2}


def _node_value(a):
    """A float for a single node, the array for a batch of nodes."""
    return float(a) if np.ndim(a) == 0 else a


def _sigma_tilde(q_L, nu_L, d, s: Scenario):
    """sigma_tilde = nu_L*R1^2 - <q_L, d> at the offsets d = x - y."""
    return nu_L * s.R1 ** 2 - np.add.reduce(np.asarray(q_L) * d, -1)


def _refuse_negative(r, name: str):
    """sigma is the sup over u0 in [0, 1] of z u0 - r u0^2 only for r >= 0;
    a negative multiplier ``name`` is refused."""
    if r < 0.0:
        raise ValueError(f"{name} must be >= 0 (an effort multiplier): {r!r}")


def _sigma(st, r: float, k):
    """Support value sigma, elementwise: with z = k*max(st, 0), z^2/(4r) up
    to the seam z = 2r and z - r beyond, or z itself for r = 0; r < 0 is
    refused (``_refuse_negative``)."""
    _refuse_negative(r, "r")
    z = k * np.maximum(st, 0.0)
    if r == 0.0:
        return z
    return np.where(z <= 2.0 * r, z * z / (4.0 * r), z - r)


def _sigma_slope(st, r: float, k):
    """The slope d(sigma)/d(sigma_tilde) of ``_sigma``, elementwise.

    With z = k*max(st, 0): k z/(2r) up to the seam z = 2r and k beyond, so it
    vanishes for st <= 0; for r = 0 it is k where st > 0.  r < 0 is refused
    as by ``_sigma``.
    """
    _refuse_negative(r, "r")
    if r == 0.0:
        return np.where(st > 0.0, k, 0.0)
    z = k * np.maximum(st, 0.0)
    return np.where(z <= 2.0 * r, k * z / (2.0 * r), k)


def _float_sigma(st: float, r, k: float, name: str = "r") -> float:
    """``_sigma`` for one node in float arithmetic, by the same operations in
    their order.  ``np.maximum(st, 0.0)`` returns st only where st > 0 or st
    is NaN, so sigma_tilde = -0.0 gives z = +0.0 on both forms."""
    _refuse_negative(r, name)
    r = float(r)
    z = k * (st if st > 0.0 or st != st else 0.0)
    if r == 0.0:
        return z
    return z * z / (4.0 * r) if z <= 2.0 * r else z - r


def _one_node(y, x, q_L, nu_L, r, s: Scenario):
    """(sigma_tilde, |x - y|^2) in floats for one node: y, x and q_L of shape
    (2,) (``Scenario.dim``), nu_L and r Python numbers; None for anything else.

    Each is rounded as ``_sigma_tilde`` and ``_in_contact`` round it: NumPy's
    sum of dim < 8 products starts from +0.0 and adds them in turn."""
    if not (isinstance(nu_L, (int, float)) and isinstance(r, (int, float))):
        return None
    y, x, q = np.asarray(y, dtype=float), np.asarray(x, dtype=float), np.asarray(q_L, dtype=float)
    if not (y.ndim == x.ndim == q.ndim == 1 and y.size == x.size == q.size == 2):
        return None
    (y0, y1), (x0, x1), (q0, q1) = y.tolist(), x.tolist(), q.tolist()
    d0, d1 = x0 - y0, x1 - y1
    return float(nu_L) * s.R1 ** 2 - (0.0 + q0 * d0 + q1 * d1), 0.0 + d0 * d0 + d1 * d1


def _in_contact(d, s: Scenario):
    """The contact rule of the lower measure at the offsets d = x - y:
    |d| >= (1 - RIM_ACTIVITY_TOL)*R1, elementwise over leading node axes.
    ``sigma_value`` applies it to one node in floats: ``math.sqrt`` of the
    same sum, correctly rounded as ``np.sqrt`` is."""
    return np.sqrt(np.add.reduce(d * d, -1)) >= s.R1 * (1.0 - RIM_ACTIVITY_TOL)


def sigma_value(y, x, q_L, nu_L, r, s: Scenario):
    """Support value of the truncated normal-cone term.

    Zero away from disk contact (``_in_contact``).  On contact, with
    st = nu_L*R1^2 - <q_L, x-y> and k = M/R1: zero for st <= 0, a quadratic
    (k*st)^2/(4r) for 0 < st <= 2r/k, and the linear branch k*st - r beyond;
    r < 0 is refused.  Broadcasts over leading node axes.  One node is
    computed in floats (``_one_node``, ``_float_sigma``), bitwise as a
    one-row batch.
    """
    node = _one_node(y, x, q_L, nu_L, r, s)
    if node is not None:
        st, sq = node
        sig = _float_sigma(st, r, s.cone_gain)
        return sig if math.sqrt(sq) >= s.R1 * (1.0 - RIM_ACTIVITY_TOL) else 0.0
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    sig = _sigma(_sigma_tilde(q_L, nu_L, d, s), r, s.cone_gain)
    return _node_value(np.where(_in_contact(d, s), sig, 0.0))


def sigma_smooth_value(y, x, p_L, mu_L, lambda_bar, gamma: float, s: Scenario):
    """Smoothed analog of ``sigma_value`` for one node only, in floats
    (``_one_node``, ``_float_sigma``), with the banded cone coefficient
    c(gamma, x, y) <= M/R1 of the smoothed field as gain (gamma > M/R1,
    lambda_bar >= 0; ``dynamics.float_cone_coefficient``).  The gain's
    exponential decay replaces the contact gate: away from the rim the value
    vanishes to machine precision."""
    node = _one_node(y, x, p_L, mu_L, lambda_bar, s)
    if node is None:
        got = ", ".join(f"{type(a).__name__} {np.shape(a)}" for a in (y, x, p_L, mu_L, lambda_bar))
        raise ValueError(f"sigma_smooth_value takes one node: y, x and p_L of shape ({s.dim},), "
                         f"mu_L and lambda_bar Python numbers; got {got}")
    st, sq = node
    c = float_cone_coefficient(sq, s.smoothing_gain(gamma), s)
    return _float_sigma(st, lambda_bar, c, "lambda_bar")


@dataclass(frozen=True)
class GamkrelidzeMultipliers:
    q_H: np.ndarray       # (N+1, n) adjoint of the plan center
    q_L: np.ndarray       # (N+1, n) adjoint of the swept point
    nu_H: np.ndarray      # (N+1,) non-increasing, tracks confinement contact
    nu_L: np.ndarray      # (N+1,) non-increasing, tracks disk contact
    lam: float            # cost multiplier
    r: float              # effort multiplier (lam times the penalty weight)
    c: float              # conservation constant: H == lam + r*c along the arc

    def total_weight(self) -> float:
        return (abs(self.lam) + self.r
                + float(np.abs(self.q_H).max(initial=0.0))
                + float(np.abs(self.q_L).max(initial=0.0))
                + float(np.abs(self.nu_H).max(initial=0.0))
                + float(np.abs(self.nu_L).max(initial=0.0)))


def hamiltonian_upper(y, x, v, u, q_H, q_L, nu_H, nu_L, r, s: Scenario):
    """Value of the full Hamiltonian along the arc.

    Broadcasts over leading node axes (vectors (..., n), scalars (...)); a
    float for one node.
    """
    y, x, u = (np.asarray(a, dtype=float) for a in (y, x, u))
    nu_H, nu_L = np.asarray(nu_H, dtype=float), np.asarray(nu_L, dtype=float)
    d = x - y
    return _node_value(dot_rows(q_H - nu_H[..., None] * (y - s.q0_arr), v)
                       + nu_L * dot_rows(d, v)
                       - r * dot_rows(u, u)
                       + dot_rows(q_L - nu_L[..., None] * d, drift(x, u, s))
                       + sigma_value(y, x, q_L, nu_L, r, s))


def _adjoint_rhs(tr, cp, q_L, nu_H, nu_L, r, s: Scenario):
    """Right-hand sides of the q_L and q_H adjoint equations at every node,
    per unit of original time: each arc satisfies dq/dt = -rhs, with df/dx
    from ``drift``, the clip's where it is active."""
    d = tr.x - tr.y
    f, (f_x, _) = drift(tr.x, cp.u, s, jacobian=True)
    slope = _sigma_slope(_sigma_tilde(q_L, nu_L, d, s), r, s.cone_gain)
    sq = np.where(_in_contact(d, s), slope, 0.0)[..., None] * q_L
    nu_L = nu_L[..., None]
    psi = q_L - nu_L * d   # psi f_x: each entry summed as the drift sums x A^T
    rhs_L = (-nu_L * f + np.stack([psi[..., 0] * f_x[:, 0, j] + psi[..., 1] * f_x[:, 1, j]
                                   for j in (0, 1)], -1) + nu_L * cp.v - sq)
    rhs_H = -(nu_H[:, None] + nu_L) * cp.v + nu_L * f + sq
    return rhs_L, rhs_H


class _MultiplierModel:
    """Candidate multipliers parametrized by the contact-measure path.

    The tangential maximum condition pins q_L - nu_L*(x-y) = 2*r*u, so the
    only remaining freedom on the lower side is the scalar path nu_L: free at
    contact nodes (``_in_contact``), one constant per contact-free arc (the
    measure cannot move where the constraint is inactive).  q_H follows by
    backward integration of its adjoint equation, which makes that defect
    vanish identically and leaves the conservation spread, the q_L defect,
    and the monotonicity of nu_L as the quantities the fit balances.  The
    cost multiplier is one and the effort multiplier ``PENALTY_WEIGHT``; nu_H
    and the target weight come from the upper level's multipliers of the
    solution.
    """

    def __init__(self, sol, s: Scenario):
        tr, cp = sol.trajectory, sol.lower.decision.controls
        self.tr, self.cp, self.s, self.r = tr, cp, s, PENALTY_WEIGHT
        self.nu_H = np.cumsum(np.asarray(sol.upper_mults["h_upper"])[::-1])[::-1]
        self.alpha = float(sol.upper_mults["target"]) * PENALTY_WEIGHT
        self.d = tr.x - tr.y
        self.g = 2.0 * self.r * cp.u
        self.dhat = target_direction(tr.y[-1], s)
        # parameter layout: one nu per active node, one per inactive run, so
        # a slot opens at every active node and at the node after one
        active = _in_contact(self.d, s)
        opens = active | np.concatenate([[True], active[:-1]])
        self.slots = np.cumsum(opens) - 1
        self.slot_starts = np.flatnonzero(opens)
        self.n_params = self.slot_starts.size

    def build(self, nu: np.ndarray):
        """Adjoint arcs, Hamiltonian values and q_L right-hand sides of a
        contact-measure path nu (N+1,)."""
        tr, cp, s = self.tr, self.cp, self.s
        q_L = self.g + nu[:, None] * self.d
        rhs_L, rhs_H = _adjoint_rhs(tr, cp, q_L, self.nu_H, nu, self.r, s)
        d_T = self.d[-1]
        nu_T = dot_rows(q_L[-1], d_T) / max(float(d_T @ d_T), 1e-300)
        q_H_T = self.alpha * self.dhat + self.nu_H[-1] * (tr.y[-1] - s.q0_arr) - nu_T * d_T
        # q_H[i] = q_H[-1] + dt * sum_{j>i} omega_j*rhs_H[j]: a reverse cumulative sum
        steps = rhs_H * cp.omega[:, None]
        tail = np.flip(np.cumsum(np.flip(steps, axis=0), axis=0), axis=0)
        q_H = q_H_T + tr.grid.dt * (tail - steps)
        H = hamiltonian_upper(tr.y, tr.x, cp.v, cp.u, q_H, q_L, self.nu_H, nu, self.r, s)
        return q_L, q_H, H, rhs_L

    def residuals(self, p: np.ndarray) -> np.ndarray:
        """Residual vector of a parameter vector p."""
        nu = p[self.slots]
        q_L, _, H, rhs_L = self.build(nu)
        r_cons = (H - H.mean()) * 10.0
        # backward-difference defect of the q_L arc, per interval of tau
        r_adj = (np.diff(q_L, axis=0) / self.tr.grid.dt
                 + rhs_L[1:] * self.cp.omega[1:, None]).ravel() * 0.1
        r_mono = np.maximum(0.0, np.diff(nu)) * 0.3
        return np.concatenate([r_cons, r_adj, r_mono])

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        """Exact Jacobian of ``residuals`` at p: the derivatives in each
        node's nu, summed over the nodes of each parameter slot.

        psi = q_L - nu*(x-y) = 2*r*u does not move with nu, so nu enters
        the right-hand sides through its own terms and sigma's slope, which
        moves with sigma_tilde at d(sigma_tilde)/d(nu) = R1^2 - |x-y|^2;
        q_H moves through the reverse sum of rhs_H and, at the last node,
        through nu_T, with d(nu_T)/d(nu_N) = 1.
        """
        tr, cp, s, d, r, k = self.tr, self.cp, self.s, self.d, self.r, self.s.cone_gain
        nu = p[self.slots]
        n, dt = nu.size, tr.grid.dt
        q_L = self.g + nu[:, None] * d
        st = _sigma_tilde(q_L, nu, d, s)
        contact = _in_contact(d, s)
        slope = np.where(contact, _sigma_slope(st, r, k), 0.0)
        # d(slope)/d(sigma_tilde): k^2/(2r) on sigma's quadratic branch, else 0
        quad = contact & (st > 0.0) & (k * st <= 2.0 * r)
        dst = s.R1 ** 2 - dot_rows(d, d)
        dsq = np.where(quad, k * k / (2.0 * r) * dst, 0.0)[:, None] * q_L + slope[:, None] * d
        f = drift(tr.x, cp.u, s)
        drhs_L = cp.v - f - dsq
        drhs_H = f - cp.v + dsq
        # dH[i]/dnu[j]: through q_H[i] for j > i and, at j = N, through nu_T
        # (d_T = 0 leaves nu_T at 0), and through nu's own terms at j = i
        J_H = np.triu(cp.v @ (dt * cp.omega[:, None] * drhs_H).T, 1)
        J_H[:, -1] -= cp.v @ d[-1]
        J_H += np.diag(dot_rows(d, cp.v) + slope * dst)
        step = np.eye(n - 1, n, 1)             # row i picks node i + 1
        diff = step - np.eye(n - 1, n)         # np.diff as a matrix
        J_adj = diff[:, None] * (d / dt).T + step[:, None] * (cp.omega[:, None] * drhs_L).T
        J_mono = np.where(np.diff(nu)[:, None] > 0.0, 0.3 * diff, 0.0)
        J_nu = np.concatenate([(J_H - J_H.mean(axis=0)) * 10.0, J_adj.reshape(-1, n) * 0.1,
                               J_mono])
        return np.add.reduceat(J_nu, self.slot_starts, axis=1)

    def multipliers(self, p: np.ndarray) -> GamkrelidzeMultipliers:
        """The candidate of parameter vector p with cost multiplier one,
        normalized to total weight one."""
        lam0, r0, nu_H = 1.0, self.r, self.nu_H
        nu_L = p[self.slots]
        q_L, q_H, hvals, _ = self.build(nu_L)
        c_fit = float((np.mean(hvals) - lam0) / r0)
        raw = GamkrelidzeMultipliers(q_H=q_H, q_L=q_L, nu_H=nu_H, nu_L=nu_L,
                                     lam=lam0, r=r0, c=c_fit)
        total = raw.total_weight()
        if total <= 0:
            raise ValueError("degenerate (all-zero) multiplier candidate")
        kappa = 1.0 / total
        return GamkrelidzeMultipliers(
            q_H=kappa * q_H, q_L=kappa * q_L, nu_H=kappa * nu_H, nu_L=kappa * nu_L,
            lam=kappa * lam0, r=kappa * r0, c=c_fit)


def extract_multipliers(sol, s: Scenario):
    """Build candidate multipliers from a solved instance, with a record of
    their fit.

    The cost multiplier is set to one, the effort multiplier to the penalty
    weight ``PENALTY_WEIGHT``, the tangential stationarity condition is imposed
    exactly (q_L - nu_L*(x-y) = 2*r*u), and the contact-measure path nu_L is
    fitted from zero by Levenberg-Marquardt least squares against the
    conservation and adjoint residuals, on the model's exact Jacobian.
    Everything is normalized to total weight one at the end.  Returns the
    candidate and the fit's ``nfev``, ``status`` and final ``cost``.
    """
    model = _MultiplierModel(sol, s)
    fit = optimize.least_squares(model.residuals, np.zeros(model.n_params), method="lm",
                                 jac=model.jacobian, max_nfev=4000)
    return model.multipliers(fit.x), {"nfev": int(fit.nfev), "status": int(fit.status),
                                      "cost": float(fit.cost)}


def _worst(res: np.ndarray):
    """Largest positive per-node residual and its node; (0.0, 0) if none is.

    A NaN node wins (``argmax`` returns the first one), so its NaN residual
    names it and fails every gate.
    """
    node = int(np.argmax(res))
    return (0.0, 0) if res[node] <= 0.0 else (float(res[node]), node)


def _nan_max(*values) -> float:
    """Largest of the values; NaN if any is NaN, which Python's ``max`` drops
    unless it comes first."""
    return float(np.max(values))


def _control_gap(tr, cp, m: GamkrelidzeMultipliers, s: Scenario):
    """Worst-node shortfall of <psi,u> - r|u|^2 against its ball maximizer."""
    psi = m.q_L - m.nu_L[:, None] * (tr.x - tr.y)
    pn = np.sqrt(dot_rows(psi, psi))
    if m.r > 0:
        radius = np.minimum(pn / (2.0 * m.r), s.u_bound)
    else:
        radius = np.where(pn > 0, s.u_bound, 0.0)
    u_star = psi / np.where(pn > 0, pn, 1.0)[:, None] * radius[:, None]

    def phi(u):
        return dot_rows(psi, u) - m.r * dot_rows(u, u)

    return _worst(phi(u_star) - phi(cp.u))


@dataclass(frozen=True)
class CertificateReport:
    multipliers: GamkrelidzeMultipliers
    conditions: dict
    # the Levenberg-Marquardt fit's nfev, status and final cost; None for a
    # fixed candidate
    fit: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.conditions.values())

    def to_dict(self) -> dict:
        return {"ok": self.ok, "conditions": self.conditions, "fit": self.fit,
                "conservation_constant": float(self.multipliers.c),
                "lam": float(self.multipliers.lam), "r": float(self.multipliers.r)}

    def summary_lines(self):
        lines = []
        for name, c in self.conditions.items():
            mark = "ok" if c["ok"] else "FAIL"
            lines.append(f"{name:>16s}: {mark}  residual={c['residual']:.3e}  tol={c['tol']:.3e}")
        if self.fit is None:
            lines.append(f"{'fit':>16s}: none (fixed candidate)")
        else:
            lines.append(f"{'fit':>16s}: nfev={self.fit['nfev']}  status={self.fit['status']}"
                         f"  cost={self.fit['cost']:.3e}")
        return lines


def _condition(residual, tol, **extra) -> dict:
    """One checked condition, with a plain-Python residual, tolerance and verdict."""
    residual, tol = float(residual), float(tol)
    return {"residual": residual, "tol": tol, "ok": residual <= tol, **extra}


def certify(sol, s: Scenario,
            multipliers: Optional[GamkrelidzeMultipliers] = None) -> CertificateReport:
    """Evaluate the trajectory's primal feasibility and every stationarity
    condition as a numerical residual.

    A certificate pairs a solution with multipliers; when `multipliers` is
    given the conditions are evaluated against that fixed candidate instead of
    refitting, so a perturbed solution is flagged rather than re-certified.
    Otherwise they are extracted by ``extract_multipliers``.
    """
    m, fit = extract_multipliers(sol, s) if multipliers is None else (multipliers, None)
    tr, cp = sol.trajectory, sol.lower.decision.controls
    tol = {**TOLERANCES, "adjoint": 10.0 / tr.grid.n_intervals}
    conds = {}

    # 1. primal feasibility, each term gated at the solver's own stop; the
    # residual is the largest term as a fraction of its gate
    rep = feasibility_monitor(tr, s)
    feas = {"max_h_lower": rep.max_h_lower, "max_h_upper": rep.max_h_upper,
            "terminal_miss": rep.terminal_distance - solver.TARGET_TOL_FACTOR * s.R}
    gates = (solver.LOWER_VIOLATION_TOL, solver.UPPER_VIOLATION_TOL, solver.UPPER_VIOLATION_TOL)
    conds["feasibility"] = _condition(_nan_max(*(a / b for a, b in zip(feas.values(), gates))),
                                      1.0, detail=feas)

    # 2. nontriviality: normalization puts total weight at one
    conds["nontriviality"] = _condition(abs(m.total_weight() - 1.0), tol["nontriviality"])

    # 3. monotone nonnegative measures
    mono = _nan_max(np.max(np.diff(m.nu_H), initial=0.0), np.max(np.diff(m.nu_L), initial=0.0),
                    -m.nu_H.min(), -m.nu_L.min(), 0.0)
    conds["measures"] = _condition(mono, tol["boundary"])

    # 4. adjoint system: one-sided-difference defect of the backward arcs
    conds["adjoint"] = _condition(_adjoint_defect(tr, cp, m, s), tol["adjoint"])

    # 5. boundary conditions
    bres, bdetail = _boundary_residuals(tr, cp, m, s)
    scale = max(1.0, float(np.abs(m.q_H).max()), float(np.abs(m.q_L).max()))
    conds["boundary"] = _condition(bres, tol["boundary"] * scale, detail=bdetail)

    # 6. conservation of the Hamiltonian
    hvals = hamiltonian_upper(tr.y, tr.x, cp.v, cp.u, m.q_H, m.q_L, m.nu_H, m.nu_L, m.r, s)
    conds["conservation"] = _condition(np.std(hvals),
                                       tol["conservation"] * (m.lam + abs(m.r * m.c) + 1.0),
                                       constant=float(m.c), mean=float(np.mean(hvals)))

    # 7. pointwise maximum condition in the drift control
    gap, node = _control_gap(tr, cp, m, s)
    conds["max_control"] = _condition(gap, tol["max_control"], node=node)

    # 8. pointwise maximum condition in the plan controls: the ball speed
    # maximizes the Hamiltonian plus the penalty-weighted value gain, so
    # q_H - nu_H(y-q0) + nu_L(x-y) + r*zeta2 must lie in the normal cone at v
    zeta = solver.value_subgradient(cp.omega, cp.v, sol.lower, s)
    pres, pnode = _plan_stationarity_residual(tr, cp, m, zeta[1], s)
    conds["max_plan"] = _condition(pres, tol["max_plan"], node=pnode)

    # 9. value-subgradient selection consistency (finite differences of phi)
    vres, re_solves = _value_selection_residual(sol, zeta, s)
    conds["value_selection"] = _condition(vres, tol["value_selection"],
                                          detail={"re_solves": re_solves})

    return CertificateReport(multipliers=m, conditions=conds, fit=fit)


def _adjoint_defect(tr, cp, m, s: Scenario) -> float:
    """Sup-norm defect of the adjoint arcs in original (unscaled) time.

    The adjoint equations live on [0, T*]; node spacing there is
    omega * dt, so the backward difference and the right-hand side are both
    taken per unit of original time.
    """
    rhs_L, rhs_H = _adjoint_rhs(tr, cp, m.q_L, m.nu_H, m.nu_L, m.r, s)
    dt_orig = tr.grid.dt * np.maximum(cp.omega[1:], 1e-300)[:, None]
    dL = np.diff(m.q_L, axis=0) / dt_orig + rhs_L[1:]
    dH = np.diff(m.q_H, axis=0) / dt_orig + rhs_H[1:]
    return _nan_max(np.abs(dL).max(initial=0.0), np.abs(dH).max(initial=0.0))


def _boundary_residuals(tr, cp, m, s: Scenario):
    d_T = tr.x[-1] - tr.y[-1]
    dTsq = max(float(d_T @ d_T), 1e-300)
    # q_L(T) must equal nu_L(T)(x-y); a terminal atom of the contact measure
    # may still lower nu_L after the last stored node, so the coefficient is
    # only required to lie at or below the stored value.
    coef = float(m.q_L[-1] @ d_T) / dTsq
    r_qL_T = float(np.linalg.norm(m.q_L[-1] - coef * d_T)
                   + max(0.0, coef - float(m.nu_L[-1])) * np.sqrt(dTsq))
    nu_T = min(coef, float(m.nu_L[-1]))
    # q_H(T) + nu_L(T)(x-y) - nu_H(T)(y-q0) must lie in -N of the target set,
    # the ray spanned by the direction toward the nearest target point
    w = m.q_H[-1] + nu_T * d_T - m.nu_H[-1] * (tr.y[-1] - s.q0_arr)
    dhat = target_direction(tr.y[-1], s)
    r_qH_T = float(np.linalg.norm(w - max(0.0, float(np.dot(w, dhat))) * dhat))
    # q_L(0) in N_{disk}(x(0)) + nu_L(0)(x(0) - y0)
    d0 = tr.x[0] - tr.y[0]
    w0 = m.q_L[0] - m.nu_L[0] * d0
    if np.linalg.norm(d0) >= s.R1 * (1.0 - 1e-3):
        nhat = d0 / max(np.linalg.norm(d0), 1e-300)
        r_qL_0 = float(np.linalg.norm(w0 - max(0.0, float(np.dot(w0, nhat))) * nhat))
    else:
        r_qL_0 = float(np.linalg.norm(w0))
    detail = {"q_L_terminal": r_qL_T, "q_H_terminal": r_qH_T, "q_L_initial": r_qL_0}
    return _nan_max(*detail.values()), detail


def _plan_stationarity_residual(tr, cp, m, zeta2, s: Scenario):
    """Worst relative distance of the plan-control stationarity vector to the
    normal cone of the speed ball at each node.

    The stationarity vector combines the Hamiltonian coefficient of v with the
    penalty-weighted value-subgradient selection ``zeta2``; at a maximizing
    boundary speed it must point along v, and at an interior speed it must
    vanish.
    """
    coeff = (m.q_H - m.nu_H[:, None] * (tr.y - s.q0_arr) + m.nu_L[:, None] * (tr.x - tr.y)
             + m.r * zeta2)
    vec = project_out_normal(coeff, cp.v, s.v_bound)
    scale = np.maximum(np.maximum(np.sqrt(dot_rows(coeff, coeff)),
                                  m.r * np.sqrt(dot_rows(zeta2, zeta2))), 1e-9)
    return _worst(np.sqrt(dot_rows(vec, vec)) / scale)


def _mirrored_start(lower, twin, s: Scenario):
    """``lower`` with its decision reflected through ``twin``'s: x_init, u
    and u0 at 2*lower - twin, u projected onto its ball and u0 clipped to
    [0, 1]."""
    a, b = lower.decision, twin.decision
    cp = a.controls
    u = project_ball_rows(2.0 * cp.u - b.controls.u, s.u_bound)
    u0 = np.clip(2.0 * cp.u0 - b.controls.u0, 0.0, 1.0)
    return replace(lower, decision=DecisionVector(2.0 * a.x_init - b.x_init,
                                                  replace(cp, u=u, u0=u0)))


def _value_selection_residual(sol, zeta, s: Scenario):
    """Relative error of the subgradient selection ``zeta`` = (zeta1, zeta2)
    of the solution's plan against central differences of phi
    (``oracle.fd_check``) along two seeded feasible directions, and one
    record per perturbed re-solve.

    Each re-solve is warm: phi(p + h*delta) from the solution's decision,
    and phi(p - h*delta) from that decision reflected through the plus
    side's (``_mirrored_start``), which lies nearer its optimum.  A re-solve
    that did not converge has no value: phi is NaN there, and so is the
    residual.
    """
    cp = sol.lower.decision.controls
    omega, v = cp.omega, cp.v
    center = np.concatenate([omega, v.ravel()])
    records, plus = [], []

    def phi(point):
        om_p = np.clip(point[:omega.size], 0.0, None)
        v_p = project_ball_rows(point[omega.size:].reshape(v.shape), s.v_bound)
        # fd_check steps to center + h*delta, then to its mirror center - h*delta
        twin = plus.pop() if plus else None
        if twin is not None and np.allclose(point - center, center - twin[0], rtol=0.0,
                                            atol=1e-12):
            start, warm = "mirrored", _mirrored_start(sol.lower, twin[1], s)
        else:
            start, warm = "nominal", sol.lower
        low = solver.solve_lower(om_p, v_p, sol.lower.gamma, s, warm=warm)
        if start == "nominal":
            plus.append((point, low))
        records.append({"start": start, **{key: low.status[key] for key in (
            "iterations", "exit_status", "kkt_residual", "converged")}})
        return low.value if low.status["converged"] else float("nan")

    w = trapz_weights(cp.grid)
    grad = np.concatenate([w * zeta[0], (w[:, None] * zeta[1]).ravel()])
    # keep directions feasible where v sits on the ball boundary
    nv = np.linalg.norm(v, axis=1)
    on_edge = nv >= s.v_bound * (1 - 1e-9)
    vhat = v / np.maximum(nv, 1e-300)[:, None]
    rng = np.random.default_rng(7)
    dirs = []
    for _ in range(2):
        d_om = rng.normal(size=omega.shape)
        d_v = rng.normal(size=v.shape)
        d_v[on_edge] -= dot_rows(d_v[on_edge], vhat[on_edge])[:, None] * vhat[on_edge]
        dirs.append(np.concatenate([d_om / np.linalg.norm(d_om),
                                    (d_v / max(np.linalg.norm(d_v), 1e-300)).ravel()]))
    # the step is large against the accuracy of the perturbed re-solves, and
    # the central difference controls the curvature error
    return oracle.fd_check(phi, grad, center, dirs, h=3e-2), records
