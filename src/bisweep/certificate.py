"""Optimality-certificate construction and residual checks.

Given a solved trajectory, a candidate multiplier set in Gamkrelidze form is
assembled (cost multiplier, adjoint arcs, monotone constraint measures, the
penalty-scaled effort multiplier, and the conservation constant), and each of
the stationarity conditions is evaluated as a numerical residual.  The support
value ``sigma`` of the truncated-cone term has a three-branch closed form in
the auxiliary quantity sigma_tilde = nu_L*R1^2 - <q_L, x - y>; its third
branch grows linearly with slope M/R1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import cone_coefficient, drift
from .geometry import Scenario, dot_rows, target_direction

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
              "max_control": 1e-4, "value_selection": 5e-2}


def _node_value(a):
    """A float for a single node, the array for a batch of nodes."""
    return float(a) if np.ndim(a) == 0 else a


def _sigma_tilde(q_L, nu_L, x, y, s: Scenario):
    return nu_L * s.R1 ** 2 - np.sum(np.asarray(q_L) * (np.asarray(x) - np.asarray(y)), axis=-1)


def _sigma_branches(st, r: float, k):
    """Support value sigma and its slope d(sigma)/d(sigma_tilde), elementwise.

    With z = k*max(st, 0): z^2/(4r) up to the seam z = 2r and z - r beyond,
    so both vanish for st <= 0; for r <= 0 the value is z itself.
    """
    z = k * np.maximum(st, 0.0)
    if r <= 0.0:
        return z, np.where(st > 0.0, k, 0.0)
    quad = z <= 2.0 * r
    return np.where(quad, z * z / (4.0 * r), z - r), np.where(quad, k * z / (2.0 * r), k)


def sigma_value(y, x, q_L, nu_L, r, s: Scenario, active=None):
    """Support value of the truncated normal-cone term.

    Zero away from disk contact.  On contact, with st = nu_L*R1^2 - <q_L, x-y>
    and k = M/R1: zero for st <= 0, a quadratic (k*st)^2/(4r) for
    0 < st <= 2r/k, and the linear branch k*st - r beyond.  Broadcasts over
    leading node axes; a float for one node.
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if active is None:
        active = np.linalg.norm(d, axis=-1) >= s.R1 * (1.0 - RIM_ACTIVITY_TOL)
    sig, _ = _sigma_branches(_sigma_tilde(q_L, nu_L, x, y, s), r, s.cone_gain)
    return _node_value(np.where(active, sig, 0.0))


def sigma_smooth_value(y, x, p_L, mu_L, lambda_bar, gamma: float, s: Scenario):
    """Smoothed analog of ``sigma_value`` with gain c(gamma, x, y) <= M/R1,
    the ramped cone coefficient of the smoothed field (gamma > M/R1).

    The exponential decay of the gain replaces the contact gate; away from the
    rim the value vanishes to machine precision.
    """
    if gamma <= s.cone_gain:
        raise ValueError(f"gamma must exceed M/R1 = {s.cone_gain}")
    c = cone_coefficient(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), gamma, s)
    sig, _ = _sigma_branches(_sigma_tilde(p_L, mu_L, x, y, s), lambda_bar, c)
    return _node_value(sig)


@dataclass(frozen=True)
class GamkrelidzeMultipliers:
    q_H: np.ndarray       # (N+1, n) adjoint of the plan center
    q_L: np.ndarray       # (N+1, n) adjoint of the swept point
    nu_H: np.ndarray      # (N+1,) non-increasing, tracks confinement contact
    nu_L: np.ndarray      # (N+1,) non-increasing, tracks disk contact
    lam: float            # cost multiplier
    r: float              # effort multiplier (lam times the penalty weight)
    c: float              # conservation constant: H == lam + r*c along the arc
    alpha: float = 0.0    # terminal target-normal weight
    active: np.ndarray = None  # (N+1,) bool contact indicator used for sigma

    def total_weight(self) -> float:
        return (abs(self.lam) + self.r
                + float(np.abs(self.q_H).max(initial=0.0))
                + float(np.abs(self.q_L).max(initial=0.0))
                + float(np.abs(self.nu_H).max(initial=0.0))
                + float(np.abs(self.nu_L).max(initial=0.0)))


def hamiltonian_upper(y, x, v, u, q_H, q_L, nu_H, nu_L, r, s: Scenario, active=None):
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
                       + sigma_value(y, x, q_L, nu_L, r, s, active=active))


def _adjoint_rhs(tr, cp, q_L, nu_H, nu_L, r, active, s: Scenario):
    """Right-hand sides of the q_L and q_H adjoint equations at every node,
    per unit of original time: each arc satisfies dq/dt = -rhs."""
    d = tr.x - tr.y
    f = drift(tr.x, cp.u, s)
    _, slope = _sigma_branches(_sigma_tilde(q_L, nu_L, tr.x, tr.y, s), r, s.cone_gain)
    sq = np.where(active, slope, 0.0)[:, None] * q_L
    nu_L = nu_L[:, None]
    rhs_L = -nu_L * f + (q_L - nu_L * d) @ s.drift.matrix(s.dim) + nu_L * cp.v - sq
    rhs_H = -(nu_H[:, None] + nu_L) * cp.v + nu_L * f + sq
    return rhs_L, rhs_H


def _contact_flags(tr, cp, s: Scenario) -> np.ndarray:
    d = np.linalg.norm(tr.x - tr.y, axis=1)
    return ((cp.u0 > 1e-2) & (d >= 0.35 * s.R1)) | (d >= s.R1 * (1.0 - 1e-3))


class _MultiplierModel:
    """Candidate multipliers parametrized by the contact-measure path.

    The tangential maximum condition pins q_L - nu_L*(x-y) = 2*r*u, so the
    only remaining freedom on the lower side is the scalar path nu_L: free at
    contact nodes, one constant per contact-free arc (the measure cannot move
    where the constraint is inactive).  q_H follows by backward integration of
    its adjoint equation, which makes that defect vanish identically and
    leaves the conservation spread, the q_L defect, and the monotonicity of
    nu_L as the quantities the fit balances.
    """

    def __init__(self, tr, cp, s: Scenario, r: float, alpha: float,
                 nu_H: np.ndarray):
        self.tr, self.cp, self.s, self.r = tr, cp, s, r
        self.alpha, self.nu_H = alpha, nu_H
        self.d = tr.x - tr.y
        self.dn = np.linalg.norm(self.d, axis=1)
        self.active = _contact_flags(tr, cp, s)
        self.gate = self.active | (self.dn >= 0.9 * s.R1)
        self.g = 2.0 * r * cp.u
        self.dhat = target_direction(tr.y[-1], s)
        # parameter layout: one nu per active node, one per inactive run, so
        # a slot opens at every active node and at the node after one
        opens = self.active | np.concatenate([[True], self.active[:-1]])
        self.slots = np.cumsum(opens) - 1
        self.n_params = int(self.slots[-1]) + 1

    def initial_guess(self) -> np.ndarray:
        s, cp, d, g, act = self.s, self.cp, self.d, self.g, self.active
        slope = s.cone_gain * cp.u0[:, None]
        a_vec = (cp.v - drift(self.tr.x, cp.u, s)) - slope * d
        b_vec = slope * g - g @ s.drift.matrix(s.dim)
        den = dot_rows(a_vec, a_vec)
        nu = np.zeros(len(d))
        ok = act & (den > 1e-12)
        nu[ok] = dot_rows(a_vec[ok], b_vec[ok]) / den[ok]
        p = np.zeros(self.n_params)
        p[self.slots[act]] = nu[act]
        # inactive runs: continuity of q_L at the run's last node e, whose
        # successor e + 1 is active
        e = np.nonzero(~act[:-1] & act[1:])[0]
        e = e[self.dn[e] > 0.1 * s.R1]
        q_next = g[e + 1] + nu[e + 1, None] * d[e + 1]
        p[self.slots[e]] = dot_rows(q_next - g[e], d[e]) / dot_rows(d[e], d[e])
        return p

    def build(self, nu: np.ndarray):
        tr, cp, s = self.tr, self.cp, self.s
        q_L = self.g + nu[:, None] * self.d
        rhs_L, rhs_H = _adjoint_rhs(tr, cp, q_L, self.nu_H, nu, self.r, self.gate, s)
        d_T = self.d[-1]
        nu_T = float(q_L[-1] @ d_T) / max(float(d_T @ d_T), 1e-300)
        q_H_T = self.alpha * self.dhat + self.nu_H[-1] * (tr.y[-1] - s.q0_arr) - nu_T * d_T
        # q_H[i] = q_H[-1] + dt * sum_{j>i} omega_j*rhs_H[j]: a reverse cumulative sum
        steps = rhs_H * cp.omega[:, None]
        q_H = q_H_T + tr.grid.dt * (np.cumsum(steps[::-1], axis=0)[::-1] - steps)
        H = hamiltonian_upper(tr.y, tr.x, cp.v, cp.u, q_H, q_L, self.nu_H, nu, self.r, s,
                              active=self.gate)
        return q_L, q_H, H, rhs_L

    def residuals(self, p: np.ndarray) -> np.ndarray:
        nu = p[self.slots]
        q_L, _, H, rhs_L = self.build(nu)
        r_cons = (H - H.mean()) * 10.0
        # backward-difference defect of the q_L arc, per interval of tau
        r_adj = (np.diff(q_L, axis=0) / self.tr.grid.dt
                 + rhs_L[1:] * self.cp.omega[1:, None]).ravel() * 0.1
        r_mono = np.maximum(0.0, np.diff(nu)) * 0.3
        return np.concatenate([r_cons, r_adj, r_mono])


def extract_multipliers(sol, s: Scenario) -> GamkrelidzeMultipliers:
    """Build candidate multipliers from a solved instance.

    The cost multiplier is set to one, the effort multiplier to the penalty
    weight ``PENALTY_WEIGHT``, the tangential stationarity condition is imposed
    exactly (q_L - nu_L*(x-y) = 2*r*u), and the contact-measure path nu_L is
    fitted by least squares against the conservation and adjoint residuals.
    Everything is normalized to total weight one at the end.
    """
    from scipy.optimize import least_squares

    tr, cp = sol.trajectory, sol.decision.controls

    lam0 = 1.0
    r0 = lam0 * PENALTY_WEIGHT
    nu_H = np.cumsum(np.asarray(sol.upper_mults["h_upper"])[::-1])[::-1]
    alpha = float(sol.upper_mults["target"]) * PENALTY_WEIGHT

    model = _MultiplierModel(tr, cp, s, r0, alpha, nu_H)
    fit = least_squares(model.residuals, model.initial_guess(), method="lm", max_nfev=4000)
    nu_L = fit.x[model.slots]
    q_L, q_H, hvals, _ = model.build(nu_L)

    c_fit = float((np.mean(hvals) - lam0) / r0)
    raw = GamkrelidzeMultipliers(q_H=q_H, q_L=q_L, nu_H=nu_H, nu_L=nu_L,
                                 lam=lam0, r=r0, c=c_fit, alpha=alpha,
                                 active=model.gate)
    total = raw.total_weight()
    if total <= 0:
        raise ValueError("degenerate (all-zero) multiplier candidate")
    kappa = 1.0 / total
    return GamkrelidzeMultipliers(
        q_H=kappa * q_H, q_L=kappa * q_L, nu_H=kappa * nu_H, nu_L=kappa * nu_L,
        lam=kappa * lam0, r=kappa * r0, c=c_fit, alpha=kappa * alpha,
        active=model.gate)


def _worst(res: np.ndarray):
    """Largest positive per-node residual and its node; (0.0, 0) if none is."""
    node = int(np.argmax(res))
    return (float(res[node]), node) if res[node] > 0.0 else (0.0, 0)


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

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.conditions.values() if c["ok"] is not None)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "conditions": self.conditions,
                "conservation_constant": float(self.multipliers.c),
                "lam": float(self.multipliers.lam), "r": float(self.multipliers.r)}

    def summary_lines(self):
        lines = []
        for name, c in self.conditions.items():
            if c["ok"] is None:
                lines.append(f"{name:>16s}: skipped")
            else:
                mark = "ok" if c["ok"] else "FAIL"
                lines.append(f"{name:>16s}: {mark}  residual={c['residual']:.3e}  tol={c['tol']:.3e}")
        return lines


def _condition(residual, tol, **extra) -> dict:
    """One checked condition, with a plain-Python residual, tolerance and verdict."""
    residual, tol = float(residual), float(tol)
    return {"residual": residual, "tol": tol, "ok": residual <= tol, **extra}


def _skipped(tol) -> dict:
    return {"residual": float("nan"), "tol": float(tol), "ok": None}


def certify(sol, s: Scenario, check_value_selection: bool = True,
            multipliers: Optional[GamkrelidzeMultipliers] = None) -> CertificateReport:
    """Evaluate every stationarity condition as a numerical residual.

    A certificate pairs a solution with multipliers; when `multipliers` is
    given the conditions are evaluated against that fixed candidate instead of
    refitting, so a perturbed solution is flagged rather than re-certified.
    Otherwise they are extracted by ``extract_multipliers``.
    """
    m = multipliers if multipliers is not None else extract_multipliers(sol, s)
    tr, cp = sol.trajectory, sol.decision.controls
    tol = {**TOLERANCES, "adjoint": 10.0 / tr.grid.n_intervals}
    conds = {}

    # 1. nontriviality: normalization puts total weight at one
    conds["nontriviality"] = _condition(abs(m.total_weight() - 1.0), tol["nontriviality"])

    # 2. monotone nonnegative measures
    mono = max(float(np.max(np.diff(m.nu_H), initial=0.0)),
               float(np.max(np.diff(m.nu_L), initial=0.0)),
               float(-min(m.nu_H.min(), m.nu_L.min())))
    conds["measures"] = _condition(max(mono, 0.0), tol["boundary"])

    # 3. adjoint system: one-sided-difference defect of the backward arcs
    conds["adjoint"] = _condition(_adjoint_defect(tr, cp, m, s), tol["adjoint"])

    # 4. boundary conditions
    bres, bdetail = _boundary_residuals(tr, cp, m, s)
    scale = max(1.0, float(np.abs(m.q_H).max()), float(np.abs(m.q_L).max()))
    conds["boundary"] = _condition(bres, tol["boundary"] * scale, detail=bdetail)

    # 5. conservation of the Hamiltonian
    hvals = hamiltonian_upper(tr.y, tr.x, cp.v, cp.u, m.q_H, m.q_L, m.nu_H, m.nu_L,
                              m.r, s, active=m.active)
    conds["conservation"] = _condition(np.std(hvals),
                                       tol["conservation"] * (m.lam + abs(m.r * m.c) + 1.0),
                                       constant=float(m.c), mean=float(np.mean(hvals)))

    # 6. pointwise maximum condition in the drift control
    gap, node = _control_gap(tr, cp, m, s)
    conds["max_control"] = _condition(gap, tol["max_control"], node=node)

    # 7. pointwise maximum condition in the plan controls: the ball speed
    # maximizes the Hamiltonian plus the penalty-weighted value gain, so
    # q_H - nu_H(y-q0) + nu_L(x-y) + r*zeta2 must lie in the normal cone at v
    from .solver import value_subgradient
    zeta = value_subgradient(cp.omega, cp.v, sol.lower, s)
    pres, pnode = _plan_stationarity_residual(tr, cp, m, zeta[1], s)
    conds["max_plan"] = _condition(pres, tol["value_selection"], node=pnode)

    # 8. value-subgradient selection consistency (finite differences of phi)
    if check_value_selection:
        conds["value_selection"] = _condition(_value_selection_residual(sol, zeta, s),
                                              tol["value_selection"])
    else:
        conds["value_selection"] = _skipped(tol["value_selection"])

    return CertificateReport(multipliers=m, conditions=conds)


def _adjoint_defect(tr, cp, m, s: Scenario) -> float:
    """Sup-norm defect of the adjoint arcs in original (unscaled) time.

    The adjoint equations live on [0, T*]; node spacing there is
    omega * dt, so the backward difference and the right-hand side are both
    taken per unit of original time.
    """
    rhs_L, rhs_H = _adjoint_rhs(tr, cp, m.q_L, m.nu_H, m.nu_L, m.r, m.active, s)
    dt_orig = tr.grid.dt * np.maximum(cp.omega[1:], 1e-300)[:, None]
    dL = np.diff(m.q_L, axis=0) / dt_orig + rhs_L[1:]
    dH = np.diff(m.q_H, axis=0) / dt_orig + rhs_H[1:]
    return float(max(np.abs(dL).max(initial=0.0), np.abs(dH).max(initial=0.0)))


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
    return max(detail.values()), detail


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
    nv = np.sqrt(dot_rows(cp.v, cp.v))
    vhat = cp.v / np.maximum(nv, 1e-300)[:, None]
    on_ball = (s.v_bound > 0) & (nv >= s.v_bound * (1.0 - 1e-9))
    vec = coeff - np.where(on_ball, np.maximum(0.0, dot_rows(coeff, vhat)), 0.0)[:, None] * vhat
    scale = np.maximum(np.maximum(np.sqrt(dot_rows(coeff, coeff)),
                                  m.r * np.sqrt(dot_rows(zeta2, zeta2))), 1e-9)
    return _worst(np.sqrt(dot_rows(vec, vec)) / scale)


def _value_selection_residual(sol, zeta, s: Scenario) -> float:
    """Compare the subgradient selection ``zeta`` = (zeta1, zeta2) of the
    solution's plan against finite differences of phi."""
    from .solver import solve_lower, _project_ball_rows, _trapz_weights

    cp = sol.decision.controls
    omega, v = cp.omega, cp.v
    grid = cp.grid
    lower = sol.lower
    z1, z2 = zeta
    w = _trapz_weights(grid)
    # the step is large against the accuracy of the perturbed re-solves, and
    # the central difference controls the curvature error
    h = 3e-2
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(2):
        d_om = rng.normal(size=omega.shape)
        d_om /= np.linalg.norm(d_om)
        d_v = rng.normal(size=v.shape)
        # keep directions feasible where v sits on the ball boundary
        nv = np.linalg.norm(v, axis=1)
        on_edge = nv >= s.v_bound * (1 - 1e-9)
        vhat = v / np.maximum(nv, 1e-300)[:, None]
        d_v[on_edge] -= (np.sum(d_v[on_edge] * vhat[on_edge], axis=1)[:, None]
                         * vhat[on_edge])
        d_v /= max(np.linalg.norm(d_v), 1e-300)
        pred = float(np.sum(w * z1 * d_om) + np.sum(w[:, None] * z2 * d_v))

        def phi_at(sgn):
            om_p = np.clip(omega + sgn * h * d_om, 0.0, None)
            v_p = _project_ball_rows(v + sgn * h * d_v, s.v_bound)
            return solve_lower(om_p, v_p, sol.gamma_final, s, warm=lower).value

        fd = (phi_at(+1.0) - phi_at(-1.0)) / (2 * h)
        scale = max(1.0, abs(fd), abs(pred))
        worst = max(worst, abs(fd - pred) / scale)
    return worst
