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

from .dynamics import drift, smoothing_coefficient
from .geometry import Scenario, target_direction
from .transcription import TimeGrid

__all__ = [
    "GamkrelidzeMultipliers",
    "CertificateReport",
    "sigma_value",
    "sigma_smooth_value",
    "hamiltonian_upper",
    "extract_multipliers",
    "certify",
]

PENALTY_WEIGHT = 64.0        # exact-penalty weight rho; the effort multiplier is r = lam * rho
RIM_ACTIVITY_TOL = 0.1       # fraction of R1: how far inside the rim still counts as contact
U0_ACTIVITY_TOL = 1e-3       # normal-control level regarded as active


def _sigma_tilde(q_L, nu_L, x, y, s: Scenario):
    return nu_L * s.R1 ** 2 - np.sum(np.asarray(q_L) * (np.asarray(x) - np.asarray(y)), axis=-1)


def sigma_value(y, x, q_L, nu_L, r, s: Scenario, active: Optional[bool] = None) -> float:
    """Support value of the truncated normal-cone term.

    Zero away from disk contact.  On contact, with st = nu_L*R1^2 - <q_L, x-y>
    and k = M/R1: zero for st <= 0, a quadratic (k*st)^2/(4r) for
    0 < st <= 2r/k, and the linear branch k*st - r beyond.
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if active is None:
        active = np.linalg.norm(d) >= s.R1 * (1.0 - RIM_ACTIVITY_TOL)
    if not active:
        return 0.0
    st = float(_sigma_tilde(q_L, nu_L, x, y, s))
    if st <= 0.0:
        return 0.0
    k = s.cone_gain
    if r <= 0.0:
        return k * st
    if st <= 2.0 * r / k:
        return (k * st) ** 2 / (4.0 * r)
    return k * st - r


def _sigma_slope(st: float, r: float, k: float) -> float:
    """Derivative of sigma with respect to sigma_tilde on each branch."""
    if st <= 0.0:
        return 0.0
    if r <= 0.0:
        return k
    if st <= 2.0 * r / k:
        return k ** 2 * st / (2.0 * r)
    return k


def sigma_smooth_value(y, x, p_L, mu_L, lambda_bar, gamma: float, s: Scenario) -> float:
    """Smoothed analog of ``sigma_value`` with gain c(gamma, x, y) <= M/R1.

    The exponential decay of the gain replaces the contact gate; away from the
    rim the value vanishes to machine precision.
    """
    c = float(smoothing_coefficient(gamma, x, y, s))
    st = float(_sigma_tilde(p_L, mu_L, x, y, s))
    if st <= 0.0:
        return 0.0
    if lambda_bar <= 0.0:
        return c * st
    if st <= 2.0 * lambda_bar / c:
        return (c * st) ** 2 / (4.0 * lambda_bar)
    return c * st - lambda_bar


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


def hamiltonian_upper(y, x, v, u, q_H, q_L, nu_H, nu_L, r, s: Scenario,
                      sigma: Optional[float] = None, active: Optional[bool] = None) -> float:
    """Pointwise value of the full Hamiltonian along the arc."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    d = x - y
    if sigma is None:
        sigma = sigma_value(y, x, q_L, nu_L, r, s, active=active)
    f = drift(x, np.asarray(u, dtype=float), s)
    return (float(np.dot(q_H - nu_H * (y - s.q0_arr), v))
            + nu_L * float(np.dot(d, v))
            - r * float(np.dot(u, u))
            + float(np.dot(q_L - nu_L * d, f))
            + sigma)


def _contact_flags(tr, cp, s: Scenario) -> np.ndarray:
    d = np.linalg.norm(tr.x - tr.y, axis=1)
    return ((cp.u0 > 1e-2) & (d >= 0.35 * s.R1)) | (d >= s.R1 * (1.0 - 1e-3))


def _sigma_branch_arrays(st: np.ndarray, r: float, k: float, gate: np.ndarray):
    """Vectorized sigma values and slopes d(sigma)/d(sigma_tilde)."""
    z = k * st
    sig = np.zeros_like(st)
    sl = np.zeros_like(st)
    pos = gate & (st > 0.0)
    if r <= 0.0:
        sig[pos] = z[pos]
        sl[pos] = k
        return sig, sl
    mid = pos & (z <= 2.0 * r)
    top = pos & (z > 2.0 * r)
    sig[mid] = z[mid] ** 2 / (4.0 * r)
    sl[mid] = k * z[mid] / (2.0 * r)
    sig[top] = z[top] - r
    sl[top] = k
    return sig, sl


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
        self.grid = tr.grid
        n = self.grid.n_nodes
        self.n = n
        self.d = tr.x - tr.y
        self.dn = np.linalg.norm(self.d, axis=1)
        self.active = _contact_flags(tr, cp, s)
        self.gate = self.active | (self.dn >= 0.9 * s.R1)
        self.g = 2.0 * r * cp.u
        self.A = s.drift.matrix(s.dim)
        self.k = s.cone_gain
        self.fmat = np.array([drift(tr.x[i], cp.u[i], s) for i in range(n)])
        self.ddv = np.einsum("ij,ij->i", self.d, cp.v)
        self.uu = np.einsum("ij,ij->i", cp.u, cp.u)
        self.gf = np.einsum("ij,ij->i", self.g, self.fmat)
        self.gd = np.einsum("ij,ij->i", self.g, self.d)
        self.nu_H = nu_H
        self.yq = tr.y - s.q0_arr
        self.alpha = alpha
        self.dhat = target_direction(tr.y[-1], s)
        # parameter layout: one nu per active node, one per inactive segment
        self.slots = np.zeros(n, dtype=int)
        params = 0
        i = 0
        while i < n:
            if self.active[i]:
                self.slots[i] = params
                params += 1
                i += 1
            else:
                j = i
                while j < n and not self.active[j]:
                    j += 1
                self.slots[i:j] = params
                params += 1
                i = j
        self.n_params = params

    def nu_from_params(self, p: np.ndarray) -> np.ndarray:
        return p[self.slots]

    def initial_guess(self) -> np.ndarray:
        nu = np.zeros(self.n)
        for i in np.nonzero(self.active)[0]:
            slope = self.k * self.cp.u0[i]
            a_vec = (self.cp.v[i] - self.fmat[i]) - slope * self.d[i]
            b_vec = slope * self.g[i] - self.A.T @ self.g[i]
            den = float(a_vec @ a_vec)
            nu[i] = float(a_vec @ b_vec) / den if den > 1e-12 else 0.0
        # inactive segments: continuity of q_L at the segment's right edge
        i = 0
        while i < self.n:
            if self.active[i]:
                i += 1
                continue
            j = i
            while j < self.n and not self.active[j]:
                j += 1
            if j < self.n and self.dn[j - 1] > 0.1 * self.s.R1:
                q_next = self.g[j] + nu[j] * self.d[j]
                nu[i:j] = float((q_next - self.g[j - 1]) @ self.d[j - 1]) / float(
                    self.d[j - 1] @ self.d[j - 1])
            i = j
        p = np.zeros(self.n_params)
        p[self.slots] = nu
        return p

    def build(self, nu: np.ndarray):
        q_L = self.g + nu[:, None] * self.d
        st = nu * (self.s.R1 ** 2 - self.dn ** 2) - self.gd
        sig, sl = _sigma_branch_arrays(st, self.r, self.k, self.gate)
        nu_T = float(q_L[-1] @ self.d[-1]) / max(float(self.d[-1] @ self.d[-1]), 1e-300)
        q_H_T = (self.alpha * self.dhat + self.nu_H[-1] * self.yq[-1]
                 - nu_T * self.d[-1])
        dt = self.grid.dt
        # q_H[i] = q_H[-1] + dt * sum_{j>i} rhs[j]: a reverse cumulative sum
        rhs_all = ((-(self.nu_H + nu)[:, None] * self.cp.v + nu[:, None] * self.fmat
                    + sl[:, None] * q_L) * self.cp.omega[:, None])
        tail = np.cumsum(rhs_all[::-1], axis=0)[::-1] - rhs_all
        q_H = q_H_T + dt * tail
        H = (np.einsum("ij,ij->i", q_H - self.nu_H[:, None] * self.yq, self.cp.v)
             + nu * self.ddv - self.r * self.uu + self.gf + sig)
        return q_L, q_H, H, sl

    def q_L_defect(self, nu, q_L, sl):
        """Backward-difference defect of the q_L adjoint arc, per interval."""
        gpart = q_L - nu[:, None] * self.d
        rhs = (-nu[:, None] * self.fmat + gpart @ self.A
               + nu[:, None] * self.cp.v - sl[:, None] * q_L) * self.cp.omega[:, None]
        return (q_L[1:] - q_L[:-1]) / self.grid.dt + rhs[1:]

    def residuals(self, p: np.ndarray) -> np.ndarray:
        nu = self.nu_from_params(p)
        q_L, q_H, H, sl = self.build(nu)
        r_cons = (H - H.mean()) * 10.0
        r_adj = self.q_L_defect(nu, q_L, sl).ravel() * 0.1
        r_mono = np.maximum(0.0, np.diff(nu)) * 0.3
        return np.concatenate([r_cons, r_adj, r_mono])


def extract_multipliers(sol, s: Scenario, rho: float = PENALTY_WEIGHT) -> GamkrelidzeMultipliers:
    """Build candidate multipliers from a solved instance.

    The cost multiplier is set to one, the effort multiplier to the penalty
    weight ``rho``, the tangential stationarity condition is imposed exactly
    (q_L - nu_L*(x-y) = 2*r*u), and the contact-measure path nu_L is fitted by
    least squares against the conservation and adjoint residuals.  Everything
    is normalized to total weight one at the end.
    """
    from scipy.optimize import least_squares

    tr, cp = sol.trajectory, sol.decision.controls
    grid = tr.grid
    n = grid.n_nodes
    rho = float(rho)

    lam0 = 1.0
    r0 = lam0 * rho
    nu_H = np.cumsum(np.asarray(sol.upper_mults.get("h_upper", np.zeros(n)))[::-1])[::-1]
    alpha = float(sol.upper_mults.get("target", 0.0)) * rho

    model = _MultiplierModel(tr, cp, s, r0, alpha, nu_H)
    p0 = model.initial_guess()
    fit = least_squares(model.residuals, p0, method="lm", max_nfev=4000)
    nu_L = model.nu_from_params(fit.x)
    q_L, q_H, hvals, _ = model.build(nu_L)

    c_fit = float((np.mean(hvals) - lam0) / r0) if r0 > 0 else 0.0
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


def _hamiltonian_nodes(tr, cp, m: GamkrelidzeMultipliers, s: Scenario) -> np.ndarray:
    n = tr.grid.n_nodes
    out = np.empty(n)
    for i in range(n):
        out[i] = hamiltonian_upper(tr.y[i], tr.x[i], cp.v[i], cp.u[i],
                                   m.q_H[i], m.q_L[i], m.nu_H[i], m.nu_L[i],
                                   m.r, s, active=bool(m.active[i]))
    return out


def _control_gap(tr, cp, m: GamkrelidzeMultipliers, s: Scenario):
    """Worst-node shortfall of <psi,u> - r|u|^2 against its ball maximizer."""
    gap = 0.0
    node = 0
    for i in range(tr.grid.n_nodes):
        d = tr.x[i] - tr.y[i]
        psi = m.q_L[i] - m.nu_L[i] * d
        pn = float(np.linalg.norm(psi))
        if m.r > 0:
            radius = min(pn / (2.0 * m.r), s.u_bound)
        else:
            radius = s.u_bound if pn > 0 else 0.0
        u_star = psi / pn * radius if pn > 0 else np.zeros(s.dim)

        def phi(u):
            return float(np.dot(psi, u)) - m.r * float(np.dot(u, u))

        gi = phi(u_star) - phi(cp.u[i])
        if gi > gap:
            gap, node = gi, i
    return gap, node


@dataclass(frozen=True)
class CertificateReport:
    multipliers: GamkrelidzeMultipliers
    conditions: dict
    hamiltonian: np.ndarray

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.conditions.values() if c["ok"] is not None)

    def to_dict(self) -> dict:
        conds = {k: {kk: (vv if not isinstance(vv, np.ndarray) else vv.tolist())
                     for kk, vv in v.items()} for k, v in self.conditions.items()}
        return {"ok": self.ok, "conditions": conds,
                "conservation_constant": self.multipliers.c,
                "lam": self.multipliers.lam, "r": self.multipliers.r}

    def summary_lines(self):
        lines = []
        for name, c in self.conditions.items():
            if c["ok"] is None:
                lines.append(f"{name:>16s}: skipped")
            else:
                mark = "ok" if c["ok"] else "FAIL"
                lines.append(f"{name:>16s}: {mark}  residual={c['residual']:.3e}  tol={c['tol']:.3e}")
        return lines


def _default_tolerances(grid: TimeGrid) -> dict:
    return {
        "nontriviality": 1e-9,
        "adjoint": 10.0 / grid.n_intervals,
        "boundary": 1e-6,
        "conservation": 1e-3,
        "max_control": 1e-4,
        "value_selection": 5e-2,
    }


def certify(sol, s: Scenario, tolerances: Optional[dict] = None,
            check_value_selection: bool = True,
            multipliers: Optional[GamkrelidzeMultipliers] = None,
            rho: float = PENALTY_WEIGHT) -> CertificateReport:
    """Evaluate every stationarity condition as a numerical residual.

    A certificate pairs a solution with multipliers; when `multipliers` is
    given the conditions are evaluated against that fixed candidate instead of
    refitting, so a perturbed solution is flagged rather than re-certified.
    Otherwise they are extracted with penalty weight ``rho``.
    """
    m = multipliers if multipliers is not None else extract_multipliers(sol, s, rho)
    tr, cp = sol.trajectory, sol.decision.controls
    grid = tr.grid
    tol = _default_tolerances(grid)
    if tolerances:
        tol.update(tolerances)
    conds = {}

    # 1. nontriviality: normalization puts total weight at one
    total = m.total_weight()
    conds["nontriviality"] = {"residual": abs(total - 1.0), "tol": tol["nontriviality"],
                              "ok": abs(total - 1.0) <= tol["nontriviality"]}

    # 2. monotone nonnegative measures
    mono = max(float(np.max(np.diff(m.nu_H), initial=0.0)),
               float(np.max(np.diff(m.nu_L), initial=0.0)),
               float(-min(m.nu_H.min(), m.nu_L.min())))
    conds["measures"] = {"residual": max(mono, 0.0), "tol": tol["boundary"],
                         "ok": mono <= tol["boundary"]}

    # 3. adjoint system: one-sided-difference defect of the backward arcs
    defect = _adjoint_defect(tr, cp, m, s)
    conds["adjoint"] = {"residual": defect, "tol": tol["adjoint"],
                        "ok": defect <= tol["adjoint"]}

    # 4. boundary conditions
    bres, bdetail = _boundary_residuals(tr, cp, m, s)
    scale = max(1.0, float(np.abs(m.q_H).max()), float(np.abs(m.q_L).max()))
    conds["boundary"] = {"residual": bres, "tol": tol["boundary"] * scale,
                         "ok": bres <= tol["boundary"] * scale, "detail": bdetail}

    # 5. conservation of the Hamiltonian
    hvals = _hamiltonian_nodes(tr, cp, m, s)
    spread = float(np.std(hvals))
    bound = tol["conservation"] * (m.lam + abs(m.r * m.c) + 1.0)
    conds["conservation"] = {"residual": spread, "tol": bound, "ok": spread <= bound,
                             "constant": m.c, "mean": float(np.mean(hvals))}

    # 6. pointwise maximum condition in the drift control
    gap, node = _control_gap(tr, cp, m, s)
    conds["max_control"] = {"residual": gap, "tol": tol["max_control"],
                            "ok": gap <= tol["max_control"], "node": node}

    # 7. pointwise maximum condition in the plan controls: the ball speed
    # maximizes the Hamiltonian plus the penalty-weighted value gain, so
    # q_H - nu_H(y-q0) + nu_L(x-y) + r*zeta2 must lie in the normal cone at v
    if sol.lower.multipliers is not None:
        pres, pnode = _plan_stationarity_residual(tr, cp, m, sol, s)
        conds["max_plan"] = {"residual": pres, "tol": tol["value_selection"],
                             "ok": pres <= tol["value_selection"], "node": pnode}
    else:
        conds["max_plan"] = {"residual": float("nan"),
                             "tol": tol["value_selection"], "ok": None}

    # 8. value-subgradient selection consistency (finite differences of phi)
    if check_value_selection and sol.lower.multipliers is not None:
        vres = _value_selection_residual(sol, s)
        conds["value_selection"] = {"residual": vres, "tol": tol["value_selection"],
                                    "ok": vres <= tol["value_selection"]}
    else:
        conds["value_selection"] = {"residual": float("nan"),
                                    "tol": tol["value_selection"], "ok": None}

    return CertificateReport(multipliers=m, conditions=conds, hamiltonian=hvals)


def _adjoint_defect(tr, cp, m, s: Scenario) -> float:
    """Sup-norm defect of the adjoint arcs in original (unscaled) time.

    The adjoint equations live on [0, T*]; node spacing there is
    omega * dt, so the backward difference and the right-hand side are both
    taken per unit of original time.
    """
    grid = tr.grid
    worst = 0.0
    A = s.drift.matrix(s.dim)
    k = s.cone_gain
    for i in range(grid.n_nodes - 1):
        j = i + 1
        d = tr.x[j] - tr.y[j]
        g = m.q_L[j] - m.nu_L[j] * d
        f = drift(tr.x[j], cp.u[j], s)
        if m.active[j]:
            st = float(_sigma_tilde(m.q_L[j], m.nu_L[j], tr.x[j], tr.y[j], s))
            slope = _sigma_slope(st, m.r, k)
        else:
            slope = 0.0
        rhs_qL = -m.nu_L[j] * f + A.T @ g + m.nu_L[j] * cp.v[j] - slope * m.q_L[j]
        rhs_qH = -(m.nu_H[j] + m.nu_L[j]) * cp.v[j] + m.nu_L[j] * f + slope * m.q_L[j]
        dt_orig = grid.dt * max(float(cp.omega[j]), 1e-300)
        dL = (m.q_L[j] - m.q_L[i]) / dt_orig + rhs_qL
        dH = (m.q_H[j] - m.q_H[i]) / dt_orig + rhs_qH
        worst = max(worst, float(np.abs(dL).max()), float(np.abs(dH).max()))
    return worst


def _boundary_residuals(tr, cp, m, s: Scenario):
    d_T = tr.x[-1] - tr.y[-1]
    dTsq = max(float(d_T @ d_T), 1e-300)
    # q_L(T) must equal nu_L(T)(x-y); a terminal atom of the contact measure
    # may still lower nu_L after the last stored node, so the coefficient is
    # only required to lie at or below the stored value.
    coef = float(m.q_L[-1] @ d_T) / dTsq
    r_qL_T = (float(np.linalg.norm(m.q_L[-1] - coef * d_T))
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


def _plan_stationarity_residual(tr, cp, m, sol, s: Scenario):
    """Worst relative distance of the plan-control stationarity vector to the
    normal cone of the speed ball at each node.

    The stationarity vector combines the Hamiltonian coefficient of v with the
    penalty-weighted value-subgradient selection; at a maximizing boundary
    speed it must point along v, and at an interior speed it must vanish.
    """
    from .solver import value_subgradient

    _, zeta2 = value_subgradient(cp.omega, cp.v, sol.lower, s)
    d = tr.x - tr.y
    yq = tr.y - s.q0_arr
    worst, node = 0.0, 0
    for i in range(tr.grid.n_nodes):
        coeff = (m.q_H[i] - m.nu_H[i] * yq[i] + m.nu_L[i] * d[i]
                 + m.r * zeta2[i])
        vec = coeff.copy()
        nv = float(np.linalg.norm(cp.v[i]))
        if s.v_bound > 0 and nv >= s.v_bound * (1.0 - 1e-9):
            vhat = cp.v[i] / max(nv, 1e-300)
            vec = vec - max(0.0, float(vec @ vhat)) * vhat
        scale = max(float(np.linalg.norm(coeff)), m.r * float(np.linalg.norm(zeta2[i])), 1e-9)
        rel = float(np.linalg.norm(vec)) / scale
        if rel > worst:
            worst, node = rel, i
    return worst, node


def _value_selection_residual(sol, s: Scenario) -> float:
    """Compare the subgradient selection against finite differences of phi."""
    from .solver import SolverOptions, solve_lower, value_subgradient, _trapz_weights

    cp = sol.decision.controls
    omega, v = cp.omega, cp.v
    grid = cp.grid
    lower = sol.lower
    z1, z2 = value_subgradient(omega, v, lower, s)
    w = _trapz_weights(grid)
    # the re-solve of the perturbed lower problem settles within ~1e-4 of its
    # optimum, so the step is chosen large enough to dominate that noise while
    # the central difference controls the curvature error
    opts = SolverOptions(lower_max_iter=120, lower_al_rounds=4)
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
            from .solver import _project_ball_rows
            om_p = np.clip(omega + sgn * h * d_om, 0.0, None)
            v_p = _project_ball_rows(v + sgn * h * d_v, s.v_bound)
            sol_p = solve_lower(om_p, v_p, sol.gamma_final, s, opts, warm=lower,
                                grid=grid, with_multipliers=False)
            return sol_p.value

        fd = (phi_at(+1.0) - phi_at(-1.0)) / (2 * h)
        scale = max(1.0, abs(fd), abs(pred))
        worst = max(worst, abs(fd - pred) / scale)
    return worst
