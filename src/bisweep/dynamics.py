"""Sweeping dynamics: exact truncated-cone field, smooth approximation, integrators.

Two integration routes are provided and compared throughout the test suite:

* ``integrate_smooth`` -- RK4 on the smoothed field, where the cone correction
  is ramped in by a capped exponential coefficient of the boundary gap;
* ``integrate_catchup`` -- Moreau-style time stepping: an explicit drift step
  followed by a projection move back toward the translated disk, truncated to
  the cone budget M * omega * dt per step.

The RK4 step map (stage tableau, smoothed stage field ``stage_slope`` with its
Jacobians, stage recursion ``rk4_stages``) is written once, and with
``plan_path`` it serves both ``propagate_smooth`` and the solver's adjoint.
``reverse_plan_nodes`` is the reverse of the closed-form plan nodes, which the
Jacobian of the plan solve's constraints reads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Scenario, h_lower, h_upper, project_disk, target_distance

__all__ = [
    "TimeGrid",
    "ControlProfile",
    "StateTrajectory",
    "SmoothingSchedule",
    "ViolationReport",
    "InfeasibleStateError",
    "FeasibilityLossWarning",
    "drift",
    "sweeping_field_exact",
    "sweeping_field_smooth",
    "integrate_smooth",
    "integrate_catchup",
    "feasibility_monitor",
    "convergence_study",
]

BOUNDARY_TOL_FACTOR = 1e-9


class InfeasibleStateError(ValueError):
    """State handed to the exact field lies strictly outside the moving disk."""


class FeasibilityLossWarning(UserWarning):
    """Catching-up step needed a correction beyond the cone truncation budget."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of N+1 nodes on the fixed reparametrized horizon [0, 1];
    the physical time is the integral of the dilation omega."""

    n_intervals: int

    def __post_init__(self):
        if self.n_intervals < 2:
            raise ValueError("need at least 2 intervals")

    @property
    def dt(self) -> float:
        return 1.0 / self.n_intervals

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_intervals + 1)

    @property
    def n_nodes(self) -> int:
        return self.n_intervals + 1


@dataclass(frozen=True)
class ControlProfile:
    """Node-sampled controls on the reparametrized horizon."""

    grid: TimeGrid
    v: np.ndarray      # (N+1, n) plan velocity, |v| <= v_bound
    u: np.ndarray      # (N+1, m) lower drift control, |u| <= u_bound
    u0: np.ndarray     # (N+1,)   cone activation in [0, 1]
    omega: np.ndarray  # (N+1,)   time dilation, >= 0

    def __post_init__(self):
        n = self.grid.n_nodes
        for name in ("v", "u", "u0", "omega"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape[0] != n:
                raise ValueError(f"{name} must have {n} node values")
        if self.u0.min() < -1e-12 or self.u0.max() > 1.0 + 1e-12:
            raise ValueError("u0 must lie in [0, 1]")
        if self.omega.min() < -1e-12:
            raise ValueError("omega must be nonnegative")

    def check_bounds(self, s: Scenario) -> None:
        for name, bound in (("v", s.v_bound), ("u", s.u_bound)):
            worst = float(np.linalg.norm(getattr(self, name), axis=1).max())
            if worst > bound + 1e-9:
                raise ValueError(f"control {name} exceeds its ball bound: "
                                 f"max |{name}| = {worst:g} > {name}_bound = {bound:g}")


@dataclass(frozen=True)
class StateTrajectory:
    """Node-sampled states plus accumulated cost and physical time."""

    grid: TimeGrid
    y: np.ndarray  # (N+1, n)
    x: np.ndarray  # (N+1, n)
    z: np.ndarray  # (N+1,)
    t: np.ndarray  # (N+1,)
    u0_realized: Optional[np.ndarray] = None   # catching-up only

    @property
    def T(self) -> float:
        return float(self.t[-1])


@dataclass(frozen=True)
class SmoothingSchedule:
    """Increasing sequence of smoothing sharpness values gamma_k."""

    gammas: tuple

    def __post_init__(self):
        g = tuple(float(x) for x in self.gammas)
        object.__setattr__(self, "gammas", g)
        if len(g) == 0:
            raise ValueError("schedule must be nonempty")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("gammas must be strictly increasing")

    def validate_against(self, s: Scenario) -> None:
        if not all(map(math.isfinite, self.gammas)) or self.gammas[0] <= s.cone_gain:
            raise ValueError(f"every gamma must be finite and exceed M/R1 = {s.cone_gain}")

    @classmethod
    def default_for(cls, s: Scenario, gamma_max: Optional[float] = None) -> "SmoothingSchedule":
        """Doubling schedule 2, 4, 8, ... times M/R1, keeping the values below
        ``gamma_max`` and ending at it (default 64 M/R1: six stages)."""
        gamma_max = 64.0 * s.cone_gain if gamma_max is None else float(gamma_max)
        gammas = []
        g = 2.0 * s.cone_gain
        while g < gamma_max:
            gammas.append(g)
            g *= 2.0
        sched = cls(tuple(gammas) + (gamma_max,))
        sched.validate_against(s)
        return sched


def drift(x, u, s: Scenario):
    """Controlled drift f(x, u) of the chosen family, saturated at M1 (H1).

    Broadcasts over leading batch axes.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if s.drift.name == "identity":
        return u + np.zeros_like(x)
    A = s.drift.matrix(s.dim)
    raw = x @ A.T + u
    nrm = np.linalg.norm(raw, axis=-1, keepdims=True)
    scale = np.where(nrm > s.M1, s.M1 / np.maximum(nrm, 1e-300), 1.0)
    return raw * scale


def sweeping_field_exact(x, y, u, u0, s: Scenario):
    """Right-hand side with the exact truncated-cone term (active on the rim only)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tol = BOUNDARY_TOL_FACTOR * s.R1
    hl = h_lower(x, y, s)
    if np.any(hl > s.R1 * tol + 1e-12):
        raise InfeasibleStateError(f"state outside the moving disk: h_lower={np.max(hl):.3e}")
    f = drift(x, u, s)
    dist = np.linalg.norm(x - y, axis=-1)
    on_rim = dist >= s.R1 - tol
    corr = s.cone_gain * np.asarray(u0, dtype=float) * np.where(on_rim, 1.0, 0.0)
    return f - corr[..., None] * (x - y)


def sweeping_field_smooth(x, y, u, u0, gamma: float, s: Scenario):
    """Smoothed field: drift minus ramped cone pull toward the disk center
    (the RK4 stage slope at unit time dilation)."""
    u0 = np.asarray(u0, dtype=float)
    return stage_slope(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                       np.asarray(u, dtype=float), np.ones_like(u0), u0, gamma, s)


# RK4 tableau: stage j starts from x_i + RK4_OFFSETS[j] * dt * k_{j-1}, and
# x_{i+1} = x_i + dt/6 * sum_j RK4_WEIGHTS[j] * k_j
RK4_OFFSETS = (0.0, 0.5, 0.5, 1.0)
RK4_WEIGHTS = (1.0, 2.0, 2.0, 1.0)


def stage_values(a):
    """A node array at the four RK4 stages of every interval: the left node,
    the midpoint average (stages 1 and 2), the right node."""
    am = a[:-1] + a[1:]
    am *= 0.5
    return a[:-1], am, am, a[1:]


def stage_controls(u, u0, omega):
    """RK4 stage tableau of the swept-point controls (u, u0, the dilation w),
    each four interval arrays; their products are formed per stage, so no
    product tableau the size of the batch is kept."""
    return stage_values(u), stage_values(u0), stage_values(omega)


def cone_coefficient(diff, gamma: float, s: Scenario):
    """Ramped cone coefficient c = min{M/R1, gamma exp(gamma h_lower)} at the
    offsets diff = x - y (..., n); the exponent is capped at 50 below overflow,
    where the min caps the value anyway."""
    ex = np.exp(np.minimum((0.5 * gamma) * (np.add.reduce(diff * diff, -1) - s.R1 ** 2), 50.0))
    return np.minimum(s.cone_gain, gamma * ex)


def stage_slope(x, y, u, w, u0w, gamma: float, s: Scenario, jacobians: bool = False):
    """Smoothed field times the time dilation w at RK4 stage points.

    k = f(x, u) w - u0w c (x - y), u0w = u0 w, with the ramped cone
    coefficient c of ``cone_coefficient``; broadcasts over leading axes.  With
    ``jacobians`` also returns (dk/dx, dk/dy, dk/du, dk/dw at fixed u0w,
    dk/du0w), the matrices as (..., n, n) arrays.
    """
    diff = x - y
    c = cone_coefficient(diff, gamma, s)
    f = u if s.drift.name == "identity" else drift(x, u, s)
    k = f * w[..., None] - (u0w * c)[..., None] * diff
    if not jacobians:
        return k
    eye, A = np.eye(s.dim), s.drift.matrix(s.dim)
    f_u = eye
    if s.drift.name != "identity":
        raw = x @ A.T + u
        nrm = np.maximum(np.linalg.norm(raw, axis=-1), 1e-300)[..., None, None]
        rhat = raw[..., :, None] / nrm
        f_u = np.where(nrm > s.M1, (s.M1 / nrm) * (eye - rhat * np.swapaxes(rhat, -1, -2)), eye)
    # below the cap, grad_x c = gamma c (x - y) = -grad_y c
    gc = np.where(c < s.cone_gain, gamma * c, 0.0)
    pull = c[..., None, None] * eye + gc[..., None, None] * diff[..., :, None] * diff[..., None, :]
    k_y = u0w[..., None, None] * pull
    k_x = w[..., None, None] * (f_u @ A) - k_y
    return k, (k_x, k_y, w[..., None, None] * f_u, f, -c[..., None] * diff)


def rk4_stages(x, at, y_st, controls, gamma: float, s: Scenario, dt: float):
    """States and slopes of the four RK4 stages of the steps that start at x.

    The stage tableaus, y's from ``plan_path`` and ``controls`` from
    ``stage_controls``, are read at index ``at``: one interval for the
    forward sweep, a slice of all of them for the adjoint.
    """
    u_st, u0_st, w_st = controls
    x_st, k = [x], []
    for j in range(4):
        w = w_st[j][at]
        k.append(stage_slope(x_st[j], y_st[j][at], u_st[j][at], w, u0_st[j][at] * w, gamma, s))
        if j < 3:
            x_st.append(x + (RK4_OFFSETS[j + 1] * dt) * k[j])
    return x_st, k


def _as_batched(arr, ndim):
    """A node array with a batch axis: (N+1, B) or (N+1, B, n) for ``ndim`` 2 or 3."""
    arr = np.asarray(arr, dtype=float)
    return arr[:, None] if arr.ndim < ndim else arr


def _plan_slopes(v, omega):
    """dy/dtau = v*omega at the left node, the midpoint (RK4 stages 1 and 2)
    and the right node of every interval."""
    v_st, om_st = stage_values(v), stage_values(omega)
    return tuple(v_st[j] * om_st[j][..., None] for j in (0, 1, 3))


def plan_nodes(v, omega, s: Scenario, grid: TimeGrid):
    """Closed-form RK4 nodes of the plan center and the trapezoid clock: dy =
    v*omega needs no swept-point state, so y and t are sums of the controls v
    (N+1, [B,] n) and omega (N+1, [B]).  Returns (y, t)."""
    w1, wm, w4 = _plan_slopes(v, omega)
    ys = np.empty(v.shape)
    ys[0] = s.y0_arr
    ys[1:] = s.y0_arr + np.cumsum((grid.dt / 6.0) * (w1 + 4.0 * wm + w4), axis=0)
    return ys, np.concatenate([np.zeros((1,) + omega.shape[1:]),
                               np.cumsum(stage_values(omega)[1] * grid.dt, axis=0)])


def reverse_plan_nodes(v, omega, lam_y, grid: TimeGrid):
    """Reverse of ``plan_nodes``' y for one plan: K columns of node
    cotangents lam_y (N+1, n, K) to the cotangents (dL/dv (N+1, n, K),
    dL/domega (N+1, K)), all columns swept at once.  Every y_j past interval
    i holds its increment, so the increment's cotangent is lam_y
    reversed-cumulated once; the slopes v_i omega_i, 4 v_m omega_m (the
    midpoint averages) and v_{i+1} omega_{i+1} then give the node terms."""
    a = (grid.dt / 6.0) * np.cumsum(lam_y[:0:-1], axis=0)[::-1]   # (N, n, K)
    v_st = [c[..., None] for c in stage_values(v)]
    om_st = [c[:, None, None] for c in stage_values(omega)]
    mid_v, mid_om = 2.0 * om_st[1] * a, 2.0 * np.sum(a * v_st[1], axis=1)
    d_v, d_om = np.zeros(lam_y.shape), np.zeros((omega.shape[0], lam_y.shape[2]))
    d_v[:-1] += om_st[0] * a + mid_v
    d_v[1:] += om_st[3] * a + mid_v
    d_om[:-1] += np.sum(a * v_st[0], axis=1) + mid_om
    d_om[1:] += np.sum(a * v_st[3], axis=1) + mid_om
    return d_v, d_om


def plan_path(v, omega, s: Scenario, grid: TimeGrid):
    """``plan_nodes`` and the plan center's four RK4 stage values per
    interval, which the swept point's stages read.  Returns (y, y_stages, t)."""
    ys, ts = plan_nodes(v, omega, s, grid)
    w1, wm, _ = _plan_slopes(v, omega)
    y_st = tuple(ys[:-1] + (a * grid.dt) * k if a else ys[:-1]
                 for a, k in zip(RK4_OFFSETS, (None, w1, wm, wm)))
    return ys, y_st, ts


def propagate_smooth(v, u, u0, omega, x_init, gamma: float, s: Scenario, grid: TimeGrid):
    """Batched RK4 propagation of (y, x) under the smoothed field.

    Controls have shape (N+1, ...) with an optional batch axis; x_init is
    (..., n).  z and t come from trapezoidal quadrature of the node values,
    matching the transcription order.  Returns (y, x, z, t) node arrays.
    The plan (v, omega) keeps its own batch width P, 1 for the lower
    problem's frozen plan, and only the elementwise stage arithmetic
    broadcasts it; y and t come back as views at the full width B.
    """
    n = grid.n_nodes
    v, u = _as_batched(v, 3), _as_batched(u, 3)
    u0, omega = _as_batched(u0, 2), _as_batched(omega, 2)
    x0 = np.atleast_2d(np.asarray(x_init, dtype=float))
    P = max(v.shape[1], omega.shape[1])
    B = max(P, u.shape[1], u0.shape[1], x0.shape[0])
    v, u = np.broadcast_to(v, (n, P, s.dim)), np.broadcast_to(u, (n, B, s.dim))
    omega, u0 = np.broadcast_to(omega, (n, P)), np.broadcast_to(u0, (n, B))

    dt = grid.dt
    # z first, so its temporaries are freed before the batch-wide x and tableau
    effort = (np.einsum("...i,...i", u, u) + u0 * u0) * omega
    zs = np.concatenate([np.zeros((1, B)), np.cumsum(0.5 * (effort[1:] + effort[:-1]) * dt, axis=0)])
    xs = np.empty((n, B, s.dim))
    xs[0] = x0
    # y and t have closed forms (plan_path); only x needs the stage recursion
    ys, y_st, ts = plan_path(v, omega, s, grid)
    if P < B:
        ys, ts = np.broadcast_to(ys, xs.shape), np.broadcast_to(ts, (n, B))
    controls = stage_controls(u, u0, omega)
    for i in range(n - 1):
        xi = xs[i]
        _, (k1, k2, k3, k4) = rk4_stages(xi, i, y_st, controls, gamma, s, dt)
        xs[i + 1] = xi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return ys, xs, zs, ts


def integrate_smooth(cp: ControlProfile, x_init, gamma: float, s: Scenario) -> StateTrajectory:
    """RK4 trajectory of the reparametrized smoothed system for one control profile."""
    ys, xs, zs, ts = propagate_smooth(cp.v, cp.u, cp.u0, cp.omega, x_init, gamma, s, cp.grid)
    return StateTrajectory(cp.grid, ys[:, 0], xs[:, 0], zs[:, 0], ts[:, 0])


def integrate_catchup(cp: ControlProfile, x_init, s: Scenario, warn: bool = True) -> StateTrajectory:
    """Moreau catching-up stepping: Euler drift, then truncated projection pull.

    The per-step correction toward the disk is capped at M * omega_i * dt; the
    implied cone activation is recorded in ``u0_realized``.  If a step needed
    more than the budget, a FeasibilityLossWarning names the first violating
    node, the needed correction and the budget (unless ``warn`` is False).
    """
    grid = cp.grid
    n = grid.n_nodes
    dt = grid.dt
    y = np.empty((n, s.dim))
    x = np.empty((n, s.dim))
    u0_real = np.zeros(n)
    y[0] = s.y0_arr
    x[0] = np.asarray(x_init, dtype=float)
    loss = None
    for i in range(n - 1):
        w = cp.omega[i]
        y[i + 1] = y[i] + cp.v[i] * w * dt
        x_pred = x[i] + drift(x[i], cp.u[i], s) * w * dt
        target = project_disk(x_pred, y[i + 1], s.R1)
        needed = float(np.linalg.norm(x_pred - target))
        budget = s.M * w * dt
        if needed <= 1e-15:
            x[i + 1] = x_pred
            continue
        step = min(needed, budget)
        x[i + 1] = x_pred + (step / needed) * (target - x_pred)
        u0_real[i] = step / budget if budget > 1e-300 else 0.0
        if needed > budget + 1e-12 and loss is None:
            loss = {"node": i + 1, "needed": needed, "budget": budget}
    if loss is not None and warn:
        warnings.warn(
            f"catching-up correction exceeded the cone budget at node {loss['node']} "
            f"(needed {loss['needed']:.3e} > budget {loss['budget']:.3e})",
            FeasibilityLossWarning,
        )
    effort = (np.sum(cp.u * cp.u, axis=1) + u0_real ** 2) * cp.omega
    z = np.concatenate([[0.0], np.cumsum(0.5 * (effort[1:] + effort[:-1]) * dt)])
    t = np.concatenate([[0.0], np.cumsum(0.5 * (cp.omega[1:] + cp.omega[:-1]) * dt)])
    return StateTrajectory(grid, y, x, z, t, u0_realized=u0_real)


@dataclass(frozen=True)
class ViolationReport:
    max_h_lower: float
    node_h_lower: int
    max_h_upper: float
    node_h_upper: int
    terminal_distance: float

    def to_dict(self) -> dict:
        return {
            "max_h_lower": self.max_h_lower,
            "node_h_lower": self.node_h_lower,
            "max_h_upper": self.max_h_upper,
            "node_h_upper": self.node_h_upper,
            "terminal_distance": self.terminal_distance,
        }


def feasibility_monitor(tr: StateTrajectory, s: Scenario) -> ViolationReport:
    """Worst node violations of both containment constraints plus terminal miss."""
    hl = h_lower(tr.x, tr.y, s)
    hu = h_upper(tr.y, s)
    return ViolationReport(
        max_h_lower=float(np.max(hl)),
        node_h_lower=int(np.argmax(hl)),
        max_h_upper=float(np.max(hu)),
        node_h_upper=int(np.argmax(hu)),
        terminal_distance=float(target_distance(tr.y[-1], s)),
    )


def convergence_study(cp: ControlProfile, x_init, sched: SmoothingSchedule, s: Scenario) -> np.ndarray:
    """Sup-norm gap between the smoothed trajectories and the catching-up reference."""
    sched.validate_against(s)
    ref = integrate_catchup(cp, x_init, s, warn=False)
    errs = []
    for g in sched.gammas:
        tr = integrate_smooth(cp, x_init, g, s)
        errs.append(float(np.linalg.norm(tr.x - ref.x, axis=1).max()))
    return np.asarray(errs)
