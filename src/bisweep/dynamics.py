"""Sweeping dynamics: the smoothed truncated-cone field and its integrators.

Two integration routes are provided and compared throughout the test suite:

* ``integrate_smooth`` -- RK4 on the smoothed field, where the cone correction
  is ramped in by an exponential coefficient of the boundary gap, blended
  smoothly into its cap M/R1 (``_cone_terms``, in floats ``_float_cap``);
* ``integrate_catchup`` -- Moreau-style time stepping: an explicit drift step
  followed by a projection move back toward the translated disk, truncated to
  the cone budget M * omega * dt per step, stepped in float arithmetic as
  ``drift`` and ``project_ball_rows`` on the offset from the disk center do.

The plan's part of the RK4 stage map (``PlanPath``: the plan center's nodes
and stage values, the clock, omega's stage values, the trapezoid weights and
a per-interval tableau of the stage centers and omega) reads only the plan
(v, omega), so ``plan_path`` builds it with NumPy once per plan; a solve at a
fixed plan checks and builds it once with ``frozen_plan``.  The plan-level
pair takes that record and the lower controls (u, u0) as arguments:
``propagate_smooth`` steps the swept point once per smoothing gain in float
arithmetic (``_sweep_column``), one interval per loop turn, reading the plan's
tableau and the lower controls' node values, in the order of the smoothed
stage field ``stage_slope``; ``reverse_smooth``, its exact discrete reverse,
sweeps the swept point, evaluating ``stage_slope`` with its Jacobians over all
intervals at once, and returns the plan's cotangents as a function run only
where they are read.  That function calls ``reverse_plan_path``, the reverse
of ``plan_path``, which the Jacobian of the plan solve's constraints also
reads.  ``integrate_smooth`` and ``convergence_study`` take a control
profile and build its plan path on each call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Scenario, h_lower, h_upper, project_ball_rows, target_distance

__all__ = [
    "TimeGrid",
    "ControlProfile",
    "StateTrajectory",
    "SmoothingSchedule",
    "ViolationReport",
    "FeasibilityLossWarning",
    "drift",
    "integrate_smooth",
    "integrate_catchup",
    "feasibility_monitor",
    "convergence_study",
]

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


def running_trapezoid(a, dt: float) -> np.ndarray:
    """Trapezoidal integral of the node values a (N+1, ...) from node 0 to
    each node: the clock t of both integrators and RK4's effort z."""
    return np.concatenate([np.zeros((1,) + a.shape[1:]),
                           np.cumsum(0.5 * (a[1:] + a[:-1]) * dt, axis=0)])


def trapz_weights(grid: TimeGrid) -> np.ndarray:
    """Trapezoidal quadrature weights of the grid's nodes."""
    w = np.full(grid.n_nodes, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


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
            arr = getattr(self, name)
            if arr.shape[1:] != (s.dim,):
                raise ValueError(f"control {name} must have {s.dim} columns, got shape {arr.shape}")
            worst = float(np.linalg.norm(arr, axis=1).max())
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
        for g in self.gammas:
            s.smoothing_gain(g)

    @classmethod
    def default_for(cls, s: Scenario, gamma_max: Optional[float] = None) -> "SmoothingSchedule":
        """Doubling schedule 2, 4, 8, ... times M/R1, keeping the values below
        ``gamma_max`` and ending at it (default 64 M/R1: six stages)."""
        gamma_max = (64.0 * s.cone_gain if gamma_max is None
                     else s.smoothing_gain(gamma_max, "gamma_max"))
        gammas = []
        g = 2.0 * s.cone_gain
        while g < gamma_max:
            gammas.append(g)
            g *= 2.0
        return cls(tuple(gammas) + (gamma_max,))


def drift(x, u, s: Scenario, jacobian: bool = False):
    """Controlled drift f(x, u) of the chosen family, saturated at M1 (H1).

    Broadcasts over leading batch axes.  x A^T is summed per row as x_0 A_r0
    + x_1 A_r1, with no matrix product, so a row rounds the same in every
    batch width and in ``_float_drift``.  ``jacobian`` adds (df/dx, df/du),
    (..., n, n), from the same unclipped value; df/dx = (df/du) A, likewise.
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    if s.drift.name == "identity":
        f = u + np.zeros_like(x)
        if not jacobian:
            return f
        f_x = np.zeros(f.shape + (s.dim,))
        return f, (f_x, f_x + np.eye(s.dim))
    A = s.drift.matrix(s.dim)
    raw = x[..., :1] * A[:, 0] + x[..., 1:] * A[:, 1] + u
    f = project_ball_rows(raw, s.M1)
    if not jacobian:
        return f
    nrm = np.maximum(np.sqrt(np.add.reduce(raw * raw, -1)), 1e-300)[..., None, None]
    rhat, eye = raw[..., :, None] / nrm, np.eye(s.dim)
    f_u = np.where(nrm > s.M1, (s.M1 / nrm) * (eye - rhat * np.swapaxes(rhat, -1, -2)), eye)
    return f, (f_u[..., :1] * A[0] + f_u[..., 1:] * A[1], f_u)


def _float_drift(p0, p1, u0, u1, a, M1):
    """``drift`` at one point (p0, p1) and control (u0, u1) in floats, by its
    operations in their order, for the flat ``DriftSpec.A`` a (None: u + 0 x)."""
    if a is None:
        return u0 + 0.0, u1 + 0.0
    f0, f1 = p0 * a[0] + p1 * a[1] + u0, p0 * a[2] + p1 * a[3] + u1
    nrm = math.sqrt(f0 * f0 + f1 * f1)
    if nrm > M1:
        scale = M1 / max(nrm, 1e-300)
        return f0 * scale, f1 * scale
    return f0, f1


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


# Half-width a of the band in l = ln(g/K), g = gamma exp(gamma h_lower) and
# K = M/R1, over which the cone coefficient blends from g to K.  On the rim
# (h_lower = 0) l = ln(gamma/K), so at gamma >= 2K the coefficient is K.
CAP_BAND = math.log(2.0)
_BAND_3A, _BAND_8A, _BAND_NORM = 3.0 * CAP_BAND, 8.0 * CAP_BAND, 16.0 * CAP_BAND ** 3


def _cone_terms(diff, gamma, s: Scenario):
    """The banded cone coefficient c at the offsets diff = x - y (..., n),
    with l = ln(g/K) and l clipped to the band [-a, a].

    With e = gamma h_lower, g = gamma e^e, K = M/R1 and a = ``CAP_BAND``:
    c = g for l = e + ln(gamma/K) <= -a, c = K for l >= a, and c = gamma
    exp(e - psi(l)) between, psi(l) = (l + a)^3 (3a - l) / (16 a^3); psi's
    first two derivatives meet those of 0 and of l at -a and a, so c is C^2
    and c <= min(K, g).  A min with K takes off the roundoff by which the
    blend can pass K just below l = a."""
    e = (0.5 * gamma) * (np.add.reduce(diff * diff, -1) - s.R1 ** 2)
    lr = e + np.log(gamma / s.cone_gain)
    lc = np.minimum(np.maximum(lr, -CAP_BAND), CAP_BAND)
    p = lc + CAP_BAND
    # psi(l) is 0 below the band; the exponent is capped at 50 above it,
    # where c is K anyway
    ex = np.exp(np.minimum(e - p * p * p * (_BAND_3A - lc) / _BAND_NORM, 50.0))
    return np.where(lr < CAP_BAND, np.minimum(gamma * ex, s.cone_gain), s.cone_gain), lr, lc


def _float_cap(e, lr, gamma, cap):
    """``_cone_terms``' coefficient c for one offset in float arithmetic, by
    the same operations in their order, from e = gamma h_lower and l =
    e + ln(gamma/K) with cap = K.  The exponential is NumPy's, which rounds
    some arguments unlike ``math``'s; at or above the band none is taken."""
    if lr >= CAP_BAND:
        return cap
    p = lr + CAP_BAND
    c = gamma * float(np.exp(e if lr <= -CAP_BAND
                             else e - p * p * p * (_BAND_3A - lr) / _BAND_NORM))
    return cap if c > cap else c


def float_cone_coefficient(sq, gamma, s: Scenario):
    """``_cone_terms``' coefficient in floats for one offset with squared
    length sq, summed as NumPy sums fewer than 8 squares, and a float gain;
    the certificate's one-node smoothed sigma reads it."""
    e = 0.5 * gamma * (sq - s.R1 ** 2)
    return _float_cap(e, e + float(np.log(gamma / s.cone_gain)), gamma, s.cone_gain)


def stage_slope(x, y, u, w, u0w, gamma, s: Scenario, jacobians: bool = False):
    """Smoothed field times the time dilation w at RK4 stage points.

    k = f(x, u) w - u0w c (x - y), u0w = u0 w, with the banded cone
    coefficient c of ``_cone_terms``; broadcasts over leading axes, gamma
    included (a float or a (B,) array of per-column gains).  With
    ``jacobians`` also returns (dk/dx, dk/dy, dk/du, dk/dw at fixed u0w,
    dk/du0w), the matrices as (..., n, n) arrays.
    """
    diff = x - y
    c, lr, lc = _cone_terms(diff, gamma, s)
    f, jac = u, None   # the identity drift's f, and its Jacobians below
    if s.drift.name != "identity":
        f, jac = drift(x, u, s, jacobian=True) if jacobians else (drift(x, u, s), None)
    k = f * w[..., None] - (u0w * c)[..., None] * diff
    if not jacobians:
        return k
    eye = np.eye(s.dim)
    f_x, f_u = (0.0, eye) if jac is None else jac
    # grad_x c = gamma c (1 - psi'(l)) (x - y) = -grad_y c, with
    # psi'(l) = (l + a)^2 (8a - 4l) / (16 a^3), 0 below the band and 1 above
    p = lc + CAP_BAND
    gc = np.where(lr < CAP_BAND,
                  gamma * c * (1.0 - p * p * (_BAND_8A - 4.0 * lc) / _BAND_NORM), 0.0)
    pull = c[..., None, None] * eye + gc[..., None, None] * diff[..., :, None] * diff[..., None, :]
    k_y = u0w[..., None, None] * pull
    k_x = w[..., None, None] * f_x - k_y
    return k, (k_x, k_y, w[..., None, None] * f_u, f, -c[..., None] * diff)


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
    return ys, running_trapezoid(omega, grid.dt)


@dataclass(frozen=True)
class PlanPath:
    """Everything of the RK4 step map that the plan (v, omega) alone fixes in
    one scenario, built once per plan by ``plan_path``.  A solve at a fixed
    plan passes it to the forward and the reverse of every iterate, which
    build only the lower controls' columns."""

    grid: TimeGrid
    v: np.ndarray          # (N+1, n)
    omega: np.ndarray      # (N+1,)
    y: np.ndarray          # (N+1, n) plan center nodes
    t: np.ndarray          # (N+1,)   trapezoid clock
    y_stages: np.ndarray   # (4, N, n) plan center at the RK4 stage points
    w_stages: np.ndarray   # (4, N)   omega at the RK4 stage points
    weights: np.ndarray    # (N+1,)   trapezoid weights
    tableau: list          # per interval: the four stage centers' (y_0, y_1), then omega
                           # at the left node, the midpoint and the right node


def plan_path(v, omega, s: Scenario, grid: TimeGrid) -> PlanPath:
    """``plan_nodes`` and the plan center's and omega's four RK4 stage values
    per interval, which the swept point's stages read."""
    v, omega = np.asarray(v, dtype=float), np.asarray(omega, dtype=float)
    ys, ts = plan_nodes(v, omega, s, grid)
    w1, wm, _ = _plan_slopes(v, omega)
    y_st = np.stack([ys[:-1] + (a * grid.dt) * k if a else ys[:-1]
                     for a, k in zip(RK4_OFFSETS, (None, w1, wm, wm))])
    w_st = np.stack(stage_values(omega))
    tab = np.concatenate([y_st.transpose(1, 0, 2).reshape(grid.n_intervals, -1),
                          w_st[[0, 1, 3]].T], axis=1).tolist()
    return PlanPath(grid, v, omega, ys, ts, y_st, w_st, trapz_weights(grid), tab)


def frozen_plan(omega, v, s: Scenario) -> PlanPath:
    """The plan (omega, v) that a solve holds fixed, checked once and with its
    plan path built on the grid of omega's nodes.

    omega must be a 1-D and v a 2-D array, both finite (a NaN passes every
    bound below); ``TimeGrid``, ``ControlProfile`` and its ``check_bounds``
    refuse the rest.  Each refusal is a ValueError naming omega or v.
    """
    for name, arr, ndim in (("omega", omega, 1), ("v", v, 2)):
        if np.ndim(arr) != ndim:
            raise ValueError(f"plan {name} must be a {ndim}-D array of node values, "
                             f"got shape {np.shape(arr)}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"plan {name} must be finite")
    try:
        grid = TimeGrid(len(omega) - 1)
    except ValueError as err:
        raise ValueError(f"plan omega: {err}, got {len(omega)} node values") from None
    n = grid.n_nodes
    cp = ControlProfile(grid, v, np.zeros((n, s.dim)), np.zeros(n), omega)
    cp.check_bounds(s)
    return plan_path(cp.v, cp.omega, s, grid)


def _to_nodes(g, into):
    """Reverse of ``stage_values``: adds the four stage cotangents g of every
    interval to the node array ``into`` and returns it.  Stage 0 reads node
    i, stages 1 and 2 the average of nodes i and i+1, stage 3 node i+1."""
    mid = 0.5 * (g[1] + g[2])
    into[:-1] += g[0] + mid
    into[1:] += g[3] + mid
    return into


def reverse_plan_path(v, omega, lam_y, grid: TimeGrid, lam_stages=None):
    """Reverse of ``plan_path``'s y for one plan: K columns of node
    cotangents lam_y (N+1, n, K) and, if given, of the four stage points of
    every interval, lam_stages (4, N, n, K), to the cotangents (dL/dv
    (N+1, n, K), dL/domega (N+1, K)), all columns swept at once.

    A stage point is its left node plus its offset times dt times the
    previous stage's slope v*omega, so its cotangent adds to both.  Every
    y_j past interval i holds that interval's increment, so the increment's
    cotangent is the node cotangent reversed-cumulated once; the stage
    slopes then give the node terms through ``_to_nodes``.
    """
    if lam_stages is None:
        lam_stages = np.zeros((4,) + lam_y[1:].shape)
    lam = lam_y.copy()
    lam[:-1] += np.sum(lam_stages, axis=0)
    a = (grid.dt / 6.0) * np.cumsum(lam[:0:-1], axis=0)[::-1]   # (N, n, K)
    # cotangents of the four stage slopes v*omega
    g = [a * weight for weight in RK4_WEIGHTS]
    for j in (1, 2, 3):
        g[j - 1] = g[j - 1] + (RK4_OFFSETS[j] * grid.dt) * lam_stages[j]
    v_st = [c[..., None] for c in stage_values(v)]
    om_st = [c[:, None, None] for c in stage_values(omega)]
    d_v = _to_nodes([om * gj for om, gj in zip(om_st, g)], np.zeros(lam_y.shape))
    d_om = _to_nodes([np.sum(gj * vj, axis=1) for gj, vj in zip(g, v_st)],
                     np.zeros((omega.shape[0], lam_y.shape[2])))
    return d_v, d_om


def propagate_smooth(plan: PlanPath, u, u0, x_init, gamma, s: Scenario):
    """RK4 propagation of (y, x) under the smoothed field for the lower
    controls (u, u0) at one plan, one batch column per smoothing gain.

    ``plan`` is the plan's ``PlanPath``; on its grid of N+1 nodes u must be
    (N+1, n), u0 (N+1,) and x_init (n,), else a ValueError names the array
    and both shapes; gamma is a float or a (B,) array of gains.  z comes from
    trapezoidal quadrature of the node values, matching the transcription
    order.  Returns (x, z): the swept point's nodes x (N+1, B, n), one
    column per gain, and the effort's z (N+1,), which reads no gain; y and t
    are the plan's own (``plan.y``, ``plan.t``).  x is stepped per gain in
    float arithmetic (``_sweep_column``) from the plan's tableau and the
    lower controls' node values, so a column's numbers do not depend on the
    batch width.
    """
    n, dt = plan.grid.n_nodes, plan.grid.dt
    u, u0 = np.asarray(u, dtype=float), np.asarray(u0, dtype=float)
    x0 = np.asarray(x_init, dtype=float)
    for name, arr, shape in (("u", u, (n, s.dim)), ("u0", u0, (n,)), ("x_init", x0, (s.dim,))):
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape} on the plan's {n}-node grid, "
                             f"got shape {arr.shape}")
    gammas = np.atleast_1d(np.asarray(gamma, dtype=float)).tolist()
    effort = (np.einsum("...i,...i", u, u) + u0 * u0) * plan.omega
    zs = running_trapezoid(effort, dt)
    # y, t and the plan's stage values are the plan's; only x needs the
    # stage recursion
    xs = np.empty((n, len(gammas), s.dim))
    xs[0] = x0
    u, u0, x0 = u.tolist(), u0.tolist(), x0.tolist()
    for b, g in enumerate(gammas):
        xs[1:, b] = _sweep_column(plan.tableau, u, u0, x0, g, s, dt)
    return xs, zs


def _sweep_column(tableau, u, u0, x, gamma: float, s: Scenario, dt: float):
    """RK4 nodes x_1..x_N of one batch column in float arithmetic.

    ``tableau`` is the plan's (``PlanPath.tableau``), one row per interval;
    u and u0 are the lower controls' node values as lists.  Each interval is
    one loop turn of four ``slope`` calls, the midpoint controls
    (a_i + a_{i+1}) * 0.5 and u0 * omega rounded as ``stage_values`` and the
    stage map round them; every operation of a stage is ``stage_slope``'s,
    ``_float_cap``'s and ``_float_drift``'s, in their order, so the nodes
    are bitwise those of the NumPy stage map.  ln(gamma/K) is NumPy's, taken
    once.  The call per stage costs time: on the ``references`` workload's 24
    columns (N = 800, identity drift, 2-core host) the sweep takes a median
    40 ms, where the stages written out take 33 ms.
    """
    half_gamma, cap, r1sq = 0.5 * gamma, s.cone_gain, s.R1 ** 2
    lg, half_dt, dt6 = float(np.log(gamma / cap)), 0.5 * dt, dt / 6.0
    a, M1 = s.drift.A, s.M1

    def slope(p0, p1, c0, c1, f0, f1, w, pw):
        # stage_slope at the point p, plan center c, drift control f and pw = u0 w
        d0, d1 = p0 - c0, p1 - c1
        e = half_gamma * (d0 * d0 + d1 * d1 - r1sq)
        pull = pw * _float_cap(e, e + lg, gamma, cap)
        if a is not None:
            f0, f1 = _float_drift(p0, p1, f0, f1, a, M1)
        return f0 * w - pull * d0, f1 * w - pull * d1

    x0, x1 = x
    (l0, l1), l = u[0], u0[0]
    out = []
    for (ya0, ya1, yb0, yb1, yc0, yc1, yd0, yd1, wl, wm, wr), (r0, r1), r in zip(
            tableau, u[1:], u0[1:]):
        m0, m1, mw = (l0 + r0) * 0.5, (l1 + r1) * 0.5, (l + r) * 0.5 * wm
        k0, k1 = slope(x0, x1, ya0, ya1, l0, l1, wl, l * wl)
        a0, a1 = k0, k1
        k0, k1 = slope(x0 + half_dt * k0, x1 + half_dt * k1, yb0, yb1, m0, m1, wm, mw)
        a0, a1 = a0 + 2.0 * k0, a1 + 2.0 * k1
        k0, k1 = slope(x0 + half_dt * k0, x1 + half_dt * k1, yc0, yc1, m0, m1, wm, mw)
        a0, a1 = a0 + 2.0 * k0, a1 + 2.0 * k1
        k0, k1 = slope(x0 + dt * k0, x1 + dt * k1, yd0, yd1, r0, r1, wr, r * wr)
        x0, x1 = x0 + dt6 * (a0 + k0), x1 + dt6 * (a1 + k1)
        out.append((x0, x1))
        l0, l1, l = r0, r1, r
    return out


def integrate_smooth(cp: ControlProfile, x_init, gamma: float, s: Scenario) -> StateTrajectory:
    """RK4 trajectory of the reparametrized smoothed system for one control
    profile, on a plan path built for it; a gain that
    ``Scenario.smoothing_gain`` refuses is a ValueError."""
    gamma = s.smoothing_gain(gamma)
    plan = plan_path(cp.v, cp.omega, s, cp.grid)
    xs, zs = propagate_smooth(plan, cp.u, cp.u0, x_init, gamma, s)
    return StateTrajectory(cp.grid, plan.y, xs[:, 0], zs, plan.t)


def reverse_smooth(plan: PlanPath, x, u, u0, eta: np.ndarray, gamma: float, s: Scenario):
    """Exact discrete adjoint of ``propagate_smooth``'s RK4 step map at one gain.

    Backpropagates L = z(T*) + sum_i eta_i * h_lower_i through the forward's
    own step map on the plan's ``PlanPath``, from the forward's swept-point
    nodes x (N+1, n) and the lower controls (u, u0): the stage points of
    every interval at once, field Jacobians of every (stage, interval) pair
    from one ``stage_slope`` call; only the 2x2 backward recursion over
    nodes is sequential.  Returns the node cotangents q_x = dL/dx_i, the
    lower control gradients dL/du and dL/du0, and ``plan_cotangents``, a
    function of no arguments that finishes the sweep for the plan and returns
    (dL/domega, dL/dv): one ``reverse_plan_path`` call for the plan center
    and omega's own stage terms, computed only when it is called.  All exact
    to roundoff.  ``eta`` is an (N+1, K) array of K weight columns, swept
    at once, and every output has a trailing axis of K columns.
    """
    grid = plan.grid
    dt = grid.dt
    eye = np.eye(s.dim)
    Y, W, w = plan.y_stages, plan.w_stages, plan.weights
    u_st, u0_st = stage_values(u), stage_values(u0)
    x_st = [x[:-1]]
    for j in (1, 2, 3):   # stage j starts off stage j-1's slope
        k = stage_slope(x_st[-1], Y[j - 1], u_st[j - 1], W[j - 1], u0_st[j - 1] * W[j - 1],
                        gamma, s)
        x_st.append(x[:-1] + (RK4_OFFSETS[j] * dt) * k)
    X, U, U0 = (np.stack(a) for a in (x_st, u_st, u0_st))   # (4, N, ...)
    _, (k_x, k_y, k_u, k_w, k_u0w) = stage_slope(X, Y, U, W, U0 * W, gamma, s, jacobians=True)

    # stage cotangents are linear in lam_x = dL/dx_{i+1}: g_j = G_j lam_x, where
    # g_j = b_j lam_x + a_{j+1} dt k_x[j+1]^T g_{j+1} unrolls the stage updates
    b = (dt / 6.0) * np.asarray(RK4_WEIGHTS)
    kxT = np.swapaxes(k_x, -1, -2)
    G = np.empty_like(k_x)
    G[3] = b[3] * eye
    for j in (2, 1, 0):
        G[j] = b[j] * eye + (RK4_OFFSETS[j + 1] * dt) * (kxT[j + 1] @ G[j + 1])
    phiT = eye + np.sum(kxT @ G, axis=0)           # (dx_{i+1}/dx_i)^T

    hd = (x - plan.y)[..., None] * eta[:, None, :]   # eta_i grad_x h_lower_i, (N+1, dim, K)
    q_x = np.empty_like(hd)
    q_x[-1] = hd[-1]
    for i in range(grid.n_intervals - 1, -1, -1):
        q_x[i] = phiT[i] @ q_x[i + 1] + hd[i]
    gx = G @ q_x[1:]                                           # (4, N, dim, K)
    g_u0w = np.einsum("jid,jidk->jik", k_u0w, gx)

    def to_nodes(g, effort):
        # every column starts from the effort integrand's own derivative
        return _to_nodes(g, np.repeat(effort[..., None], eta.shape[1], axis=-1))

    def plan_cotangents():
        # grad_y h_lower = -grad_x h_lower at the nodes; k_y^T gx at the stage points
        d_v, d_om = reverse_plan_path(plan.v, plan.omega, -hd, grid, np.swapaxes(k_y, -1, -2) @ gx)
        d_om += to_nodes(np.einsum("jid,jidk->jik", k_w, gx) + U0[..., None] * g_u0w,
                         w * (np.sum(u * u, axis=1) + u0 ** 2))
        return d_om, d_v

    d_u = to_nodes(np.swapaxes(k_u, -1, -2) @ gx, w[:, None] * 2.0 * u * plan.omega[:, None])
    d_u0 = to_nodes(W[..., None] * g_u0w, w * 2.0 * u0 * plan.omega)
    return q_x, d_u, d_u0, plan_cotangents


def integrate_catchup(cp: ControlProfile, x_init, s: Scenario, warn: bool = True) -> StateTrajectory:
    """Moreau catching-up stepping: Euler drift, then truncated projection pull
    toward the moving disk Q1 + y, whose center y and clock t are the smoothed
    system's own (``plan_nodes``).

    The per-step correction toward the disk is capped at M * omega_i * dt; the
    implied cone activation is recorded in ``u0_realized`` (its last node,
    which starts no step, reads 0), and the effort z sums what each step
    applied, (|u_i|^2 + u0_realized[i]^2) omega_i dt.  If a step needed
    more than the budget, a FeasibilityLossWarning names the first violating
    node, the needed correction and the budget (unless ``warn`` is False).

    The swept point is stepped in float arithmetic, the drift by
    ``_float_drift`` and each other operation as ``project_ball_rows`` on
    the offset does on one row, so the nodes are bitwise theirs.  One
    product still rounds in NumPy, because BLAS may fuse its multiply-adds:
    the correction's norm, the square root of its dot product with itself.
    """
    grid = cp.grid
    dt, M, R1, M1 = grid.dt, s.M, s.R1, s.M1
    y, t = plan_nodes(cp.v, cp.omega, s, grid)
    a, gap = s.drift.A, np.empty(s.dim)
    x0, x1 = np.asarray(x_init, dtype=float).tolist()
    xs, u0_real, loss = [(x0, x1)], [], None
    for i, ((y0, y1), (f0, f1), w) in enumerate(zip(y[1:].tolist(), cp.u[:-1].tolist(),
                                                     cp.omega[:-1].tolist())):
        f0, f1 = _float_drift(x0, x1, f0, f1, a, M1)
        p0, p1 = x0 + f0 * w * dt, x1 + f1 * w * dt
        # the prediction's projection onto the disk about the plan center
        d0, d1 = p0 - y0, p1 - y1
        nrm = math.sqrt(d0 * d0 + d1 * d1)
        if nrm > R1:
            scale = R1 / max(nrm, 1e-300)
            d0, d1 = d0 * scale, d1 * scale
        q0, q1 = y0 + d0, y1 + d1
        gap[0], gap[1] = p0 - q0, p1 - q1
        needed = math.sqrt(gap.dot(gap))
        budget = M * w * dt
        if needed <= 1e-15:
            x0, x1 = p0, p1
            u0_real.append(0.0)
        else:
            step = min(needed, budget)
            r = step / needed
            x0, x1 = p0 + r * (q0 - p0), p1 + r * (q1 - p1)
            u0_real.append(step / budget if budget > 1e-300 else 0.0)
            if needed > budget + 1e-12 and loss is None:
                loss = {"node": i + 1, "needed": needed, "budget": budget}
        xs.append((x0, x1))
    if loss is not None and warn:
        warnings.warn(
            f"catching-up correction exceeded the cone budget at node {loss['node']} "
            f"(needed {loss['needed']:.3e} > budget {loss['budget']:.3e})",
            FeasibilityLossWarning,
        )
    u0_real = np.array(u0_real + [0.0])
    # the effort of each step as it was applied, z_{i+1} = z_i + e_i dt, with
    # e_i = (|u_i|^2 + u0_realized[i]^2) omega_i over interval i
    effort = (np.sum(cp.u * cp.u, axis=1) + u0_real ** 2) * cp.omega
    z = np.concatenate([[0.0], np.cumsum(effort[:-1] * dt)])
    return StateTrajectory(grid, y, np.array(xs), z, t, u0_realized=u0_real)


@dataclass(frozen=True)
class ViolationReport:
    max_h_lower: float
    node_h_lower: int
    max_h_upper: float
    node_h_upper: int
    terminal_distance: float


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
    """Sup-norm gap between the smoothed trajectories and the catching-up
    reference; the whole schedule is one RK4 batch, a column per gamma."""
    sched.validate_against(s)
    ref = integrate_catchup(cp, x_init, s, warn=False)
    xs, _ = propagate_smooth(plan_path(cp.v, cp.omega, s, cp.grid), cp.u, cp.u0, x_init,
                             sched.gammas, s)
    return np.linalg.norm(xs - ref.x[:, None, :], axis=2).max(axis=0)
