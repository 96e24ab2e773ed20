"""The vectorized RK4 adjoint, with one or several weight columns, against a
per-node loop reference and against central differences of the lower
Lagrangian and of every contact constraint, on identity drift and on an
affine drift whose saturation at M1 is active at some stage points; and the
lower solve's plan-level forward and swept reverse on a frozen plan's path
against integrate_smooth and the full reverse."""

import numpy as np
import pytest

from bisweep.dynamics import (RK4_OFFSETS, ControlProfile, TimeGrid, frozen_plan,
                              integrate_smooth, plan_path, propagate_smooth, reverse_smooth,
                              stage_slope, stage_values, trapz_weights)
from bisweep.geometry import DriftSpec, h_lower, straight_corridor

GAMMA = 24.0
IDENTITY = straight_corridor()
# |A x + u| crosses M1 = 0.9 along the profile below, so both branches of
# the saturated drift are exercised
SATURATING = straight_corridor(drift=DriftSpec(name="affine", A=((0.0, 0.5), (-0.5, 0.0))),
                               M1=0.9, K_f=0.5)
DRIFTS = {"identity": IDENTITY, "affine-saturating": SATURATING}


def profile(n, seed=3):
    """Seeded controls that keep x near the rim, below, inside and above the
    band of the cone coefficient's cap, with |u| between 0.5 and 1."""
    rng = np.random.default_rng(seed)
    m = n + 1
    ang = np.cumsum(rng.normal(scale=0.4, size=m))
    mag = rng.uniform(0.5, 1.0, size=m)
    u = mag[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    v = 0.4 * np.stack([np.cos(0.3 * ang), np.sin(0.3 * ang)], axis=1)
    cp = ControlProfile(TimeGrid(n), v=v, u=u, u0=rng.uniform(0.1, 0.9, size=m),
                        omega=rng.uniform(1.0, 2.5, size=m))
    eta = rng.uniform(0.0, 0.5, size=m) * (rng.uniform(size=m) < 0.5)
    return cp, np.array([0.95, 0.1]), eta


def full_reverse(tr, cp, eta, s):
    """(q_x, dL/domega, dL/dv, dL/du, dL/du0): ``reverse_smooth`` with its
    plan cotangents, on a plan path built for cp, from the stage points of
    the forward from tr's x(0)."""
    plan = plan_path(cp.v, cp.omega, s, cp.grid)
    _, _, x_st = propagate_smooth(plan, cp.u, cp.u0, tr.x[0], GAMMA, s, stages=True)
    q_x, d_u, d_u0, plan_cotangents = reverse_smooth(plan, tr.x, x_st[:, :, 0], cp.u, cp.u0,
                                                     eta, GAMMA, s)
    return (q_x, *plan_cotangents(), d_u, d_u0)


# ------------------------------------------------------------ loop reference
# The per-node sweep the vectorized one replaced: it re-runs the four RK4
# stages of every interval with a scalar copy of the smoothed field and
# scatters the control cotangents node by node.

BAND = np.log(2.0)   # half-width a of the cap's band in l = ln(g/K)


def _loop_field_and_jacobians(y, x, u, u0, omega, gamma, s):
    dim = s.dim
    d = x - y
    e = 0.5 * gamma * (float(d @ d) - s.R1 ** 2)
    ell = e + np.log(gamma / s.cone_gain)   # ln(g/K), g = gamma e^e
    t = min(max(ell, -BAND), BAND) + BAND   # l + a on the band, 0 below it
    if ell >= BAND:
        c, gc = s.cone_gain, 0.0
    else:
        # c = g exp(-psi(l)), grad_x c = gamma c (1 - psi'(l)) (x - y)
        psi = t ** 3 * (3.0 * BAND - ell) / (16.0 * BAND ** 3)
        dpsi = t ** 2 * (8.0 * BAND - 4.0 * ell) / (16.0 * BAND ** 3)
        c = gamma * np.exp(e - psi)
        gc = gamma * c * (1.0 - dpsi)
    if s.drift.name == "identity":
        f = u.copy()
        jf_x = np.zeros((dim, dim))
        jf_u = np.eye(dim)
    else:
        A = s.drift.matrix(dim)
        raw = A @ x + u
        nrm = float(np.linalg.norm(raw))
        if nrm > s.M1:
            rhat = raw / nrm
            proj = (s.M1 / nrm) * (np.eye(dim) - np.outer(rhat, rhat))
            f = s.M1 * rhat
            jf_x = proj @ A
            jf_u = proj
        else:
            f = raw
            jf_x = A
            jf_u = np.eye(dim)
    pull = c * np.eye(dim) + gc * np.outer(d, d)
    dx = (f - u0 * c * d) * omega
    return (dx, omega * (jf_x - u0 * pull), omega * (u0 * pull), omega * jf_u,
            -omega * c * d, f - u0 * c * d)


def loop_reverse_rk4(tr, cp, eta, gamma, s):
    grid = tr.grid
    n = grid.n_nodes
    dt = grid.dt
    dim = s.dim
    w = trapz_weights(grid)

    def stage_ctrl(i, which):
        if which == 0:
            return cp.v[i], cp.u[i], cp.u0[i], cp.omega[i]
        if which == 2:
            return cp.v[i + 1], cp.u[i + 1], cp.u0[i + 1], cp.omega[i + 1]
        return (0.5 * (cp.v[i] + cp.v[i + 1]), 0.5 * (cp.u[i] + cp.u[i + 1]),
                0.5 * (cp.u0[i] + cp.u0[i + 1]), 0.5 * (cp.omega[i] + cp.omega[i + 1]))

    q_x = np.zeros((n, dim))
    d_om = w * (np.sum(cp.u * cp.u, axis=1) + cp.u0 ** 2)
    d_v = np.zeros((n, dim))
    d_u = w[:, None] * 2.0 * cp.u * cp.omega[:, None]
    d_u0 = w * 2.0 * cp.u0 * cp.omega
    d_T = tr.x[-1] - tr.y[-1]
    lam_y = -eta[-1] * d_T
    lam_x = eta[-1] * d_T
    q_x[-1] = lam_x
    stage_map = (0, 1, 1, 2)
    offs = (0.0, 0.5, 0.5, 1.0)
    coeffs = (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0)
    carry = (0.0, dt / 2.0, dt / 2.0, dt)
    for i in range(n - 2, -1, -1):
        ky = np.empty((4, dim))
        kx = np.empty((4, dim))
        jac = [None] * 4
        for j in range(4):
            a = offs[j]
            yy = tr.y[i] + (a * dt) * (ky[j - 1] if j else 0.0)
            xx = tr.x[i] + (a * dt) * (kx[j - 1] if j else 0.0)
            vv, uu, uu0, ww = stage_ctrl(i, stage_map[j])
            dx, jx_x, jx_y, ju, ju0, jom_x = _loop_field_and_jacobians(yy, xx, uu, uu0, ww,
                                                                       gamma, s)
            ky[j] = vv * ww
            kx[j] = dx
            jac[j] = (jx_x, jx_y, ju, ju0, jom_x, vv, ww)
        gy = np.empty((4, dim))
        gx = np.empty((4, dim))
        jt_y = np.empty((4, dim))
        jt_x = np.empty((4, dim))
        for j in (3, 2, 1, 0):
            gy[j] = coeffs[j] * lam_y + (carry[j + 1] * jt_y[j + 1] if j < 3 else 0.0)
            gx[j] = coeffs[j] * lam_x + (carry[j + 1] * jt_x[j + 1] if j < 3 else 0.0)
            jt_y[j] = jac[j][1].T @ gx[j]
            jt_x[j] = jac[j][0].T @ gx[j]
        for j in range(4):
            jx_x, jx_y, ju, ju0, jom_x, vv, ww = jac[j]
            which = stage_map[j]
            targets = ((i, 1.0),) if which == 0 else (
                ((i + 1, 1.0),) if which == 2 else ((i, 0.5), (i + 1, 0.5)))
            for idx, fr in targets:
                d_v[idx] += fr * ww * gy[j]
                d_u[idx] += fr * (ju.T @ gx[j])
                d_u0[idx] += fr * float(ju0 @ gx[j])
                d_om[idx] += fr * (float(vv @ gy[j]) + float(jom_x @ gx[j]))
        lam_y = lam_y + jt_y.sum(axis=0)
        lam_x = lam_x + jt_x.sum(axis=0)
        d_i = tr.x[i] - tr.y[i]
        lam_y = lam_y - eta[i] * d_i
        lam_x = lam_x + eta[i] * d_i
        q_x[i] = lam_x
    return q_x, d_om, d_v, d_u, d_u0


def test_profile_visits_both_branches_of_the_ramp_and_the_saturation():
    cp, x0, _ = profile(12)
    tr = integrate_smooth(cp, x0, GAMMA, SATURATING)
    # l = ln(g/K), g = gamma exp(gamma h_lower), lies below the cap's band,
    # inside it and above it at some nodes
    ell = GAMMA * h_lower(tr.x, tr.y, SATURATING) + np.log(GAMMA / SATURATING.cone_gain)
    assert (ell < -BAND).any() and (np.abs(ell) < BAND).any() and (ell > BAND).any()
    raw = np.linalg.norm(tr.x @ SATURATING.drift.matrix(2).T + cp.u, axis=1)
    assert raw.min() < SATURATING.M1 < raw.max()


@pytest.mark.parametrize("name", DRIFTS)
def test_sweep_matches_per_node_loop_reference(name):
    # one sweep of K weight columns gives, column by column, the single-column
    # sweep and the loop reference
    s = DRIFTS[name]
    cp, x0, eta = profile(12)
    tr = integrate_smooth(cp, x0, GAMMA, s)
    cols = np.stack([eta, np.zeros_like(eta), np.roll(eta, 5), np.eye(len(eta))[4]], axis=1)
    batched = full_reverse(tr, cp, cols, s)
    for k in range(cols.shape[1]):
        new = [a[..., 0] for a in full_reverse(tr, cp, cols[:, [k]], s)]
        ref = loop_reverse_rk4(tr, cp, cols[:, k], GAMMA, s)
        for label, a, b, c in zip(("q_x", "d_om", "d_v", "d_u", "d_u0"), new, ref, batched):
            assert a.shape == b.shape == c[..., k].shape, label
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (label, k)
            assert np.abs(c[..., k] - a).max() <= 1e-14 * np.abs(a).max(), (label, k)


@pytest.mark.parametrize("name", DRIFTS)
def test_sweep_gradients_match_central_differences(name):
    # L = z(T) + sum_i eta_i h_lower_i for the weight columns eta, none, and
    # each single node (the effort gradient and the contact Jacobian rows
    # solve_lower reads); every coordinate of every control and of x(0) is
    # perturbed by +-h, one propagation per perturbed input
    s = DRIFTS[name]
    cp, x0, eta = profile(12)
    tr = integrate_smooth(cp, x0, GAMMA, s)
    cols = np.hstack([eta[:, None], np.zeros((len(eta), 1)), np.eye(len(eta))])
    q_x, d_om, d_v, d_u, d_u0 = full_reverse(tr, cp, cols, s)

    base = {"v": cp.v, "u": cp.u, "u0": cp.u0, "omega": cp.omega, "x0": x0}
    dims = [(key, idx) for key, arr in base.items() for idx in np.ndindex(arr.shape)]
    h = 1e-6

    def lagrangian(key, idx, step):
        args = {k: a.copy() for k, a in base.items()}
        args[key][idx] += step
        plan = plan_path(args["v"], args["omega"], s, cp.grid)
        xs, zs = propagate_smooth(plan, args["u"], args["u0"], args["x0"], GAMMA, s)
        return zs[-1] + h_lower(xs[:, 0], plan.y, s) @ cols

    fd = np.array([(lagrangian(key, idx, h) - lagrangian(key, idx, -h)) / (2 * h) for key, idx in dims])

    adj = {"v": d_v, "u": d_u, "u0": d_u0, "omega": d_om, "x0": q_x[0]}
    pred = np.array([adj[key][idx] for key, idx in dims])
    for key in base:
        sel = np.array([k == key for k, _ in dims])
        scale = np.maximum(np.abs(pred[sel]).max(axis=0), 1e-12)
        assert np.all(np.abs(fd[sel] - pred[sel]).max(axis=0) <= 1e-7 * scale), key


@pytest.mark.parametrize("name", DRIFTS)
def test_sweep_without_weights_carries_only_the_terminal_cotangent(name):
    # with eta = 0 the one cotangent swept is z(T)'s; the effort integrand
    # reads no state, so nothing feeds q_x or v, and the other controls get
    # the integrand's own derivatives
    s = DRIFTS[name]
    cp, x0, eta = profile(12)
    tr = integrate_smooth(cp, x0, GAMMA, s)
    zero = np.zeros((len(eta), 1))
    q_x, d_om, d_v, d_u, d_u0 = (a[..., 0] for a in full_reverse(tr, cp, zero, s))
    w = trapz_weights(cp.grid)
    assert np.all(q_x == 0.0) and np.all(d_v == 0.0)
    np.testing.assert_array_equal(d_om, w * (np.sum(cp.u * cp.u, axis=1) + cp.u0 ** 2))
    np.testing.assert_array_equal(d_u, w[:, None] * 2.0 * cp.u * cp.omega[:, None])
    np.testing.assert_array_equal(d_u0, w * 2.0 * cp.u0 * cp.omega)


A4 = straight_corridor(drift=DriftSpec(name="affine", A=((0.0, 0.05), (-0.05, 0.0))),
                       K_f=0.05, M1=1.2)
TWO_NONZERO = straight_corridor(drift=DriftSpec(name="affine", A=(0.3, 0.2, -0.4, 0.1)))


@pytest.mark.parametrize("s", [IDENTITY, A4, TWO_NONZERO], ids=["identity", "A4", "two-nonzero"])
@pytest.mark.parametrize("seed", [3, 4])
def test_prebuilt_plan_forward_and_swept_reverse_are_the_full_ones_bitwise(s, seed):
    # solve_lower builds the plan path once (frozen_plan) and passes it to
    # every iterate's propagate_smooth and reverse_smooth; that forward and
    # its sweep of the [0 | I] columns, which leaves the plan cotangents
    # uncomputed, give integrate_smooth's and the full reverse's numbers bit
    # for bit
    cp, x0, _ = profile(12, seed)
    n = cp.grid.n_nodes
    plan = frozen_plan(cp.omega, cp.v, s)
    xs, zs, x_st = propagate_smooth(plan, cp.u, cp.u0, x0, GAMMA, s, stages=True)
    ref = integrate_smooth(cp, x0, GAMMA, s)
    assert xs.shape[1] == 1 and np.array_equal(xs[:, 0], ref.x)
    for name, a in zip("yzt", (plan.y, zs, plan.t)):
        assert np.array_equal(a, getattr(ref, name)), name
    cols = np.hstack([np.zeros((n, 1)), np.eye(n)])
    q_x, d_u, d_u0, _ = reverse_smooth(plan, xs[:, 0], x_st[:, :, 0], cp.u, cp.u0, cols, GAMMA,
                                       s)
    full = full_reverse(ref, cp, cols, s)
    for label, a, b in zip(("q_x", "d_u", "d_u0"), (q_x, d_u, d_u0), (full[0], full[3], full[4])):
        assert np.array_equal(a, b), label


CLIPPED = straight_corridor(drift=DriftSpec(name="affine", A=(0.3, 0.2, -0.4, 0.1)), M1=0.9)


def recomputed_stages(plan, x, u, u0, gamma, s):
    """The swept point at the four RK4 stage points of every interval as the
    reverse once recomputed them from the nodes x: stage j starts from x_i
    plus its offset times dt times stage j-1's slope, every interval at once
    through ``stage_slope``."""
    Y, W = plan.y_stages, plan.w_stages
    u_st, u0_st = stage_values(u), stage_values(u0)
    x_st = [x[:-1]]
    for j in (1, 2, 3):
        k, _ = stage_slope(x_st[-1], Y[j - 1], u_st[j - 1], W[j - 1], u0_st[j - 1] * W[j - 1],
                           gamma, s)
        x_st.append(x[:-1] + (RK4_OFFSETS[j] * plan.grid.dt) * k)
    return np.stack(x_st)


@pytest.mark.parametrize("s", [IDENTITY, A4, CLIPPED], ids=["identity", "A4", "clipped"])
@pytest.mark.parametrize("n", [12, 40])
def test_forward_stage_points_are_the_recomputed_ones_bitwise(s, n):
    # the reverse reads the stage points the forward hands over; they are
    # the ones it used to recompute with stage_slope, bit for bit, for each
    # gain alone and for the three gains as one batch
    gammas = [4.0, GAMMA, 200.0]
    cp, x0, _ = profile(n)
    plan = plan_path(cp.v, cp.omega, s, cp.grid)
    xs_b, _, st_b = propagate_smooth(plan, cp.u, cp.u0, x0, gammas, s, stages=True)
    assert st_b.shape == (4, n, 3, 2)
    for b, gamma in enumerate(gammas):
        xs, _, st = propagate_smooth(plan, cp.u, cp.u0, x0, gamma, s, stages=True)
        ref = recomputed_stages(plan, xs[:, 0], cp.u, cp.u0, gamma, s)
        assert np.array_equal(st[:, :, 0], ref), gamma
        assert np.array_equal(st_b[:, :, b], ref) and np.array_equal(xs_b[:, b], xs[:, 0]), gamma
    if s is CLIPPED:
        # the drift's clip at M1 acts at some stage points, and not at others
        u_st = np.stack(stage_values(cp.u))[:, :, None]
        raw = np.linalg.norm(st_b @ s.drift.matrix(2).T + u_st, axis=-1)
        assert (raw > s.M1).any() and (raw < s.M1).any()
