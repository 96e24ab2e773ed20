"""Sweeping field, smoothing, integrators, and feasibility monitoring."""

import math
import re
import warnings

import numpy as np
import pytest

from bisweep.dynamics import (
    CAP_BAND,
    ControlProfile,
    FeasibilityLossWarning,
    SmoothingSchedule,
    TimeGrid,
    _cone_terms,
    _float_drift,
    convergence_study,
    drift,
    feasibility_monitor,
    float_cone_coefficient,
    integrate_catchup,
    integrate_smooth,
    plan_nodes,
    plan_path,
    propagate_smooth,
    reverse_plan_path,
    stage_slope,
    stage_values,
)
from bisweep.geometry import DriftSpec, h_lower, project_ball_rows, straight_corridor
from bisweep.oracle import fd_check

S = straight_corridor()


def profile(n, v=None, u=None, u0=None, omega=None):
    grid = TimeGrid(n)
    m = n + 1
    z2 = np.zeros((m, 2))

    def arr(val, shape):
        if val is None:
            return np.zeros(shape)
        val = np.asarray(val, dtype=float)
        return np.broadcast_to(val, shape).copy()

    return ControlProfile(grid=grid,
                          v=arr(v, (m, 2)) if v is not None else z2.copy(),
                          u=arr(u, (m, 2)) if u is not None else z2.copy(),
                          u0=arr(u0, (m,)),
                          omega=arr(omega, (m,)))


# ---------------------------------------------------------------- drift
def test_identity_drift_passthrough():
    assert np.allclose(drift((1.0, 2.0), (0.3, -0.4), S), (0.3, -0.4))


def test_affine_drift_zero_matrix_reduces_to_identity():
    s = straight_corridor(drift=DriftSpec(name="affine", A=((0.0, 0.0), (0.0, 0.0))))
    assert np.allclose(drift((1.0, 2.0), (0.3, -0.4), s), (0.3, -0.4))


def test_drift_respects_magnitude_bound():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-9, 9, 2)
        u = rng.uniform(-1, 1, 2)
        u = u / max(1.0, np.linalg.norm(u))
        assert np.linalg.norm(drift(x, u, S)) <= S.M1 + 1e-12


@pytest.mark.parametrize("A, K_f", [((0.3, 0.2, -0.4, 0.1), None),
                                    (((-0.3, 0.7), (0.2, -0.45)), 0.9)],
                         ids=["two-nonzero", "skew"])
def test_drift_does_not_depend_on_the_batch_width(A, K_f):
    # 2,000 rows with the clip at M1 = 0.9 active on some: the batched drift
    # and both its Jacobians are the one-row calls', and f is the float
    # form's, bitwise.  A BLAS x @ A.T rounds many such rows by width
    s = straight_corridor(drift=DriftSpec(name="affine", A=A), K_f=K_f, M1=0.9)
    rng = np.random.default_rng(3)
    x, u = rng.uniform(-3.0, 3.0, (2000, 2)), rng.uniform(-1.0, 1.0, (2000, 2))
    f, (f_x, f_u) = drift(x, u, s, jacobian=True)
    assert np.array_equal(drift(x, u, s), f)
    raw = np.linalg.norm(x @ s.drift.matrix(2).T + u, axis=1)
    assert (raw > 1.01 * s.M1).sum() > 100 and (raw < 0.99 * s.M1).sum() > 100
    for xi, ui, fi, fxi, fui in zip(x, u, f, f_x, f_u):
        one, (one_x, one_u) = drift(xi, ui, s, jacobian=True)
        assert np.array_equal(one, fi) and np.array_equal(one_x, fxi)
        assert np.array_equal(one_u, fui)
        assert _float_drift(*xi.tolist(), *ui.tolist(), s.drift.A, s.M1) == tuple(fi.tolist())


def test_identity_drift_is_u_plus_zero_x_in_both_forms():
    # u + 0 x turns a -0.0 control into +0.0; df/dx = 0 and df/du = I per row
    x, u = np.array([[1.0, -2.0], [0.5, 0.0]]), np.array([[-0.0, 0.3], [0.2, -0.0]])
    f, (f_x, f_u) = drift(x, u, S, jacobian=True)
    assert np.array_equal(f, u) and not np.signbit(f).any()
    assert np.array_equal(f_x, np.zeros((2, 2, 2))) and np.array_equal(f_u, np.tile(np.eye(2), (2, 1, 1)))
    for xi, ui, fi in zip(x.tolist(), u.tolist(), f):
        got = _float_drift(*xi, *ui, S.drift.A, S.M1)
        assert got == tuple(fi.tolist()) and not any(math.copysign(1.0, g) < 0 for g in got)


# ---------------------------------------------------------------- smoothing
def test_cone_coefficient_capped_on_boundary():
    # on the rim (x - y = (1, 0)) the ramp gamma e^0 = 10 is capped at M/R1
    assert _cone_terms(np.array([1.0, 0.0]), 10.0, S)[0] == pytest.approx(1.5)


def test_cone_coefficient_interior_decay():
    # at x = y, h_lower = (0 - 1)/2 = -1/2, so c = gamma e^{-gamma/2}
    val = _cone_terms(np.array([0.0, 0.0]), 10.0, S)[0]
    assert val == pytest.approx(10.0 * math.exp(-5.0), rel=1e-12)


def _band_offsets(gamma, seed=0, n=300):
    """Offsets d = x - y in seeded directions at which l = ln(g/K), g =
    gamma e^(gamma h_lower), runs over [-2a, 2a] and lies within 1e-6 of
    each seam -a and a, a = CAP_BAND; with e = gamma h_lower and l as
    ``_cone_terms`` rounds them."""
    rng = np.random.default_rng(seed)
    a = CAP_BAND
    ell = np.concatenate([rng.uniform(-2 * a, 2 * a, n), [-a, a],
                          a + rng.uniform(-1e-6, 1e-6, n), -a + rng.uniform(-1e-6, 1e-6, n)])
    r2 = S.R1 ** 2 + 2.0 * (ell - np.log(gamma / S.cone_gain)) / gamma
    ang = rng.uniform(0.0, 2.0 * np.pi, r2.size)[r2 > 0.0]
    d = np.sqrt(r2[r2 > 0.0])[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    e = (0.5 * gamma) * (np.add.reduce(d * d, -1) - S.R1 ** 2)
    return d, e, e + np.log(gamma / S.cone_gain)


@pytest.mark.parametrize("gamma", [3.0, 12.0, 96.0, 200.0])   # 3 = 2 M/R1
def test_cone_coefficient_is_g_below_the_band_and_k_above_it(gamma):
    # bitwise gamma e^e for l <= -a and M/R1 for l >= a; between, the blend
    # stays at or below both
    d, e, ell = _band_offsets(gamma)
    c, g = _cone_terms(d, gamma, S)[0], gamma * np.exp(e)
    below, above = ell <= -CAP_BAND, ell >= CAP_BAND
    assert below.any() and above.any() and (~below & ~above).any()
    assert np.array_equal(c[below], g[below])
    assert np.all(c[above] == S.cone_gain)
    assert np.all(c <= np.minimum(S.cone_gain, g))


@pytest.mark.parametrize("gamma", [3.0, 12.0, 96.0, 200.0])
def test_one_offset_cone_coefficient_is_the_array_one_bitwise(gamma):
    # the float form for one offset, across both seams of the band: it shares
    # _float_cap with _sweep_column, the forward whose exact reverse,
    # reverse_smooth, reads _cone_terms, so the two must agree bitwise
    d, _, ell = _band_offsets(gamma)
    for seam in (-CAP_BAND, CAP_BAND):
        assert (np.abs(ell - seam) <= 1e-6).sum() >= 100
        assert (ell < seam).any() and (ell > seam).any()
    ones = []
    for row in d.tolist():
        sq = 0.0   # summed in turn from +0.0, as NumPy sums fewer than 8 squares
        for di in row:
            sq += di * di
        ones.append(float_cone_coefficient(sq, gamma, S))
    assert all(type(c) is float for c in ones)
    assert np.array_equal(ones, _cone_terms(d, gamma, S)[0])


@pytest.mark.parametrize("where", ["band", "lower-seam", "upper-seam"])
def test_stage_slope_jacobians_match_central_differences_on_the_band(where):
    # k = -u0w c(x - y) (x - y) with u = 0: dk/dx and dk/dy read c's gradient
    # factor gamma c (1 - psi'(l)), which is C^1 across the seams
    gamma, h = 24.0, 1e-7
    d, _, ell = _band_offsets(gamma, seed=1, n=40)
    keep = {"band": np.abs(ell) < 0.9 * CAP_BAND,
            "lower-seam": np.abs(ell + CAP_BAND) <= 1e-6,
            "upper-seam": np.abs(ell - CAP_BAND) <= 1e-6}[where]
    assert keep.sum() >= 20
    rng = np.random.default_rng(2)
    for diff in d[keep]:
        y = rng.uniform(-1.0, 1.0, 2)
        x, u, w, u0w = y + diff, rng.uniform(-0.5, 0.5, 2), np.array(1.3), np.array(0.7)

        def k(x, y):
            return stage_slope(x, y, u, w, u0w, gamma, S)

        _, (k_x, k_y, *_) = stage_slope(x, y, u, w, u0w, gamma, S, jacobians=True)
        for jac, wrt in ((k_x, 0), (k_y, 1)):
            fd = np.empty((2, 2))
            for j in range(2):
                step = h * np.eye(2)[j]
                hi = k(x + step, y) if wrt == 0 else k(x, y + step)
                lo = k(x - step, y) if wrt == 0 else k(x, y - step)
                fd[:, j] = (hi - lo) / (2.0 * h)
            assert np.abs(fd - jac).max() <= 1e-6 * max(np.abs(jac).max(), 1.0), (where, ell)


def _unit_slope(x, u, u0, gamma, y=(0.0, 0.0)):
    """The smoothed field at unit time dilation: ``stage_slope`` at w = 1,
    the swept point x about the disk center y."""
    return stage_slope(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                       np.asarray(u, dtype=float), np.array(1.0), np.array(float(u0)), gamma, S)


# ---------------------------------------------------------------- exact field
# The exact truncated-cone field is the gamma -> infinity limit of the smoothed
# one; at gamma = 96 (past the cap 2M/R1) the smoothed field takes its values.
def test_exact_field_interior_is_pure_drift():
    assert np.allclose(_unit_slope((0.1, 0.0), (0.5, 0.0), 1.0, 96.0), (0.5, 0.0))


def test_exact_field_boundary_inactive_when_u0_zero():
    assert np.allclose(_unit_slope((1.0, 0.0), (0.5, 0.0), 0.0, 96.0), (0.5, 0.0))


def test_exact_field_boundary_full_activation():
    # on the rim the gain is capped at M/R1 exactly, so at full activation the
    # slope is the exact cone pull -(M/R1)(x - y)
    x = np.array([1.0, 0.0])
    k = _unit_slope(x, (0.0, 0.0), 1.0, 96.0)
    assert np.array_equal(k, (-1.5, 0.0)) and np.array_equal(k, -(S.M / S.R1) * x)


# ---------------------------------------------------------------- smoothed field
def test_smooth_field_u0_zero_is_drift():
    f = _unit_slope((0.9, 0.0), (0.2, 0.1), 0.0, 12.0)
    assert np.array_equal(f, drift((0.9, 0.0), (0.2, 0.1), S))


def test_smooth_field_matches_exact_on_boundary_when_capped():
    # an off-axis rim point about a moved center, with drift: the drift plus
    # the exact cone pull -(M/R1)(x - y)
    y, u = np.array([0.3, -0.2]), np.array([0.1, 0.2])
    x = y + S.R1 * np.array([0.6, 0.8])
    k = _unit_slope(x, u, 1.0, 96.0, y=y)
    assert np.allclose(k, drift(x, u, S) - (S.M / S.R1) * (x - y))


def test_smooth_field_negligible_deep_interior():
    assert np.linalg.norm(_unit_slope((0.1, 0.0), (0.0, 0.0), 1.0, 96.0)) < 1e-3


# ---------------------------------------------------------------- smooth integrator
def test_integrate_smooth_zero_omega_freezes_time():
    cp = profile(10, v=(1.0, 0.0), u=(1.0, 0.0), omega=0.0)
    tr = integrate_smooth(cp, (0.2, 0.0), 12.0, S)
    assert tr.T == pytest.approx(0.0)
    assert np.allclose(tr.x, tr.x[0])
    assert np.allclose(tr.y, tr.y[0])


def test_integrate_smooth_zero_controls_constant():
    cp = profile(10, omega=1.0)
    tr = integrate_smooth(cp, (0.2, 0.1), 12.0, S)
    assert np.allclose(tr.x, tr.x[0], atol=1e-12)
    assert np.allclose(tr.z, 0.0)
    assert tr.T == pytest.approx(1.0)


def test_integrate_smooth_self_convergence():
    # fourth-order integrator: halving the step shrinks the error ~16x,
    # so N vs 2N differences collapse quickly on a smooth boundary ride
    errs = []
    ref = None
    for n in (160, 80, 40, 20):
        cp = profile(n, v=(0.2, 0.0), u=(1.0, 0.0), u0=1.0, omega=2.0)
        tr = integrate_smooth(cp, (1.0, 0.0), 6.0, S)
        if ref is None:
            ref = tr.x[-1]
        else:
            errs.append(np.linalg.norm(tr.x[-1] - ref))
    assert errs[0] < errs[1] < errs[2]
    assert errs[0] < 1e-6


def test_integrate_smooth_cost_is_trapezoid_quadrature():
    n = 8
    cp = profile(n, u=(0.6, 0.0), u0=0.5, omega=2.0)
    tr = integrate_smooth(cp, (0.0, 0.0), 12.0, S)
    rate = (0.36 + 0.25) * 2.0
    assert tr.z[-1] == pytest.approx(rate * 1.0, rel=1e-12)


def test_integrate_smooth_time_monotone():
    cp = profile(12, v=(0.5, 0.5), omega=1.3)
    tr = integrate_smooth(cp, (0.0, 0.0), 12.0, S)
    assert np.all(np.diff(tr.t) >= 0)
    assert np.all(np.diff(tr.z) >= -1e-15)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -3.0, 0.5, 1.5],
                         ids=["nan", "inf", "negative", "below-cone-gain", "cone-gain"])
def test_integrate_smooth_refuses_a_bad_gain(gamma):
    # the smoothed system is defined only for a finite gain above M/R1 = 1.5
    cp = profile(8, v=(0.5, 0.0), u=(0.6, 0.0), u0=0.5, omega=2.0)
    with pytest.raises(ValueError, match="gamma"):
        integrate_smooth(cp, (0.0, 0.0), gamma, S)


def test_integrate_smooth_speed_bound():
    cp = profile(20, v=(1.0, 0.0), u=(1.0, 0.0), u0=1.0, omega=3.0)
    tr = integrate_smooth(cp, (1.0, 0.0), 24.0, S)
    dt = 1.0 / 20
    steps = np.linalg.norm(np.diff(tr.x, axis=0), axis=1)
    assert np.all(steps <= (S.M1 + S.M) * 3.0 * dt + 1e-9)


# ---------------------------------------------------------------- catch-up integrator
def test_plan_path_is_propagate_smooth_plan_path():
    # the plan solve reads y and t of the plan path alone; they must be the
    # very numbers of the full propagation's trajectory for any lower controls
    n, P = 12, 7
    rng = np.random.default_rng(5)
    grid = TimeGrid(n)
    dt = grid.dt
    for _ in range(P):
        v, omega = rng.uniform(-1.0, 1.0, (n + 1, 2)), rng.uniform(0.0, 3.0, n + 1)
        u, u0 = rng.uniform(-0.5, 0.5, (n + 1, 2)), rng.uniform(0.0, 1.0, n + 1)
        tr = integrate_smooth(ControlProfile(grid, v, u, u0, omega), rng.uniform(-0.5, 0.5, 2),
                              12.0, S)
        y_plan, t_plan = plan_nodes(v, omega, S, grid)
        assert np.array_equal(y_plan, tr.y)
        assert np.array_equal(t_plan, tr.t)
        # and both are RK4 of dy = v*omega (controls linear in between) and
        # the trapezoid rule for t, stepped here one interval at a time
        y = np.empty_like(y_plan)
        y[0] = S.y0_arr
        for i in range(n):
            k1 = v[i] * omega[i]
            km = 0.25 * (v[i] + v[i + 1]) * (omega[i] + omega[i + 1])
            k4 = v[i + 1] * omega[i + 1]
            y[i + 1] = y[i] + dt / 6.0 * (k1 + 4.0 * km + k4)
        assert np.allclose(y_plan, y, rtol=0.0, atol=1e-12)
        t_ref = np.concatenate([[0.0], np.cumsum(0.5 * dt * (omega[1:] + omega[:-1]))])
        assert np.allclose(t_plan, t_ref, rtol=0.0, atol=1e-12)


def test_reverse_plan_path_matches_central_differences_with_stage_terms():
    # L = sum lam_y . y + sum lam_stages . Y over plan_path's nodes y and RK4
    # stage points Y, one random weight column at a time; L is quadratic in
    # (v, omega), so central differences are exact up to roundoff
    n, K = 10, 3
    rng = np.random.default_rng(8)
    grid = TimeGrid(n)
    v, omega = rng.uniform(-1.0, 1.0, (n + 1, 2)), rng.uniform(0.5, 3.0, n + 1)
    lam_y, lam_st = rng.normal(size=(n + 1, 2, K)), rng.normal(size=(4, n, 2, K))
    d_v, d_om = reverse_plan_path(v, omega, lam_y, grid, lam_st)
    flat = np.concatenate([v.ravel(), omega])
    dirs = rng.standard_normal((12, flat.size))
    for k in range(K):
        def weighted(p):
            path = plan_path(p[:2 * (n + 1)].reshape(n + 1, 2), p[2 * (n + 1):], S, grid)
            return float(np.sum(lam_y[..., k] * path.y) + np.sum(lam_st[..., k] * path.y_stages))

        grad = np.concatenate([d_v[..., k].ravel(), d_om[:, k]])
        assert fd_check(weighted, grad, flat, dirs, h=1e-3) < 1e-9


def _stage_loop_x(v, u, u0, omega, x_init, gamma, s, grid):
    """x of the per-interval NumPy loop that the float recursion replaced:
    each interval's four RK4 stages through ``stage_slope``, every column at
    once, with the RK4 offsets and weights written out here; and the offsets
    x - y of every stage point, (4N, B, n)."""
    dt = grid.dt
    y_st = plan_path(v, omega, s, grid).y_stages
    u_st, u0_st, w_st = (stage_values(a) for a in (u, u0, omega))
    xs, offsets = [np.asarray(x_init, dtype=float)], []
    for i in range(grid.n_intervals):
        x, k = xs[-1], []
        for j, offset in enumerate((0.0, 0.5, 0.5, 1.0)):
            w = w_st[j][i]
            x_j = x + (offset * dt) * k[-1] if j else x
            offsets.append(x_j - y_st[j][i])
            k.append(stage_slope(x_j, y_st[j][i], u_st[j][i], w, u0_st[j][i] * w, gamma, s))
        xs.append(x + (dt / 6.0) * (k[0] + 2 * k[1] + 2 * k[2] + k[3]))
    return np.array(xs), np.array(offsets)


A4 = straight_corridor(drift=DriftSpec("affine", ((0.0, 0.05), (-0.05, 0.0))), K_f=0.05, M1=1.2)
TWO_NONZERO = straight_corridor(drift=DriftSpec("affine", (0.3, 0.2, -0.4, 0.1)))


@pytest.mark.parametrize("s", [S, A4, TWO_NONZERO], ids=["identity", "A4", "two-nonzero"])
@pytest.mark.parametrize("B, P", [(1, 1), (5, 1), (5, 5)])
@pytest.mark.parametrize("per_column", [False, True], ids=["gamma-float", "gamma-array"])
def test_propagate_smooth_equals_the_stage_loop(s, B, P, per_column):
    # P control profiles, each propagated under B gains: one pass per gain
    # with gamma a float, or one pass with gamma a (B,) array.  The swept
    # point starts deep inside the disk (cap inactive); then the plan
    # outruns the cone's pull, so the point falls outside the rim (c = K
    # above the cap's band, NumPy's exponent clipped at 50); omega = 0 at
    # some nodes.  A second run starts on the cap's band of the first gain,
    # ln(g/K) = 0, where the float blend is computed
    n = 16
    rng = np.random.default_rng(10 * B + P)
    gammas = np.linspace(96.0, 24.0, B)
    grid = TimeGrid(n)
    band = np.sqrt(s.R1 ** 2 - 2.0 * np.log(gammas[0] / s.cone_gain) / gammas[0])
    expo, c = [], []
    for _ in range(P):
        v = (1.0, 0.0) + rng.uniform(-0.2, 0.2, (n + 1, 2))
        omega = np.concatenate([rng.uniform(0.0, 0.5, 8), rng.uniform(5.0, 6.0, n - 7)])
        omega[[3, 4, 12]] = 0.0
        u, u0 = rng.uniform(-0.3, 0.3, (n + 1, 2)), rng.uniform(0.0, 0.5, n + 1)
        plan = plan_path(v, omega, s, grid)
        for x_init in (rng.uniform(-0.3, 0.3, 2), plan.y[0] + (0.0, band)):
            if per_column:
                xs, _ = propagate_smooth(plan, u, u0, x_init, gammas, s)
            else:
                xs = np.concatenate([propagate_smooth(plan, u, u0, x_init, float(g), s)[0]
                                     for g in gammas], axis=1)
            assert xs.shape == (n + 1, B, 2)
            ref, offsets = _stage_loop_x(v, u, u0, omega, np.tile(x_init, (B, 1)), gammas, s,
                                         grid)
            expo.append(0.5 * gammas * (np.sum(offsets ** 2, axis=-1) - s.R1 ** 2))
            c.append(gammas * np.exp(np.minimum(expo[-1], 50.0)))
            assert np.array_equal(xs, ref)
    expo, c = np.array(expo), np.array(c)
    assert (expo > 50.0).any() and (c >= s.cone_gain).any() and (c < 1e-3 * s.cone_gain).any()
    # and stage points inside the cap's band, -a < ln(g/K) < a
    assert (np.abs(expo + np.log(gammas / s.cone_gain)) < CAP_BAND).any()


def test_propagate_smooth_returns_x_and_z_and_the_trajectory_reads_the_plan_path():
    # the forward returns the swept point, one column per gain, and the
    # effort, which reads no gain; the trajectory's y and t are the plan
    # path's own numbers
    n, gammas = 9, np.array([12.0, 24.0, 48.0])
    rng = np.random.default_rng(4)
    cp = ControlProfile(TimeGrid(n), v=rng.uniform(-0.5, 0.5, (n + 1, 2)),
                        u=rng.uniform(-0.5, 0.5, (n + 1, 2)), u0=rng.uniform(0.0, 1.0, n + 1),
                        omega=rng.uniform(0.5, 2.0, n + 1))
    x_init = S.y0_arr + 0.1
    plan = plan_path(cp.v, cp.omega, S, cp.grid)
    out = propagate_smooth(plan, cp.u, cp.u0, x_init, gammas, S)
    assert isinstance(out, tuple) and len(out) == 2
    xs, zs = out
    assert xs.shape == (n + 1, 3, 2) and zs.shape == (n + 1,)
    tr = integrate_smooth(cp, x_init, 24.0, S)
    assert np.array_equal(tr.y, plan.y) and np.array_equal(tr.t, plan.t)
    assert np.array_equal(tr.x, xs[:, 1]) and np.array_equal(tr.z, zs)


@pytest.mark.parametrize("name, arg, got", [
    ("u", 1, (8, 2)),       # short
    ("u", 1, (10, 2)),      # long
    ("u", 1, (18,)),        # flat
    ("u0", 2, (8,)),        # short
    ("x_init", 3, (3,)),
])
def test_propagate_smooth_refuses_arrays_off_the_plan_grid(name, arg, got):
    n = 8
    plan = plan_path(np.tile((1.0, 0.0), (n + 1, 1)), np.ones(n + 1), S, TimeGrid(n))
    want = {"u": (n + 1, 2), "u0": (n + 1,), "x_init": (2,)}[name]
    args = [plan, np.zeros((n + 1, 2)), np.zeros(n + 1), np.zeros(2), 8.0, S]
    args[arg] = np.zeros(got)
    with pytest.raises(ValueError, match=rf"^{name} must have shape {re.escape(str(want))}.*"
                                         rf"got shape {re.escape(str(got))}$"):
        propagate_smooth(*args)


def test_catchup_interior_equals_plain_euler():
    n = 10
    cp = profile(n, u=(0.3, 0.1), omega=1.0)
    tr = integrate_catchup(cp, (0.0, 0.0), S)
    dt = 1.0 / n
    x = np.array([0.0, 0.0])
    for i in range(n):
        x = x + np.array([0.3, 0.1]) * dt
        assert np.allclose(tr.x[i + 1], x, atol=1e-12)


def test_catchup_keeps_state_inside_disk():
    n = 40
    cp = profile(n, u=(1.0, 0.0), omega=2.0)
    tr = integrate_catchup(cp, (1.0, 0.0), S)
    for i in range(n + 1):
        assert h_lower(tr.x[i], tr.y[i], S) <= 1e-12


def test_catchup_records_activation_on_boundary_ride():
    n = 40
    cp = profile(n, u=(1.0, 0.0), omega=2.0)
    tr = integrate_catchup(cp, (1.0, 0.0), S)
    assert tr.u0_realized is not None
    # outward push along the normal: recorded activation ~ |u|/M
    assert np.median(tr.u0_realized[1:]) == pytest.approx(1.0 / 1.5, rel=0.05)


def test_catchup_effort_integrates_each_applied_step_in_full():
    # a still plan pushing outward from the rim: every step applies u0 = 2/3,
    # and z sums (|u_i|^2 + u0_i^2) omega_i dt over the steps, the last one
    # in full: 10 * (1 + 4/9) * 2 * 0.1 = 26/9, where the trapezoid of the
    # node values, whose last node reads 0, gave 2.8444
    n = 10
    cp = profile(n, u=(1.0, 0.0), omega=2.0)
    tr = integrate_catchup(cp, (1.0, 0.0), S)
    assert np.allclose(tr.u0_realized[:-1], 2.0 / 3.0, rtol=0.0, atol=1e-12)
    assert tr.u0_realized[-1] == 0.0
    assert tr.z[-1] == pytest.approx(26.0 / 9.0, rel=0.0, abs=1e-12)
    z = [0.0]
    for i in range(n):
        z.append(z[-1] + (1.0 + tr.u0_realized[i] ** 2) * 2.0 * cp.grid.dt)
    assert np.allclose(tr.z, z, rtol=0.0, atol=1e-12)


def test_catchup_warns_when_correction_budget_exceeded():
    s = straight_corridor(M=0.5, M1=1.0)
    n = 20
    cp = profile(n, u=(1.0, 0.0), omega=2.0)
    with pytest.warns(FeasibilityLossWarning):
        integrate_catchup(cp, (1.0, 0.0), s)


def test_catchup_rides_the_smoothed_systems_plan_path_and_clock():
    # a moving plan with a varying speed and clock: the catch-up disk center
    # and clock are plan_nodes' own, bit for bit
    n = 40
    tau = np.linspace(0.0, 1.0, n + 1)
    cp = ControlProfile(TimeGrid(n), np.stack([np.cos(3 * tau), np.sin(3 * tau)], axis=1),
                        np.tile([0.5, 0.2], (n + 1, 1)), np.full(n + 1, 0.7), 2.0 + np.sin(5 * tau))
    tr = integrate_catchup(cp, (0.5, 0.0), S, warn=False)
    y, t = plan_nodes(cp.v, cp.omega, S, cp.grid)
    assert np.array_equal(tr.y, y) and np.array_equal(tr.t, t)
    assert max(h_lower(tr.x[i], tr.y[i], S) for i in range(n + 1)) <= 1e-12


def _euler_centers(cp, s):
    """The plan center stepped by Euler, y_{i+1} = y_i + v_i omega_i dt: on a
    still plan (v = 0) every center is y0, as on plan_nodes' path."""
    y = [s.y0_arr]
    for i in range(cp.grid.n_intervals):
        y.append(y[-1] + cp.v[i] * cp.omega[i] * cp.grid.dt)
    return np.array(y)


def _numpy_catchup(cp, x_init, s, centers):
    """The catch-up step map node by node in NumPy, with drift and
    project_ball_rows on the offset from each of the given disk centers
    (N+1, 2): the swept point, the realized activation, and the first node
    whose correction exceeded the budget with that correction and budget
    (None if none did)."""
    dt = cp.grid.dt
    xs, u0 = [np.asarray(x_init, dtype=float)], np.zeros(cp.grid.n_nodes)
    loss = None
    for i in range(cp.grid.n_intervals):
        w = cp.omega[i]
        x_pred = xs[i] + drift(xs[i], cp.u[i], s) * w * dt
        c = centers[i + 1]
        target = c + project_ball_rows(x_pred - c, s.R1)
        needed = float(np.linalg.norm(x_pred - target))
        budget = s.M * w * dt
        if needed > 1e-15:
            step = min(needed, budget)
            x_pred = x_pred + (step / needed) * (target - x_pred)
            u0[i] = step / budget if budget > 1e-300 else 0.0
            if needed > budget + 1e-12 and loss is None:
                loss = (i + 1, needed, budget)
        xs.append(x_pred)
    return np.array(xs), u0, loss


@pytest.mark.parametrize("u, x_init", [((1.0, 0.0), (1.0, 0.0)), ((0.6, 0.8), (0.0, 1.0))])
def test_catchup_still_plan_boundary_ride_is_unchanged(u, x_init):
    # A2's boundary ride: with v = 0 every disk center is y0 on either path
    cp = profile(200, u=u, u0=1.0, omega=2.0)
    tr = integrate_catchup(cp, x_init, S, warn=False)
    x, u0, loss = _numpy_catchup(cp, x_init, S, _euler_centers(cp, S))
    assert np.array_equal(tr.x, x) and np.array_equal(tr.u0_realized, u0) and loss is None


def _moving_plan(n, u, omega):
    tau = np.linspace(0.0, 1.0, n + 1)
    return ControlProfile(TimeGrid(n), np.stack([np.cos(3 * tau), np.sin(3 * tau)], axis=1),
                          np.tile(u, (n + 1, 1)), np.full(n + 1, 0.7), omega + np.sin(5 * tau))


@pytest.mark.parametrize("s, cp, x_init, over_budget", [
    (straight_corridor(drift=DriftSpec(name="affine", A=((0.0, 0.05), (-0.05, 0.0))), K_f=0.05, M1=1.2),
     _moving_plan(80, (0.5, 0.2), 2.0), (0.5, 0.0), False),
    (straight_corridor(drift=DriftSpec("affine", (0.3, 0.2, -0.4, 0.1))),
     _moving_plan(80, (-0.9, 0.1), 2.0), (0.0, 1.0), False),
    (straight_corridor(M=0.5, M1=1.0), profile(20, u=(1.0, 0.0), omega=2.0), (1.0, 0.0), True),
    (straight_corridor(M=0.6, drift=DriftSpec("affine", (0.3, 0.2, -0.4, 0.1))),
     _moving_plan(60, (0.8, -0.3), 3.0), (-0.6, 0.8), True)],
    ids=["A4-moving", "affine-moving", "over-budget", "affine-moving-over-budget"])
def test_catchup_equals_a_numpy_step_loop(s, cp, x_init, over_budget):
    # the float stepping is the NumPy step map's, bitwise, around plan_nodes'
    # centers; past the budget the state reads the correction's norm itself
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tr = integrate_catchup(cp, x_init, s)
    x, u0, loss = _numpy_catchup(cp, x_init, s, plan_nodes(cp.v, cp.omega, s, cp.grid)[0])
    assert np.array_equal(tr.x, x) and np.array_equal(tr.u0_realized, u0)
    # corrections within the budget, and past it capped ones
    assert ((u0 > 0) & (u0 < 1)).any() or over_budget
    assert (u0 == 1.0).any() == over_budget == (loss is not None)
    if over_budget:
        node, needed, budget = loss
        assert [str(w.message) for w in caught] == [
            f"catching-up correction exceeded the cone budget at node {node} "
            f"(needed {needed:.3e} > budget {budget:.3e})"]
        assert all(w.category is FeasibilityLossWarning for w in caught)
    else:
        assert not caught


# ---------------------------------------------------------------- monitoring
def test_feasibility_monitor_clean_run():
    cp = profile(10, v=(0.5, 0.0), omega=1.0)
    tr = integrate_smooth(cp, (0.0, 0.0), 12.0, S)
    rep = feasibility_monitor(tr, S)
    assert rep.max_h_lower <= 1e-9
    assert rep.max_h_upper <= 1e-9
    assert rep.terminal_distance > 0


def test_feasibility_monitor_flags_violation_node():
    cp = profile(10, omega=1.0)
    tr = integrate_smooth(cp, (0.0, 0.0), 12.0, S)
    x, y = tr.x.copy(), tr.y.copy()
    x[7] = (3.0, 0.0)
    # Q1 + y leaves Q, whose center moves within R - R1 = 9; x goes along
    x[4] = y[4] = (9.5, 0.0)
    bad = type(tr)(grid=tr.grid, y=y, x=x, z=tr.z, t=tr.t,
                   u0_realized=tr.u0_realized)
    rep = feasibility_monitor(bad, S)
    assert rep.max_h_lower > 0
    assert rep.node_h_lower == 7
    assert rep.max_h_upper > 0
    assert rep.node_h_upper == 4


# ---------------------------------------------------------------- smoothing convergence
def test_convergence_study_interior_trajectory_tiny_errors():
    cp = profile(50, u=(0.2, 0.0), omega=1.0)
    sched = SmoothingSchedule.default_for(S)
    errs = convergence_study(cp, (0.0, 0.0), sched, S)
    assert np.all(errs < 1e-3)


def test_convergence_study_boundary_ride_improves_with_gamma():
    cp = profile(200, u=(1.0, 0.0), u0=1.0, omega=2.0)
    sched = SmoothingSchedule.default_for(S)  # {2,4,8,16,32,64} * M/R1
    errs = convergence_study(cp, (1.0, 0.0), sched, S)
    assert errs[-1] < errs[1]
    assert errs[-1] <= 5 * (S.M1 + S.M) / 200


def _per_gamma_study(cp, x_init, sched, s):
    """The study as one integrate_smooth run per gamma."""
    ref = integrate_catchup(cp, x_init, s, warn=False)
    return np.array([np.linalg.norm(integrate_smooth(cp, x_init, g, s).x - ref.x, axis=1).max()
                     for g in sched.gammas])


@pytest.mark.parametrize("s", [S, straight_corridor(
    drift=DriftSpec(name="affine", A=((0.0, 0.05), (-0.05, 0.0))), K_f=0.05, M1=1.2)],
    ids=["identity", "affine"])
def test_convergence_study_equals_a_per_gamma_loop(s):
    # A2's boundary ride, with identity drift and with A4's affine drift: the
    # batched schedule gives bitwise the per-gamma loop's errors
    cp = profile(200, u=(1.0, 0.0), u0=1.0, omega=2.0)
    sched = SmoothingSchedule.default_for(s)
    errs = convergence_study(cp, (1.0, 0.0), sched, s)
    assert errs.shape == (len(sched.gammas),)
    assert np.array_equal(errs, _per_gamma_study(cp, (1.0, 0.0), sched, s))


def test_convergence_study_general_affine_drift_equals_a_per_gamma_loop():
    # two nonzeros in a row of A: every column of the forward runs the same
    # float arithmetic, so the batch of six and the loop of ones agree bitwise
    s = straight_corridor(drift=DriftSpec("affine", (0.3, 0.2, -0.4, 0.1)))
    cp = profile(200, u=(0.8, 0.3), u0=0.9, omega=2.0)
    sched = SmoothingSchedule.default_for(s)
    errs = convergence_study(cp, (0.6, 0.8), sched, s)
    assert np.array_equal(errs, _per_gamma_study(cp, (0.6, 0.8), sched, s))


def test_smoothing_schedule_rejects_nonincreasing():
    with pytest.raises(ValueError):
        SmoothingSchedule(gammas=(3.0, 3.0))
    with pytest.raises(ValueError):
        SmoothingSchedule(gammas=(1.0, 2.0)).validate_against(S)
