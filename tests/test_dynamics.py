"""Sweeping field, smoothing, integrators, and feasibility monitoring."""

import math
import warnings

import numpy as np
import pytest

from bisweep.dynamics import (
    ControlProfile,
    FeasibilityLossWarning,
    InfeasibleStateError,
    SmoothingSchedule,
    TimeGrid,
    cone_coefficient,
    convergence_study,
    drift,
    feasibility_monitor,
    integrate_catchup,
    integrate_smooth,
    plan_path,
    propagate_smooth,
    sweeping_field_exact,
    sweeping_field_smooth,
)
from bisweep.geometry import DriftSpec, h_lower, straight_corridor

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


# ---------------------------------------------------------------- exact field
def test_exact_field_interior_is_pure_drift():
    f = sweeping_field_exact((0.1, 0.0), (0.0, 0.0), (0.5, 0.0), 1.0, S)
    assert np.allclose(f, (0.5, 0.0))


def test_exact_field_boundary_inactive_when_u0_zero():
    f = sweeping_field_exact((1.0, 0.0), (0.0, 0.0), (0.5, 0.0), 0.0, S)
    assert np.allclose(f, (0.5, 0.0))


def test_exact_field_boundary_full_activation():
    f = sweeping_field_exact((1.0, 0.0), (0.0, 0.0), (0.0, 0.0), 1.0, S)
    assert np.allclose(f, (-1.5, 0.0))


def test_exact_field_rejects_outside_state():
    with pytest.raises(InfeasibleStateError):
        sweeping_field_exact((2.0, 0.0), (0.0, 0.0), (0.0, 0.0), 0.0, S)


# ---------------------------------------------------------------- smoothing
def test_cone_coefficient_capped_on_boundary():
    # on the rim (x - y = (1, 0)) the ramp gamma e^0 = 10 is capped at M/R1
    assert cone_coefficient(np.array([1.0, 0.0]), 10.0, S) == pytest.approx(1.5)


def test_cone_coefficient_interior_decay():
    # at x = y, h_lower = (0 - 1)/2 = -1/2, so c = gamma e^{-gamma/2}
    val = cone_coefficient(np.array([0.0, 0.0]), 10.0, S)
    assert val == pytest.approx(10.0 * math.exp(-5.0), rel=1e-12)


def test_smooth_field_u0_zero_is_drift():
    f = sweeping_field_smooth((0.9, 0.0), (0.0, 0.0), (0.2, 0.1), 0.0, 12.0, S)
    assert np.allclose(f, (0.2, 0.1))


def test_smooth_field_matches_exact_on_boundary_when_capped():
    fs = sweeping_field_smooth((1.0, 0.0), (0.0, 0.0), (0.0, 0.0), 1.0, 96.0, S)
    fe = sweeping_field_exact((1.0, 0.0), (0.0, 0.0), (0.0, 0.0), 1.0, S)
    assert np.allclose(fs, fe)


def test_smooth_field_negligible_deep_interior():
    fs = sweeping_field_smooth((0.1, 0.0), (0.0, 0.0), (0.0, 0.0), 1.0, 96.0, S)
    assert np.linalg.norm(fs) < 1e-3


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


def test_integrate_smooth_speed_bound():
    cp = profile(20, v=(1.0, 0.0), u=(1.0, 0.0), u0=1.0, omega=3.0)
    tr = integrate_smooth(cp, (1.0, 0.0), 24.0, S)
    dt = 1.0 / 20
    steps = np.linalg.norm(np.diff(tr.x, axis=0), axis=1)
    assert np.all(steps <= (S.M1 + S.M) * 3.0 * dt + 1e-9)


# ---------------------------------------------------------------- catch-up integrator
def test_plan_path_is_propagate_smooth_plan_path():
    # the plan solve reads y and t of the plan path alone; they must be the
    # very numbers the full propagation produces for any lower controls
    n, B = 12, 7
    rng = np.random.default_rng(5)
    v = rng.uniform(-1.0, 1.0, (n + 1, B, 2))
    omega = rng.uniform(0.0, 3.0, (n + 1, B))
    u = rng.uniform(-0.5, 0.5, (n + 1, B, 2))
    u0 = rng.uniform(0.0, 1.0, (n + 1, B))
    x_init = rng.uniform(-0.5, 0.5, (B, 2))
    grid = TimeGrid(n)
    ys, _, _, ts = propagate_smooth(v, u, u0, omega, x_init, 12.0, S, grid)
    y_plan, _, t_plan = plan_path(v, omega, S, grid)
    assert np.array_equal(y_plan, ys)
    assert np.array_equal(t_plan, ts)
    # and both are RK4 of dy = v*omega (controls linear in between) and the
    # trapezoid rule for t, stepped here one interval at a time
    dt = grid.dt
    y = np.empty_like(ys)
    y[0] = S.y0_arr
    for i in range(n):
        k1 = v[i] * omega[i][:, None]
        km = 0.25 * (v[i] + v[i + 1]) * (omega[i] + omega[i + 1])[:, None]
        k4 = v[i + 1] * omega[i + 1][:, None]
        y[i + 1] = y[i] + dt / 6.0 * (k1 + 4.0 * km + k4)
    assert np.allclose(y_plan, y, rtol=0.0, atol=1e-12)
    t_ref = np.concatenate([np.zeros((1, B)),
                            np.cumsum(0.5 * dt * (omega[1:] + omega[:-1]), axis=0)])
    assert np.allclose(t_plan, t_ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("s", [S, straight_corridor(drift=DriftSpec("affine", (0.3, 0.2, -0.4, 0.1)))],
                         ids=["identity", "affine"])
@pytest.mark.parametrize("B", [1, 5, 251])
def test_frozen_plan_propagates_like_its_batch_wide_copy(s, B):
    # the lower problem's plan is one (v, omega) for the whole batch; kept at
    # its own width it must give bitwise the numbers of a batch-wide copy
    n = 12
    rng = np.random.default_rng(B)
    v, omega = rng.uniform(-0.7, 0.7, (n + 1, 2)), rng.uniform(0.5, 4.0, n + 1)
    u, u0 = rng.uniform(-0.7, 0.7, (n + 1, B, 2)), rng.uniform(0.0, 1.0, (n + 1, B))
    x_init = rng.uniform(-0.7, 0.7, (B, 2))
    grid = TimeGrid(n)
    frozen = propagate_smooth(v, u, u0, omega, x_init, 24.0, s, grid)
    wide = propagate_smooth(np.repeat(v[:, None], B, axis=1), u, u0, np.repeat(omega[:, None], B, axis=1),
                            x_init, 24.0, s, grid)
    for a, b in zip(frozen, wide):
        assert a.shape == b.shape == (n + 1, B) + b.shape[2:]
        assert np.array_equal(a, b)


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


def test_catchup_warns_when_correction_budget_exceeded():
    s = straight_corridor(M=0.5, M1=1.0)
    n = 20
    cp = profile(n, u=(1.0, 0.0), omega=2.0)
    with pytest.warns(FeasibilityLossWarning):
        integrate_catchup(cp, (1.0, 0.0), s)


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
    x = tr.x.copy()
    x[7] = (3.0, 0.0)
    bad = type(tr)(grid=tr.grid, y=tr.y, x=x, z=tr.z, t=tr.t,
                   u0_realized=tr.u0_realized)
    rep = feasibility_monitor(bad, S)
    assert rep.max_h_lower > 0
    assert rep.node_h_lower == 7


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


def test_smoothing_schedule_rejects_nonincreasing():
    with pytest.raises(ValueError):
        SmoothingSchedule(gammas=(3.0, 3.0))
    with pytest.raises(ValueError):
        SmoothingSchedule(gammas=(1.0, 2.0)).validate_against(S)
