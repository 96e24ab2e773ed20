"""Discretized lower problem assembly, and the plan constraints' exact
Jacobian (``solver._plan_residuals``) against central differences
(``oracle.fd_check``)."""

import numpy as np
import pytest

from bisweep.dynamics import (ControlProfile, TimeGrid, frozen_plan, integrate_smooth, plan_nodes,
                              propagate_smooth, trapz_weights)
from bisweep.geometry import h_lower, straight_corridor, target_distance
from bisweep.oracle import fd_check
from bisweep.solver import _plan_residuals
from bisweep.transcription import SCALE_FLOOR, DecisionVector, NLPInstance

S = straight_corridor()
GAMMA = 12.0


def make_decision(n, u=None, u0=None, v=None, omega=None, x_init=(0.0, 0.0)):
    m = n + 1

    def arr(val, shape):
        out = np.zeros(shape)
        if val is not None:
            out[:] = np.asarray(val, dtype=float)
        return out

    cp = ControlProfile(grid=TimeGrid(n), v=arr(v, (m, 2)), u=arr(u, (m, 2)),
                        u0=arr(u0, (m,)), omega=arr(omega, (m,)))
    return DecisionVector(x_init=np.asarray(x_init, dtype=float), controls=cp)


# ---------------------------------------------------------------- lower problem
def lower_run(dv):
    """The smoothed trajectory of a decision: z(T) is the lower objective,
    h_lower along it the contact residuals."""
    return integrate_smooth(dv.controls, dv.x_init, GAMMA, S)


def test_lower_objective_zero_when_time_frozen():
    n = 6
    rng = np.random.default_rng(3)
    for _ in range(5):
        dv = make_decision(n, u=rng.uniform(-0.5, 0.5, 2), u0=rng.uniform(0, 1))
        assert lower_run(dv).z[-1] == pytest.approx(0.0, abs=1e-15)


def test_lower_zero_control_is_interior_optimum():
    n = 6
    omega = np.ones(n + 1)
    base = lower_run(make_decision(n, omega=omega)).z[-1]
    assert base == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        dv = make_decision(n, u=rng.uniform(-0.3, 0.3, 2),
                           u0=rng.uniform(0, 0.5), omega=omega)
        assert lower_run(dv).z[-1] >= base - 1e-12


def test_lower_residual_count():
    n = 5
    tr = lower_run(make_decision(n, omega=np.ones(n + 1)))
    res = h_lower(tr.x, tr.y, S)
    assert res.shape == (n + 1,)  # one membership residual per node


# ---------------------------------------------------------------- plan merit gradient
# Central differences of the merit t_N + w.res lose digits to its size
# (up to 1.6e3 on the random plans below), so the step is 1e-3 along unit
# directions.  Measured worst relative errors of the exact gradient: 5.8e-7
# on the random plans, 2.8e-9 on the reached target, 1.8e-8 at the corridor
# plan; a sweep without its midpoint-stage terms reads 0.67 to 1.67.
FD_H = 1e-3
GRAD_TOL = 1e-5


def merit(flat, w, grid):
    """t_N + w.res at one plan, from the forward clock and residuals."""
    n = grid.n_nodes
    _, ts = plan_nodes(flat[:2 * n].reshape(n, 2), flat[2 * n:], S, grid)
    return float(ts[-1] + _plan_residuals(flat, S, grid) @ w)


def merit_grad(flat, w, grid):
    """grad t_N + J^T w, with J the plan solve's Jacobian of the residuals."""
    _, jac = _plan_residuals(flat, S, grid, jac=True)
    return np.concatenate([np.zeros(2 * grid.n_nodes), trapz_weights(grid)]) + jac.T @ w


def worst_fd_error(flat, w, grid, count=12, seed=0):
    """Largest relative error of ``merit_grad`` against central
    differences of the forward merit along seeded random unit directions."""
    dirs = np.random.default_rng(seed).standard_normal((count, flat.size))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return fd_check(lambda p: merit(p, w, grid), merit_grad(flat, w, grid), flat, dirs,
                    h=FD_H)


def random_plan(n, rng):
    v = rng.normal(scale=0.6, size=(n + 1, 2)) + [0.8, 0.0]
    v /= np.maximum(1.0, np.linalg.norm(v, axis=1, keepdims=True) / S.v_bound)
    return np.concatenate([v.ravel(), rng.uniform(0.05, 0.4, n + 1)])


def test_gradient_of_final_time_is_quadrature_weight():
    # t_N is linear in omega with the trapezoid weights as coefficients, the
    # plan solve's constant objective gradient; the forward clock agrees
    n = 5
    grid = TimeGrid(n)
    w = np.full(n + 1, 1.0 / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    np.testing.assert_array_equal(trapz_weights(grid), w)
    _, ts = plan_nodes(np.zeros((n + 1, n + 1, 2)), np.eye(n + 1), S, grid)
    np.testing.assert_allclose(ts[-1], w, rtol=0, atol=1e-15)


def test_merit_gradient_matches_central_differences_with_terminal_row_active():
    n = 40
    grid = TimeGrid(n)
    rng = np.random.default_rng(11)
    for _ in range(3):
        flat = random_plan(n, rng)
        ys, _ = plan_nodes(flat[:2 * (n + 1)].reshape(n + 1, 2), flat[2 * (n + 1):], S, grid)
        assert target_distance(ys[-1], S) > 1.0
        w = rng.uniform(0.0, 2.0, n + 2)
        assert worst_fd_error(flat, w, grid) < GRAD_TOL


def test_merit_gradient_of_a_reached_target_row_is_zero():
    # the disk around y_N already overlaps the target: the terminal miss is
    # constant near the plan, and its Jacobian row is zero
    n = 10
    grid = TimeGrid(n)
    flat = np.concatenate([np.tile([S.v_bound, 0.0], n + 1), np.full(n + 1, 8.2)])
    ys, _ = plan_nodes(flat[:2 * (n + 1)].reshape(n + 1, 2), flat[2 * (n + 1):], S, grid)
    assert target_distance(ys[-1], S) == 0.0
    _, jac = _plan_residuals(flat, S, grid, jac=True)
    np.testing.assert_array_equal(jac[-1], 0.0)
    w = np.random.default_rng(5).uniform(0.0, 2.0, n + 2)
    assert worst_fd_error(flat, w, grid) < GRAD_TOL


def test_merit_gradient_matches_central_differences_at_the_corridor_plan(corridor_run):
    sol = corridor_run["solution"]
    cp = sol.lower.decision.controls
    flat = np.concatenate([cp.v.ravel(), cp.omega])
    w = np.random.default_rng(7).uniform(0.0, 2.0, flat.size // 3 + 1)
    assert worst_fd_error(flat, w, cp.grid) < GRAD_TOL


def test_pack_unpack_roundtrip():
    n = 6
    omega = np.full(n + 1, 1.2)
    v = np.tile([0.4, 0.2], (n + 1, 1))
    nlp = NLPInstance(frozen_plan(omega, v, S), S)
    dv = make_decision(n, u=(0.2, -0.1), u0=0.7, v=(0.4, 0.2), omega=omega,
                       x_init=(0.3, -0.2))
    back = nlp.unpack(nlp.pack(dv))
    assert np.allclose(back.x_init, dv.x_init)
    assert np.allclose(back.controls.u, dv.controls.u)
    assert np.allclose(back.controls.u0, dv.controls.u0)
    assert np.allclose(back.controls.v, dv.controls.v)
    assert np.allclose(back.controls.omega, dv.controls.omega)


def random_lower(n, rng, zero_nodes=()):
    """A plan of n intervals and a random lower decision on it, omega zero at
    ``zero_nodes``; returns the transcription and the decision."""
    omega = rng.uniform(0.5, 9.0, n + 1)
    omega[list(zero_nodes)] = 0.0
    v = rng.uniform(-0.6, 0.6, (n + 1, 2))
    u = rng.uniform(-1.0, 1.0, (n + 1, 2))
    dv = make_decision(n, u=u, u0=rng.uniform(0.0, 1.0, n + 1), v=v, omega=omega,
                       x_init=rng.uniform(-0.5, 0.5, 2))
    return NLPInstance(frozen_plan(omega, v, S), S), dv


@pytest.mark.parametrize("n, zero_nodes", [(6, ()), (11, ()), (40, ()), (9, (0, 4, 5, 9))],
                         ids=["n6", "n11", "n40", "zero-omega"])
def test_scaled_decision_makes_the_effort_half_its_squared_norm(n, zero_nodes):
    # with D_i = sqrt(2 w_i omega_i) the effort z_N is 0.5 |xi_{u,u0}|^2, so
    # SLSQP's identity start is its Hessian; where omega_i = 0 the effort has
    # no term and D_i is the floor
    nlp, dv = random_lower(n, np.random.default_rng(n), zero_nodes)
    cp = dv.controls
    xi = nlp.pack(dv)
    d, m = S.dim, n + 1
    xi_u, xi_u0 = xi[d:d + d * m].reshape(m, d), xi[d + d * m:]
    live = cp.omega > 0.0
    _, _, zs, _ = propagate_smooth(nlp.plan, cp.u, cp.u0, dv.x_init, GAMMA, S)
    half_norm = 0.5 * (np.sum(xi_u[live] ** 2) + np.sum(xi_u0[live] ** 2))
    assert half_norm == pytest.approx(zs[-1, 0], rel=1e-13, abs=0.0)
    assert np.array_equal(xi[:d], dv.x_init)
    np.testing.assert_array_equal(nlp.node_scale[~live], SCALE_FLOOR)
    np.testing.assert_allclose(xi_u[~live], SCALE_FLOOR * cp.u[~live], rtol=1e-15)
    np.testing.assert_allclose(xi_u0[~live], SCALE_FLOOR * cp.u0[~live], rtol=1e-15)


@pytest.mark.parametrize("zero_nodes", [(), (0, 3, 7)], ids=["positive", "zero-omega"])
def test_scaled_pack_and_unpack_round_trip(zero_nodes):
    nlp, dv = random_lower(7, np.random.default_rng(11), zero_nodes)
    back = nlp.unpack(nlp.pack(dv))
    assert np.array_equal(back.x_init, dv.x_init)
    for name in ("u", "u0"):
        np.testing.assert_allclose(getattr(back.controls, name), getattr(dv.controls, name),
                                   rtol=1e-15, atol=0.0)
    assert np.array_equal(back.controls.v, dv.controls.v)
    assert np.array_equal(back.controls.omega, dv.controls.omega)
    # split unscales the same way, and u0 is clipped to [0, 1] after unscaling
    xi = nlp.pack(dv)
    xi[-1] = 1.5 * nlp.node_scale[-1]
    assert nlp.split(xi)[2][-1] == 1.0
