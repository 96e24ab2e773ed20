"""Discretized lower problem assembly, and the plan constraints' exact
Jacobian (``solver._plan_residuals``) against central differences
(``oracle.fd_check``)."""

import numpy as np
import pytest

from bisweep.dynamics import ControlProfile, TimeGrid, integrate_smooth, plan_nodes
from bisweep.geometry import straight_corridor, target_distance
from bisweep.oracle import fd_check
from bisweep.solver import _plan_residuals, _trapz_weights
from bisweep.transcription import DecisionVector, assemble_lower

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
def test_lower_objective_zero_when_time_frozen():
    n = 6
    nlp = assemble_lower(np.zeros(n + 1), np.zeros((n + 1, 2)), GAMMA, S, TimeGrid(n))
    rng = np.random.default_rng(3)
    for _ in range(5):
        dv = make_decision(n, u=rng.uniform(-0.5, 0.5, 2), u0=rng.uniform(0, 1))
        assert nlp.objective(dv) == pytest.approx(0.0, abs=1e-15)


def test_lower_zero_control_is_interior_optimum():
    n = 6
    omega = np.ones(n + 1)
    nlp = assemble_lower(omega, np.zeros((n + 1, 2)), GAMMA, S, TimeGrid(n))
    base = nlp.objective(make_decision(n, omega=omega))
    assert base == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        dv = make_decision(n, u=rng.uniform(-0.3, 0.3, 2),
                           u0=rng.uniform(0, 0.5), omega=omega)
        assert nlp.objective(dv) >= base - 1e-12


def test_lower_objective_matches_integrator_cost():
    n = 10
    omega = np.full(n + 1, 2.0)
    v = np.tile([0.3, 0.0], (n + 1, 1))
    nlp = assemble_lower(omega, v, GAMMA, S, TimeGrid(n))
    dv = make_decision(n, u=(0.4, -0.2), u0=0.3, v=(0.3, 0.0), omega=omega)
    tr = integrate_smooth(dv.controls, dv.x_init, GAMMA, S)
    # the NLP may carry its own copies of (omega, v); cost must agree with the
    # single quadrature implemented by the integrator
    assert nlp.objective(dv) == pytest.approx(tr.z[-1], rel=1e-12)


def test_lower_residual_count():
    n = 5
    nlp = assemble_lower(np.ones(n + 1), np.zeros((n + 1, 2)), GAMMA, S, TimeGrid(n))
    dv = make_decision(n, omega=np.ones(n + 1))
    res = nlp.residuals(dv)
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
    return np.concatenate([np.zeros(2 * grid.n_nodes), _trapz_weights(grid)]) + jac.T @ w


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
    np.testing.assert_array_equal(_trapz_weights(grid), w)
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
    cp = sol.decision.controls
    flat = np.concatenate([cp.v.ravel(), cp.omega])
    w = np.random.default_rng(7).uniform(0.0, 2.0, flat.size // 3 + 1)
    assert worst_fd_error(flat, w, cp.grid) < GRAD_TOL


def test_pack_unpack_roundtrip():
    n = 6
    omega = np.full(n + 1, 1.2)
    v = np.tile([0.4, 0.2], (n + 1, 1))
    nlp = assemble_lower(omega, v, GAMMA, S, TimeGrid(n))
    dv = make_decision(n, u=(0.2, -0.1), u0=0.7, v=(0.4, 0.2), omega=omega,
                       x_init=(0.3, -0.2))
    back = nlp.unpack(nlp.pack(dv))
    assert np.allclose(back.x_init, dv.x_init)
    assert np.allclose(back.controls.u, dv.controls.u)
    assert np.allclose(back.controls.u0, dv.controls.u0)
    assert np.allclose(back.controls.v, dv.controls.v)
    assert np.allclose(back.controls.omega, dv.controls.omega)
