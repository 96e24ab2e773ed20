"""Discretized problem assembly and finite-difference derivatives."""

import numpy as np
import pytest

from bisweep.dynamics import ControlProfile, TimeGrid, integrate_smooth
from bisweep.geometry import straight_corridor
from bisweep.solver import _upper_eval_many
from bisweep.transcription import DecisionVector, assemble_lower, fd_grad_jac

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


# ---------------------------------------------------------------- derivatives
def stacked_jacobian(nlp, dv, h):
    grad, jac = fd_grad_jac(nlp.eval_many, nlp.pack(dv), h)
    return np.vstack([grad, jac])


def test_fd_gradient_of_final_time_is_quadrature_weight():
    # the upper-level merit: decision (v, omega), objective the final time t(T*)
    n = 5
    grid = TimeGrid(n)
    flat = np.concatenate([np.zeros(2 * (n + 1)), np.ones(n + 1)])
    grad_obj, _ = fd_grad_jac(lambda pts: _upper_eval_many(pts, S, grid, 0.0),
                              flat, h=1e-6)
    off_omega = len(flat) - (n + 1)
    w = np.full(n + 1, 1.0 / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    assert np.allclose(grad_obj[off_omega:], w, atol=1e-8)
    assert np.allclose(grad_obj[:off_omega], 0.0, atol=1e-8)


def test_fd_gradient_of_cost_term_matches_hand_derivative():
    n = 5
    omega = np.full(n + 1, 2.0)
    grid = TimeGrid(n)
    nlp = assemble_lower(omega, np.zeros((n + 1, 2)), GAMMA, S, grid)
    dv = make_decision(n, u=(0.4, 0.1), omega=omega)
    grad, _ = fd_grad_jac(nlp.eval_many, nlp.pack(dv), h=1e-6)
    d = 2
    w = np.full(n + 1, 1.0 / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    expected = np.zeros(2 * (n + 1))
    expected[0::2] = 2 * 0.4 * omega * w
    expected[1::2] = 2 * 0.1 * omega * w
    assert np.allclose(grad[d:d + 2 * (n + 1)], expected, atol=1e-6)


def test_fd_jacobian_second_order_in_h():
    n = 4
    omega = np.full(n + 1, 1.5)
    nlp = assemble_lower(omega, np.zeros((n + 1, 2)), GAMMA, S, TimeGrid(n))
    dv = make_decision(n, u=(0.3, 0.2), u0=0.4, omega=omega, x_init=(0.2, 0.1))

    # cost is cubic in u through the trapezoid weights? no - quadratic; use the
    # constraint rows (nonlinear through the dynamics) to observe O(h^2) decay
    exact = stacked_jacobian(nlp, dv, h=1e-7)
    e1 = np.max(np.abs(stacked_jacobian(nlp, dv, h=4e-3) - exact))
    e2 = np.max(np.abs(stacked_jacobian(nlp, dv, h=2e-3) - exact))
    assert e2 <= e1 / 2.5  # second-order scheme: expect ~4x


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
