"""Support-function values, Hamiltonian evaluation, and optimality residuals."""

import json
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares

from bisweep import certificate, solver
from bisweep.certificate import (
    RIM_ACTIVITY_TOL,
    GamkrelidzeMultipliers,
    _MultiplierModel,
    _sigma,
    _sigma_tilde,
    _worst,
    certify,
    extract_multipliers,
    hamiltonian_upper,
    sigma_smooth_value,
    sigma_value,
)
from bisweep.dynamics import CAP_BAND, _cone_terms, integrate_smooth
from bisweep.geometry import DriftSpec, ExitArc, Scenario, straight_corridor
from bisweep.oracle import fd_check, sigma_sup_oracle
from bisweep.solver import SolverOptions, solve_bilevel

S = straight_corridor()
K = S.M / S.R1  # cone gain 1.5

Y = np.zeros(2)
X_RIM = np.array([1.0, 0.0])  # contact point: |x - y| = R1


def sigma_tilde(q_L, nu_L):
    return nu_L * S.R1 ** 2 - float(np.dot(q_L, X_RIM - Y))


def smooth_sigma_rows(y, x, p_L, mu_L, lambda_bar, gamma):
    """The smoothed sigma of a batch of nodes (..., n) in NumPy, from the
    parts the package still runs on node arrays: ``_sigma_tilde``,
    ``_sigma`` and the banded coefficient ``_cone_terms`` of ``stage_slope``."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    c = _cone_terms(d, S.smoothing_gain(gamma), S)[0]
    return _sigma(_sigma_tilde(p_L, np.asarray(mu_L, dtype=float), d, S), lambda_bar, c)


# ---------------------------------------------------------------- sigma branches
def test_sigma_zero_for_nonpositive_tilde():
    q_L = np.array([1.0, 0.0])  # sigma_tilde = -1
    assert sigma_tilde(q_L, 0.0) == pytest.approx(-1.0)
    assert sigma_value(Y, X_RIM, q_L, 0.0, 1.0, S) == 0.0


def test_sigma_middle_branch_vertex():
    # sigma_tilde = 2 r / k sits exactly at the branch seam; both the
    # quadratic (k st)^2 / (4 r) and the linear k st - r give r there
    r = 0.7
    st = 2 * r / K
    q_L = np.array([-st, 0.0])
    assert sigma_tilde(q_L, 0.0) == pytest.approx(st)
    assert sigma_value(Y, X_RIM, q_L, 0.0, r, S) == pytest.approx(r, rel=1e-12)


def test_sigma_linear_branch():
    # beyond the seam the activation saturates at 1: value k st - r, linear
    r = 0.5
    st = 3.0 * (2 * r / K)
    q_L = np.array([-st, 0.0])
    assert sigma_value(Y, X_RIM, q_L, 0.0, r, S) == pytest.approx(K * st - r, rel=1e-12)


def test_sigma_degenerate_no_effort_weight():
    st = 1.2
    q_L = np.array([-st, 0.0])
    assert sigma_value(Y, X_RIM, q_L, 0.0, 0.0, S) == pytest.approx(K * st, rel=1e-12)
    assert sigma_value(Y, X_RIM, np.array([st, 0.0]), 0.0, 0.0, S) == 0.0


def test_sigma_refuses_a_negative_effort_multiplier():
    # on the rim with q_L = (-1, 0) and nu = 0, sup over u0 in [0, 1] of
    # 1.5 u0 - r u0^2 is 2.5 at r = -1 and 1.501 at r = -1e-3, not the r = 0
    # value 1.5; the closed form holds only for r >= 0
    q_L = np.array([-1.0, 0.0])
    for r, sup in ((-1.0, 2.5), (-1e-3, 1.501)):
        with pytest.raises(ValueError, match=r"^r must be >= 0"):
            sigma_value(Y, X_RIM, q_L, 0.0, r, S)
        with pytest.raises(ValueError, match=r"^lambda_bar must be >= 0"):
            sigma_smooth_value(Y, X_RIM, q_L, 0.0, r, 1e6, S)
        assert sigma_sup_oracle(q_L, 0.0, r, X_RIM, Y, S) == pytest.approx(sup, rel=1e-12)
    for r in (0.0, -0.0):
        sup = sigma_sup_oracle(q_L, 0.0, r, X_RIM, Y, S)
        assert sigma_value(Y, X_RIM, q_L, 0.0, r, S) == sup == K
        assert sigma_smooth_value(Y, X_RIM, q_L, 0.0, r, 1e6, S) == sup


def test_sigma_inactive_away_from_rim():
    q_L = np.array([-5.0, 0.0])
    assert sigma_value(Y, np.array([0.5, 0.0]), q_L, 1.0, 1.0, S) == 0.0


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 3), st.floats(1e-3, 3))
@settings(max_examples=200, deadline=None)
def test_sigma_matches_sup_oracle(qx, qy, nu, r):
    q_L = np.array([qx, qy])
    val = sigma_value(Y, X_RIM, q_L, nu, r, S)
    ref = sigma_sup_oracle(q_L, nu, r, X_RIM, Y, S)
    assert val == pytest.approx(ref, abs=1e-9)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(0, 2), st.floats(1e-2, 2))
@settings(max_examples=100, deadline=None)
def test_sigma_midpoint_convex_in_adjoint(ax, ay, bx, by, nu, r):
    qa = np.array([ax, ay])
    qb = np.array([bx, by])
    mid = sigma_value(Y, X_RIM, 0.5 * (qa + qb), nu, r, S)
    ends = 0.5 * (sigma_value(Y, X_RIM, qa, nu, r, S)
                  + sigma_value(Y, X_RIM, qb, nu, r, S))
    assert mid <= ends + 1e-12


def test_sigma_continuous_across_branch_seams():
    r = 0.8
    for st_seam in (0.0, 2 * r / K):
        for eps in (-1e-9, 1e-9):
            st = st_seam + eps
            q_L = np.array([-st, 0.0])
            lo = sigma_value(Y, X_RIM, q_L, 0.0, r, S)
            q_L2 = np.array([-(st_seam - eps), 0.0])
            hi = sigma_value(Y, X_RIM, q_L2, 0.0, r, S)
            assert abs(lo - hi) <= 1e-8


# ---------------------------------------------------------------- smoothed sigma
def test_sigma_smooth_zero_branch():
    p_L = np.array([2.0, 0.0])  # tilde < 0
    assert sigma_smooth_value(Y, X_RIM, p_L, 0.0, 1.0, 96.0, S) == 0.0


def test_sigma_smooth_seam_value():
    lam = 0.6
    gamma = 96.0
    c = K  # capped on the rim
    st = 2 * lam / c
    p_L = np.array([-st, 0.0])
    assert sigma_smooth_value(Y, X_RIM, p_L, 0.0, lam, gamma, S) == pytest.approx(
        lam, rel=1e-12)


def test_sigma_smooth_large_gamma_limit_matches_contact_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p_L = rng.uniform(-2, 2, 2)
        mu = rng.uniform(0, 2)
        lam = rng.uniform(0.1, 2)
        smooth = sigma_smooth_value(Y, X_RIM, p_L, mu, lam, 1e6, S)
        exact = sigma_value(Y, X_RIM, p_L, mu, lam, S)
        assert smooth == pytest.approx(exact, abs=1e-9)


def test_sigma_smooth_degenerate_weight():
    p_L = np.array([-1.0, 0.0])
    val = sigma_smooth_value(Y, X_RIM, p_L, 0.0, 0.0, 96.0, S)
    assert val == pytest.approx(K * 1.0, rel=1e-12)


def test_sigma_smooth_on_the_rim_is_the_cap_k_sup_oracle():
    # on the rim ln(g/K) = ln(gamma/K), above the cap's band (ln 2) at every
    # gain A1 and the bench's sigma pairs draw, gamma >= 2.1 M/R1; so the
    # smoothed coefficient is K exactly, sigma_smooth_value is sigma_value's
    # closed form bit for bit, and its match with the coeff = K sup oracle
    # holds by construction
    rng = np.random.default_rng(7)
    for _ in range(300):
        ang, y = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-3.0, 3.0, 2)
        x = y + S.R1 * np.array([np.cos(ang), np.sin(ang)])
        q, nu, lam = rng.uniform(-3.0, 3.0, 2), rng.uniform(0.0, 3.0), rng.uniform(1e-3, 3.0)
        gamma = rng.uniform(2.1 * K, 200.0)
        assert _cone_terms(x - y, gamma, S)[0] == K
        smooth = sigma_smooth_value(y, x, q, nu, lam, gamma, S)
        assert smooth == sigma_value(y, x, q, nu, lam, S)
        assert smooth == pytest.approx(sigma_sup_oracle(q, nu, lam, x, y, S, coeff=K), abs=1e-9)


def one_node_cases():
    """(y, x, q, nu, r, gamma) nodes: seeded random ones near the rim, then
    each edge of sigma's float form."""
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(400):
        ang, y = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-3.0, 3.0, 2)
        rad = S.R1 * rng.choice([0.5, 0.85, 0.9, 0.95, 1.0, rng.uniform(0.8, 1.05)])
        x = y + rad * np.array([np.cos(ang), np.sin(ang)])
        r = 0.0 if rng.uniform() < 0.1 else rng.uniform(1e-3, 3.0)
        cases.append((y, x, rng.uniform(-3.0, 3.0, 2), rng.uniform(0.0, 3.0), r,
                      rng.uniform(1.01 * K, 40.0)))
    nan, rho = float("nan"), S.R1 * (1.0 - RIM_ACTIVITY_TOL)
    q1 = np.array([-1.0, 0.0])   # sigma_tilde = 1 on X_RIM at nu = 0
    cases += [(Y, X_RIM, np.array([1.0, 0.0]), 0.0, 1.0, 24.0),   # sigma_tilde < 0
              (Y, X_RIM, np.zeros(2), 0.0, 1.0, 24.0),            # sigma_tilde = +0.0
              (Y, X_RIM, np.zeros(2), -0.0, 1.0, 24.0),           # sigma_tilde = -0.0
              (Y, X_RIM, np.zeros(2), -0.0, 0.0, 24.0),
              (Y, X_RIM, q1, 0.0, 0.5 * K, 24.0),                 # z = K = 2r: the seam
              # on the seam too, where z^2/(4r) and z - r round apart
              (Y, X_RIM, np.array([-2.216000794646838, 0.0]), 0.0, 0.75 * 2.216000794646838, 24.0),
              (Y, X_RIM, q1, 0.0, 0.0, 24.0), (Y, X_RIM, q1, 0.0, -0.0, 24.0)]
    for i in range(2):                                            # a NaN in each argument
        for which in range(3):
            node = [Y.copy(), X_RIM.copy(), q1.copy()]
            node[which][i] = nan
            cases.append((*node, 0.3, 0.5, 24.0))
    cases += [(Y, X_RIM, q1, nan, 0.5, 24.0), (Y, X_RIM, q1, 0.3, nan, 24.0)]
    for edge in (np.nextafter(rho, 0.0), rho, np.nextafter(rho, 2.0)):   # the contact radius
        cases.append((Y, np.array([edge, 0.0]), q1, 0.3, 0.5, 24.0))
    for ell in (-1.0, 0.0, 0.5, 1.0):                              # the cap's three bands
        gamma = 24.0
        rad = np.sqrt(S.R1 ** 2 + 2.0 * (ell - np.log(gamma / K)) / gamma)
        cases.append((Y, np.array([0.0, rad]), np.array([0.0, -2.0]), 0.1, 0.7, gamma))
    return cases


def test_one_node_sigma_is_the_array_one_bitwise(monkeypatch):
    # one node is computed in floats and a one-row batch by NumPy: the same
    # bits, NaNs and signed zeros included, and a float for one node
    cases = one_node_cases()
    ells = [0.5 * g * (float(np.sum((x - y) ** 2)) - S.R1 ** 2) + np.log(g / K)
            for y, x, *_, g in cases]
    assert min(ells) < -CAP_BAND and max(ells) > CAP_BAND
    assert sum(abs(ell) < CAP_BAND for ell in ells) >= 20

    def rows(y, x, q, nu, r, gamma):
        return (sigma_value(y[None], x[None], q[None], np.array([nu]), r, S)[0],
                smooth_sigma_rows(y[None], x[None], q[None], np.array([nu]), r, gamma)[0])

    batch = [rows(*node) for node in cases]
    assert sum(np.isnan(pair).any() for pair in batch) == 8
    rho = S.R1 * (1.0 - RIM_ACTIVITY_TOL)
    edge = [pair[0] > 0.0 for (_, x, *_), pair in zip(cases, batch)
            if x[1] == 0.0 and abs(x[0] - rho) < 1e-15]
    assert edge == [False, True, True]   # one ulp inside the contact radius is no contact

    def refusal(name, *node):
        # sigma_value refuses r, sigma_smooth_value lambda_bar
        with pytest.raises(ValueError) as err:
            sigma_value(*node, S) if name == "r" else sigma_smooth_value(*node, 24.0, S)
        return str(err.value)

    # the NumPy form's messages; the smoothed sigma's one form names lambda_bar
    refused = {(r, name): refusal("r", Y[None], X_RIM[None], Y[None], np.zeros(1), r)
               .replace("r must", f"{name} must", 1)
               for r, name in ((-1.0, "r"), (-1e-3, "r"), (-1.0, "lambda_bar"))}

    def no_array_form(*args, **kwargs):
        raise AssertionError("a one-node call reached the NumPy form")

    monkeypatch.setattr(certificate, "_sigma", no_array_form)
    for (y, x, q, nu, r, gamma), pair in zip(cases, batch):
        ones = (sigma_value(y, x, q, float(nu), r, S),
                sigma_smooth_value(y, x, q, float(nu), r, gamma, S))
        assert all(type(v) is float for v in ones)
        assert np.array(ones).tobytes() == np.array(pair).tobytes(), (y, x, q, nu, r, gamma)
    for (r, name), message in refused.items():
        assert message.startswith(f"{name} must be >= 0")
        for x in (X_RIM, 0.5 * X_RIM):   # refused off contact too, as by the NumPy form
            assert refusal(name, Y, x, Y, 0.0, r) == message


def test_one_node_sigma_takes_lists_tuples_and_int_and_float32_arrays(monkeypatch):
    # y, x and q_L given as lists, tuples, int arrays or float32 arrays are
    # one node too: each gives, as a float, the value of the float64 arrays
    # they convert to, which is the NumPy one-row batch's, bitwise
    rng = np.random.default_rng(3)
    forms = {"list": lambda a: a.tolist(), "tuple": lambda a: tuple(a.tolist()),
             "int": lambda a: a.astype(np.int64), "float32": lambda a: a.astype(np.float32)}
    cases = []
    for k, (y, x, q, nu, r, gamma) in enumerate(one_node_cases()[:400:10]):
        # integer nodes: on the rim, inside it, at its center and outside it
        y_int = rng.integers(-3, 4, 2)
        x_int, q_int = y_int + [(1, 0), (0, -1), (0, 0), (1, 1)][k % 4], rng.integers(-3, 4, 2)
        for name, form in forms.items():
            node = (y_int, x_int, q_int) if name == "int" else (y, x, q)
            cases.append((name, tuple(form(a) for a in node), float(nu), float(r), gamma))
    assert {name for name, *_ in cases} == set(forms)

    def f64(node):
        return tuple(np.asarray(a, dtype=np.float64) for a in node)

    want = []
    for _, node, nu, r, gamma in cases:
        y, x, q = f64(node)
        want.append((sigma_value(y[None], x[None], q[None], np.array([nu]), r, S)[0],
                     smooth_sigma_rows(y[None], x[None], q[None], np.array([nu]), r, gamma)[0]))

    def no_array_form(*args, **kwargs):
        raise AssertionError("a one-node call reached the NumPy form")

    monkeypatch.setattr(certificate, "_sigma", no_array_form)
    for (name, node, nu, r, gamma), pair in zip(cases, want):
        got = (sigma_value(*node, nu, r, S), sigma_smooth_value(*node, nu, r, gamma, S))
        same = (sigma_value(*f64(node), nu, r, S), sigma_smooth_value(*f64(node), nu, r, gamma, S))
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(same).tobytes() == np.array(pair).tobytes(), (
            name, node, nu, r, gamma)


def test_sigma_smooth_value_refuses_node_arrays():
    # one node only: a batch, a row of one node and a nu array are refused,
    # naming the shapes they came in
    q = np.array([-1.0, 0.0])
    calls = {"ndarray (3, 2), ndarray (3, 2), ndarray (3, 2), ndarray (3,), float ()":
             (np.zeros((3, 2)), np.ones((3, 2)), np.ones((3, 2)), np.zeros(3), 0.5),
             "ndarray (1, 2), ndarray (1, 2), ndarray (1, 2), float (), float ()":
             (Y[None], X_RIM[None], q[None], 0.0, 0.5),
             "ndarray (2,), ndarray (2,), ndarray (2,), ndarray (1,), float ()":
             (Y, X_RIM, q, np.zeros(1), 0.5)}
    for shapes, node in calls.items():
        with pytest.raises(ValueError, match="takes one node") as err:
            sigma_smooth_value(*node, 24.0, S)
        assert str(err.value).endswith(f"got {shapes}")
    assert sigma_smooth_value(Y, X_RIM, q, 0.0, 0.5, 24.0, S) == K - 0.5   # z - r


def test_sigma_smooth_value_rejects_gamma_at_or_below_cone_gain():
    # M/R1 = K = 1.5 on the corridor; NaN and infinity are no gain either
    for gamma in (1.0, K, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="M/R1"):
            sigma_smooth_value(Y, X_RIM, np.array([-1.0, 0.0]), 0.0, 1.0, gamma, S)


# ---------------------------------------------------------------- Hamiltonian
def test_hamiltonian_zero_data():
    val = hamiltonian_upper(Y, np.array([0.3, 0.0]), np.zeros(2), np.zeros(2),
                            np.zeros(2), np.zeros(2), 0.0, 0.0, 0.0, S)
    assert val == 0.0


def test_hamiltonian_interior_expansion():
    y = np.array([1.0, 2.0])
    x = np.array([1.2, 2.1])  # interior contact: sigma = 0
    v = np.array([0.5, -0.1])
    u = np.array([0.2, 0.3])
    q_H = np.array([0.7, -0.4])
    q_L = np.array([-0.3, 0.9])
    nu_H, nu_L, r = 0.4, 0.6, 0.8
    d = x - y
    expected = (np.dot(q_H - nu_H * (y - S.q0_arr), v) + nu_L * np.dot(d, v)
                - r * np.dot(u, u) + np.dot(q_L - nu_L * d, u))
    got = hamiltonian_upper(y, x, v, u, q_H, q_L, nu_H, nu_L, r, S)
    assert got == pytest.approx(expected, rel=1e-12)


def test_hamiltonian_constant_for_constant_synthetic_data():
    # a frozen arc with frozen multipliers must report identical values at
    # every node: stdev exactly zero
    vals = [hamiltonian_upper(Y, np.array([0.4, 0.0]), np.array([0.3, 0.0]),
                              np.array([0.1, 0.0]), np.array([1.0, 0.0]),
                              np.array([0.2, 0.0]), 0.1, 0.2, 0.3, S)
            for _ in range(5)]
    assert np.std(vals) == 0.0


def test_hamiltonian_contact_term_activates_on_rim():
    q_L = np.array([-2.0, 0.0])
    off = hamiltonian_upper(Y, np.array([0.5, 0.0]), np.zeros(2), np.zeros(2),
                            np.zeros(2), q_L, 0.0, 0.0, 0.5, S)
    on = hamiltonian_upper(Y, X_RIM, np.zeros(2), np.zeros(2),
                           np.zeros(2), q_L, 0.0, 0.0, 0.5, S)
    assert off == 0.0
    assert on > 0.0


def test_node_batches_equal_per_node_calls():
    # one evaluator serves a single node and a whole arc: same numbers
    rng = np.random.default_rng(5)
    n = 30
    ang = rng.uniform(0, 2 * np.pi, n)
    rad = rng.choice([0.5, 0.95, 1.0], n) * S.R1  # inside, near and on the rim
    y = rng.uniform(-1, 1, (n, 2))
    x = y + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    v, u, q_H, q_L = rng.normal(size=(4, n, 2))
    nu_H, nu_L = rng.uniform(0, 1, (2, n))
    r = 0.3
    gamma = 4.0  # above M/R1 = 1.5, so the gain is well below the cap inside the disk
    sig = sigma_value(y, x, q_L, nu_L, r, S)
    smo = smooth_sigma_rows(y, x, q_L, nu_L, r, gamma)
    ham = hamiltonian_upper(y, x, v, u, q_H, q_L, nu_H, nu_L, r, S)
    sig_i = [sigma_value(y[i], x[i], q_L[i], nu_L[i], r, S) for i in range(n)]
    smo_i = [sigma_smooth_value(y[i], x[i], q_L[i], nu_L[i], r, gamma, S) for i in range(n)]
    ham_i = [hamiltonian_upper(y[i], x[i], v[i], u[i], q_H[i], q_L[i], nu_H[i], nu_L[i], r, S)
             for i in range(n)]
    assert all(type(val) is float for val in sig_i + smo_i + ham_i)
    assert np.count_nonzero(sig) > 0
    # inside, near and on the rim, some nodes have a nonzero smoothed value
    for radius in (0.5, 0.95, 1.0):
        assert np.count_nonzero(smo[rad == radius * S.R1]) > 0
    np.testing.assert_array_equal(sig, sig_i)
    np.testing.assert_array_equal(smo, smo_i)
    np.testing.assert_array_equal(ham, ham_i)


def test_adjoint_rhs_is_the_hamiltonians_gradient_off_contact():
    # dq_L/dt = -dH/dx and dq_H/dt = -dH/dy, where sigma is gated off: at
    # nodes inside the rim's activity band both right-hand sides are central
    # differences of the Hamiltonian, also where the drift's clip at M1 is
    # active and df/dx is not A
    s = straight_corridor(drift=DriftSpec(name="affine", A=(0.3, 0.2, -0.4, 0.1)), M1=0.9)
    rng = np.random.default_rng(11)
    n = 40
    ang = rng.uniform(0, 2 * np.pi, n)
    y = rng.uniform(-3.0, 3.0, (n, 2))
    x = y + rng.uniform(0.0, 0.8 * s.R1, (n, 1)) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    v, u, q_H, q_L = rng.uniform(-1.0, 1.0, (4, n, 2))
    nu_H, nu_L = rng.uniform(0.0, 1.0, (2, n))
    r = 0.3
    clipped = np.linalg.norm(x @ s.drift.matrix(2).T + u, axis=1) > s.M1
    assert 5 < clipped.sum() < n - 5
    rhs_L, rhs_H = certificate._adjoint_rhs(SimpleNamespace(x=x, y=y), SimpleNamespace(u=u, v=v),
                                            q_L, nu_H, nu_L, r, s)
    units = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for i in range(n):
        args = (v[i], u[i], q_H[i], q_L[i], nu_H[i], nu_L[i], r, s)
        in_x = fd_check(lambda p: hamiltonian_upper(y[i], p, *args), rhs_L[i], x[i], units)
        in_y = fd_check(lambda p: hamiltonian_upper(p, x[i], *args), rhs_H[i], y[i], units)
        assert in_x <= 1e-6 and in_y <= 1e-6, (i, clipped[i], in_x, in_y)


# ---------------------------------------------------------------- corridor report
def test_certificate_json_verdicts_are_bools(corridor_certificate):
    conds = corridor_certificate["report"].conditions
    for c in conds.values():
        assert type(c["ok"]) is bool
        assert type(c["residual"]) is float and type(c["tol"]) is float
        assert type(c.get("node", 0)) is int
    data = json.loads(json.dumps(corridor_certificate["report"].to_dict(), default=float))
    assert all(isinstance(c["ok"], bool) for c in data["conditions"].values())


def _conditions(sol, s, m):
    return certify(sol, s, multipliers=m).conditions


def _bumped(arr, i, delta):
    out = arr.copy()
    out[i] = out[i] + delta
    return out


def _unit(w):
    return w / np.linalg.norm(w)


def _perp(w):
    return _unit(np.array([-w[1], w[0]]))


NODE = 20  # an interior node of the boundary ride, with v on the speed ball

# each mutation of the fitted candidate must make its own check fail
MUTATIONS = {
    "nontriviality": lambda sol, m: replace(
        m, q_H=2 * m.q_H, q_L=2 * m.q_L, nu_H=2 * m.nu_H, nu_L=2 * m.nu_L,
        lam=2 * m.lam, r=2 * m.r),
    "adjoint": lambda sol, m: replace(m, q_L=_bumped(m.q_L, NODE, 0.1)),
    "boundary": lambda sol, m: replace(m, q_L=_bumped(
        m.q_L, -1, 1e-3 * _perp(sol.trajectory.x[-1] - sol.trajectory.y[-1]))),
    "conservation": lambda sol, m: replace(m, q_H=_bumped(
        m.q_H, NODE, 0.1 * _unit(sol.lower.decision.controls.v[NODE]))),
    "max_plan": lambda sol, m: replace(m, q_H=_bumped(
        m.q_H, NODE, 0.1 * _perp(sol.lower.decision.controls.v[NODE]))),
    # turns the maximiser of <psi, u> - r|u|^2 off u: the corridor reads
    # 9.9e-3 against the gate of 1e-4, and 1.7e-21 unmutated
    "max_control": lambda sol, m: replace(m, q_L=_bumped(
        m.q_L, NODE, 1e-2 * _perp(sol.lower.decision.controls.u[NODE]))),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_check_fails_on_perturbed_multipliers(corridor_run, corridor_scenario,
                                              corridor_certificate, name):
    sol, s = corridor_run["solution"], corridor_scenario
    m = corridor_certificate["report"].multipliers
    assert _conditions(sol, s, m)[name]["ok"] is True
    assert _conditions(sol, s, MUTATIONS[name](sol, m))[name]["ok"] is False


def test_measures_pass_on_monotone_path_and_fail_on_one_raised_node(
        corridor_run, corridor_scenario, corridor_certificate):
    sol, s = corridor_run["solution"], corridor_scenario
    m = corridor_certificate["report"].multipliers
    nu = np.maximum(np.minimum.accumulate(m.nu_L), 0.0)
    assert _conditions(sol, s, replace(m, nu_L=nu))["measures"]["ok"] is True
    nu[NODE] = nu[NODE - 1] + 1e-3
    assert _conditions(sol, s, replace(m, nu_L=nu))["measures"]["ok"] is False


@pytest.mark.parametrize("factor", [2.0, 10.0, 20.0])
def test_value_selection_fails_on_scaled_lower_weights(
        corridor_run, corridor_scenario, corridor_certificate, factor):
    # the check is fd_check's relative error: against its gate of 5e-2 the
    # corridor reads 2.5e-5 unscaled, and 0.278, 0.776 and 0.879 with eta
    # scaled by 2, 10 and 20
    sol = corridor_run["solution"]
    assert corridor_certificate["report"].conditions["value_selection"]["ok"] is True
    bad = replace(sol, lower=replace(sol.lower, eta=factor * sol.lower.eta))
    rep = certify(bad, corridor_scenario, multipliers=corridor_certificate["report"].multipliers)
    assert rep.conditions["value_selection"]["ok"] is False


def test_corridor_verdicts_are_pinned(corridor_certificate):
    # at N = 40 (conftest options) only measures fails, at 0.333 against 1e-6;
    # feasibility passes with max h_lower 7.7e-14 (gate 1e-7), max h_upper
    # -8.58 and the plan ending 6.7e-16 past its allowed miss (gate 1e-9)
    conds = corridor_certificate["report"].conditions
    assert {name: c["ok"] for name, c in conds.items()} == {
        "feasibility": True, "nontriviality": True, "measures": False, "adjoint": True,
        "boundary": True, "conservation": True, "max_control": True, "max_plan": True,
        "value_selection": True}
    assert list(conds["feasibility"]["detail"]) == ["max_h_lower", "max_h_upper",
                                                    "terminal_miss"]


# the lower controls of F7 in ROADMAP.md, each re-integrated at the solve's gain
LOWER_MUTATIONS = {
    "u=0": lambda cp: replace(cp, u=0.0 * cp.u),
    "u0=0": lambda cp: replace(cp, u0=0.0 * cp.u0),
    "u*0.5": lambda cp: replace(cp, u=0.5 * cp.u),
    "u0*0.5": lambda cp: replace(cp, u0=0.5 * cp.u0),
}


@pytest.mark.parametrize("name", LOWER_MUTATIONS)
def test_feasibility_fails_on_mutated_lower_controls(corridor_run, corridor_scenario, name):
    # refitted, each fails no condition but feasibility, value_selection and
    # measures, which the solution fails too; their swept points leave the
    # disk by max h_lower 0.542, 11.25, 0.246 and 1.219
    sol, s = corridor_run["solution"], corridor_scenario
    cp = LOWER_MUTATIONS[name](sol.lower.decision.controls)
    tr = integrate_smooth(cp, sol.lower.decision.x_init, sol.lower.gamma, s)
    lower = replace(sol.lower, decision=replace(sol.lower.decision, controls=cp))
    cond = certify(replace(sol, lower=lower, trajectory=tr), s).conditions["feasibility"]
    assert cond["ok"] is False
    assert cond["detail"]["max_h_lower"] > solver.LOWER_VIOLATION_TOL


def test_vectorized_residuals_match_per_node_loops(corridor_run, corridor_scenario,
                                                   corridor_certificate):
    # reference: the per-node loops the adjoint defect and the control gap
    # were first written as; same arithmetic per node, so equal to roundoff
    from bisweep.certificate import _adjoint_defect, _control_gap
    from bisweep.dynamics import drift

    s, sol = corridor_scenario, corridor_run["solution"]
    m = corridor_certificate["report"].multipliers
    tr, cp = sol.trajectory, sol.lower.decision.controls
    k, A = s.cone_gain, s.drift.matrix(s.dim)
    defect, gap = 0.0, 0.0
    for j in range(tr.grid.n_nodes):
        d = tr.x[j] - tr.y[j]
        f = drift(tr.x[j], cp.u[j], s)
        st = m.nu_L[j] * s.R1 ** 2 - float(m.q_L[j] @ d)
        if np.linalg.norm(d) < 0.9 * s.R1 or st <= 0.0:
            slope = 0.0
        else:
            slope = k * k * st / (2.0 * m.r) if k * st <= 2.0 * m.r else k
        psi = m.q_L[j] - m.nu_L[j] * d
        u_star = psi / np.linalg.norm(psi) * min(np.linalg.norm(psi) / (2.0 * m.r), s.u_bound)
        gap = max(gap, float(psi @ u_star - m.r * u_star @ u_star
                             - (psi @ cp.u[j] - m.r * cp.u[j] @ cp.u[j])))
        if j == 0:
            continue
        dt = tr.grid.dt * cp.omega[j]
        rhs_L = -m.nu_L[j] * f + A.T @ psi + m.nu_L[j] * cp.v[j] - slope * m.q_L[j]
        rhs_H = -(m.nu_H[j] + m.nu_L[j]) * cp.v[j] + m.nu_L[j] * f + slope * m.q_L[j]
        defect = max(defect, np.abs((m.q_L[j] - m.q_L[j - 1]) / dt + rhs_L).max(),
                     np.abs((m.q_H[j] - m.q_H[j - 1]) / dt + rhs_H).max())
    assert _adjoint_defect(tr, cp, m, s) == pytest.approx(defect, rel=1e-12)
    assert _control_gap(tr, cp, m, s)[0] == pytest.approx(gap, rel=1e-9, abs=1e-15)


def test_fixed_candidate_gates_sigma_by_the_evaluated_trajectory(
        corridor_run, corridor_scenario, corridor_certificate):
    # sigma's contact gate is read from the trajectory being certified, not
    # from the one the candidate was fitted on: pull x to 0.8 R1 of y at the
    # contact nodes where the candidate's sigma_tilde > 0, and sigma there
    # leaves the Hamiltonian whose mean the conservation check reports
    s, sol = corridor_scenario, corridor_run["solution"]
    m = corridor_certificate["report"].multipliers
    tr, cp = sol.trajectory, sol.lower.decision.controls
    d = tr.x - tr.y
    st = m.nu_L * s.R1 ** 2 - np.sum(m.q_L * d, axis=1)
    pulled = (np.linalg.norm(d, axis=1) >= 0.9 * s.R1) & (st > 0.0)
    assert pulled.sum() >= 5
    x = np.where(pulled[:, None], tr.y + 0.8 * s.R1 * d / np.linalg.norm(d, axis=1)[:, None],
                 tr.x)
    moved = replace(sol, trajectory=replace(tr, x=x))
    fitted = sigma_value(tr.y, tr.x, m.q_L, m.nu_L, m.r, s)
    assert np.all(fitted[pulled] > 0.0)
    assert not np.any(sigma_value(tr.y, x, m.q_L, m.nu_L, m.r, s)[pulled])
    h = hamiltonian_upper(tr.y, x, cp.v, cp.u, m.q_H, m.q_L, m.nu_H, m.nu_L, m.r, s)
    conds = _conditions(moved, s, m)
    assert conds["conservation"]["mean"] == float(np.mean(h))


# ---------------------------------------------------------------- NaN residuals
def test_worst_node_of_a_nan_residual_is_nan_and_named():
    assert _worst(np.array([0.0, -1.0])) == (0.0, 0)
    res, node = _worst(np.array([np.nan, 1e-3]))
    assert np.isnan(res) and node == 0
    res, node = _worst(np.array([1e-3, 2e-3, np.nan]))
    assert np.isnan(res) and node == 2


@pytest.mark.parametrize("name, field", [("max_control", "q_L"), ("max_plan", "q_H")])
def test_nan_node_fails_its_maximum_condition(corridor_run, corridor_scenario,
                                              corridor_certificate, name, field):
    sol, m = corridor_run["solution"], corridor_certificate["report"].multipliers
    bad = getattr(m, field).copy()
    bad[5] = np.nan
    cond = _conditions(sol, corridor_scenario, replace(m, **{field: bad}))[name]
    assert cond["ok"] is False
    assert np.isnan(cond["residual"]) and cond["node"] == 5


def test_nan_terminal_adjoint_fails_boundary_and_adjoint(corridor_run, corridor_scenario,
                                                         corridor_certificate):
    sol, m = corridor_run["solution"], corridor_certificate["report"].multipliers
    q_H = m.q_H.copy()
    q_H[-1] = np.nan
    conds = _conditions(sol, corridor_scenario, replace(m, q_H=q_H))
    assert np.isnan(conds["boundary"]["detail"]["q_H_terminal"])
    for name in ("boundary", "adjoint"):
        assert np.isnan(conds[name]["residual"]) and conds[name]["ok"] is False


def test_nan_measure_node_gives_a_nan_measures_residual(corridor_run, corridor_scenario,
                                                        corridor_certificate):
    sol, m = corridor_run["solution"], corridor_certificate["report"].multipliers
    nu_L = np.maximum(np.minimum.accumulate(m.nu_L), 0.0)
    nu_L[NODE] = np.nan
    cond = _conditions(sol, corridor_scenario, replace(m, nu_L=nu_L))["measures"]
    assert np.isnan(cond["residual"]) and cond["ok"] is False


def test_nan_difference_quotient_fails_value_selection(corridor_run, corridor_scenario,
                                                       corridor_certificate, monkeypatch):
    # every perturbed re-solve converges to a NaN value, so both quotients
    # are NaN
    lower = corridor_run["solution"].lower
    monkeypatch.setattr(solver, "solve_lower",
                        lambda *args, **kwargs: replace(lower, value=np.nan))
    rep = certify(corridor_run["solution"], corridor_scenario,
                  multipliers=corridor_certificate["report"].multipliers)
    cond = rep.conditions["value_selection"]
    assert np.isnan(cond["residual"]) and cond["ok"] is False


# ---------------------------------------------------------------- the fit
AFFINE = straight_corridor(drift=DriftSpec(name="affine", A=((0.0, 0.05), (-0.05, 0.0))),
                           K_f=0.05, M1=1.2)  # A4's affine drift


@pytest.fixture(scope="module")
def affine_run():
    return solve_bilevel(AFFINE, opts=SolverOptions(n_intervals=40, seeds=1, screen_iters=3))


def test_affine_instance_verdicts_are_pinned(affine_run):
    # known defects of A4's affine-drift instance at N = 40 (conftest
    # options; residuals at the default thread count of a 2-core host):
    # - measures 0.0997 against 1e-6;
    # - boundary 7.5e-4 against 1e-6: q_L_terminal 7.5e-4, q_L_initial
    #   4.3e-4, q_H_terminal 0;
    # - max_plan 0.88 against 5e-2, worst at the last node.
    # The other six pass: feasibility (max h_lower 7.6e-13, terminal miss
    # 6.7e-16), nontriviality 1.1e-16, adjoint 3.1e-2 (gate 0.25),
    # conservation 2.3e-4 (gate 1.2e-3), max_control 1.4e-17 and
    # value_selection 4.4e-5
    conds = certify(affine_run, AFFINE).conditions
    assert {name: c["ok"] for name, c in conds.items()} == {
        "feasibility": True, "nontriviality": True, "measures": False, "adjoint": True,
        "boundary": False, "conservation": True, "max_control": True, "max_plan": False,
        "value_selection": True}


def test_wide_arc_instance_verdicts_are_pinned():
    # identity drift with asymmetric geometry at N = 40 (conftest options):
    # only measures fails, at 0.340 against 1e-6; the other eight pass
    # (feasibility's max h_lower 4.4e-16 and terminal miss 2.3e-16; adjoint
    # 1.2e-4, conservation 6.3e-7, max_plan 1.2e-13 and value_selection
    # 2.6e-5 the largest of the rest)
    s = Scenario(y0=(2.0, -5.0), exit=ExitArc(-0.3, 0.4))
    sol = solve_bilevel(s, opts=SolverOptions(n_intervals=40, seeds=1, screen_iters=3))
    conds = certify(sol, s).conditions
    assert {name: c["ok"] for name, c in conds.items()} == {
        "feasibility": True, "nontriviality": True, "measures": False, "adjoint": True,
        "boundary": True, "conservation": True, "max_control": True, "max_plan": True,
        "value_selection": True}


@pytest.fixture(params=["corridor", "affine"])
def solved(request):
    if request.param == "affine":
        return request.getfixturevalue("affine_run"), AFFINE
    return (request.getfixturevalue("corridor_run")["solution"],
            request.getfixturevalue("corridor_scenario"))


def test_every_lower_path_solve_is_stationary(solved):
    # under the banded cap every gamma-path solve, on the corridor and under
    # affine drift at N = 40, converges at a KKT residual within
    # LOWER_KKT_TOL (at most 3.8e-6 and 2.5e-6 measured; 0.18 and 0.22 under
    # the earlier min cap)
    sol, _ = solved
    assert [h["converged"] for h in sol.history] == [True] * 6
    assert max(h["kkt_residual"] for h in sol.history) <= solver.LOWER_KKT_TOL


def _central_jacobian(model, p, h):
    return np.stack([(model.residuals(p + h * e) - model.residuals(p - h * e)) / (2 * h)
                     for e in np.eye(p.size)], axis=1)


def _branches(model, p):
    """Counts of sigma's quadratic and linear contact nodes and of the active
    r_mono rows at p, and the distance of each to its seam."""
    s, r, k = model.s, model.r, model.s.cone_gain
    nu = p[model.slots]
    st = _sigma_tilde(model.g + nu[:, None] * model.d, nu, model.d, s)[certificate._in_contact(
        model.d, s)]
    rises = np.diff(nu)[np.diff(model.slots) > 0]   # within a slot nu cannot rise
    counts = {"quadratic": int(np.sum((st > 0) & (k * st <= 2 * r))),
              "linear": int(np.sum(k * st > 2 * r)), "rising": int(np.sum(rises > 0))}
    margin = min(np.abs(st).min(), np.abs(st - 2 * r / k).min(), np.abs(rises).min())
    return counts, margin


def test_jacobian_matches_central_differences(solved):
    # sigma and r_mono are piecewise quadratic in nu, so away from their
    # seams central differences are exact but for roundoff
    model, h = _MultiplierModel(*solved), 1e-3
    rng = np.random.default_rng(5)
    # sigma_tilde = nu*dst - <2*r*u, x-y> with dst = R1^2 - |x-y|^2: plant
    # the contact node of the largest dst at 1.5 times sigma's seam 2r/k
    s, d = model.s, model.d
    dst = np.where(certificate._in_contact(d, s), s.R1 ** 2 - np.sum(d * d, axis=1), -np.inf)
    lin = np.argmax(dst)
    planted = rng.normal(size=model.n_params)
    planted[model.slots[lin]] = (3.0 * model.r / s.cone_gain + model.g[lin] @ d[lin]) / dst[lin]
    fitted = least_squares(model.residuals, np.zeros(model.n_params), method="lm",
                           jac=model.jacobian).x
    for p in (fitted, rng.normal(size=model.n_params), planted):
        counts, margin = _branches(model, p)
        assert counts["quadratic"] > 0 and counts["rising"] > 0 and margin > 2 * h, counts
        J, fd = model.jacobian(p), _central_jacobian(model, p, h)
        np.testing.assert_allclose(J, fd, rtol=0, atol=1e-5 * np.abs(fd).max())
    assert _branches(model, planted)[0]["linear"] > 0
    # a straight plan moves every Hamiltonian value alike through nu_T,
    # which the conservation rows do not see; a turning plan shows it
    ang = np.linspace(0.0, 0.5, model.slots.size)
    rot = np.stack([np.cos(ang), -np.sin(ang), np.sin(ang), np.cos(ang)], 1).reshape(-1, 2, 2)
    model.cp = replace(model.cp, v=np.einsum("nij,nj->ni", rot, model.cp.v))
    J, fd = model.jacobian(planted), _central_jacobian(model, planted, h)
    np.testing.assert_allclose(J, fd, rtol=0, atol=1e-5 * np.abs(fd).max())
    # at p = 0 every r_mono row sits on its seam, where the Jacobian takes
    # the flat side; every other row is smooth there
    p0 = np.zeros(model.n_params)
    J, fd = model.jacobian(p0), _central_jacobian(model, p0, h)
    mono = slice(J.shape[0] - (model.slots.size - 1), None)
    assert not J[mono].any()
    np.testing.assert_allclose(J[:mono.start], fd[:mono.start], rtol=0,
                               atol=1e-5 * np.abs(fd).max())


def test_extract_multipliers_equals_plain_least_squares(solved):
    # the fit is scipy's Levenberg-Marquardt on the model's residuals and
    # exact Jacobian and nothing else, so its path is the plain call's, bit
    # for bit, and its record is that call's
    model = _MultiplierModel(*solved)
    plain = least_squares(model.residuals, np.zeros(model.n_params), method="lm",
                          jac=model.jacobian, max_nfev=4000)
    want, (got, fit) = model.multipliers(plain.x), extract_multipliers(*solved)
    for f in fields(GamkrelidzeMultipliers):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
    assert fit == {"nfev": plain.nfev, "status": plain.status, "cost": plain.cost}


def test_fit_evaluates_each_jacobian_in_one_call(corridor_run, corridor_scenario, monkeypatch):
    # each Jacobian is one call of the exact ``jacobian`` and each residual
    # vector one call at one point; the corridor fit took 32 residual
    # evaluations under forward differences, and 19 on the exact Jacobian
    shapes = {"residuals": [], "jacobian": []}
    for name, calls in shapes.items():
        def counted(self, p, real=getattr(_MultiplierModel, name), calls=calls):
            calls.append(np.shape(p))
            return real(self, p)

        monkeypatch.setattr(_MultiplierModel, name, counted)
    _, fit = extract_multipliers(corridor_run["solution"], corridor_scenario)
    n_params = _MultiplierModel(corridor_run["solution"], corridor_scenario).n_params
    assert set(shapes["residuals"]) == set(shapes["jacobian"]) == {(n_params,)}
    assert fit["nfev"] <= 22
    assert len(shapes["residuals"]) <= fit["nfev"] + 1
    assert len(shapes["jacobian"]) <= len(shapes["residuals"]) + 1


def test_certificate_records_its_fit(corridor_run, corridor_scenario, corridor_certificate):
    # a fitted report carries the fit's nfev, status and cost and prints
    # them on one line; a fixed candidate has none
    rep = corridor_certificate["report"]
    assert set(rep.to_dict()["fit"]) == {"nfev", "status", "cost"}
    assert rep.summary_lines()[-1].split() == [
        "fit:", f"nfev={rep.fit['nfev']}", f"status={rep.fit['status']}",
        f"cost={rep.fit['cost']:.3e}"]
    fixed = certify(corridor_run["solution"], corridor_scenario, multipliers=rep.multipliers)
    assert fixed.to_dict()["fit"] is None


def test_mirrored_re_solves_reach_the_nominal_start_value(solved, monkeypatch):
    # each minus-side re-solve of value_selection starts from the mirror of
    # its plus side; from the solution's own decision it reaches the same
    # phi in more iterations (corridor: 5 and 4 against 8 and 8)
    sol, s = solved
    real, calls = solver.solve_lower, []

    def recorded(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(solver, "solve_lower", recorded)
    cp = sol.lower.decision.controls
    zeta = solver.value_subgradient(cp.omega, cp.v, sol.lower, s)
    residual, records = certificate._value_selection_residual(sol, zeta, s)
    assert residual <= certificate.TOLERANCES["value_selection"]
    assert [r["start"] for r in records] == ["nominal", "mirrored"] * 2
    for (args, out), rec in zip(calls, records):
        assert rec["converged"] and rec["iterations"] == out.status["iterations"]
        if rec["start"] == "mirrored":
            nominal = real(*args, warm=sol.lower)
            assert abs(out.value - nominal.value) <= 1e-10
            assert rec["iterations"] < nominal.status["iterations"]


def test_a_non_converged_re_solve_fails_value_selection(corridor_run, corridor_scenario,
                                                        corridor_certificate, monkeypatch):
    # the third re-solve reports no convergence: its phi is NaN, so is the
    # residual, and every re-solve is in the detail
    real, seen = solver.solve_lower, []

    def third_fails(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out)
        if len(seen) == 3:
            return replace(out, status={**out.status, "converged": False})
        return out

    monkeypatch.setattr(solver, "solve_lower", third_fails)
    rep = certify(corridor_run["solution"], corridor_scenario,
                  multipliers=corridor_certificate["report"].multipliers)
    cond = rep.conditions["value_selection"]
    assert np.isnan(cond["residual"]) and cond["ok"] is False
    assert [r["converged"] for r in cond["detail"]["re_solves"]] == [True, True, False, True]
    assert set(cond["detail"]["re_solves"][0]) == {"start", "iterations", "exit_status",
                                                   "kkt_residual", "converged"}
