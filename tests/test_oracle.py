"""Brute-force references and finite-difference checking utilities."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bisweep.oracle as oracle
from bisweep.geometry import DriftSpec, straight_corridor, target_distance
from bisweep.oracle import (
    SIGMA_U0,
    SIGMA_U0_SQ,
    EnumSpec,
    OracleInfeasibleError,
    _distinct_points,
    _max_h_lower,
    _plan_centers,
    _product_rows,
    _x_init_grid,
    brute_bilevel,
    brute_lower,
    fd_check,
    sigma_sup_oracle,
)

S = straight_corridor()


# ---------------------------------------------------------------- enum budget
def test_enum_spec_rejects_oversized_grids():
    with pytest.raises(ValueError):
        EnumSpec(n_intervals=9)
    with pytest.raises(ValueError):
        EnumSpec(levels_per_control=7)


@pytest.mark.parametrize("field, value", [
    ("n_intervals", 2.5), ("levels_per_control", True), ("x_init_points", 2.5),
    ("x_init_points", 4), ("x_init_points", 0),
    ("omega_max", 0.0), ("omega_max", np.inf), ("target_tol", np.nan)])
def test_enum_spec_refuses_bad_fields(field, value):
    with pytest.raises(ValueError, match=field):
        EnumSpec(**{field: value})


@pytest.mark.parametrize("count", [1, 3, 9, 17])
def test_x_init_points_is_the_number_of_initial_points(count):
    pts = _x_init_grid(S, count)
    assert pts.shape == (count, 2)
    assert np.array_equal(pts[0], S.y0_arr)
    assert np.all(np.linalg.norm(pts - S.y0_arr, axis=1) <= S.R1 * (1 + 1e-12))


def test_enum_spec_has_no_feasibility_tolerance():
    # the enumerations count h <= oracle.FEAS_TOL as feasible
    with pytest.raises(TypeError, match="feas_tol"):
        EnumSpec(feas_tol=0)


def test_enum_spec_accepts_integers_for_float_fields():
    assert EnumSpec(omega_max=10, target_tol=0).omega_max == 10


def test_product_rows_are_uint8_in_itertools_order():
    rows = _product_rows(125, 2)
    assert rows.dtype == np.uint8
    assert np.array_equal(rows, list(itertools.product(range(125), repeat=2)))


def test_product_rows_refuse_levels_a_uint8_cannot_index():
    with pytest.raises(ValueError, match="levels"):
        _product_rows(257, 1)


# ---------------------------------------------------------------- brute lower
def test_brute_lower_stationary_instance_is_free():
    spec = EnumSpec(n_intervals=3, levels_per_control=3)
    n = spec.n_intervals
    val = brute_lower(np.ones(n + 1), np.zeros((n + 1, 2)), 12.0, spec, S)[0]
    assert val == pytest.approx(0.0, abs=1e-12)


def test_brute_lower_moving_set_needs_effort():
    spec = EnumSpec(n_intervals=4, levels_per_control=3)
    n = spec.n_intervals
    omega = np.full(n + 1, 4.0)
    v = np.tile([1.0, 0.0], (n + 1, 1))
    val = brute_lower(omega, v, 12.0, spec, S)[0]
    assert val > 0.1


def test_brute_lower_tiny_instance_regression():
    # frozen reference: N=2, 3 levels, set dragged right 4 units (farther than
    # its own diameter); enumerated once at build time and pinned
    spec = EnumSpec(n_intervals=2, levels_per_control=3)
    omega = np.full(3, 4.0)
    v = np.tile([1.0, 0.0], (3, 1))
    val = brute_lower(omega, v, 12.0, spec, S)[0]
    assert val == pytest.approx(1.0, abs=1e-12)


def simulated_blocks(monkeypatch):
    """Record the blocks of sequence rows brute_lower simulates, in turn."""
    seen = []
    fn = oracle._max_h_lower

    def wrapped(rows, *args):
        seen.append(rows.copy())
        return fn(rows, *args)
    monkeypatch.setattr(oracle, "_max_h_lower", wrapped)
    return seen


@pytest.mark.parametrize("search", ["lower", "bilevel"])
def test_two_levels_with_no_point_in_the_ball_are_refused(search):
    # with 2 levels each component is +-bound, so every grid vector is a
    # corner of norm sqrt(2) bound, outside its ball: the enumeration is
    # refused by name, not reported as an infeasible plan
    spec = EnumSpec(n_intervals=2, levels_per_control=2)
    name = "u" if search == "lower" else "v"
    with pytest.raises(ValueError, match=rf"^enumeration levels_per_control = 2 leaves no "
                                         rf"{name} grid point in the ball \|{name}\| <= "
                                         rf"{name}_bound = 1$"):
        if search == "lower":
            brute_lower(np.ones(3), np.zeros((3, 2)), 12.0, spec, S)
        else:
            brute_bilevel(spec, S)


def test_brute_lower_reports_infeasible_budget(monkeypatch):
    # zero lower control authority but the set moves: membership must fail,
    # after every block of all 8**3 sequences is simulated
    s = straight_corridor(u_bound=0.0, M=1.5)
    spec = EnumSpec(n_intervals=3, levels_per_control=2)
    monkeypatch.setattr(oracle, "BLOCK_PAIRS", 17 * 100)
    n = spec.n_intervals
    omega = np.full(n + 1, 40.0)
    v = np.tile([1.0, 0.0], (n + 1, 1))
    seen = simulated_blocks(monkeypatch)
    with pytest.raises(OracleInfeasibleError):
        brute_lower(omega, v, 12.0, spec, s)
    assert [len(rows) for rows in seen] == [100] * 5 + [12]
    # past k = 400 the order is the full stable argsort: every sequence once
    order = np.argsort(naive_efforts(omega, spec, s), kind="stable")
    assert np.array_equal(np.concatenate(seen), _product_rows(8, 3)[order])


@pytest.mark.parametrize("name", ["omega", "v"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_brute_lower_refuses_a_plan_that_is_not_finite(monkeypatch, name, bad):
    # a NaN or infinite node used to enumerate every block behind
    # RuntimeWarnings and report no feasible combination
    spec = EnumSpec(n_intervals=3, levels_per_control=5)
    plan = {"omega": np.array([10.0, 10.0, 5.0, 5.0]), "v": np.tile([1.0, 0.0], (4, 1))}
    plan[name][1, ...] = bad
    seen = simulated_blocks(monkeypatch)
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        brute_lower(plan["omega"], plan["v"], 12.0, spec, S)
    assert seen == []


@pytest.mark.parametrize("name, omega, v", [
    ("v", np.full(4, 3.0), np.tile([1.0, 0.0], (3, 1))), ("v", np.full(4, 3.0), np.ones(4)),
    ("v", np.full(4, 3.0), np.zeros((4, 3))), ("v", np.full(4, 3.0), np.zeros((4, 2, 1))),
    ("omega", np.full(3, 3.0), np.zeros((4, 2))), ("omega", np.full((4, 1), 3.0), np.zeros((4, 2)))],
    ids=["v-N-rows", "v-1-D", "v-3-columns", "v-3-D", "omega-N-nodes", "omega-2-D"])
def test_brute_lower_refuses_node_arrays_of_the_wrong_shape(name, omega, v):
    # one value of omega and one (dim,) row of v per node, N+1 of each; a
    # short or flat v used to be read anyway (here N rows gave 0.5, a flat v 2.5)
    with pytest.raises(ValueError, match=rf"^{name} must .* got shape"):
        brute_lower(omega, v, 12.0, EnumSpec(n_intervals=3), S)


def test_brute_lower_decision_reproduces_value():
    spec = EnumSpec(n_intervals=3, levels_per_control=3)
    n = spec.n_intervals
    omega = np.full(n + 1, 3.0)
    v = np.tile([1.0, 0.0], (n + 1, 1))
    val, (x0, u, u0) = brute_lower(omega, v, 12.0, spec, S)
    dt = 1.0 / n
    effort = (np.sum(u * u, axis=1) + u0 ** 2) * omega
    z = np.sum(0.5 * (effort[1:] + effort[:-1]) * dt)
    assert z == pytest.approx(val, rel=1e-12)


def naive_brute_lower(omega, v, gamma, spec, s):
    """brute_lower written plainly: one Euler trajectory per (control
    sequence, x_init) pair, the sequences in itertools order and the initial
    points in turn for each, the first strict improvement kept."""
    N, L = spec.n_intervals, spec.levels_per_control
    dt = 1.0 / N
    y = [s.y0_arr]
    for i in range(N):
        y.append(y[-1] + v[i] * omega[i] * dt)
    levels = np.linspace(-s.u_bound, s.u_bound, L)
    nodes = [(np.array([a, b]), c) for a, b, c in
             itertools.product(levels, levels, np.linspace(0.0, 1.0, L))
             if np.linalg.norm([a, b]) <= s.u_bound + 1e-12]
    x_grid = _x_init_grid(s, spec.x_init_points)
    A = s.drift.matrix(s.dim)
    best_val, best = np.inf, None
    for seq in itertools.product(nodes, repeat=N):
        seq = seq + seq[-1:]
        effort = np.array([(np.sum(u * u) + u0 ** 2) * omega[i] for i, (u, u0) in enumerate(seq)])
        z = float(np.sum(0.5 * (effort[1:] + effort[:-1]) * dt))
        for xg in x_grid:
            if not z < best_val:
                break
            x, feasible = xg, True
            for i in range(N + 1):
                d = x - y[i]
                hl = 0.5 * (np.sum(d * d) - s.R1 ** 2)
                feasible &= bool(hl <= oracle.FEAS_TOL)
                if i == N:
                    break
                u, u0 = seq[i]
                c = np.minimum(s.cone_gain, gamma * np.exp(np.minimum(gamma * hl, 50.0)))
                f = u
                if s.drift.name != "identity":
                    f = A @ x + u
                    nrm = np.sqrt(np.sum(f * f))
                    f = f * (s.M1 / nrm if nrm > s.M1 else 1.0)
                x = x + (f - u0 * c * d) * (omega[i] * dt)
            if feasible:
                best_val = z
                best = (xg, np.array([u for u, _ in seq]), np.array([u0 for _, u0 in seq]))
    return best_val, best


A4 = straight_corridor(drift=DriftSpec(name="affine", A=((0.0, 0.05), (-0.05, 0.0))),
                       K_f=0.05, M1=1.2)
SKEW = straight_corridor(drift=DriftSpec(name="affine", A=((-0.3, 0.7), (0.2, -0.45))),
                         K_f=0.9, M1=0.9)


def naive_efforts(omega, spec, s):
    """Every control sequence's effort, in itertools order, as
    naive_brute_lower computes it."""
    N, L = spec.n_intervals, spec.levels_per_control
    levels = np.linspace(-s.u_bound, s.u_bound, L)
    base = [a * a + b * b + c ** 2 for a, b, c in
            itertools.product(levels, levels, np.linspace(0.0, 1.0, L))
            if np.linalg.norm([a, b]) <= s.u_bound + 1e-12]
    out = []
    for seq in itertools.product(base, repeat=N):
        effort = np.array(seq + seq[-1:]) * omega
        out.append(float(np.sum(0.5 * (effort[1:] + effort[:-1]) * (1.0 / N))))
    return np.array(out)


def assert_equals_naive(omega, v, spec, s):
    val, dec = brute_lower(omega, v, 12.0, spec, s)
    ref_val, ref_dec = naive_brute_lower(omega, v, 12.0, spec, s)
    assert val > 0.0 and val == ref_val
    for a, b in zip(dec, ref_dec):
        assert a.shape == b.shape and np.array_equal(a, b)
    return val


@pytest.mark.parametrize("s", [S, A4, SKEW], ids=["identity", "affine", "affine-saturating"])
@pytest.mark.parametrize("pairs", [200_000, 60])
def test_brute_lower_equals_a_naive_enumeration(monkeypatch, s, pairs):
    monkeypatch.setattr(oracle, "BLOCK_PAIRS", pairs)
    spec = EnumSpec(n_intervals=2, levels_per_control=3, x_init_points=5)
    rng = np.random.default_rng(pairs)
    omega = rng.uniform(2.0, 5.0, 3)
    v = np.tile([1.0, 0.0], (3, 1))
    assert_equals_naive(omega, v, spec, s)


def tie_instance(seed, speed, angle):
    """An N = 3 plan moving at ``speed`` in direction ``angle``, its
    dilations drawn from ``seed``: (omega, v)."""
    omega = np.random.default_rng(seed).uniform(2.0, 5.0, 4)
    return omega, np.tile([speed * np.cos(angle), speed * np.sin(angle)], (4, 1))


@pytest.mark.parametrize("s, seed, speed, angle, pairs, one_tie", [
    (S, 1, 1.0, 0.0, 20, False), (A4, 2, 1.0, 0.0, 20, False), (SKEW, 2, 1.0, 0.0, 20, False),
    (SKEW, 2, 1.0, 0.3, 100, False), (SKEW, 4, 0.4, 0.0, 10, True)],
    ids=["identity", "affine", "affine-saturating", "affine-saturating-turned", "affine-saturating-one-tie"])
def test_brute_lower_stops_early_and_breaks_ties_as_a_naive_enumeration(monkeypatch, s, seed, speed, angle,
                                                                         pairs, one_tie):
    # N = 3 moving plans with small blocks: the first block of the effort
    # order holds no feasible pair, and the sequences that tie at the
    # minimum span several blocks, or are one sequence, simulated as a
    # block of one.  In the turned case a later tie sequence is feasible
    # from an earlier initial point than the winner, so a rule that tried
    # the initial points before the sequences would pick another pair
    monkeypatch.setattr(oracle, "BLOCK_PAIRS", pairs)
    spec = EnumSpec(n_intervals=3, levels_per_control=3, x_init_points=5)
    step = pairs // 5
    omega, v = tie_instance(seed, speed, angle)
    val = assert_equals_naive(omega, v, spec, s)
    z = np.sort(naive_efforts(omega, spec, s))
    assert z[step - 1] < val
    first, last = np.searchsorted(z, val), np.searchsorted(z, val, side="right") - 1
    if one_tie:
        assert first == last
    else:
        assert first // step < last // step


@pytest.mark.parametrize("s, seed, speed, angle", [(S, 1, 1.0, 0.0), (A4, 2, 1.0, 0.0), (SKEW, 2, 1.0, 0.3)],
                         ids=["identity", "affine", "affine-saturating"])
def test_brute_lower_does_not_depend_on_the_block_width(monkeypatch, s, seed, speed, angle):
    # blocks of one sequence, of 20 and the default width give the same
    # value and decision, bitwise
    spec = EnumSpec(n_intervals=3, levels_per_control=3, x_init_points=5)
    omega, v = tie_instance(seed, speed, angle)
    val, dec = brute_lower(omega, v, 12.0, spec, s)
    for pairs in (5, 20 * 5):
        monkeypatch.setattr(oracle, "BLOCK_PAIRS", pairs)
        other_val, other_dec = brute_lower(omega, v, 12.0, spec, s)
        assert other_val == val
        for a, b in zip(other_dec, dec):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_brute_lower_simulates_each_block_of_the_effort_order_once(monkeypatch):
    # the blocks simulated are the full stable effort order's first ones,
    # each once: the first block with a feasible pair gives the decision, and
    # no tie sequence is run a second time.  The order is built for its first
    # k sequences, k one block at first and doubled as blocks run past it;
    # on both instances the first feasible block lies past two doublings, and
    # at some k the efforts tie across the cut, so only a stable sort of
    # every effort at or below the k-th smallest gives these blocks
    spec = EnumSpec(n_intervals=3, levels_per_control=3, x_init_points=5)
    blocks = simulated_blocks(monkeypatch)
    for s, seed, width in ((SKEW, 2, 20), (S, 3, 5)):
        monkeypatch.setattr(oracle, "BLOCK_PAIRS", width * 5)
        omega, v = tie_instance(seed, 1.0, 0.3)
        blocks.clear()
        brute_lower(omega, v, 12.0, spec, s)
        z = naive_efforts(omega, spec, s)
        order = np.argsort(z, kind="stable")
        rows = _product_rows(15, 3)[order]
        assert len(blocks) > 4
        for k, block in enumerate(blocks):
            assert np.array_equal(block, rows[width * k:width * (k + 1)])
        cuts = [width * 2 ** j for j in range(len(blocks).bit_length())]
        assert any(z[order[k - 1]] == z[order[k]] for k in cuts)


def test_a_block_of_one_sequence_rounds_as_a_wide_block():
    # BLAS rounds a one-column A @ x unlike a wide one; every block must
    # give each pair the h_lower it gets in any other block, bitwise
    rng = np.random.default_rng(3)
    ang = rng.uniform(0.0, 2 * np.pi, 9)
    u_node = rng.uniform(0.0, SKEW.u_bound, 9)[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    u0_node = rng.uniform(0.0, 1.0, 9)
    omega = rng.uniform(2.0, 5.0, 4)
    y = SKEW.y0_arr + np.linspace(0.0, 1.5, 4)[:, None] * [1.0, 0.0]
    rows = _product_rows(9, 3)
    x_grid = _x_init_grid(SKEW, 5)
    wide = _max_h_lower(rows, x_grid, y, u_node, u0_node, omega, 12.0, SKEW)
    for j in range(0, len(rows), 7):
        one = _max_h_lower(rows[j:j + 1], x_grid, y, u_node, u0_node, omega, 12.0, SKEW)
        assert one.shape == (5, 1) and np.array_equal(one[:, 0], wide[:, j])


def test_terminal_distances_measure_every_endpoint():
    # the plan centers of brute_bilevel(EnumSpec(4, 3)) on the corridor,
    # 50,625 plans with 129 distinct endpoints: after every prefix, each
    # plan's center equals the sum of its own steps, and measuring the
    # distinct endpoints measures every one.  Zeros of both signs are one
    # distinct point, and target_distance gives them one value
    L, N, dt = 3, 4, 0.25
    v_lv, w_lv = np.linspace(-S.v_bound, S.v_bound, L), np.linspace(0.0, 10.0, L)
    nodes = [(np.array([a, b]), w) for a, b, w in itertools.product(v_lv, v_lv, w_lv)
             if np.linalg.norm([a, b]) <= S.v_bound + 1e-12]
    seq = _product_rows(len(nodes), N)
    v = np.array([v for v, _ in nodes])[seq]            # (C, N, 2)
    w = np.array([w for _, w in nodes])[seq]            # (C, N)
    steps = np.array([v * (w * dt) for v, w in nodes])
    ends = np.broadcast_to(S.y0_arr, (len(seq), 2))
    for i, (pos, where) in enumerate(_plan_centers(S.y0_arr, steps, N)):
        assert len(where) == len(nodes) ** i
        assert np.array_equal(np.repeat(pos[where], len(nodes) ** (N - i), axis=0), ends)
        if i < N:
            ends = ends + v[:, i] * (w[:, i] * dt)[:, None]
    assert len(pos) == 129 and len(np.unique(ends, axis=0)) == 129
    assert np.array_equal(target_distance(pos, S)[where], target_distance(ends, S))
    ends = np.concatenate([ends, [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]]])
    pts, which = _distinct_points(ends)
    assert len(pts) == 129 and len(set(which[-4:])) == 1   # one point with y0 = (0, 0)
    assert np.array_equal(target_distance(pts, S)[which], target_distance(ends, S))


# ---------------------------------------------------------------- brute bilevel
def test_brute_bilevel_decision_regression():
    # frozen reference: the corridor at N=4, 3 levels, enumerated with the
    # all-pairs exit distance and itertools index tuples, and pinned
    T, dec = brute_bilevel(EnumSpec(n_intervals=4, levels_per_control=3), S)
    assert T == 8.125
    assert dec["phi"] == 6.25
    assert np.array_equal(dec["v"], np.tile([1.0, 0.0], (5, 1)))
    assert np.array_equal(dec["omega"], [10.0, 10.0, 10.0, 5.0, 5.0])
    assert np.array_equal(dec["x_init"], [-1.0, 1.2246467991473532e-16])
    assert np.array_equal(dec["u"], [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(dec["u0"], [1.0, 0.0, 0.0, 0.0, 0.0])


def test_brute_bilevel_3_5_decision_regression():
    # frozen reference: the corridor at N=3, 5 levels, as the exhaustive
    # enumeration of every (sequence, x_init) pair chose it, and pinned
    T, dec = brute_bilevel(EnumSpec(n_intervals=3, levels_per_control=5), S)
    assert T == 7.5
    assert dec["phi"] == 3.749999999999999
    assert np.array_equal(dec["v"], np.tile([1.0, 0.0], (4, 1)))
    assert np.array_equal(dec["omega"], [10.0, 10.0, 5.0, 5.0])
    assert np.array_equal(dec["x_init"], [-1.0, 1.2246467991473532e-16])
    assert np.array_equal(dec["u"], [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]])
    assert np.array_equal(dec["u0"], [1.0, 0.0, 0.5, 0.5])


def test_brute_bilevel_refusal_names_the_count_and_the_limit():
    with pytest.raises(ValueError, match=r"65\*\*5 = 1160290625 plans > 10000000"):
        brute_bilevel(EnumSpec(n_intervals=5, levels_per_control=5), S)


def test_brute_lower_refusal_names_the_count_and_the_limit():
    # 65 node combinations at each of N = 4 nodes, from 17 initial points
    with pytest.raises(ValueError, match=r"65\*\*4 \* 17 = 303460625 \(sequence, initial point\) "
                                         r"pairs > 10000000"):
        brute_lower(np.ones(5), np.zeros((5, 2)), 12.0, EnumSpec(4, 5), S)


def naive_upper_plans(spec, s):
    """brute_bilevel's feasible plans, found plainly: every plan of
    itertools.product over the node values, its center stepped by Euler and
    checked at every node, as (t_final, v nodes, omega nodes) sorted stably
    by travel time.  Also returns how many plans reach the target but leave
    Q on the way."""
    N, L = spec.n_intervals, spec.levels_per_control
    dt = 1.0 / N
    levels = np.linspace(-s.v_bound, s.v_bound, L)
    nodes = [(np.array([a, b]), w) for a, b, w in
             itertools.product(levels, levels, np.linspace(0.0, spec.omega_max, L))
             if np.linalg.norm([a, b]) <= s.v_bound + 1e-12]

    def h_upper(y):
        dq = y - s.q0_arr
        return 0.5 * (dq[0] * dq[0] + dq[1] * dq[1] - (s.R - s.R1) ** 2)

    plans, strays = [], 0
    for seq in itertools.product(nodes, repeat=N):
        y = s.y0_arr
        inside = h_upper(y) <= oracle.FEAS_TOL
        for v, w in seq:
            y = y + v * (w * dt)
            inside &= h_upper(y) <= oracle.FEAS_TOL
        if target_distance(y, s) > spec.target_tol:
            continue
        if not inside:
            strays += 1
            continue
        v, w = (np.array([node[k] for node in seq + seq[-1:]]) for k in (0, 1))
        t = 0.0
        for i in range(N):
            t += 0.5 * (w[i + 1] + w[i]) * dt
        plans.append((t, v, w))
    plans.sort(key=lambda plan: plan[0])
    return plans, strays


def naive_brute_bilevel(spec, s):
    """brute_bilevel written plainly: the naive feasible plans costed by
    brute_lower in turn until one is feasible.  Also returns how many plans
    were skipped, and how many of the plans that share the winner's travel
    time have a feasible lower solve."""
    plans, _ = naive_upper_plans(spec, s)

    def lower(v, w):
        try:
            phi, dec = brute_lower(w, v, 8.0 * s.cone_gain, spec, s)
        except OracleInfeasibleError:
            return None
        return {"v": v, "omega": w, "phi": phi, "x_init": dec[0], "u": dec[1], "u0": dec[2]}

    for skipped, (t, v, w) in enumerate(plans):
        dec = lower(v, w)
        if dec is not None:
            feasible_ties = sum(lower(v, w) is not None for t_other, v, w in plans if t_other == t)
            return t, dec, skipped, feasible_ties
    raise OracleInfeasibleError("no candidate admits a feasible lower solve")


@pytest.mark.parametrize("s, spec", [
    (S, EnumSpec(2, 3, omega_max=27.0, target_tol=3.0)),
    (A4, EnumSpec(3, 3, omega_max=12.0, target_tol=2.0))], ids=["identity", "affine"])
def test_brute_bilevel_costs_every_feasible_plan_in_order(monkeypatch, s, spec):
    # with every lower solve refused, brute_bilevel costs each plan that
    # stays inside Q and reaches the target once, in the tie rule's order;
    # some plans reach the target only by leaving Q on the way
    tried = []

    def refuse(omega, v, *args, **kwargs):
        tried.append((omega.copy(), v.copy()))
        raise OracleInfeasibleError("refused")
    monkeypatch.setattr(oracle, "brute_lower", refuse)
    with pytest.raises(OracleInfeasibleError, match="no candidate admits"):
        brute_bilevel(spec, s)
    plans, strays = naive_upper_plans(spec, s)
    assert strays > 0 and len({t for t, _, _ in plans}) < len(plans)
    assert len(tried) == len(plans)
    for (omega, v), (_, ref_v, ref_w) in zip(tried, plans):
        assert np.array_equal(omega, ref_w) and np.array_equal(v, ref_v)


@pytest.mark.parametrize("s, spec", [
    (straight_corridor(u_bound=0.3, M=0.8),
     EnumSpec(3, 3, omega_max=12.0, target_tol=2.0, x_init_points=5)),
    (straight_corridor(u_bound=0.5, M=1.0, drift=A4.drift, K_f=A4.K_f, M1=A4.M1),
     EnumSpec(3, 3, omega_max=15.0, target_tol=1.0, x_init_points=5))],
    ids=["identity", "affine"])
def test_brute_bilevel_breaks_ties_in_product_order_as_a_naive_enumeration(s, spec):
    # the fastest plans leave the slow swept point behind, so their lower
    # solves are infeasible; the winner shares its travel time with later
    # plans in product order that have a feasible lower solve too
    T, dec = brute_bilevel(spec, s)
    ref_T, ref_dec, skipped, feasible_ties = naive_brute_bilevel(spec, s)
    assert skipped > 0 and feasible_ties > 1
    assert T == ref_T
    assert dec.keys() == ref_dec.keys()
    for key in dec:
        assert np.shape(dec[key]) == np.shape(ref_dec[key]) and np.array_equal(dec[key], ref_dec[key])


def row_gather_efforts(omega, spec, s):
    """Every control sequence's effort as a gather from the full table of
    sequence rows, _product_rows(per_node, N), one interval at a time."""
    N, L = spec.n_intervals, spec.levels_per_control
    u_lv = np.linspace(-s.u_bound, s.u_bound, L)
    combos = _product_rows(L, 3)
    u_node = np.stack([u_lv[combos[:, 0]], u_lv[combos[:, 1]]], axis=1)
    u0_node = np.linspace(0.0, 1.0, L)[combos[:, 2]]
    ok = np.linalg.norm(u_node, axis=1) <= s.u_bound + 1e-12
    u_node, u0_node = u_node[ok], u0_node[ok]
    base = np.sum(u_node * u_node, axis=1) + u0_node ** 2
    seqs = _product_rows(len(base), N)
    dt = 1.0 / N
    prev = base[seqs[:, 0]] * omega[0]
    z = None
    for i in range(N):
        cur = base[seqs[:, min(i + 1, N - 1)]] * omega[i + 1]
        term = 0.5 * (cur + prev) * dt
        z = term if z is None else z + term
        prev = cur
    return z


class _TableSeen(Exception):
    pass


@pytest.mark.parametrize("s", [S, A4], ids=["identity", "affine"])
def test_broadcast_effort_table_is_the_row_gather_one_bytewise(monkeypatch, s):
    # every (levels, intervals) pair within MAX_COMBINATIONS: the effort table
    # brute_lower orders is the row gather's, byte for byte.  With 2 levels
    # no corner lies in the control ball, so that grid is refused
    tables = []

    def seen(z, k):
        tables.append(z.copy())
        raise _TableSeen
    monkeypatch.setattr(oracle, "_stable_head", seen)
    rng = np.random.default_rng(5)
    sizes = []
    for L in range(2, 6):
        for N in range(2, 6):
            spec = EnumSpec(n_intervals=N, levels_per_control=L)
            omega = rng.uniform(0.5, 10.0, N + 1)
            omega[rng.integers(N + 1)] = 0.0
            v = np.tile([1.0, 0.0], (N + 1, 1))
            tables.clear()
            try:
                brute_lower(omega, v, 12.0, spec, s)
            except _TableSeen:
                pass
            except ValueError as err:   # no control in the ball, or past the budget
                assert ("levels_per_control = 2" in str(err)) == (L == 2)
                assert L == 2 or "budget" in str(err)
                continue
            want = row_gather_efforts(omega, spec, s)
            assert len(tables) == 1 and tables[0].dtype == want.dtype
            assert tables[0].tobytes() == want.tobytes(), (L, N)
            sizes.append(len(want))
    assert sizes == [15 ** 2, 15 ** 3, 15 ** 4, 16 ** 2, 16 ** 3, 16 ** 4, 65 ** 2, 65 ** 3]


def test_brute_bilevel_3_5_traced_peak_is_under_10_mb():
    # the references bench's oracle on the corridor: sequence rows are formed
    # only for the blocks simulated, and no (274,625, 3) row table is held
    tracemalloc.start()
    try:
        T, _ = brute_bilevel(EnumSpec(3, 5), S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert T == 7.5
    assert peak <= 10e6


def test_brute_lower_simulates_a_fraction_of_the_sequences(monkeypatch):
    # the plan brute_bilevel(EnumSpec(3, 5)) chooses on the corridor: 65**3
    # sequences, of which the effort order reaches z* after about 8.6%
    seen = simulated_blocks(monkeypatch)
    omega = np.array([10.0, 10.0, 5.0, 5.0])
    v = np.tile([1.0, 0.0], (4, 1))
    phi, _ = brute_lower(omega, v, 8.0 * S.cone_gain, EnumSpec(3, 5), S)
    assert phi == 3.749999999999999
    assert sum(map(len, seen)) < 65 ** 3 / 5


# ---------------------------------------------------------------- sigma oracle
def test_sigma_oracle_inactive_direction_is_zero():
    # q_L aligned against the cone direction: the activation never pays off
    x = np.array([1.0, 0.0])
    y = np.zeros(2)
    val = sigma_sup_oracle(np.array([1.0, 0.0]), 0.0, 1.0, x, y, S)
    assert val == pytest.approx(0.0, abs=1e-15)


def test_sigma_oracle_interior_vertex_value():
    # sup over u0 of a*u0 - r*u0^2 with vertex inside [0,1]: value a^2/(4r)
    x = np.array([1.0, 0.0])
    y = np.zeros(2)
    qL = np.array([-1.0, 0.0])
    r = 2.0
    a = float(np.dot(qL, -S.cone_gain * (x - y)))
    val = sigma_sup_oracle(qL, 0.0, r, x, y, S)
    assert val == pytest.approx(a * a / (4 * r), abs=1e-9)


def _uncached_sigma_sup(qL, nuL, r, x, y, s):
    """The sup oracle with a fresh 10,000-point linspace per call."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    lin = float(np.dot(qL - nuL * d, -s.cone_gain * d))
    u0 = np.linspace(0.0, 1.0, 10_000)
    vals = lin * u0 - r * u0 ** 2
    j = int(np.argmax(vals))
    best = float(vals[j])
    jc = min(max(j, 1), 10_000 - 2)
    denom = vals[jc - 1] - 2 * vals[jc] + vals[jc + 1]
    if abs(denom) > 1e-300:
        ustar = u0[jc] + 0.5 * (u0[1] - u0[0]) * (vals[jc - 1] - vals[jc + 1]) / denom
        ustar = min(1.0, max(0.0, ustar))
        best = max(best, lin * ustar - r * ustar ** 2)
    return best


def test_sigma_oracle_cached_grid_is_read_only_and_matches_a_fresh_one():
    for arr in (SIGMA_U0, SIGMA_U0_SQ):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    rng = np.random.default_rng(7)
    for _ in range(100):
        q, x, y = rng.normal(size=(3, 2))
        nu, r = rng.uniform(0.0, 3.0), rng.uniform(1e-3, 3.0)
        assert sigma_sup_oracle(q, nu, r, x, y, S) == _uncached_sigma_sup(q, nu, r, x, y, S)


def _same_float(a, b):
    """a and b are the same float: both NaN, or equal with the same sign bit."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# effort multipliers from the smallest subnormal to near the largest float;
# in the subnormal range the grid's values are coarse enough to tie far from
# the vertex
ADVERSARIAL_R = (5e-324, 1e-322, 1e-318, 1e-310, 1e-300, 1e-100, 1e-8, 1e-3, 1.0, 3.0,
                 1e8, 1e100, 1e300)


def _adversarial_lin_r(rng):
    """(lin, r) cases for the sup oracle: for every r in ``ADVERSARIAL_R`` and
    for log-uniform ones, the vertex lin/2r on a grid point, midway between
    two, within 1e-14 of 0 and 1, inside and far outside [0, 1]; lin = 0; and
    NaN, infinities and r <= 0."""
    u = SIGMA_U0
    ends = [0, 1, 2, 4999, 5000, 9997, 9998]
    near = [0.0, 1e-16, 1e-15, 1e-14, -1e-16, -1e-15, -1e-14]
    cases = []
    for r in ADVERSARIAL_R + tuple(10.0 ** rng.uniform(-323, 308, 40)):
        js = ends + list(rng.integers(0, u.size - 1, 6))
        vertices = ([u[j] for j in js] + [0.5 * (u[j] + u[j + 1]) for j in js]
                    + near + [1.0 + e for e in near]
                    + list(rng.uniform(-0.01, 1.01, 6)) + [-1e9, -5.0, 5.0, 1e9])
        cases += [(2.0 * r * float(v), float(r)) for v in vertices] + [(0.0, float(r))]
    specials = (math.inf, -math.inf, math.nan)
    cases += [(lin, r) for lin in (0.0, 1.0, -1.0) + specials
              for r in (0.0, -0.0, -1.0, 1.0) + specials]
    # the oracle's dot product rounds a zero sum to +0, so lin is never -0
    return [(lin + 0.0, r) for lin, r in cases]


def test_sigma_oracle_window_equals_the_full_grid_bitwise():
    # x - y = (2/3, 0) makes -(M/R1)(x - y) = (-1, -0) exactly on the
    # corridor, so q_L = (-lin, 0) gives the oracle exactly lin
    x, y = np.array([2.0 / 3.0, 0.0]), np.zeros(2)
    assert np.array_equal(-S.cone_gain * (x - y), [-1.0, 0.0])
    cases = _adversarial_lin_r(np.random.default_rng(11))
    assert len(cases) > 2000
    with np.errstate(all="ignore"):
        for lin, r in cases:
            q = np.array([-lin, 0.0])
            assert _same_float(float(np.dot(q, -S.cone_gain * (x - y))), lin)
            got = sigma_sup_oracle(q, 0.0, r, x, y, S)
            want = _uncached_sigma_sup(q, 0.0, r, x, y, S)
            assert _same_float(got, want), (lin, r, got, want)


def _window_values(lin, r):
    """The oracle's window [lo, hi) of (lin, r) and the grid's values in it."""
    lo, hi = oracle._sigma_window(lin, r)
    with np.errstate(all="ignore"):
        return lo, hi, lin * SIGMA_U0[lo:hi] - r * SIGMA_U0_SQ[lo:hi]


def test_sigma_oracle_float_loop_at_its_edges():
    # each case is checked to be the edge it is named for, then against the
    # full-grid reference, NaN-aware with sign bits
    inf, nan = math.inf, math.nan
    edges = {
        # inf * 0 = NaN at the grid's first index, the window's first
        "nan-first": [(inf, 1.0), (-inf, 1.0), (1.0, inf), (-inf, inf), (0.0, inf)],
        "all-nan": [(nan, 1.0), (1.0, nan), (inf, inf)],
        # subnormal r: the maximum ties at the window's first index, at its
        # last, and inside a window away from both grid ends
        "tie-first": [(0.0, 1e-316), (0.0, 1e-318)],
        "tie-last": [(2e-316, 1e-316), (2e-318, 1e-318)],
        "tie-inside": [(1e-314, 1e-314), (1.0, 1.0)],
        # the window is the whole grid: r <= 0, lin not finite, or a bound
        # that excludes nothing
        "whole-grid": [(0.5, 0.0), (-0.5, -0.0), (2.0, -1.0), (0.0, -1.0), (-3.0, 0.0),
                       (inf, 0.0), (-inf, -1.0), (0.0, 5e-324), (1e-323, 1e-323)],
    }
    x, y = np.array([2.0 / 3.0, 0.0]), np.zeros(2)
    for edge, cases in edges.items():
        for lin, r in cases:
            lo, hi, window = _window_values(lin, r)
            if edge == "nan-first":
                assert (lo, hi) == (0, SIGMA_U0.size) and np.isnan(window[0])
                assert not np.isnan(window[1:]).any()
            elif edge == "all-nan":
                assert np.isnan(window).all()
            elif edge == "tie-first":
                assert lo == 0 and window[0] == window[1] == window.max()
            elif edge == "tie-last":
                assert hi == SIGMA_U0.size and window[-1] == window[-2] == window.max()
            elif edge == "tie-inside":
                assert 0 < lo and hi < SIGMA_U0.size
                assert np.count_nonzero(window == window.max()) > 1
            else:
                assert (lo, hi) == (0, SIGMA_U0.size)
            q = np.array([-lin, 0.0])
            with np.errstate(all="ignore"):
                got = sigma_sup_oracle(q, 0.0, r, x, y, S)
                want = _uncached_sigma_sup(q, 0.0, r, x, y, S)
            assert _same_float(got, want), (edge, lin, r, got, want)


@pytest.mark.parametrize("vals", [
    [1.0], [2.0, 1.0, 2.0], [0.0, -0.0, 1.0, 1.0], [-0.0, 0.0], [-math.inf, -math.inf],
    [math.nan, 2.0], [1.0, math.nan, 3.0, math.nan], [1.0, 3.0, math.nan], [math.inf, math.nan],
    [math.nan, math.nan], [-1.0, -math.inf, math.inf, math.inf],
], ids=["one", "tie-ends", "tie-inside", "signed-zeros", "all-minus-inf", "nan-first",
        "nan-before-max", "nan-after-max", "nan-after-inf", "all-nan", "inf-ties"])
def test_first_argmax_is_numpys(vals):
    # the one-pass window scan keeps the first maximum, or stops at the first
    # NaN, of the values lin u - r u^2: with lin = 1 and r = 0 they are vals
    # themselves, signed zeros and infinities included
    n = len(vals)
    grid = 1.0 * np.array(vals) - 0.0 * np.zeros(n)
    assert grid.tobytes() == np.array(vals).tobytes()
    j, best = oracle._window_argmax(1.0, 0.0, vals, [0.0] * n)
    assert j == int(np.argmax(grid)) and _same_float(best, grid[j])


@pytest.mark.parametrize("where", ["first", "mid"])
def test_sigma_oracle_stops_at_a_nan_in_its_window(monkeypatch, where):
    # a NaN square at the window's first point or in its middle makes that
    # grid value NaN, which np.argmax returns, so the whole grid's answer is
    # NaN; a scan that only compared values would pass over it
    lin, r = 1.0, 1.0
    x, y = np.array([2.0 / 3.0, 0.0]), np.zeros(2)
    q = np.array([-lin, 0.0])
    lo, hi = oracle._sigma_window(lin, r)
    assert 0 < lo and hi - lo > 6
    k = lo if where == "first" else (lo + hi) // 2
    assert math.isfinite(sigma_sup_oracle(q, 0.0, r, x, y, S))
    sq = SIGMA_U0_SQ.copy()
    sq[k] = math.nan
    monkeypatch.setattr(oracle, "SIGMA_U0_SQ", sq)
    grid = lin * SIGMA_U0 - r * sq
    assert int(np.argmax(grid)) == k
    u0, window = SIGMA_U0[lo:hi].tolist(), sq[lo:hi].tolist()
    assert oracle._window_argmax(lin, r, u0, window)[0] == k - lo
    assert math.isnan(sigma_sup_oracle(q, 0.0, r, x, y, S))


def test_sigma_oracle_window_stays_narrow_on_a1_pairs(monkeypatch):
    # A1's pairs: x on the rim, effort multipliers in [1e-3, 3]
    widths = []
    window = oracle._sigma_window

    def recorded(lin, r):
        lo, hi = window(lin, r)
        widths.append(hi - lo)
        return lo, hi

    monkeypatch.setattr(oracle, "_sigma_window", recorded)
    rng = np.random.default_rng(42)
    for _ in range(500):
        ang = rng.uniform(0, 2 * np.pi)
        y = rng.uniform(-3, 3, 2)
        x = y + S.R1 * np.array([np.cos(ang), np.sin(ang)])
        q = rng.uniform(-3, 3, 2)
        sigma_sup_oracle(q, rng.uniform(0, 3), rng.uniform(1e-3, 3), x, y, S)
    assert len(widths) == 500
    assert max(widths) <= 16


# ---------------------------------------------------------------- fd_check
def test_fd_check_exact_for_linear_functions():
    g = np.array([2.0, -3.0, 0.5])

    def fn(p):
        return float(np.dot(g, p))

    dirs = [np.eye(3)[i] for i in range(3)]
    err = fd_check(fn, g, np.array([0.3, -0.2, 1.0]), dirs)
    assert err <= 1e-10


def test_fd_check_detects_wrong_gradient():
    def fn(p):
        return float(np.sum(p ** 2))

    point = np.array([1.0, 2.0])
    good = 2 * point
    bad = 3 * point
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert fd_check(fn, good, point, dirs) < 1e-6
    assert fd_check(fn, bad, point, dirs) > 0.2


def test_fd_check_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_check(lambda p: 0.0, np.zeros(2), np.zeros(2), [np.ones(2)], h=0.0)


def test_fd_check_rejects_empty_directions():
    with pytest.raises(ValueError, match="directions"):
        fd_check(lambda p: 0.0, np.zeros(2), np.zeros(2), [])


@pytest.mark.parametrize("fn, grad", [
    (lambda p: np.nan, np.ones(2)),
    (lambda p: np.inf if p[1] > 0 else 0.0, np.ones(2)),
    (lambda p: float(np.sum(p)), np.array([1.0, np.inf])),
], ids=["nan-fn", "inf-difference", "inf-prediction"])
def test_fd_check_is_nan_for_a_nonfinite_difference_or_prediction(fn, grad):
    dirs = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    assert np.isnan(fd_check(fn, grad, np.zeros(2), dirs))


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 2))
@example(a=1.0, b=1e-13, scale=1.0)
@settings(max_examples=30, deadline=None)
def test_fd_check_quadratic_second_order(a, b, scale):
    point = np.array([0.7, -0.4]) * scale
    # one cubic term at a time: in a sum, round-off in a large term swamps the
    # O(h^2) error of a tiny one (a=1, b=1e-13 gave e1 == e2 at both steps)
    for k, coef in enumerate((a, b)):
        def fn(p, k=k, coef=coef):
            return float(coef * p[k] ** 3)

        grad = np.zeros(2)
        grad[k] = 3 * coef * point[k] ** 2
        dirs = [np.eye(2)[k]]
        e1 = fd_check(fn, grad, point, dirs, h=2e-2)
        e2 = fd_check(fn, grad, point, dirs, h=1e-2)
        if e1 > 1e-9:  # skip the degenerate zero-coefficient cases
            assert e2 <= e1 / 2.0 + 1e-9
