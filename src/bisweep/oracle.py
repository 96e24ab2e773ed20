"""Independent brute-force and finite-difference references.

Everything here deliberately avoids the solver code paths: propagation is
plain Euler, and optimization is enumeration.  The lower enumeration runs
in order of effort and stops at the first block with a feasible pair, whose
first feasible pair is the exhaustive enumeration's answer; within a block
it steps each distinct control prefix once and drops a pair at its first
infeasible node.  The upper
enumeration measures each distinct plan center once, over the prefix tree
of the plans, and times only the feasible plans.  The sup oracle evaluates
only the part of its grid that a roundoff bound cannot exclude, so it
returns the whole grid's answer.  Only the geometry module is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import Scenario, checked, target_distance

__all__ = [
    "EnumSpec",
    "OracleInfeasibleError",
    "brute_lower",
    "brute_bilevel",
    "sigma_sup_oracle",
    "fd_check",
]

MAX_COMBINATIONS = 10 ** 7
# the largest h_lower and h_upper that the enumerations count as feasible
FEAS_TOL = 1e-9
# the (sequence, initial point) pairs brute_lower simulates in one block
BLOCK_PAIRS = 200_000
# the (initial point, prefix) states one step of _max_h_lower makes, at
# most; a frontier that would make more is stepped in halves
FRONTIER_PAIRS = 10_000


class OracleInfeasibleError(RuntimeError):
    """No enumerated combination satisfied the constraints."""


@dataclass(frozen=True)
class EnumSpec:
    """Enumeration budget: piecewise-constant controls on a tiny grid.

    Of several feasible (sequence, initial point) pairs with equal effort,
    ``brute_lower`` returns the one whose sequence comes first in
    ``itertools.product`` order, from its first feasible initial point.

    ``brute_bilevel`` returns the plan of least ``t_final`` whose lower
    solve is feasible; of plans with equal ``t_final`` it tries them in
    ``itertools.product`` order, and the first with a feasible lower solve
    wins."""

    n_intervals: int = 4
    levels_per_control: int = 3
    omega_max: float = 10.0
    target_tol: float = 0.25
    x_init_points: int = 17

    def __post_init__(self):
        for name, least, most in (("n_intervals", 2, 5), ("levels_per_control", 2, 5),
                                  ("x_init_points", 1, math.inf)):
            checked(f"enumeration {name}", getattr(self, name), int, least, most)
        if self.x_init_points % 2 == 0:
            raise ValueError(f"enumeration x_init_points must be odd (the center and two "
                             f"equal rings): {self.x_init_points!r}")
        for name in ("omega_max", "target_tol"):
            checked(f"enumeration {name}", getattr(self, name), least=0.0)
        if self.omega_max == 0.0:
            raise ValueError("enumeration omega_max must be > 0: 0.0")


def _interval_to_nodes(vals: np.ndarray) -> np.ndarray:
    """Piecewise-constant interval values -> node array (last node repeats)."""
    return np.concatenate([vals, vals[-1:]], axis=0)


def _x_init_grid(s: Scenario, count: int) -> np.ndarray:
    """``count`` points over the initial disk: the center, then two rings of
    (count - 1)/2 points at radius R1 and R1/2."""
    ang = np.linspace(0, 2 * math.pi, (count - 1) // 2, endpoint=False)
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return np.concatenate([[s.y0_arr], s.y0_arr + s.R1 * ring, s.y0_arr + 0.5 * s.R1 * ring])


def _product_rows(levels: int, repeat: int) -> np.ndarray:
    """All index tuples over range(levels)**repeat as uint8 rows, in the
    order of ``itertools.product``."""
    if levels > 256:
        raise ValueError(f"product rows hold uint8 indices, so levels must be <= 256: {levels!r}")
    return np.indices((levels,) * repeat, dtype=np.uint8).reshape(repeat, -1).T


def _ball_grid(bound: float, scalars: np.ndarray, name: str):
    """The per-node grid, in ``itertools.product`` order, of a vector with
    components at linspace(-bound, bound, L) in the ball |a| <= bound and one of
    the L ``scalars``: (vectors (P, 2), scalars (P,)); a ValueError if P = 0."""
    L = len(scalars)
    combos = _product_rows(L, 3)
    vec = np.linspace(-bound, bound, L)[combos[:, :2]]
    ok = np.linalg.norm(vec, axis=1) <= bound + 1e-12
    if not ok.any():
        raise ValueError(f"enumeration levels_per_control = {L} leaves no {name} grid point "
                         f"in the ball |{name}| <= {name}_bound = {bound:g}")
    return vec[ok], scalars[combos[ok, 2]]


def _max_h_lower(rows, x_grid, y, u_node, u0_node, omega, gamma, s: Scenario) -> np.ndarray:
    """The largest h_lower along the trajectory of each (x_init, sequence)
    pair of one block of sequences, rows (B, N) of per-node indices: an
    (x_init, B) table, <= ``FEAS_TOL`` exactly where the pair is feasible
    and +inf where it is not.

    A pruned forward recursion over control prefixes: the rows are sorted
    once into product order, where the rows that share a prefix are
    contiguous, and each distinct (x_init, prefix) state is stepped once,
    every initial point together.  A pair is dropped at its first node
    whose h_lower is > ``FEAS_TOL`` or NaN (Land & Doig 1960).  A frontier
    whose step would make more than ``FRONTIER_PAIRS`` states is stepped in
    halves, depth first, which bounds the memory of a block whose pairs all
    stay feasible.

    Plain Euler under the smoothed field; h_lower at each node is both the
    cone ramp's argument and what is maximized.  x and u keep their
    components first, (dim, K), so |d|^2 is a sum of dim rows, and A x is
    summed per row as A_r0 x_0 + A_r1 x_1, so a pair rounds the same in
    every block width and on every frontier."""
    B, N = rows.shape
    key = np.ravel_multi_index(rows.T, (len(u_node),) * N)
    perm = np.argsort(key)
    key = key[perm]
    # where each distinct prefix of k intervals starts among the sorted rows;
    # the full sequences are every row, so a repeated row is simulated twice
    starts = [np.zeros(1, dtype=np.intp)]
    for k in range(1, N):
        q = key // len(u_node) ** (N - k)
        starts.append(np.flatnonzero(np.r_[True, q[1:] != q[:-1]]))
    starts.append(np.arange(B))
    # per prefix of k intervals, the index of its first child among the
    # prefixes of k + 1, and per child the control it appends
    first = [np.append(np.searchsorted(starts[k + 1], starts[k]), len(starts[k + 1]))
             for k in range(N)]
    ctrl = [rows[perm[starts[k + 1]], k] for k in range(N)]
    A = s.drift.matrix(s.dim) if s.drift.name != "identity" else None
    gain, dt = s.cone_gain, 1.0 / N
    out = np.full((len(x_grid), B), np.inf)
    # frontiers to step: a node, and per live pair its initial point, its
    # prefix, its state and its largest h_lower so far
    todo = [(0, np.arange(len(x_grid)), np.zeros(len(x_grid), dtype=np.intp), x_grid.T,
             np.full(len(x_grid), -np.inf))]
    while todo:
        i, xi, pre, x, worst = todo.pop()
        d = x - y[i][:, None]
        hl = 0.5 * (np.add.reduce(d * d, axis=0) - s.R1 ** 2)
        worst = np.maximum(worst, hl)
        live = hl <= FEAS_TOL
        if i == N:
            out.ravel()[(xi * B + perm[pre])[live]] = worst[live]
            continue
        if not live.all():
            xi, pre, worst, hl = xi[live], pre[live], worst[live], hl[live]
            x, d = np.compress(live, x, axis=1), np.compress(live, d, axis=1)
        n = first[i][pre + 1] - first[i][pre]
        if len(n) > 1 and n.sum() > FRONTIER_PAIRS:   # step it in halves
            h = len(n) // 2
            todo += [(i, xi[h:], pre[h:], x[:, h:], worst[h:]), (i, xi[:h], pre[:h], x[:, :h], worst[:h])]
            continue
        c = np.minimum(gain, gamma * np.exp(np.minimum(gamma * hl, 50.0)))
        # each prefix's children are contiguous: parent j's n[j] children
        # follow its first one, and each takes its parent's values
        par = np.repeat(np.arange(len(pre)), n)
        pre = np.arange(len(par)) + np.repeat(first[i][pre] - (np.cumsum(n) - n), n)
        u = ctrl[i][pre]
        f, x = np.take(u_node.T, u, axis=1), np.take(x, par, axis=1)
        if A is not None:
            f = A[:, :1] * x[0] + A[:, 1:] * x[1] + f
            nrm = np.sqrt(np.add.reduce(f * f, axis=0))
            f = f * np.where(nrm > s.M1, s.M1 / np.maximum(nrm, 1e-300), 1.0)
        x = x + (f - u0_node[u] * c[par] * np.take(d, par, axis=1)) * (omega[i] * dt)
        todo.append((i + 1, xi[par], pre, x, worst[par]))
    return out


def _stable_head(z, k: int, head=np.empty(0, np.intp)) -> np.ndarray:
    """The first k indices of ``np.argsort(z, kind="stable")`` for efforts z
    with no NaN: the efforts at or below the k-th smallest, stable-sorted,
    cut to k.  Every effort past the cut follows them in the full order.
    ``head``, its first indices for a smaller k, is kept, and only the
    efforts after it are sorted: above its last effort, or equal to it at a
    later index."""
    cand = (np.arange(len(z)) if k >= len(z)
            else np.flatnonzero(z <= np.partition(z, k - 1)[k - 1]))
    if len(head):
        zc, last = z[cand], z[head[-1]]
        cand = cand[(zc > last) | ((zc == last) & (cand > head[-1]))]
    return np.concatenate([head, cand[np.argsort(z[cand], kind="stable")[:k - len(head)]]])


def brute_lower(omega, v, gamma: float, spec: EnumSpec, s: Scenario):
    """Global minimum of the lower effort over piecewise-constant (u, u0)
    and a coarse initial-position grid, for frozen (omega, v) node values:
    (z*, (x_init, u, u0)), the controls at the N+1 nodes.

    A sequence's effort does not depend on its trajectory, so the sequences
    are simulated in blocks of ``BLOCK_PAIRS // x_init_points`` in a stable
    order of effort.  The first feasible pair of the first block that holds
    one has the least feasible effort z*, and of the pairs at z* it is the
    one ``EnumSpec``'s tie rule picks.  The order is built lazily: only the
    first k sequences of it (``_stable_head``), k one block at first and
    doubled whenever a block runs past it, each extension sorting only the
    sequences past the order built so far, so its blocks are the full
    stable order's, bitwise.  The efforts are one table over the
    (per_node,)*N grid of sequences, summed by broadcasting, and a block's
    uint8 sequence rows are formed from its flat indices only when it is
    simulated.  omega and v must be finite.

    The model is an independent Euler one: its cone coefficient keeps the
    min cap min(M/R1, gamma exp(gamma h_lower)) (``_max_h_lower``), not the
    smoothed field's banded cap (``dynamics._cone_terms``), so the
    enumeration shares no formula with the solver's field."""
    N = spec.n_intervals
    omega = np.asarray(omega, dtype=float)
    v = np.asarray(v, dtype=float)
    if omega.shape != (N + 1,):
        raise ValueError(f"omega must be given at the oracle's N+1 = {N + 1} nodes, "
                         f"got shape {omega.shape}")
    if v.shape != (N + 1, s.dim):
        raise ValueError(f"v must be given at the oracle's N+1 nodes, shape ({N + 1}, {s.dim}), "
                         f"got shape {v.shape}")
    for name, arr in (("omega", omega), ("v", v)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite at every node, got {arr.tolist()!r}")
    dt = 1.0 / N
    # y path by Euler (independent route)
    y = np.empty((N + 1, s.dim))
    y[0] = s.y0_arr
    for i in range(N):
        y[i + 1] = y[i] + v[i] * omega[i] * dt

    x_grid = _x_init_grid(s, spec.x_init_points)
    u_node, u0_node = _ball_grid(s.u_bound, np.linspace(0.0, 1.0, spec.levels_per_control), "u")
    per_node = len(u_node)
    total = (per_node ** N) * len(x_grid)
    if total > MAX_COMBINATIONS:
        raise ValueError(f"enumeration budget exceeded: {per_node}**{N} * {len(x_grid)} = "
                         f"{total} (sequence, initial point) pairs > {MAX_COMBINATIONS}")

    # each node combination's effort before the dilation, once; each
    # sequence's trapezoidal effort is summed one interval at a time, as a
    # sum over the interval axis rounds: interval i's term reads the
    # sequence's indices i and min(i + 1, N - 1), so it is a table over
    # those axes of the (per_node,)*N grid, broadcast onto it, and the grid
    # ravels in ``itertools.product`` order
    base = np.sum(u_node * u_node, axis=1) + u0_node ** 2
    grid = (per_node,) * N
    z = None
    for i in range(N):
        prev = base * omega[i]
        if i < N - 1:
            term = 0.5 * ((base * omega[i + 1])[None, :] + prev[:, None]) * dt
            term = term.reshape((1,) * i + (per_node, per_node) + (1,) * (N - i - 2))
        else:
            term = (0.5 * (base * omega[i + 1] + prev) * dt).reshape((1,) * i + (per_node,))
        z = term if z is None else z + term
    z = z.ravel()

    step = max(1, BLOCK_PAIRS // len(x_grid))   # sequences per block
    order = _stable_head(z, step)
    for start in range(0, len(z), step):
        k = len(order)
        if k < min(start + step, len(z)):   # the block runs past the order built so far
            while k < start + step:
                k *= 2
            order = _stable_head(z, k, order)
        block = order[start:start + step]
        rows = np.stack(np.unravel_index(block, grid), axis=1).astype(np.uint8)
        feas = _max_h_lower(rows, x_grid, y, u_node, u0_node, omega, gamma, s) <= FEAS_TOL
        hit = feas.any(axis=0)
        if hit.any():
            j = np.argmax(hit)
            idx = _interval_to_nodes(rows[j])
            x_init = x_grid[np.argmax(feas[:, j])].copy()
            return float(z[block[j]]), (x_init, u_node[idx], u0_node[idx])
    raise OracleInfeasibleError("no feasible (u, u0, x_init) combination")


def _distinct_points(p):
    """The distinct rows of the points p (K, 2), sorted by their complex
    keys, and each row's index among them.  A 1-D complex key finds them far
    faster than a row-wise unique; rows that differ only in the sign of a
    zero are one."""
    _, first, which = np.unique(p[:, 0] + 1j * p[:, 1], return_index=True, return_inverse=True)
    return p[first], which


def _plan_centers(y0, steps, n_intervals: int):
    """The plan center after each prefix of 0..n_intervals nodes, over the
    prefix tree of the ``itertools.product`` order: per prefix length, the
    distinct centers (D, 2) and each prefix's index among them, the prefixes
    in product order.

    A center is its parent's plus one of the P node steps v w dt (P, 2), added
    as a per-plan sum adds it, so every plan's centers are its own sums
    bitwise, but for the sign of a zero; each distinct center is extended
    once."""
    pos, where = y0[None], np.zeros(1, dtype=np.intp)
    for i in range(n_intervals + 1):
        yield pos, where
        if i < n_intervals:
            parents = len(pos)
            pos, which = _distinct_points((pos[:, None] + steps).reshape(-1, 2))
            where = which.reshape(parents, len(steps))[where].ravel()


def brute_bilevel(spec: EnumSpec, s: Scenario):
    """Exhaustive search over piecewise-constant (v, omega); each feasible
    candidate is costed with its own brute lower solve at the smoothing gain
    gamma = 8 M/R1, in the order of ``EnumSpec``'s tie rule.  Returns
    (T_best, decision dict).

    The upper constraints read only the plan center, and many plans share
    it: h_upper and the exit distance are measured once per distinct center
    of each prefix length, and only the feasible plans are timed and sorted."""
    gamma = 8.0 * s.cone_gain
    N = spec.n_intervals
    dt = 1.0 / N
    v_node, w_node = _ball_grid(s.v_bound, np.linspace(0.0, spec.omega_max,
                                                       spec.levels_per_control), "v")
    per_node = len(v_node)
    C = per_node ** N
    if C > MAX_COMBINATIONS:
        raise ValueError(f"enumeration budget exceeded: {per_node}**{N} = {C} plans "
                         f"> {MAX_COMBINATIONS}")
    # each prefix stays feasible while every center on it satisfies h_upper;
    # the last prefixes are the plans, and their centers the endpoints
    feas = np.ones(1, dtype=bool)
    for i, (pos, where) in enumerate(_plan_centers(s.y0_arr, v_node * (w_node * dt)[:, None], N)):
        dq = pos - s.q0_arr
        inside = 0.5 * (np.add.reduce(dq * dq, axis=1) - (s.R - s.R1) ** 2) <= FEAS_TOL
        feas = (np.repeat(feas, per_node) if i else feas) & inside[where]
    feas &= (target_distance(pos, s) <= spec.target_tol)[where]
    if not np.any(feas):
        raise OracleInfeasibleError("no (v, omega) candidate reaches the exit target")
    seq = np.stack(np.unravel_index(np.flatnonzero(feas), (per_node,) * N), axis=1)
    w_nodes_full = _interval_to_nodes(w_node[seq].T)   # (N+1, F)
    t_final = np.sum(0.5 * (w_nodes_full[1:] + w_nodes_full[:-1]) * dt, axis=0)
    for j in np.argsort(t_final, kind="stable"):
        v_nodes = _interval_to_nodes(v_node[seq[j]])
        w_nodes = w_nodes_full[:, j]
        try:
            phi, dec = brute_lower(w_nodes, v_nodes, gamma, spec, s)
        except OracleInfeasibleError:
            continue
        return float(t_final[j]), {
            "v": v_nodes, "omega": w_nodes, "phi": phi,
            "x_init": dec[0], "u": dec[1], "u0": dec[2],
        }
    raise OracleInfeasibleError("no candidate admits a feasible lower solve")


# the sup oracle's u0 grid on [0, 1] and its squares, shared by every call
# and so read-only
SIGMA_U0 = np.linspace(0.0, 1.0, 10_000)
SIGMA_U0_SQ = SIGMA_U0 ** 2
SIGMA_U0.flags.writeable = SIGMA_U0_SQ.flags.writeable = False
SIGMA_STEP = float(SIGMA_U0[1] - SIGMA_U0[0])
# grid indices added on each side of the window the roundoff bound leaves,
# for the vertex step's neighbours and the rounding of the window's own ends
SIGMA_WINDOW_MARGIN = 3


def _sigma_window(lin: float, r) -> tuple:
    """The index range [lo, hi) of ``SIGMA_U0`` that may hold the first
    maximizer of lin u - r u^2 as the grid evaluates it, padded by
    ``SIGMA_WINDOW_MARGIN``.  It is the whole grid when r <= 0, when lin or
    r is not finite, and when the bound below excludes nothing.

    Each grid value f_j = fl(fl(lin u_j) - fl(r u_j^2)) is within
    B = 2^-50 (|lin| + r) + 2^-1072 of g(u_j) = lin u_j - r u_j^2: three
    roundings of at most 2^-53 relative error each (Higham 2002, ch. 3), with
    room for their products and for underflow.  With c = clip(lin / 2r, 0, 1),
    g(c) - g(u) >= r (u - c)^2 on [0, 1], so a u_j farther from c than
    sqrt((u_k - c)^2 + 2B/r), u_k the grid point nearest c, loses strictly to
    u_k: neither the maximum nor a tie with it lies outside."""
    n = SIGMA_U0.size
    r = float(r)
    if r > 0.0 and math.isfinite(lin) and math.isfinite(r):
        c = lin / r * 0.5   # clipped to [0, 1] as min(1.0, max(0.0, c)) clips it
        c = 0.0 if not c > 0.0 else 1.0 if c > 1.0 else c
        k = round(c * (n - 1))
        off = SIGMA_U0.item(k) - c
        bound = 2.0 ** -50 * (abs(lin) + r) + 2.0 ** -1072
        rho = math.sqrt(off * off + 2.0 * bound / r)
        if rho < 1.0:
            lo = math.floor((c - rho) * (n - 1)) - SIGMA_WINDOW_MARGIN
            hi = math.ceil((c + rho) * (n - 1)) + SIGMA_WINDOW_MARGIN + 1
            return (lo if lo > 0 else 0), (hi if hi < n else n)
    return 0, n


def sigma_sup_oracle(qL, nuL: float, r: float, x, y, s: Scenario,
                     coeff: Optional[float] = None) -> float:
    """Grid supremum over the cone activation of its Hamiltonian contribution.

    Evaluates sup over u0 in [0,1] of <qL - nuL (x - y), -coeff (x - y) u0> - r u0^2
    on the grid ``SIGMA_U0``, refined by one parabolic vertex evaluation (the
    objective is a concave quadratic, so the refinement stays an honest evaluation).
    Only the window of ``_sigma_window`` is evaluated: the grid points within
    sqrt((u_k - c)^2 + 2B/r) of c = clip(lin / 2r, 0, 1), B the roundoff
    bound of one grid value, and three more on each side.  Every grid value
    outside it loses strictly, so the result is the whole grid's, bitwise.

    The window is scanned once in float arithmetic (``_window_argmax``), each
    value rounded as the NumPy grid expression rounds it: the scan keeps
    ``np.argmax``'s first maximum, or stops at the first NaN, and keeps no
    value list; the vertex triple is then evaluated directly.  lin stays a
    NumPy dot product of two 2-vectors, as BLAS may fuse its multiply-add.
    Where the window is the whole grid (r <= 0, lin or r not finite, or a
    bound that excludes nothing) the scan runs over all 10,000 points: on a
    2-core host about 0.6 ms a call, against 4.6 us for a windowed one."""
    q0, q1 = np.asarray(qL, dtype=float).tolist()
    x0, x1 = np.asarray(x, dtype=float).tolist()
    y0, y1 = np.asarray(y, dtype=float).tolist()
    nu, a = float(nuL), -float(s.cone_gain if coeff is None else coeff)
    d0, d1 = x0 - y0, x1 - y1
    lin = float(np.dot((q0 - nu * d0, q1 - nu * d1), (a * d0, a * d1)))
    r = float(r)
    lo, hi = _sigma_window(lin, r)
    u0, sq = SIGMA_U0[lo:hi].tolist(), SIGMA_U0_SQ[lo:hi].tolist()
    j, best = _window_argmax(lin, r, u0, sq)
    # parabolic vertex through an adjacent triple, then evaluate there; the
    # objective is a concave quadratic, so the vertex is exact even when the
    # grid argmax sits at an endpoint.  The window's margin holds the triple.
    jc = min(max(lo + j, 1), SIGMA_U0.size - 2) - lo
    left = lin * u0[jc - 1] - r * sq[jc - 1]
    mid = lin * u0[jc] - r * sq[jc]
    right = lin * u0[jc + 1] - r * sq[jc + 1]
    denom = left - 2 * mid + right
    if abs(denom) > 1e-300:
        ustar = u0[jc] + 0.5 * SIGMA_STEP * (left - right) / denom
        ustar = min(1.0, max(0.0, ustar))
        best = max(best, lin * ustar - r * ustar ** 2)
    return best


def _window_argmax(lin: float, r: float, u0, sq) -> tuple:
    """``np.argmax`` of the grid values lin u - r u^2 over the floats u0 and
    their squares sq, each value rounded as the NumPy expression rounds it,
    in one pass that keeps no value list: (the index of the first maximum,
    or of the first NaN, and the value there)."""
    j, best = 0, lin * u0[0] - r * sq[0]
    if best != best:
        return 0, best
    for i in range(1, len(u0)):
        v = lin * u0[i] - r * sq[i]
        if v > best:
            j, best = i, v
        elif v != v:
            return i, v
    return j, best


def fd_check(fn: Callable[[np.ndarray], float], grad: np.ndarray, point: np.ndarray,
             directions: Sequence[np.ndarray], h: float = 1e-6) -> float:
    """Max relative error of a supplied gradient against central differences
    along the given directions; NaN if a difference or a prediction is not
    finite.  A step h that is not positive and finite is a ValueError."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive and finite: {h!r}")
    directions = [np.asarray(delta, dtype=float) for delta in directions]
    if not directions:
        raise ValueError("directions must not be empty")
    point = np.asarray(point, dtype=float)
    grad = np.asarray(grad, dtype=float)
    worst = 0.0
    for delta in directions:
        fd = (fn(point + h * delta) - fn(point - h * delta)) / (2 * h)
        pred = float(np.dot(grad, delta))
        if not (np.isfinite(fd) and np.isfinite(pred)):
            return float("nan")
        scale = max(abs(fd), abs(pred), 1e-12)
        worst = max(worst, abs(fd - pred) / scale)
    return worst
