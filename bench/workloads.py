"""The benchmark's three workloads and their correctness checks.

Each workload builds its inputs once from the seed (`setup`) and then runs
whole passes over them (`run_pass`).  A pass repeats exactly the same work,
so its counters and result fingerprints must repeat too.  Every call into
bisweep goes through a module attribute (``solver.solve_bilevel``, not a
name imported into this file), so the tracer's wrappers see it.

Why each workload exists is written down in ``bench/README.md``.
"""

from __future__ import annotations

import math
import time
import traceback

import numpy as np

from bisweep import certificate, dynamics, geometry, oracle, solver

CORRIDOR_OPTS = dict(n_intervals=40, seeds=1, screen_iters=3)   # tests/conftest.py
AFFINE = dict(drift=geometry.DriftSpec(name="affine", A=((0.0, 0.05), (-0.05, 0.0))),
              K_f=0.05, M1=1.2)                                  # A4's third scenario
FEAS_TOL = 1e-6
T_STEP = 10.0 / 2 * 0.25             # A5: one grid step of EnumSpec(4, 3)
BRUTE_35_T = 7.5                     # brute_bilevel(EnumSpec(3, 5)) on the corridor
SIGMA_TOL = 1e-9                     # A1
A2_N = 200                           # A2's bound is 5 (M1 + M) / n at A2's own n


class Recorder:
    """Counts operations and failures and times each operation by step."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_times: dict[str, list[float]] = {}
        self.step_times: dict[str, list[float]] = {}
        self.max_violation = 0.0
        self.counters: dict[str, float] = {}
        self._pass: dict[str, float] = {}

    def begin_pass(self):
        self._pass = {}

    def end_pass(self):
        for step, total in self._pass.items():
            self.step_times.setdefault(step, []).append(total)

    def fail(self, step: str, why: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{step}: {why}")

    def attempt(self, step: str, fn, check=None):
        """Run one operation; an exception or a failed check counts it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self._time(step, t0)
            self.fail(step, traceback.format_exc(limit=4))
            return None
        self._time(step, t0)
        problem = check(out) if check is not None else None
        if problem:
            self.fail(step, problem)
        return out

    def skip(self, step: str, why: str):
        self.attempted += 1
        self.fail(step, f"not run: {why}")

    def _time(self, step, t0):
        dt = time.perf_counter() - t0
        self.op_times.setdefault(step, []).append(dt)
        self._pass[step] = self._pass.get(step, 0.0) + dt

    def count(self, name: str, n: float):
        self.counters[name] = self.counters.get(name, 0.0) + n


def _validated(s):
    report = geometry.validate(s)
    if not report.ok:
        raise ValueError("scenario fails validation: "
                         + ", ".join(c.name for c in report.failures()))
    s.exit_boundary_samples()
    return s


def _terminal_miss(y_end, s, target_tol):
    return max(0.0, float(geometry.target_distance(y_end, s)) - target_tol)


class Corridor:
    """solve_bilevel + certify + brute_bilevel(4, 3) on the straight corridor."""

    name = "corridor"

    def setup(self, seed):
        # seeds=1 uses only the structured initial guess: the instance is fixed
        s = _validated(geometry.straight_corridor())
        d = float(geometry.target_distance(s.y0_arr, s))
        return {"s": s, "T_closed": (d - 1e-3 * s.R) / s.v_bound}

    def run_pass(self, st, rec: Recorder):
        s = st["s"]
        opts = solver.SolverOptions(**CORRIDOR_OPTS)
        fp = {}

        def check_solve(sol):
            tr = sol.trajectory
            hl = float(np.max(geometry.h_lower(tr.x, tr.y, s)))
            hu = float(np.max(geometry.h_upper(tr.y, s)))
            miss = _terminal_miss(tr.y[-1], s, 1e-3 * s.R)
            gap = solver.penalty_gap(sol)
            rec.max_violation = max(rec.max_violation, hl, hu, miss)
            fp.update(T_star=float(sol.T_star), phi=float(sol.lower.value), gap=gap,
                      max_h_lower=hl, max_h_upper=hu, terminal_miss=miss,
                      lower_status=_plain(sol.lower.status),
                      history=[_plain(h) for h in sol.history])
            rec.count("solver.stages", len(sol.history))
            if abs(sol.T_star - st["T_closed"]) > 1e-6:
                return f"T* {sol.T_star!r} vs closed form {st['T_closed']!r}"
            if hl > FEAS_TOL or hu > FEAS_TOL:
                return f"max h_lower {hl:.3e}, max h_upper {hu:.3e} > {FEAS_TOL}"
            if gap > FEAS_TOL:
                return f"penalty gap {gap:.3e} > {FEAS_TOL}"
            return None

        sol = rec.attempt("solve", lambda: solver.solve_bilevel(s, opts=opts), check_solve)
        if sol is None:
            rec.skip("certify", "solve failed")
        else:
            rep = rec.attempt("certify", lambda: certificate.certify(sol, s))
            if rep is not None:
                fp["certificate"] = {k: [_plain(c["ok"]), _plain(c["residual"])]
                                     for k, c in rep.conditions.items()}

        def check_brute(out):
            fp["T_brute"] = float(out[0])
            if sol is not None and abs(sol.T_star - out[0]) > T_STEP:
                return f"|T* - T_brute| = {abs(sol.T_star - out[0]):.4f} > {T_STEP}"
            return None

        rec.attempt("oracle", lambda: oracle.brute_bilevel(oracle.EnumSpec(4, 3), s),
                    check_brute)
        return fp


class LowerAffine:
    """Cold solve_lower with multipliers + value_subgradient under affine drift."""

    name = "lower-affine"
    plans = 1

    def setup(self, seed):
        s = _validated(geometry.straight_corridor(**AFFINE))
        rng = np.random.default_rng(seed)
        n = CORRIDOR_OPTS["n_intervals"] + 1
        dhat = geometry.target_direction(s.y0_arr, s)
        plans = []
        for _ in range(self.plans):
            a = rng.normal(scale=0.3)
            rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            omega = 8.0 * math.exp(rng.normal(scale=0.2))
            plans.append((np.full(n, omega), np.tile(s.v_bound * (rot @ dhat), (n, 1))))
        return {"s": s, "plans": plans, "gamma": 8.0 * s.cone_gain}

    def run_pass(self, st, rec: Recorder):
        s, gamma = st["s"], st["gamma"]
        fp = []
        for omega, v in st["plans"]:
            entry = {}

            def check_lower(ls):
                cp = ls.decision.controls
                entry.update(phi=float(ls.value), status=_plain(ls.status))
                rec.max_violation = max(rec.max_violation, ls.status["max_violation"])
                if not math.isfinite(ls.value):
                    return f"non-finite phi {ls.value!r}"
                if np.linalg.norm(cp.u, axis=1).max() > s.u_bound * (1 + 1e-9):
                    return "u outside its ball"
                if cp.u0.min() < 0.0 or cp.u0.max() > 1.0:
                    return "u0 outside [0, 1]"
                if np.linalg.norm(ls.decision.x_init - s.y0_arr) > s.R1 * (1 + 1e-9):
                    return "x_init outside the initial disk"
                return None

            ls = rec.attempt("solve", lambda: solver.solve_lower(
                omega, v, gamma, s, solver.SolverOptions()), check_lower)
            if ls is None:
                rec.skip("solve", "lower solve failed")
            else:
                def check_sub(z):
                    entry.update(zeta1_norm=float(np.linalg.norm(z[0])),
                                 zeta2_norm=float(np.linalg.norm(z[1])))
                    ok = np.all(np.isfinite(z[0])) and np.all(np.isfinite(z[1]))
                    return None if ok else "non-finite value subgradient"

                rec.attempt("solve", lambda: solver.value_subgradient(omega, v, ls, s),
                            check_sub)
            fp.append(entry)
        return {"plans": fp}


class References:
    """Oracle, single-trajectory dynamics and certificate closed forms; no solver."""

    name = "references"
    profiles = 4
    sigma_pairs = 10_000
    n_sim = 800

    def setup(self, seed):
        s = _validated(geometry.straight_corridor())
        rng = np.random.default_rng(seed)
        m = self.n_sim + 1
        grid = dynamics.TimeGrid(self.n_sim)
        profiles = []
        for _ in range(self.profiles):
            # A2's boundary ride: x starts on the rim of the still disk and u
            # pushes outward, so the cone pull stays active the whole way
            a = rng.uniform(0.0, 2.0 * math.pi)
            b = a + float(np.clip(rng.normal(scale=0.3), -0.9, 0.9))
            cp = dynamics.ControlProfile(
                grid=grid, v=np.zeros((m, 2)),
                u=np.tile([s.u_bound * math.cos(b), s.u_bound * math.sin(b)], (m, 1)),
                u0=np.full(m, rng.uniform(0.8, 1.0)),
                omega=np.full(m, 2.0 * math.exp(rng.normal(scale=0.2))))
            x_init = s.y0_arr + s.R1 * np.array([math.cos(a), math.sin(a)])
            profiles.append((cp, x_init))
        k = s.cone_gain
        pairs = []
        for i in range(self.sigma_pairs):
            ang = rng.uniform(0, 2 * np.pi)
            y = rng.uniform(-3, 3, 2)
            x = y + s.R1 * np.array([np.cos(ang), np.sin(ang)])
            q = rng.uniform(-3, 3, 2)
            nu = rng.uniform(0, 3)
            r = rng.uniform(1e-3, 3)
            gamma = rng.uniform(2.1 * k, 200.0) if i % 3 == 2 else None
            pairs.append((y, x, q, nu, r, gamma))
        return {"s": s, "profiles": profiles, "sched": dynamics.SmoothingSchedule.default_for(s),
                "pairs": pairs}

    def run_pass(self, st, rec: Recorder):
        s = st["s"]
        fp = {}

        def check_brute(out):
            fp["T_brute"] = float(out[0])
            if abs(out[0] - BRUTE_35_T) > 1e-12:
                return f"T_brute {out[0]!r} differs from the recorded {BRUTE_35_T!r}"
            return None

        rec.attempt("oracle", lambda: oracle.brute_bilevel(oracle.EnumSpec(3, 5), s),
                    check_brute)

        bound = 5 * (s.M1 + s.M) / A2_N
        fp["errors"] = []
        for cp, x_init in st["profiles"]:
            def check_study(errs):
                fp["errors"].append([float(e) for e in errs])
                if not errs[-1] < errs[1]:
                    return f"no decrease: {errs[1]:.3e} -> {errs[-1]:.3e}"
                if errs[-1] > bound:
                    return f"error {errs[-1]:.3e} above A2's bound {bound:.3e}"
                return None

            rec.attempt("simulate", lambda: dynamics.convergence_study(
                cp, x_init, st["sched"], s), check_study)

        worst = 0.0
        for y, x, q, nu, r, gamma in st["pairs"]:
            def pair():
                if gamma is None:
                    return (certificate.sigma_value(y, x, q, nu, r, s),
                            oracle.sigma_sup_oracle(q, nu, r, x, y, s))
                return (certificate.sigma_smooth_value(y, x, q, nu, r, gamma, s),
                        oracle.sigma_sup_oracle(q, nu, r, x, y, s, coeff=s.cone_gain))

            def check_pair(out):
                nonlocal worst
                err = abs(out[0] - out[1])
                worst = max(worst, err)
                return None if err <= SIGMA_TOL else f"|sigma - sup oracle| = {err:.3e}"

            rec.attempt("oracle", pair, check_pair)
        fp["sigma_max_error"] = worst
        return fp


def _plain(x):
    """JSON-ready copy: numpy scalars to Python numbers, containers recursively."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.generic):
        return x.item()
    return x


WORKLOADS = {w.name: w for w in (Corridor(), LowerAffine(), References())}
