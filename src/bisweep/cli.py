"""Command-line front end.

Subcommands:

* ``validate``    -- run standing-assumption checks on a scenario file
* ``simulate``    -- integrate a stored control profile and report feasibility
* ``solve``       -- run the continuation solver and export the trajectory
* ``certify``     -- solve and evaluate the optimality certificate
* ``oracle``      -- run the brute-force enumeration baselines
* ``sweep-gamma`` -- smoothing-convergence study for a control profile

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 solver failure,
4 certificate failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from .dynamics import (
    ControlProfile,
    SmoothingSchedule,
    TimeGrid,
    feasibility_monitor,
    integrate_catchup,
    integrate_smooth,
    convergence_study,
)
from .certificate import certify
from .geometry import SCENARIO_KEYS, Scenario, checked, require_known_keys, straight_corridor, validate
from .oracle import EnumSpec, brute_bilevel, OracleInfeasibleError
from .solver import (LOWER_KKT_TOL, LOWER_VIOLATION_TOL, SolverOptions, penalty_gap,
                     solve_bilevel)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SOLVE = 3
EXIT_CERTIFICATE = 4

# keys of a config's run section: those passed on to SolverOptions, then the rest
SOLVER_RUN_KEYS = tuple(SolverOptions.__dataclass_fields__)
RUN_KEYS = SOLVER_RUN_KEYS + ("gamma_max", "oracle")
# keys of a stored control profile: the required ones, then the optional smoothing gain
PROFILE_KEYS = ("v", "u", "u0", "omega", "x_init", "gamma")


def _load_config(path):
    """A config file is a scenario file, optionally with a ``run`` section."""
    if path is None:
        return straight_corridor(), {}
    with open(path, "r", encoding="utf-8") as fh:
        data = require_known_keys(yaml.safe_load(fh), (*SCENARIO_KEYS, "run"), "config section")
    run = require_known_keys(data.pop("run", None), RUN_KEYS, "run key")
    scenario = Scenario.from_dict(data)
    return scenario, run


def _node_values(data, key, n=None, width=None):
    """The profile's ``key``, one number or one row of ``width`` numbers per
    grid node (``n`` of them, when given), read by ``checked``."""
    rows = data[key]
    if not isinstance(rows, list) or (n is not None and len(rows) != n):
        raise ValueError(f"{key} must be a list with one entry per grid node, got {rows!r}")
    return np.array([checked(key, row, size=width) for row in rows])


def _load_profile(path, s: Scenario):
    """A stored control profile and its optional ``gamma``; unknown or missing
    keys, malformed numbers, fewer nodes than a ``TimeGrid`` has, controls
    outside the scenario's balls, an ``x_init`` outside the initial small
    disk Q1 + y0 and a ``gamma`` that ``Scenario.smoothing_gain`` refuses are
    refused."""
    with open(path, "r", encoding="utf-8") as fh:
        data = require_known_keys(yaml.safe_load(fh), PROFILE_KEYS, "profile key")
    missing = [key for key in PROFILE_KEYS[:-1] if key not in data]
    if missing:
        raise ValueError(f"profile gives no {', '.join(missing)} "
                         f"(required: {', '.join(PROFILE_KEYS[:-1])})")
    v = _node_values(data, "v", width=s.dim)
    try:
        grid = TimeGrid(len(v) - 1)
    except ValueError as err:
        raise ValueError(f"profile v: {err}, got {len(v)} node values") from None
    u = _node_values(data, "u", len(v), s.dim)
    u0, omega = (_node_values(data, key, len(v)) for key in ("u0", "omega"))
    cp = ControlProfile(grid, v, u, u0, omega)
    cp.check_bounds(s)
    x_init = np.array(checked("x_init", data["x_init"], size=s.dim))
    gap = float(np.linalg.norm(x_init - s.y0_arr))
    if gap > s.R1 * (1.0 + 1e-9):
        raise ValueError(f"x_init = {data['x_init']!r} is not a point of Q1 + y0: "
                         f"|x_init - y0| = {gap:g} > R1 = {s.R1:g}")
    gamma = data.get("gamma")
    return cp, x_init, None if gamma is None else s.smoothing_gain(gamma)


def _write_trajectory_csv(path, tr, cp):
    u0 = cp.u0 if tr.u0_realized is None else tr.u0_realized   # the u0 that z integrates
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["tau", "t", "y1", "y2", "x1", "x2", "z",
                     "u1", "u2", "u0", "v1", "v2", "omega"])
        for i in range(tr.grid.n_nodes):
            wr.writerow([tr.grid.nodes[i], tr.t[i], *tr.y[i], *tr.x[i], tr.z[i],
                         *cp.u[i], u0[i], *cp.v[i], cp.omega[i]])


def _write_json(out_dir, name, data) -> Path:
    """Write ``data`` as indented JSON to ``name`` in the directory ``out_dir``,
    made if missing, NumPy scalars as floats; returns the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, default=float)
    return out


def _export_solution(out_dir, sol, s):
    out = _write_json(out_dir, "solution.json", {**sol.to_dict(), "scenario": s.to_dict()})
    _write_trajectory_csv(out / "trajectory.csv", sol.trajectory, sol.lower.decision.controls)
    return out


def _solver_options(args, run):
    kw = {}
    if args.grid is not None:
        kw["n_intervals"] = args.grid
    if args.seed is not None:
        kw["seed"] = args.seed
    for key in SOLVER_RUN_KEYS:
        if key in run and key not in kw:
            kw[key] = run[key]
    return SolverOptions(**kw)


def _gamma_schedule(args, run, s):
    """The doubling schedule ending at ``--gamma-max``, else at the config's
    ``run: gamma_max``, else at its default."""
    gamma_max = args.gamma_max
    if gamma_max is None and "gamma_max" in run:
        gamma_max = s.smoothing_gain(run["gamma_max"], "run.gamma_max")
    return SmoothingSchedule.default_for(s, gamma_max)


def _solve_exit_code(sol, code):
    """EXIT_SOLVE, naming the cause, when the solve did not converge; else
    ``code``.  The cause is the first gamma of the lower path whose solve did
    not converge, with its SLSQP exit status, KKT residual and violation; if
    every one did, the solve's status, whose plan part failed."""
    if sol.status["converged"]:
        return code
    failed = next((h for h in sol.history if not h["converged"]), None)
    if failed is None:
        print(f"solver did not converge: {sol.status}", file=sys.stderr)
    else:
        print(f"solver did not converge: the lower solve at gamma = {failed['gamma']:g} "
              f"stopped with SLSQP exit status {failed['exit_status']}, kkt_residual "
              f"{failed['kkt_residual']:.3e} (tolerance {LOWER_KKT_TOL:g}) and max_violation "
              f"{failed['max_violation']:.3e} (tolerance {LOWER_VIOLATION_TOL:g})",
              file=sys.stderr)
    return EXIT_SOLVE


def _validation_failed(s) -> bool:
    """True when the scenario fails validation; each failed check goes to stderr."""
    report = validate(s)
    for chk in report.failures():
        print(f"validation failure: {chk.name}: {chk.detail}", file=sys.stderr)
    return not report.ok


def cmd_validate(args):
    s, _ = _load_config(args.config)
    report = validate(s)
    for chk in report.checks:
        mark = "ok" if chk.passed else "FAIL"
        print(f"{chk.name:>14s}: {mark}  {chk.detail}")
    if args.out:
        _write_json(args.out, "validation.json", {"ok": report.ok, **asdict(report)})
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_simulate(args):
    s, _ = _load_config(args.config)
    cp, x_init, gamma = _load_profile(args.profile, s)
    if gamma is not None:
        tr = integrate_smooth(cp, x_init, gamma, s)
    else:
        tr = integrate_catchup(cp, x_init, s)
    rep = feasibility_monitor(tr, s)
    print(f"T = {tr.T:.6f}  effort = {tr.z[-1]:.6f}")
    print(f"max h_lower = {rep.max_h_lower:.3e}  max h_upper = {rep.max_h_upper:.3e}  "
          f"target distance = {rep.terminal_distance:.3e}")
    if args.out:
        out = _write_json(args.out, "feasibility.json", asdict(rep))
        _write_trajectory_csv(out / "trajectory.csv", tr, cp)
    return EXIT_OK


def _solve(args):
    """The config's scenario and its continuation solve, shared by ``solve``
    and ``certify``; an exit code in place of the solution when the scenario
    fails validation or the solver raises."""
    s, run = _load_config(args.config)
    if _validation_failed(s):
        return s, EXIT_VALIDATION
    opts = _solver_options(args, run)
    gam = _gamma_schedule(args, run, s)
    try:
        return s, solve_bilevel(s, gam, opts)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"solver failure: {exc}", file=sys.stderr)
        return s, EXIT_SOLVE


def cmd_solve(args):
    s, sol = _solve(args)
    if isinstance(sol, int):
        return sol
    print(f"T* = {sol.T_star:.6f}  gap = {penalty_gap(sol):.3e}  "
          f"gamma = {sol.lower.gamma:g}")
    if args.out:
        _export_solution(args.out, sol, s)
    return _solve_exit_code(sol, EXIT_OK)


def cmd_certify(args):
    s, sol = _solve(args)
    if isinstance(sol, int):
        return sol
    cert = certify(sol, s)
    print(f"T* = {sol.T_star:.6f}")
    for line in cert.summary_lines():
        print(line)
    if args.out:
        _write_json(_export_solution(args.out, sol, s), "certificate.json", cert.to_dict())
    return _solve_exit_code(sol, EXIT_OK if cert.ok else EXIT_CERTIFICATE)


def cmd_oracle(args):
    s, run = _load_config(args.config)
    spec = EnumSpec(**require_known_keys(run.get("oracle"), EnumSpec.__dataclass_fields__,
                                         "run.oracle key"))
    try:
        T, decision = brute_bilevel(spec, s)
    except OracleInfeasibleError as exc:
        print(f"oracle found no feasible plan: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    print(f"oracle T = {T:.6f}  phi = {decision['phi']:.6f}")
    if args.out:
        _write_json(args.out, "oracle.json", {"T": T, "decision": {
            k: np.asarray(val).tolist() for k, val in decision.items()}})
    return EXIT_OK


def cmd_sweep_gamma(args):
    s, run = _load_config(args.config)
    cp, x_init, _ = _load_profile(args.profile, s)
    sched = _gamma_schedule(args, run, s)
    errs = convergence_study(cp, x_init, sched, s)
    for g, e in zip(sched.gammas, errs):
        print(f"gamma = {g:10.3f}   sup |x_smooth - x_catchup| = {e:.6e}")
    if args.out:
        _write_json(args.out, "gamma_sweep.json",
                    {"gammas": list(sched.gammas), "errors": errs.tolist()})
    return EXIT_OK


# every flag a subcommand may take, and the subcommands with the flags each reads
FLAGS = {
    "--config": dict(help="scenario YAML (default: built-in straight corridor)"),
    "--out": dict(help="output directory"),
    "--grid": dict(type=int, help="number of time intervals"),
    "--seed": dict(type=int, help="random seed for multi-start"),
    "--gamma-max": dict(type=float, help="last smoothing gain of the doubling continuation "
                                         "schedule (default 64 M/R1)"),
    "--profile": dict(required=True, help="stored control profile YAML"),
}
COMMANDS = {
    "validate": (cmd_validate, ()),
    "simulate": (cmd_simulate, ("--profile",)),
    "solve": (cmd_solve, ("--grid", "--seed", "--gamma-max")),
    "certify": (cmd_certify, ("--grid", "--seed", "--gamma-max")),
    "oracle": (cmd_oracle, ()),
    "sweep-gamma": (cmd_sweep_gamma, ("--profile", "--gamma-max")),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bisweep",
                                description="Time-optimal sweeping-control solver and certificate checker")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in ("--config", "--out", *flags):
            sp.add_argument(flag, **FLAGS[flag])
        sp.set_defaults(func=fn)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
