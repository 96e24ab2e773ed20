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
from .certificate import PENALTY_WEIGHT, certify
from .geometry import SCENARIO_KEYS, Scenario, require_known_keys, straight_corridor, validate
from .oracle import EnumSpec, brute_bilevel, OracleInfeasibleError
from .solver import SolverOptions, penalty_gap, solve_bilevel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SOLVE = 3
EXIT_CERTIFICATE = 4

# keys of a config's run section: those passed on to SolverOptions, then the rest
SOLVER_RUN_KEYS = ("n_intervals", "seeds", "seed", "upper_max_iter", "lower_max_iter")
RUN_KEYS = SOLVER_RUN_KEYS + ("gamma_max", "rho_max", "oracle")


def _load_config(path):
    """A config file is a scenario file, optionally with a ``run`` section."""
    if path is None:
        return straight_corridor(), {}
    with open(path, "r", encoding="utf-8") as fh:
        data = require_known_keys(yaml.safe_load(fh), (*SCENARIO_KEYS, "run"), "config section")
    run = require_known_keys(data.pop("run", None), RUN_KEYS, "run key")
    scenario = Scenario.from_dict(data)
    return scenario, run


def _load_profile(path, s: Scenario, grid=None):
    """A stored control profile; controls outside the scenario's balls and a
    missing ``x_init`` or one outside the initial small disk Q1 + y0 are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    v = np.asarray(data["v"], dtype=float)
    grid = grid or TimeGrid(v.shape[0] - 1)
    cp = ControlProfile(grid, v,
                        np.asarray(data["u"], dtype=float),
                        np.asarray(data["u0"], dtype=float),
                        np.asarray(data["omega"], dtype=float))
    cp.check_bounds(s)
    if "x_init" not in data:
        raise ValueError("profile gives no x_init, the initial state of the swept point")
    x_init = np.asarray(data["x_init"], dtype=float)
    gap = float(np.linalg.norm(x_init - s.y0_arr)) if x_init.shape == (s.dim,) else np.inf
    if gap > s.R1 * (1.0 + 1e-9):
        raise ValueError(f"x_init = {data['x_init']!r} is not a point of Q1 + y0: "
                         f"|x_init - y0| = {gap:g} > R1 = {s.R1:g}")
    return cp, x_init, data


def _write_trajectory_csv(path, tr, cp):
    grid = tr.grid
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["tau", "t", "y1", "y2", "x1", "x2", "z",
                     "u1", "u2", "u0", "v1", "v2", "omega"])
        for i in range(grid.n_nodes):
            wr.writerow([grid.nodes[i], tr.t[i], *tr.y[i], *tr.x[i], tr.z[i],
                         *cp.u[i], cp.u0[i], *cp.v[i], cp.omega[i]])


def _export_solution(out_dir, sol, s, extra=None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(out / "trajectory.csv", sol.trajectory, sol.decision.controls)
    meta = sol.to_dict()
    meta["scenario"] = s.to_dict()
    if extra:
        meta.update(extra)
    with open(out / "solution.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, default=float)
    # data-only plot payloads (rendering left to the caller)
    plot = {
        "tau": sol.trajectory.grid.nodes.tolist(),
        "t": sol.trajectory.t.tolist(),
        "y": sol.trajectory.y.tolist(),
        "x": sol.trajectory.x.tolist(),
        "z": sol.trajectory.z.tolist(),
        "omega": sol.decision.controls.omega.tolist(),
    }
    with open(out / "plot_data.json", "w", encoding="utf-8") as fh:
        json.dump(plot, fh)
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


def _flag_or_run(args, run, key):
    """A command-line value, else the config's ``run:`` value, else None."""
    value = getattr(args, key)
    return run.get(key) if value is None else value


def _gamma_schedule(args, run, s):
    return SmoothingSchedule.default_for(s, _flag_or_run(args, run, "gamma_max"))


def _penalty_weight(args, run):
    """Penalty weight rho of the certificate's effort multiplier."""
    rho = _flag_or_run(args, run, "rho_max")
    rho = PENALTY_WEIGHT if rho is None else float(rho)
    if not 0.0 < rho < np.inf:
        raise ValueError(f"--rho-max must be finite and positive, got {rho:g}")
    return rho


def _solve_exit_code(sol, code):
    """EXIT_SOLVE, naming the cause, when the solve did not converge; else ``code``."""
    if sol.status["converged"]:
        return code
    print(f"solver did not converge: {sol.status}", file=sys.stderr)
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
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with open(Path(args.out) / "validation.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, default=float)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_simulate(args):
    s, run = _load_config(args.config)
    if not args.profile:
        print("simulate requires --profile with a stored control profile", file=sys.stderr)
        return EXIT_USAGE
    grid = TimeGrid(args.grid) if args.grid else None
    cp, x_init, data = _load_profile(args.profile, s, grid)
    gamma = data.get("gamma")
    if gamma is not None:
        tr = integrate_smooth(cp, x_init, float(gamma), s)
    else:
        tr = integrate_catchup(cp, x_init, s)
    rep = feasibility_monitor(tr, s)
    print(f"T = {tr.T:.6f}  effort = {tr.z[-1]:.6f}")
    print(f"max h_lower = {rep.max_h_lower:.3e}  max h_upper = {rep.max_h_upper:.3e}  "
          f"target distance = {rep.terminal_distance:.3e}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_trajectory_csv(out / "trajectory.csv", tr, cp)
        with open(out / "feasibility.json", "w", encoding="utf-8") as fh:
            json.dump(rep.to_dict(), fh, indent=2, default=float)
    return EXIT_OK


def cmd_solve(args):
    s, run = _load_config(args.config)
    if _validation_failed(s):
        return EXIT_VALIDATION
    opts = _solver_options(args, run)
    gam = _gamma_schedule(args, run, s)
    _penalty_weight(args, run)  # refuse a bad weight before solving, as certify does
    try:
        sol = solve_bilevel(s, gam, opts)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    print(f"T* = {sol.T_star:.6f}  gap = {penalty_gap(sol):.3e}  "
          f"gamma = {sol.gamma_final:g}")
    if args.out:
        _export_solution(args.out, sol, s)
    return _solve_exit_code(sol, EXIT_OK)


def cmd_certify(args):
    s, run = _load_config(args.config)
    if _validation_failed(s):
        return EXIT_VALIDATION
    opts = _solver_options(args, run)
    gam = _gamma_schedule(args, run, s)
    rho = _penalty_weight(args, run)
    try:
        sol = solve_bilevel(s, gam, opts)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    cert = certify(sol, s, rho=rho)
    print(f"T* = {sol.T_star:.6f}")
    for line in cert.summary_lines():
        print(line)
    if args.out:
        out = _export_solution(args.out, sol, s)
        with open(out / "certificate.json", "w", encoding="utf-8") as fh:
            json.dump(cert.to_dict(), fh, indent=2, default=float)
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
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with open(Path(args.out) / "oracle.json", "w", encoding="utf-8") as fh:
            json.dump({"T": T, "decision": decision}, fh, indent=2, default=float)
    return EXIT_OK


def cmd_sweep_gamma(args):
    s, run = _load_config(args.config)
    if not args.profile:
        print("sweep-gamma requires --profile with a stored control profile", file=sys.stderr)
        return EXIT_USAGE
    cp, x_init, _ = _load_profile(args.profile, s)
    sched = _gamma_schedule(args, run, s)
    errs = convergence_study(cp, x_init, sched, s)
    for g, e in zip(sched.gammas, errs):
        print(f"gamma = {g:10.3f}   sup |x_smooth - x_catchup| = {e:.6e}")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with open(Path(args.out) / "gamma_sweep.json", "w", encoding="utf-8") as fh:
            json.dump({"gammas": list(sched.gammas), "errors": errs.tolist()}, fh, indent=2)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bisweep",
                                description="Time-optimal sweeping-control solver and certificate checker")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="scenario YAML (default: built-in straight corridor)")
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--grid", type=int, default=None, help="number of time intervals")
    common.add_argument("--seed", type=int, default=None, help="random seed for multi-start")
    common.add_argument("--rho-max", type=float, default=None, dest="rho_max",
                        help="penalty weight of the certificate's effort multiplier (default 64)")
    common.add_argument("--gamma-max", type=float, default=None, dest="gamma_max",
                        help="last smoothing gain of the doubling continuation schedule "
                             "(default 64 M/R1)")
    common.add_argument("--profile", type=str, default=None,
                        help="stored control profile YAML (simulate / sweep-gamma)")
    for name, fn in [("validate", cmd_validate), ("simulate", cmd_simulate),
                     ("solve", cmd_solve), ("certify", cmd_certify),
                     ("oracle", cmd_oracle), ("sweep-gamma", cmd_sweep_gamma)]:
        sp = sub.add_parser(name, parents=[common])
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
