"""Command-line interface: exit codes, file outputs, determinism."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import bisweep
import bisweep.cli
from bisweep.cli import (
    EXIT_CERTIFICATE,
    EXIT_OK,
    EXIT_SOLVE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from bisweep.geometry import straight_corridor


def write_config(tmp_path, name="scenario.yaml", run=None, **overrides):
    data = straight_corridor(**overrides).to_dict()
    if run:
        data["run"] = run
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return path


def write_profile(tmp_path, n=10, u=(0.0, 0.0), u0=0.0, v=(0.0, 0.0),
                  omega=1.0, gamma=None, x_init=(0.0, 0.0)):
    m = n + 1
    data = {
        "v": [list(v)] * m,
        "u": [list(u)] * m,
        "u0": [float(u0)] * m,
        "omega": [float(omega)] * m,
    }
    if x_init is not None:
        data["x_init"] = list(x_init)
    if gamma is not None:
        data["gamma"] = gamma
    path = tmp_path / "profile.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


# its lower solves take at most 12 SLSQP iterations; on a budget of 10 the
# cold gamma = 3 solve stops at SLSQP's iteration limit (see
# test_solve_on_a_short_lower_budget_names_the_gamma_and_exits_3)
TINY_RUN = {"n_intervals": 8, "seeds": 1, "lower_max_iter": 150, "upper_max_iter": 6}


# ---------------------------------------------------------------- run keys
def test_every_solver_option_is_a_run_key():
    assert set(bisweep.cli.SOLVER_RUN_KEYS) == set(bisweep.SolverOptions.__dataclass_fields__)
    assert set(bisweep.cli.SOLVER_RUN_KEYS) <= set(bisweep.cli.RUN_KEYS)


def test_screen_iters_run_key_solves(tmp_path, monkeypatch):
    # the conftest and bench options: one seed screened for 3 iterations
    seen = []

    def solve(s, sched, opts):
        seen.append(opts)
        return real(s, sched, opts)

    real = bisweep.cli.solve_bilevel
    monkeypatch.setattr(bisweep.cli, "solve_bilevel", solve)
    cfg = write_config(tmp_path, run={**TINY_RUN, "screen_iters": 3})
    assert main(["solve", "--config", str(cfg), "--gamma-max", "12"]) == EXIT_OK
    assert (seen[0].seeds, seen[0].screen_iters) == (1, 3)


# ---------------------------------------------------------------- validate
def test_validate_default_scenario_ok(capsys):
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out


def test_validate_flags_bad_truncation_level(tmp_path, capsys):
    cfg = write_config(tmp_path, M=5.0)
    assert main(["validate", "--config", str(cfg)]) == EXIT_VALIDATION
    assert "H5" in capsys.readouterr().out


def test_validate_malformed_file(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("geometry: [unclosed")
    assert main(["validate", "--config", str(bad)]) == EXIT_USAGE


def test_unknown_scenario_section_is_refused(tmp_path, capsys):
    # a bounds: section is not part of the format; it must not load as M = 1.5
    cfg = write_config(tmp_path)
    data = yaml.safe_load(cfg.read_text())
    data["bounds"] = {"M": 5.0}
    cfg.write_text(yaml.safe_dump(data))
    assert main(["validate", "--config", str(cfg)]) == EXIT_USAGE
    assert "bounds" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("section, key, value", [
    ("geometry", "R", INF), ("geometry", "R1", NAN), ("geometry", "q0", [NAN, 0.0]),
    ("geometry", "y0", [0.0, INF]), ("exit", "angle_lo", NAN), ("exit", "angle_hi", INF),
    ("cone", "M", INF), ("controls", "u_bound", NAN), ("controls", "v_bound", INF),
    ("drift", "M1", INF), ("drift", "K_f", NAN), ("drift", "delta", -INF),
    ("drift", "A", [0.0, NAN, 0.0, 0.0])])
def test_non_finite_scenario_number_is_refused(tmp_path, capsys, section, key, value):
    # refused when the scenario is built, before any check samples with it
    cfg = write_config(tmp_path)
    data = yaml.safe_load(cfg.read_text())
    (data["geometry"]["exit"] if section == "exit" else data[section])[key] = value
    if key == "A":
        data["drift"]["name"] = "affine"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["validate", "--config", str(cfg)]) == EXIT_USAGE
    assert f"{key} must be finite" in capsys.readouterr().err


# a malformed value in a scenario section: (section, the keys it sets, the key the
# message must name)
MALFORMED_SCENARIO = {
    "y0=5": ("geometry", {"y0": 5}, "y0"),
    "q0-of-3": ("geometry", {"q0": [0.0, 0.0, 0.0]}, "q0"),
    "R=abc": ("geometry", {"R": "abc"}, "R"),
    "R1=null": ("geometry", {"R1": None}, "R1"),
    "M=list": ("cone", {"M": [1, 2]}, "M"),
    "u_bound=true": ("controls", {"u_bound": True}, "u_bound"),
    "A=7": ("drift", {"name": "affine", "A": 7}, "A"),
    "A-of-3": ("drift", {"name": "affine", "A": [1, 2, 3]}, "A"),
    "identity-with-A": ("drift", {"name": "identity", "A": [1, 2, 3, 4]}, "A"),
    "affine-without-A": ("drift", {"name": "affine", "A": None}, "A"),
}


@pytest.mark.parametrize("command", ["validate", "solve", "simulate"])
@pytest.mark.parametrize("case", MALFORMED_SCENARIO)
def test_malformed_scenario_value_is_refused_naming_its_key(tmp_path, monkeypatch, capsys,
                                                            command, case):
    monkeypatch.setattr(bisweep.cli, "solve_bilevel", _no_solve)
    section, keys, named = MALFORMED_SCENARIO[case]
    cfg = write_config(tmp_path)
    data = yaml.safe_load(cfg.read_text())
    data[section].update(keys)
    cfg.write_text(yaml.safe_dump(data))
    profile = ["--profile", str(write_profile(tmp_path))] if command == "simulate" else []
    assert main([command, "--config", str(cfg), *profile]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {named} " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "sweep-gamma"])
@pytest.mark.parametrize("key, row, value", [
    ("omega", 0, "abc"), ("omega", 3, NAN), ("v", 2, [NAN, 0.0]), ("u", 5, [0.0, 0.0, 0.0]),
    ("u0", 1, None), ("x_init", None, [NAN, 0.0]), ("gamma", None, "abc")],
    ids=["omega=abc", "omega-nan", "v-nan", "u-ragged", "u0=null", "x_init-nan", "gamma=abc"])
def test_malformed_profile_value_is_refused_naming_its_key(tmp_path, capsys, command, key,
                                                           row, value):
    # before, a NaN reached the integrator and simulate printed T = nan with exit 0
    prof = write_profile(tmp_path)
    data = yaml.safe_load(prof.read_text())
    if row is None:
        data[key] = value
    else:
        data[key][row] = value
    prof.write_text(yaml.safe_dump(data))
    assert main([command, "--profile", str(prof)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {key} " in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "sweep-gamma"])
def test_malformed_run_gamma_max_is_refused_naming_its_key(tmp_path, monkeypatch, capsys,
                                                           command):
    monkeypatch.setattr(bisweep.cli, "solve_bilevel", _no_solve)
    cfg = write_config(tmp_path, run={"gamma_max": "abc"})
    profile = ["--profile", str(write_profile(tmp_path))] if command == "sweep-gamma" else []
    assert main([command, "--config", str(cfg), *profile]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "gamma_max" in err and "Traceback" not in err


def test_malformed_scenario_value_prints_no_traceback(tmp_path):
    # the same refusal through the installed entry point, stderr as a user sees it
    cfg = write_config(tmp_path)
    data = yaml.safe_load(cfg.read_text())
    data["drift"].update({"name": "affine", "A": 7})
    cfg.write_text(yaml.safe_dump(data))
    env = {**os.environ, "PYTHONPATH": str(Path(bisweep.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "bisweep.cli", "validate", "--config", str(cfg)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == EXIT_USAGE
    assert "A must have 4 entries" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, run", [("validate", {"upper_iters": 3}),
                                          ("oracle", {"oracle": {"upper_iters": 3}}),
                                          ("certify", {"rho_max": 4.0}),
                                          ("solve", {"seed": 1}),
                                          ("oracle", {"oracle": {"feas_tol": 0.0}})])
def test_unknown_run_key_is_refused(tmp_path, monkeypatch, capsys, command, run):
    # rho is the certificate's constant, no longer a run key; so are the
    # multi-start stream's seed and the enumerations' feasibility tolerance
    monkeypatch.setattr(bisweep.cli, "solve_bilevel", _no_solve)
    cfg = write_config(tmp_path, run=run)
    assert main([command, "--config", str(cfg)]) == EXIT_USAGE
    assert next(iter(run.get("oracle", run))) in capsys.readouterr().err


# the flags each subcommand reads, besides --config and --out
FLAGS_READ = {"validate": (), "simulate": ("--profile",),
              "solve": ("--grid", "--gamma-max"),
              "certify": ("--grid", "--gamma-max"),
              "oracle": (), "sweep-gamma": ("--profile", "--gamma-max")}
FOREIGN_FLAGS = [(command, flag) for command, read in FLAGS_READ.items()
                 for flag in ("--grid", "--seed", "--gamma-max", "--profile", "--rho-max")
                 if flag not in read]


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_grid_of_one_interval_is_refused(monkeypatch, capsys, command):
    monkeypatch.setattr(bisweep.cli, "solve_bilevel", _no_solve)
    assert main([command, "--grid", "1"]) == EXIT_USAGE
    assert "n_intervals" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", FOREIGN_FLAGS)
def test_flag_a_subcommand_does_not_read_is_refused(monkeypatch, capsys, command, flag):
    # a flag that would be accepted and then ignored is refused, naming it
    monkeypatch.setattr(bisweep.cli, "solve_bilevel", _no_solve)
    monkeypatch.setattr(bisweep.cli, "brute_bilevel", _no_solve)
    profile = ["--profile", "profile.yaml"] if "--profile" in FLAGS_READ[command] else []
    assert main([command, *profile, flag, "2"]) == EXIT_USAGE
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "certify"])
@pytest.mark.parametrize("key, value", [("n_intervals", 2.5), ("n_intervals", 1), ("seeds", 0),
                                        ("seeds", -1), ("lower_max_iter", True),
                                        ("seed", -1)])   # refused as an unknown key
def test_bad_solver_run_value_is_refused(tmp_path, monkeypatch, capsys, command, key, value):
    monkeypatch.setattr(bisweep.cli, "solve_bilevel", _no_solve)
    cfg = write_config(tmp_path, run={key: value})
    assert main([command, "--config", str(cfg)]) == EXIT_USAGE
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("n_intervals", 2.5), ("x_init_points", 2.5),
                                        ("x_init_points", 4), ("x_init_points", 0),
                                        ("omega_max", 0.0), ("target_tol", float("nan"))])
def test_bad_oracle_run_value_is_refused(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.setattr(bisweep.cli, "brute_bilevel", _no_solve)
    cfg = write_config(tmp_path, run={"oracle": {key: value}})
    assert main(["oracle", "--config", str(cfg)]) == EXIT_USAGE
    assert key in capsys.readouterr().err


def test_oracle_chunk_key_is_refused_as_unknown(tmp_path, monkeypatch, capsys):
    # the enumeration's block width is not a setting: its answer does not
    # depend on it
    monkeypatch.setattr(bisweep.cli, "brute_bilevel", _no_solve)
    cfg = write_config(tmp_path, run={"oracle": {"chunk": 5}})
    assert main(["oracle", "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown run.oracle key: chunk " in capsys.readouterr().err


def test_validate_writes_report(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "validation.json").read_text())
    assert report["ok"] is True


def test_missing_subcommand_is_usage_error():
    assert main([]) == EXIT_USAGE


# ---------------------------------------------------------------- simulate
def test_simulate_requires_profile():
    assert main(["simulate"]) == EXIT_USAGE


def test_simulate_zero_controls_constant_trajectory(tmp_path):
    prof = write_profile(tmp_path)
    out = tmp_path / "sim"
    assert main(["simulate", "--profile", str(prof), "--out", str(out)]) == EXIT_OK
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == 12  # header + 11 nodes
    first = rows[1].split(",")
    last = rows[-1].split(",")
    # x and y columns frozen
    assert first[2:6] == last[2:6]
    feas = json.loads((out / "feasibility.json").read_text())
    assert feas["max_h_lower"] <= 1e-9


def test_simulate_catchup_writes_the_activation_it_used(tmp_path):
    # a still plan whose drift pushes the swept point from the disk center
    # onto the rim at node 5; catching-up never reads the profile's u0, so x
    # and z are the same for u0 = 1 and u0 = 0, and trajectory.csv's u0 is
    # the realized activation that z integrates: 0 off the rim, 2/3 on it
    cols = {}
    for u0 in (1.0, 0.0):
        run = tmp_path / f"u0-{u0:g}"
        run.mkdir()
        prof = write_profile(run, u=(1.0, 0.0), u0=u0, omega=2.0)
        assert main(["simulate", "--profile", str(prof), "--out", str(run)]) == EXIT_OK
        with open(run / "trajectory.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        cols[u0] = {key: np.array([float(row[key]) for row in rows]) for key in rows[0]}
    for key in ("x1", "x2", "z", "u0"):
        assert np.array_equal(cols[1.0][key], cols[0.0][key]), key
    c = cols[1.0]
    assert np.all(c["u0"][:5] == 0.0) and c["u0"][-1] == 0.0
    assert np.allclose(c["u0"][5:-1], 2.0 / 3.0, rtol=0.0, atol=1e-12)
    # z sums each step's (|u|^2 + u0^2) omega dt as applied, dt = 1/10
    effort = (c["u1"] ** 2 + c["u2"] ** 2 + c["u0"] ** 2) * c["omega"]
    z = np.concatenate([[0.0], np.cumsum(0.1 * effort[:-1])])
    assert np.allclose(c["z"], z, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("gamma", [-5.0, 0.0, 1.5])  # M/R1 = 1.5 on the corridor
def test_simulate_refuses_a_profile_gamma_at_or_below_cone_gain(tmp_path, capsys, gamma):
    # below M/R1 the ramped cone term no longer holds the point in the disk
    prof = write_profile(tmp_path, u=(1.0, 0.0), u0=1.0, omega=2.0, x_init=(1.0, 0.0), gamma=gamma)
    assert main(["simulate", "--profile", str(prof)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "gamma" in err and "M/R1" in err


def test_simulate_smooth_when_gamma_given(tmp_path, capsys):
    prof = write_profile(tmp_path, u=(1.0, 0.0), u0=1.0, omega=2.0,
                         x_init=(1.0, 0.0), gamma=24.0)
    assert main(["simulate", "--profile", str(prof)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "T = 2.0" in out


@pytest.mark.parametrize("command", ["simulate", "sweep-gamma"])
@pytest.mark.parametrize("control, value", [("v", (1.5, 0.0)), ("u", (0.0, -1.2))],
                         ids=["v", "u"])
def test_out_of_bound_profile_is_refused(tmp_path, capsys, command, control, value):
    # the corridor's balls have radius v_bound = u_bound = 1
    prof = write_profile(tmp_path, **{control: value})
    assert main([command, "--profile", str(prof)]) == EXIT_USAGE
    assert f"control {control} exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep-gamma"])
@pytest.mark.parametrize("nodes", [0, 1, 2])
def test_profile_of_fewer_than_three_nodes_is_refused_naming_v(tmp_path, capsys, command, nodes):
    # a grid has at least 2 intervals; the refusal used to name no key
    prof = write_profile(tmp_path, n=nodes - 1)
    assert main([command, "--profile", str(prof)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: profile v: need at least 2 intervals, got {nodes} node values" in err


@pytest.mark.parametrize("command", ["simulate", "sweep-gamma"])
def test_profile_without_x_init_is_refused(tmp_path, capsys, command):
    # the swept point must not silently start at the origin, here outside Q1 + y0
    cfg = write_config(tmp_path, y0=(3.0, 0.0))
    prof = write_profile(tmp_path, x_init=None)
    assert main([command, "--config", str(cfg), "--profile", str(prof)]) == EXIT_USAGE
    assert "x_init" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep-gamma"])
@pytest.mark.parametrize("key, value, message", [("gama", 24.0, "unknown profile key: gama"),
                                                 ("u", None, "profile gives no u ")],
                         ids=["unknown", "missing"])
def test_profile_with_unknown_or_missing_key_is_refused(tmp_path, capsys, command, key,
                                                         value, message):
    # a mistyped gamma must not silently switch simulate to the catching-up integrator
    prof = write_profile(tmp_path)
    data = yaml.safe_load(prof.read_text())
    if value is None:
        del data[key]
    else:
        data[key] = value
    prof.write_text(yaml.safe_dump(data))
    assert main([command, "--profile", str(prof)]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep-gamma"])
def test_profile_x_init_outside_initial_disk_is_refused(tmp_path, capsys, command):
    prof = write_profile(tmp_path, x_init=(5.0, 5.0))
    assert main([command, "--profile", str(prof)]) == EXIT_USAGE
    assert "x_init" in capsys.readouterr().err
    # the disk is Q1 + y0: the origin lies outside it for y0 = (3, 0), its rim point (4, 0) not
    cfg = write_config(tmp_path, y0=(3.0, 0.0))
    prof = write_profile(tmp_path, x_init=(0.0, 0.0))
    assert main([command, "--config", str(cfg), "--profile", str(prof)]) == EXIT_USAGE
    assert "x_init" in capsys.readouterr().err
    prof = write_profile(tmp_path, x_init=(4.0, 0.0))
    assert main([command, "--config", str(cfg), "--profile", str(prof)]) == EXIT_OK


# ---------------------------------------------------------------- solve
def test_solve_tiny_budget_writes_outputs(tmp_path):
    cfg = write_config(tmp_path, run=TINY_RUN)
    out = tmp_path / "sol"
    code = main(["solve", "--config", str(cfg), "--out", str(out), "--gamma-max", "12"])
    assert code == EXIT_OK
    sol = json.loads((out / "solution.json").read_text())
    assert sol["T_star"] > 0
    assert sol["status"]["converged"] is True
    # one history record per gamma, doubling from 2 M/R1 up to --gamma-max
    assert [h["gamma"] for h in sol["history"]] == [3.0, 6.0, 12.0]
    assert (out / "trajectory.csv").exists()


def test_solve_deterministic_byte_identical(tmp_path):
    cfg = write_config(tmp_path, run=TINY_RUN)
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        code = main(["solve", "--config", str(cfg), "--out", str(out),
                     "--gamma-max", "12"])
        assert code == EXIT_OK
        outs.append((out / "solution.json").read_bytes())
    assert outs[0] == outs[1]


def test_certify_exit_code_is_its_certificate_verdict(tmp_path, capsys):
    # exit 4 exactly when certificate.json's ok is false (on this run
    # `measures` fails); every condition is checked, with a bool verdict and
    # one summary line
    cfg = write_config(tmp_path, run=TINY_RUN)
    out = tmp_path / "cert"
    code = main(["certify", "--config", str(cfg), "--out", str(out), "--gamma-max", "12"])
    cert = json.loads((out / "certificate.json").read_text())
    assert all(type(c["ok"]) is bool for c in cert["conditions"].values())
    assert cert["ok"] is all(c["ok"] for c in cert["conditions"].values())
    assert code == (EXIT_OK if cert["ok"] else EXIT_CERTIFICATE)
    stdout = capsys.readouterr().out
    assert "skipped" not in stdout
    lines = stdout.splitlines()[1:]
    assert [line.split(":")[0].strip() for line in lines] == list(cert["conditions"])


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_unconverged_solve_writes_outputs_and_exits_3(tmp_path, monkeypatch, command):
    real = bisweep.cli.solve_bilevel

    def unconverged(*args, **kwargs):
        sol = real(*args, **kwargs)
        return replace(sol, status={**sol.status, "converged": False})

    monkeypatch.setattr(bisweep.cli, "solve_bilevel", unconverged)
    cfg = write_config(tmp_path, run=TINY_RUN)
    out = tmp_path / "sol"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--gamma-max", "12"]) == EXIT_SOLVE
    assert json.loads((out / "solution.json").read_text())["status"]["converged"] is False


def test_solve_on_a_short_lower_budget_names_the_gamma_and_exits_3(tmp_path, capsys):
    # at 10 iterations the cold gamma = 3 solve, which converges in 12, stops
    # on SLSQP's limit (exit 9) with its KKT residual at 1.5e-5, and the warm
    # gamma = 6 and 12 solves still converge in 6 and 7; the outputs are
    # still written, and stderr names the stopped solve
    cfg = write_config(tmp_path, run={**TINY_RUN, "lower_max_iter": 10})
    out = tmp_path / "sol"
    code = main(["solve", "--config", str(cfg), "--out", str(out), "--gamma-max", "12"])
    assert code == EXIT_SOLVE
    sol = json.loads((out / "solution.json").read_text())
    assert sol["status"]["lower_converged"] is False
    assert [h["converged"] for h in sol["history"]] == [False, True, True]
    assert (out / "trajectory.csv").exists()
    err = capsys.readouterr().err
    assert "the lower solve at gamma = 3 stopped with SLSQP exit status 9" in err
    assert "kkt_residual" in err and "max_violation" in err


def test_solve_rejects_invalid_scenario(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bisweep.cli, "solve_bilevel", _no_solve)
    cfg = write_config(tmp_path, M=5.0)
    for command in ("solve", "certify"):
        assert main([command, "--config", str(cfg)]) == EXIT_VALIDATION
        assert "validation failure: H5-truncation-window" in capsys.readouterr().err


def _no_solve(*args, **kwargs):
    raise AssertionError("bad input must be refused before solving")


@pytest.mark.parametrize("gamma", ["0", "1.5", "nan"])  # M/R1 = 1.5 on the corridor
def test_gamma_max_at_or_below_cone_gain_is_refused(tmp_path, monkeypatch, capsys, gamma):
    monkeypatch.setattr(bisweep.cli, "solve_bilevel", _no_solve)
    assert main(["solve", "--gamma-max", gamma]) == EXIT_USAGE
    assert "M/R1" in capsys.readouterr().err
    # sweep-gamma builds the same schedule, and reads run: gamma_max like solve
    prof = write_profile(tmp_path)
    cfg = write_config(tmp_path, run={"gamma_max": float(gamma)})
    assert main(["sweep-gamma", "--config", str(cfg), "--profile", str(prof)]) == EXIT_USAGE


# ---------------------------------------------------------------- oracle
def test_oracle_writes_decision(tmp_path):
    cfg = write_config(tmp_path, run={"oracle": {"n_intervals": 3, "levels_per_control": 3}})
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    data = json.loads((out / "oracle.json").read_text())
    assert data["T"] > 0
    dec = data["decision"]
    assert [len(dec[k]) for k in ("v", "omega", "u", "u0")] == [4] * 4
    assert len(dec["x_init"]) == 2 and isinstance(dec["phi"], float)


def test_oracle_over_budget_exits_with_the_count_and_the_limit(tmp_path, capsys):
    cfg = write_config(tmp_path, run={"oracle": {"n_intervals": 5, "levels_per_control": 5}})
    assert main(["oracle", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "1160290625" in err and "10000000" in err


def test_oracle_with_two_levels_is_refused_naming_the_levels_and_the_ball(tmp_path, capsys):
    # the levels +-v_bound put every plan velocity on a corner outside its ball
    cfg = write_config(tmp_path, run={"oracle": {"levels_per_control": 2}})
    assert main(["oracle", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "levels_per_control = 2" in err and "ball |v| <= v_bound" in err


# ---------------------------------------------------------------- sweep-gamma
def test_sweep_gamma_reports_error_sequence(tmp_path, capsys):
    prof = write_profile(tmp_path, n=60, u=(1.0, 0.0), u0=1.0, omega=2.0,
                         x_init=(1.0, 0.0))
    out = tmp_path / "sweep"
    assert main(["sweep-gamma", "--profile", str(prof), "--out", str(out)]) == EXIT_OK
    data = json.loads((out / "gamma_sweep.json").read_text())
    assert len(data["gammas"]) == len(data["errors"]) == 6
    assert data["errors"][-1] < data["errors"][1]


def test_sweep_gamma_requires_profile():
    assert main(["sweep-gamma"]) == EXIT_USAGE
