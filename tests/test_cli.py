import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cbi import affine, cli
from cbi.model import CbiParams

from conftest import (make_d2_critical, make_degenerate_critical, make_fix_a, make_jump_mixed,
                      write_params)


@pytest.fixture
def fix_a_file(tmp_path):
    path = tmp_path / "fix_a.json"
    write_params(make_fix_a(), path)
    return str(path)


@pytest.fixture
def d2_file(tmp_path):
    path = tmp_path / "d2.json"
    write_params(make_d2_critical(), path)
    return str(path)


def run_cli(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_validate_admissible(fix_a_file, capsys):
    code, out = run_cli(capsys, ["validate", "--params", fix_a_file])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["admissible"] is True
    assert report["config"]["params_file"] == fix_a_file


def test_validate_inadmissible_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 2, "c": [1.0, 1.0], "beta": [0.0, 0.0],
                                "B": [[0.0, -1.0], [1.0, 0.0]], "nu": [],
                                "mu": [[], []]}))
    code, out = run_cli(capsys, ["validate", "--params", str(path)])
    assert code == 2
    report = json.loads(out)
    assert report["result"]["admissible"] is False
    assert any("essentially non-negative" in v for v in report["result"]["violations"])


def test_derive_d2(d2_file, capsys):
    code, out = run_cli(capsys, ["derive", "--params", d2_file])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["classification"] == "critical"
    assert result["perron"]["u_right"] == pytest.approx([0.5, 0.5], abs=1e-10)
    assert result["spectral"]["spectral_abscissa"] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(result["cbar"], np.eye(2), atol=1e-12)


def test_vsolve_and_laplace_values(fix_a_file, capsys):
    code, out = run_cli(capsys, ["vsolve", "--params", fix_a_file,
                                 "--t", "1", "--lambda", "1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["v"][0] == pytest.approx(0.5, abs=1e-9)
    assert result["psi_integral"] == pytest.approx(math.log(2.0), abs=1e-9)

    code, out = run_cli(capsys, ["laplace", "--params", fix_a_file, "--t", "1",
                                 "--x", "1", "--lambda", "1"])
    assert code == 0
    value = json.loads(out)["result"]["laplace_transform"]
    assert value == pytest.approx(math.exp(-0.5) / 2.0, abs=1e-9)

    # a long horizon: the psi-integral error follows --tol at any t
    code, out = run_cli(capsys, ["laplace", "--params", fix_a_file, "--t", "50",
                                 "--x", "1", "--lambda", "50"])
    assert code == 0
    value = json.loads(out)["result"]["laplace_transform"]
    assert value == pytest.approx(math.exp(-50.0 / 2501.0) / 2501.0, rel=1e-9, abs=0.0)


def test_dgen_value(fix_a_file, capsys):
    code, out = run_cli(capsys, ["dgen", "--params", fix_a_file, "--n", "10",
                                 "--x", "2", "--lambda", "1"])
    assert code == 0
    got = json.loads(out)["result"]["discrete_generator"]
    expected = 10.0 * (math.exp(-20.0 / 11.0) * (10.0 / 11.0) - math.exp(-2.0))
    assert got == pytest.approx(expected, abs=1e-9)


def test_prop31_csv(fix_a_file, tmp_path, capsys):
    out_csv = tmp_path / "table.csv"
    code, out = run_cli(capsys, ["prop31", "--params", fix_a_file, "--x", "2",
                                 "--lambda", "1", "--out", str(out_csv)])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "converges"
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "n,raw,corrected,limit,gap"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [10, 100, 1000, 10000]
    for r in rows:
        assert float(r[3]) == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert float(rows[-1][4]) < 1e-4


def test_cgen_csv(fix_a_file, tmp_path, capsys):
    out_csv = tmp_path / "cgen.csv"
    code, out = run_cli(capsys, ["cgen", "--params", fix_a_file, "--x", "0.8",
                                 "--n-list", "1,10,100", "--out", str(out_csv)])
    assert code == 0
    report = json.loads(out)["result"]
    assert report["converges_uncorrected"] is True  # btilde = 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "n,scaled,drift_term,corrected,limit,gap"
    last = lines[-1].split(",")
    assert float(last[5]) < 1e-6  # no jumps: scaled generator equals its limit


def test_simulate_writes_csv_and_summary(fix_a_file, tmp_path, capsys):
    out_csv = tmp_path / "paths.csv"
    code, out = run_cli(capsys, ["simulate", "--params", fix_a_file, "--t", "0.5",
                                 "--x", "1", "--dt", "0.01", "--n-paths", "60",
                                 "--seed", "4", "--out", str(out_csv)])
    assert code == 0
    summary = json.loads(out)["result"]["moment_check"]
    assert summary["within_3se"] is True
    first_bytes = out_csv.read_bytes()
    code, _ = run_cli(capsys, ["simulate", "--params", fix_a_file, "--t", "0.5",
                               "--x", "1", "--dt", "0.01", "--n-paths", "60",
                               "--seed", "4", "--out", str(out_csv)])
    assert code == 0
    assert out_csv.read_bytes() == first_bytes  # byte-identical reruns


def test_simulate_scaled_and_limit(d2_file, tmp_path, capsys):
    out_csv = tmp_path / "scaled.csv"
    code, out = run_cli(capsys, ["simulate-scaled", "--params", d2_file, "--t", "0.5",
                                 "--x", "0,0", "--n", "10", "--dt", "0.01",
                                 "--n-paths", "40", "--out", str(out_csv)])
    assert code == 0
    assert out_csv.exists()

    out_csv2 = tmp_path / "limit.csv"
    code, out = run_cli(capsys, ["simulate-limit", "--params", d2_file, "--t", "0.5",
                                 "--x", "0,0", "--dt", "0.01", "--n-paths", "40",
                                 "--out", str(out_csv2)])
    assert code == 0
    header = out_csv2.read_text().split("\n")[0]
    assert header == "path_id,t,x_1,x_2"


def test_failed_moment_reference_leaves_no_csv(tmp_path, capsys):
    # the paths simulate, but the mean reference overflows exp(t btilde)
    path = tmp_path / "explosive.json"
    path.write_text(json.dumps({"d": 1, "c": [1], "beta": [1], "B": [[400]]}))
    base = ["--params", str(path), "--t", "2", "--x", "1", "--dt", "0.01", "--n-paths", "3"]
    for command, extra in (("simulate", []), ("simulate-scaled", ["--n", "1"])):
        out_csv = tmp_path / f"{command}.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run([command, *base, *extra, "--out", str(out_csv)])
        err = capsys.readouterr().err
        assert code == 3, command
        assert not out_csv.exists(), command
        # the one documented line, with no numpy/scipy warning above it
        assert [str(w.message) for w in caught] == [], command
        assert len(err.splitlines()) == 1 and err.startswith("solver error: "), command


@pytest.mark.parametrize("doc", [
    {"d": 1, "c": [1e308], "beta": [1e308], "B": [[1e308]]},
    {"d": 2, "c": [1, 1], "beta": [0, 0], "B": [[-1, 0], [0, -1]],
     "nu": [{"weight": 2.0, "z": [1e308, 1e308]}], "mu": [[], []]},
])
def test_overflowing_derived_quantities_exit_3_without_warnings(tmp_path, capsys, doc):
    # 2 c, and the nu integral of z, overflow; the atom norms overflow in validate
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run(["validate", "--params", str(path)])
        err = capsys.readouterr().err
        assert code == 0 and err == ""
        code = cli.run(["derive", "--params", str(path)])
        captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code == 3 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("solver error: ")


def test_simulate_limit_noncritical_exits_2(tmp_path, capsys):
    path = tmp_path / "sub.json"
    write_params(make_jump_mixed(), path)  # subcritical
    code, _ = run_cli(capsys, ["simulate-limit", "--params", str(path), "--t", "0.5",
                               "--x", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_inadmissible_reports_violations_for_every_command(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 2, "c": [1.0, 1.0], "beta": [0.0, 0.0],
                                "B": [[0.0, -1.0], [1.0, 0.0]], "nu": [],
                                "mu": [[], []]}))
    for command in ("derive", "laplace", "simulate"):
        code, out = run_cli(capsys, [command, "--params", str(path)])
        assert code == 2
        report = json.loads(out)
        assert report["command"] == command
        assert report["result"]["admissible"] is False
        assert any("essentially non-negative" in v for v in report["result"]["violations"])


@pytest.mark.parametrize("measure", ["nu", "mu"])
def test_nested_atom_weight_is_a_violation(tmp_path, capsys, measure):
    doc = {"d": 1, "c": [1.0], "beta": [1.0], "B": [[0.0]], "nu": [], "mu": [[]]}
    atoms = [{"weight": [1, 2], "z": [1]}]
    doc[measure] = atoms if measure == "nu" else [atoms]
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    name = "nu" if measure == "nu" else "mu[1]"
    for command in ("validate", "derive"):
        code, out = run_cli(capsys, [command, "--params", str(path)])
        assert code == 2, command
        assert (f"{name}: atom weights must be numbers, got shape (1, 2)"
                in json.loads(out)["result"]["violations"])
    code, _ = run_cli(capsys, ["laplace", "--params", str(path), "--t", "1", "--x", "1",
                               "--lambda", "1"])
    assert code == 2


def test_huge_d_document_exits_2_with_report(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"d": 10**5, "c": [1.0], "beta": [0.0], "B": [[0.0]]}))
    code, out = run_cli(capsys, ["derive", "--params", str(path)])
    assert code == 2
    assert "c must have length d=100000, got shape (1,)" in json.loads(out)["result"]["violations"]


def test_zero_d_document_exits_2_with_report(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"d": 0, "c": [1.0], "beta": [0.0], "B": [[0.0]]}))
    code, out = run_cli(capsys, ["validate", "--params", str(path)])
    assert code == 2
    assert json.loads(out)["result"]["violations"] == ["d must be a positive integer, got 0"]


@pytest.mark.parametrize("d,violations", [
    (10**20, [f"c must have length d={10**20}, got shape (1,)",
              f"beta must have length d={10**20}, got shape (1,)",
              f"B must be {10**20}x{10**20}, got shape (1, 1)",
              f"mu must contain exactly d={10**20} measures, got 1"]),
    (-3, ["d must be a positive integer, got -3"]),
])
def test_d_that_is_no_array_dimension_exits_2_with_report(tmp_path, capsys, d, violations):
    # the empty measures are sized by c, so numpy never sees this d
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"d": d, "c": [1.0], "beta": [0.0], "B": [[0.0]],
                                "nu": [], "mu": [[]]}))
    code, out = run_cli(capsys, ["validate", "--params", str(path)])
    assert code == 2
    assert json.loads(out)["result"]["violations"] == violations


HUGE = str(10**400)


@pytest.mark.parametrize("command,extra", [
    ("dgen", ["--n", HUGE, "--lambda", "1"]),
    ("prop31", ["--n-list", f"10,{HUGE}", "--lambda", "1"]),
    ("cgen", ["--n-list", f"10,{HUGE}"]),
    ("simulate-scaled", ["--n", HUGE, "--t", "1", "--out", "unwritten.csv"]),
])
def test_integer_beyond_float_range_exits_64(fix_a_file, capsys, command, extra):
    code = cli.run([command, "--params", fix_a_file, "--x", "1", *extra])
    err = capsys.readouterr().err
    assert code == 64
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")


_SIM_N = {"simulate": [], "simulate-scaled": ["--n", "2"], "simulate-limit": []}


@pytest.mark.parametrize("command,extra", [
    *((command, [*flags, *n]) for command, n in _SIM_N.items()
      for flags in (["--t", "inf"], ["--t", "nan"], ["--t", "1", "--dt", "nan"],
                    ["--t", "1", "--dt", "inf"], ["--t", "1", "--n-paths", "1000000000000"])),
    ("simulate-scaled", ["--t", "1", "--dt", "0.5", "--n-paths", "2", "--n", "1000000000"]),
    ("simulate", ["--t", "1", "--n-paths", HUGE]),  # the size estimate exceeds a float
    # one path has no standard error for the moment check
    *((command, ["--t", "1", *n, "--n-paths", "1"]) for command, n in _SIM_N.items()),
])
def test_bad_or_oversized_simulation_exits_64_without_csv(fix_a_file, tmp_path, capsys,
                                                          command, extra):
    out_csv = tmp_path / "paths.csv"
    code = cli.run([command, "--params", fix_a_file, "--x", "1", *extra, "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 64
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
    assert not out_csv.exists()


@pytest.mark.parametrize("command", sorted(_SIM_N))
def test_negative_seed_exits_64_without_csv(fix_a_file, tmp_path, capsys, command):
    out_csv = tmp_path / "paths.csv"
    code = cli.run([command, "--params", fix_a_file, "--x", "1", "--t", "1", *_SIM_N[command],
                    "--seed=-1", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == "usage error: expected non-negative integer\n"
    assert not out_csv.exists()


def test_overflowing_state_exits_64_without_csv(tmp_path, capsys):
    path = tmp_path / "params.json"
    write_params(CbiParams.no_jumps(c=[1e300], beta=[0.0], B=[[0.0]]), path)
    out_csv = tmp_path / "paths.csv"
    code = cli.run(["simulate", "--params", str(path), "--x", "1", "--t", "1", "--dt", "0.1",
                    "--n-paths", "3", "--seed", "0", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == "usage error: non-finite state at step 2; decrease dt\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("command,params,extra,what", [
    # the n = 10 row was a NaN cell, exit 0
    ("cgen", "fix_a", ["--x=1e308", "--bump-radius=1"], "n x"),
    # the kernel refused its first step: exit 64, "decrease dt"
    ("simulate-scaled", "fix_a", ["--x=1e308", "--n", "2"], "start n * x0"),
    ("simulate-limit", "d2", ["--x=1e308,1e308"], "start <u_left, x0>"),
    # the default radius 2 (1 + max |x|) is derived, not given: it was a usage
    # error (exit 64) naming a radius the user never passed
    ("cgen", "fix_a", ["--x=1e154"], "default bump radius squared"),
    ("cgen", "fix_a", ["--x=1e308"], "default bump radius squared"),
])
def test_start_or_result_beyond_the_float_range_exits_3_without_output(
        fix_a_file, d2_file, tmp_path, capsys, command, params, extra, what):
    out_csv = tmp_path / "out.csv"
    argv = [command, "--params", {"fix_a": fix_a_file, "d2": d2_file}[params], *extra,
            "--out", str(out_csv)]
    if command != "cgen":
        argv += ["--t", "1", "--dt", "0.5", "--n-paths", "2"]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"solver error: {what} overflowed the floating-point range\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("argv,message", [
    (["laplace", "--t", "1", "--x", "a", "--lambda", "1"],
     "--x must be comma-separated decimals: could not convert string to float: 'a'"),
    (["dgen", "--n", "abc", "--x", "1", "--lambda", "1"],
     "argument --n: invalid int value: 'abc'"),
    ([], "a command is required (see --help)"),
])
def test_malformed_argument_exits_64(fix_a_file, capsys, argv, message):
    code = cli.run([*argv[:1], "--params", fix_a_file, *argv[1:]] if argv else [])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == f"usage error: {message}\n"


@pytest.mark.parametrize("d", ["2.7", "2.0", "true", '"2"'])
def test_non_integer_d_exits_65(tmp_path, capsys, d):
    path = tmp_path / "params.json"
    path.write_text(f'{{"d": {d}, "c": [1.0, 1.0], "beta": [0.0, 0.0], '
                    f'"B": [[0.0, 0.0], [0.0, 0.0]], "nu": [], "mu": [[], []]}}')
    code = cli.run(["validate", "--params", str(path)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("input error: d must be an integer, got ")


def test_cgen_beyond_squared_float_range(fix_a_file, capsys):
    # n**2 overflows a float although n does not: the Hessian of f(x/n)
    # would underflow, so such a scale is refused
    code = cli.run(["cgen", "--params", fix_a_file, "--x", "1", "--n-list", f"10,{10**160}"])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("usage error: ")


def test_cgen_just_inside_squared_float_range(fix_a_file, capsys):
    code, out = run_cli(capsys, ["cgen", "--params", fix_a_file, "--x", "1",
                                 "--n-list", f"10,{13 * 10**153}"])
    assert code == 0
    n, *_, gap = out.splitlines()[-1].split(",")
    assert int(n) == 13 * 10**153 and float(gap) <= 1e-15


#: every command that takes --x, with the flags it needs besides --params and --x
_X_COMMANDS = {
    "laplace": ["--t", "1", "--lambda", "1"],
    "dgen": ["--n", "10", "--lambda", "1"],
    "prop31": ["--lambda", "1"],
    "cgen": [],
    "simulate": ["--t", "0.1", "--dt", "0.01", "--n-paths", "2"],
    "simulate-scaled": ["--t", "0.1", "--dt", "0.01", "--n-paths", "2", "--n", "2"],
    "simulate-limit": ["--t", "0.1", "--dt", "0.01", "--n-paths", "2"],
}


@pytest.mark.parametrize("x", ["nan", "inf", "-inf", "-5"])
@pytest.mark.parametrize("command", sorted(_X_COMMANDS))
def test_non_finite_or_negative_start_exits_64_without_csv(fix_a_file, tmp_path, capsys,
                                                           command, x):
    # --x is a start state in R_+^d: outside it the transform leaves (0, 1]
    # and a path starts outside the state space
    out_csv = tmp_path / "out.csv"
    argv = [command, "--params", fix_a_file, f"--x={x}", *_X_COMMANDS[command]]
    if command not in ("laplace", "dgen"):
        argv += ["--out", str(out_csv)]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("usage error: ")
    assert not out_csv.exists()


@pytest.mark.parametrize("command,extra", [
    ("vsolve", ["--t", "1", "--lambda", "inf"]),
    ("laplace", ["--t", "1", "--x", "1", "--lambda", "nan"]),
    ("cgen", ["--x", "1", "--bump-center", "nan"]),
])
def test_non_finite_vector_flag_exits_64(fix_a_file, capsys, command, extra):
    # the library refuses the value, naming the argument as it calls it
    name = "center" if command == "cgen" else "lam"
    code = cli.run([command, "--params", fix_a_file, *extra])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"usage error: {name} must be ") and "finite" in captured.err


@pytest.mark.parametrize("command,extra", [
    ("cgen", ["--x", "1", "--bump-radius", "nan"]),
    ("cgen", ["--x", "1", "--bump-radius", "inf"]),  # a constant, no compact support
    ("cgen", ["--x", "1", "--bump-amplitude", "nan"]),
    ("cgen", ["--x", "1", "--bump-amplitude", "inf"]),
    ("vsolve", ["--t", "1", "--lambda", "1", "--tol", "nan"]),
    ("vsolve", ["--t", "1", "--lambda", "1", "--tol", "inf"]),
    ("laplace", ["--t", "1", "--x", "1", "--lambda", "1", "--tol", "inf"]),
    ("cgen", ["--x", "1", "--bump-radius", "1e300"]),  # radius squared overflows
    ("cgen", ["--x", "0", "--bump-radius", "1e-300"]),  # radius squared underflows
    ("vsolve", ["--t", "1", "--lambda", "1", "--tol", "1e-300"]),  # below 100 eps
])
def test_non_finite_scalar_flag_exits_64_without_output(fix_a_file, capsys, command, extra):
    # bad input, not a run of NaN rows (cgen, exit 0), a traceback (cgen's
    # extreme radii) or a solver failure (--tol, exit 3)
    code = cli.run([command, "--params", fix_a_file, *extra])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("usage error: ")


#: per command, a full set of its required flags in the order they are
#: checked, and the optional flags that make it write a file
_REQUIRED = {
    "vsolve": ([["--t", "1"], ["--lambda", "1"]], []),
    "laplace": ([["--t", "1"], ["--x", "1"], ["--lambda", "1"]], []),
    "dgen": ([["--n", "10"], ["--x", "1"], ["--lambda", "1"]], []),
    "prop31": ([["--x", "1"], ["--lambda", "1"]], ["--out"]),
    "cgen": ([["--x", "1"]], ["--out"]),
    "simulate": ([["--out"], ["--t", "0.1"], ["--x", "1"]], []),
    "simulate-scaled": ([["--n", "2"], ["--out"], ["--t", "0.1"], ["--x", "1"]], []),
    "simulate-limit": ([["--out"], ["--t", "0.1"], ["--x", "1"]], []),
}


@pytest.mark.parametrize("command,missing", [
    (command, index) for command, (required, _) in _REQUIRED.items()
    for index in range(len(required))])
def test_missing_required_flag_exits_64_without_output(fix_a_file, tmp_path, capsys,
                                                       command, missing):
    out_csv = str(tmp_path / "out.csv")
    required, optional = _REQUIRED[command]
    argv = [command, "--params", fix_a_file]
    for index, (flag, *value) in enumerate(required):
        if index != missing:
            argv += [flag, *(value or [out_csv])]
    for flag in optional:
        argv += [flag, out_csv]
    if command.startswith("simulate"):
        argv += ["--dt", "0.05", "--n-paths", "2"]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == f"usage error: {required[missing][0]} is required for {command}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fix_a.json"]


def test_riccati_step_cap_exits_3(fix_a_file, capsys, monkeypatch):
    # a solve that would take more than MAX_STEPS steps stops with one
    # documented line (fix_a at t = 1e20 takes 327)
    monkeypatch.setattr(affine, "MAX_STEPS", 100)
    code = cli.run(["vsolve", "--params", fix_a_file, "--t", "1e20", "--lambda", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("solver error: ") and "100 steps" in captured.err


def test_clip_budget_exceeded_exits_3(tmp_path, capsys, monkeypatch):
    # the 1-d logistic's 203-step solve to t = 1e3 at lam = 1 clips
    # 8.19e-11 of negative undershoot in all: more than a budget of 1e-11
    path = tmp_path / "logistic.json"
    path.write_text(json.dumps({"d": 1, "c": [1.0], "beta": [1.0], "B": [[-1.0]]}))
    monkeypatch.setattr(affine, "CLIP_BUDGET", 1e-11)
    code = cli.run(["vsolve", "--params", str(path), "--t", "1e3", "--lambda", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("solver error: negative undershoot 8.192e-11 exceeds clip "
                            "budget 1.0e-11\n")


def test_unmatched_exception_propagates(fix_a_file, monkeypatch):
    # only the exceptions that a row of _FAILURES names become an exit code:
    # a programming error in a handler is not swallowed
    def broken(args, dq):
        raise RuntimeError("handler bug")

    monkeypatch.setitem(cli._COMMANDS, "derive", (broken, (), ()))
    with pytest.raises(RuntimeError, match="handler bug"):
        cli.run(["derive", "--params", fix_a_file])


def test_vsolve_far_horizon_exits_0(fix_a_file, capsys):
    # with the psi-integral under step control the critical solve's steps
    # grow geometrically: t = 1e20 ends in 327 steps
    code, out = run_cli(capsys, ["vsolve", "--params", fix_a_file, "--t", "1e20",
                                 "--lambda", "1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["psi_integral"] == pytest.approx(math.log1p(1e20), rel=1e-8, abs=0.0)
    assert result["solver_stats"]["steps"] < 2000


def test_subcritical_laplace_long_horizon(tmp_path, capsys):
    # B = -1: v -> 0 and the transform tends to 1/(1 + lam) = 1/2 at lam = 1;
    # the clip budget is summed at step ends only
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"d": 1, "c": [1.0], "beta": [1.0], "B": [[-1.0]]}))
    code, out = run_cli(capsys, ["laplace", "--params", str(path), "--t", "1e5",
                                 "--x", "1", "--lambda", "1"])
    assert code == 0
    assert json.loads(out)["result"]["laplace_transform"] == pytest.approx(0.5, abs=1e-10)


def test_degenerate_critical_runs_all_but_perron_commands(tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    write_params(make_degenerate_critical(), path)
    base = ["--params", str(path), "--x", "1,0.5"]
    sim = ["--t", "0.2", "--dt", "0.02", "--n-paths", "5"]
    cases = {
        "prop31": (["--lambda", "0.7,1.2", "--n-list", "10,100"], 0),
        "cgen": (["--n-list", "1,10"], 0),
        "simulate": (sim, 0),
        "simulate-scaled": (["--n", "3", *sim], 0),
        "simulate-limit": (sim, 2),
    }
    for command, (extra, expected) in cases.items():
        out_csv = tmp_path / f"{command}.csv"
        code, _ = run_cli(capsys, [command, *base, *extra, "--out", str(out_csv)])
        assert code == expected, command
    code, _ = run_cli(capsys, ["derive", "--params", str(path)])
    assert code == 2


def test_exit_codes_for_bad_input(fix_a_file, tmp_path, capsys):
    code, _ = run_cli(capsys, ["no-such-command", "--params", fix_a_file])
    assert code == 64

    code, _ = run_cli(capsys, ["vsolve", "--params", fix_a_file, "--lambda", "1"])
    assert code == 64  # missing --t

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, ["validate", "--params", str(bad)])
    assert code == 65

    missing = tmp_path / "nope.json"
    code, _ = run_cli(capsys, ["validate", "--params", str(missing)])
    assert code == 65

    code, _ = run_cli(capsys, ["laplace", "--params", fix_a_file, "--t", "1",
                               "--x", "1,2", "--lambda", "1"])
    assert code == 66  # x has wrong dimension


_OUT_COMMANDS = {
    "prop31": ["--lambda", "1", "--n-list", "10,100"],
    "cgen": ["--n-list", "1"],
    **{command: ["--t", "0.1", "--dt", "0.05", "--n-paths", "2", *n]
       for command, n in _SIM_N.items()},
}


@pytest.mark.parametrize("target", [
    "directory", "missing-directory",
    pytest.param("/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                       reason="no /dev/full")),
])
@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_unwritable_out_exits_73(fix_a_file, tmp_path, capsys, command, target):
    out = {"directory": tmp_path, "missing-directory": tmp_path / "no_such_dir" / "o.csv",
           "/dev/full": "/dev/full"}[target]
    code = cli.run([command, "--params", fix_a_file, "--x", "1", *_OUT_COMMANDS[command],
                    "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 73 and captured.out == ""
    assert captured.err.startswith(f"output error: cannot write {str(out)!r}: ")
    assert len(captured.err.splitlines()) == 1
    if target == "/dev/full":  # never unlinked
        assert os.path.exists("/dev/full") and not os.path.isfile("/dev/full")
    else:
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fix_a.json"]



@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_empty_out_exits_64_before_reading_params(tmp_path, capsys, command):
    # an empty --out names no file: one usage error, the same for every
    # command that takes --out, before the (here missing) params file is read
    missing = str(tmp_path / "no_params.json")
    code = cli.run([command, "--params", missing, "--x", "1", *_OUT_COMMANDS[command],
                    "--out", ""])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == f"usage error: --out must name a file, got '' for {command}\n"
    assert list(tmp_path.iterdir()) == []


#: The flags each command accepts besides --params.
COMMAND_FLAGS = {
    "validate": set(),
    "derive": set(),
    "vsolve": {"--t", "--lambda", "--tol"},
    "laplace": {"--t", "--x", "--lambda", "--tol"},
    "dgen": {"--n", "--x", "--lambda"},
    "prop31": {"--x", "--lambda", "--n-list", "--out"},
    "cgen": {"--x", "--n-list", "--bump-center", "--bump-radius", "--bump-amplitude",
             "--out"},
    "simulate": {"--t", "--x", "--dt", "--n-paths", "--seed", "--out"},
    "simulate-limit": {"--t", "--x", "--dt", "--n-paths", "--seed", "--out"},
    "simulate-scaled": {"--t", "--x", "--dt", "--n-paths", "--seed", "--out", "--n"},
}
ALL_FLAGS = set().union(*COMMAND_FLAGS.values()) | {"--quad-order"}


def test_each_command_accepts_only_its_own_flags(fix_a_file, capsys):
    # every foreign flag is a usage error before the params file is read (so
    # `dgen --tol`, `derive --seed`), abbreviations (`simulate --n` for
    # --n-paths) and the removed --quad-order included
    assert sum(len(f) + 1 for f in COMMAND_FLAGS.values()) == 49
    for command, own in COMMAND_FLAGS.items():
        for flag in sorted(ALL_FLAGS - own):
            code = cli.run([command, "--params", fix_a_file, flag, "1"])
            err = capsys.readouterr().err
            assert code == 64, (command, flag)
            assert err.startswith("usage error: unrecognized arguments"), (command, flag)


def test_config_echoes_only_what_the_command_reads(fix_a_file, tmp_path, capsys):
    sim = ["--t", "0.1", "--x", "1", "--dt", "0.05", "--n-paths", "2"]
    cases = {
        "validate": [],
        "derive": [],
        "vsolve": ["--t", "1", "--lambda", "1"],
        "laplace": ["--t", "1", "--x", "1", "--lambda", "1"],
        "dgen": ["--n", "10", "--x", "1", "--lambda", "1"],
        "prop31": ["--x", "1", "--lambda", "1", "--n-list", "10,100"],
        "cgen": ["--x", "1", "--n-list", "1,10"],
        "simulate": sim,
        "simulate-limit": sim,
        "simulate-scaled": [*sim, "--n", "2"],
    }
    for command, extra in cases.items():
        out = ["--out", str(tmp_path / "o.csv")] if "--out" in COMMAND_FLAGS[command] else []
        code, text = run_cli(capsys, [command, "--params", fix_a_file, *extra, *out])
        assert code == 0, command
        keys = {"--" + k.replace("_", "-") for k in json.loads(text)["config"]}
        assert keys == {"--params-file"} | COMMAND_FLAGS[command] - {"--out"}, command


def test_entry_point_subprocess(fix_a_file):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "cbi.cli", "validate",
                           "--params", fix_a_file],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["admissible"] is True
