import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cbi import cli
from cbi.model import dump_params

from conftest import make_d2_critical, make_degenerate_critical, make_fix_a, make_jump_mixed


@pytest.fixture
def fix_a_file(tmp_path):
    path = tmp_path / "fix_a.json"
    dump_params(make_fix_a(), path)
    return str(path)


@pytest.fixture
def d2_file(tmp_path):
    path = tmp_path / "d2.json"
    dump_params(make_d2_critical(), path)
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
    assert value == pytest.approx(math.exp(-50.0 / 2501.0) / 2501.0, rel=1e-9)


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
    dump_params(make_jump_mixed(), path)  # subcritical
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


def test_degenerate_critical_runs_all_but_perron_commands(tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    dump_params(make_degenerate_critical(), path)
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
