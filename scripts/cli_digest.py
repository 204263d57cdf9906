"""Digest of the CLI's output on a fixed command set.

Runs every subcommand on six parameter files (the scalar fixture fix_a,
the critical two-type d2_critical, the two-type jump_d2, an inadmissible
tuple, a degenerate-critical tuple whose Perron eigenvectors are not
strictly positive, and the three-type jump_d3 with three or more atoms in
every jump measure, so that every atom sum adds several terms), one
`simulate` run on jump_d3 whose 1250 steps cross a randomness window of
1024 steps, one `prop31` run on d2_critical off the Perron ray whose
raw(n) / n has not settled by n = 1000, one `vsolve` run on the pure
branching branching_jump of tests/conftest.py whose Riccati solve rejects
2 of its 67 step attempts, plus commands that exit 2
(d = 0), 64 (a missing flag, a single simulated path, a state that
overflows, a negative lambda, a scale beyond the floating-point range),
65 (malformed JSON, a non-integer d), 66 (a start state and a bump
center of the wrong dimension), 3 (a scaled-generator point n x, the
square of cgen's default bump radius, a scaled start n x0 and a limit
start <u_left, x0> beyond the floating-point range) and 73 (an --out file
in a directory that does not exist). The library decides which arguments
are refused and which results are out of range; the seven lines before
the exit-73 one run its rules through the CLI.
All commands run in-process from one fresh working directory with
relative file names, so the output does not depend on where the script
runs. Each line is

    <label> exit=<code> stdout=<sha256> stderr=<sha256> out=<sha256 or ->

with digests cut to 16 hex digits. Two checkouts produce identical
output iff their CLI output is byte-identical on this set:

    python scripts/cli_digest.py > digest.txt
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cbi import cli  # noqa: E402

FIXTURES = {
    "fix_a": {"d": 1, "c": [1.0], "beta": [1.0], "B": [[0.0]], "nu": [], "mu": [[]]},
    "d2_critical": {"d": 2, "c": [1.0, 1.0], "beta": [1.0, 0.0],
                    "B": [[-1.0, 1.0], [1.0, -1.0]], "nu": [], "mu": [[], []]},
    "jump_d2": {
        "d": 2, "c": [0.3, 0.6], "beta": [0.2, 0.1], "B": [[-0.8, 0.4], [0.3, -0.9]],
        "nu": [{"weight": 0.5, "z": [0.5, 0.2]}],
        "mu": [[{"weight": 0.4, "z": [1.0, 0.3]}],
               [{"weight": 0.6, "z": [0.2, 0.7]}, {"weight": 0.1, "z": [2.0, 1.0]}]],
    },
    "inadmissible": {"d": 2, "c": [1.0, -1.0], "beta": [0.0, 0.0],
                     "B": [[0.0, -1.0], [1.0, 0.0]], "nu": [], "mu": [[], []]},
    "degenerate_critical": {"d": 2, "c": [1.0, 1.0], "beta": [0.5, 0.0],
                            "B": [[-1e-300, 1e-300], [1.0, -1.0]], "nu": [], "mu": [[], []]},
    "jump_d3": {
        "d": 3, "c": [0.4, 0.25, 0.55], "beta": [0.3, 0.1, 0.2],
        "B": [[-1.3, 0.3, 0.2], [0.4, -1.1, 0.1], [0.2, 0.35, -1.2]],
        "nu": [{"weight": 0.3, "z": [0.41, 0.13, 0.27]}, {"weight": 0.2, "z": [1.37, 0.0, 0.29]},
               {"weight": 0.11, "z": [0.23, 0.61, 1.07]}, {"weight": 0.07, "z": [0.0, 0.0, 1.93]}],
        "mu": [[{"weight": 0.47, "z": [0.31, 0.17, 0.0]}, {"weight": 0.19, "z": [1.73, 0.11, 0.43]},
                {"weight": 0.13, "z": [0.07, 0.89, 0.33]}],
               [{"weight": 0.29, "z": [0.0, 0.63, 0.21]}, {"weight": 0.17, "z": [0.53, 2.21, 0.13]},
                {"weight": 0.23, "z": [0.19, 0.11, 0.71]}],
               [{"weight": 0.21, "z": [0.13, 0.37, 0.83]}, {"weight": 0.11, "z": [0.41, 0.0, 1.61]},
                {"weight": 0.31, "z": [0.59, 0.23, 0.17]}]],
    },
}

SIM = ["--t", "0.5", "--dt", "0.01", "--n-paths", "20", "--seed", "3"]


def commands() -> list[tuple[str, list[str], str | None]]:
    """(label, argv, --out file name or None) for every command of the set."""
    cmds = []
    for name, doc in FIXTURES.items():
        d = doc["d"]
        x = ",".join(["1.0", "0.5", "0.25"][:d])
        lam = ",".join(["0.7", "1.2", "0.4"][:d])
        base = ["--params", f"{name}.json"]
        per_command = {
            "validate": [],
            "derive": [],
            "vsolve": ["--t", "1", "--lambda", lam],
            "laplace": ["--t", "1", "--x", x, "--lambda", lam],
            "dgen": ["--n", "10", "--x", x, "--lambda", lam],
            "prop31": ["--x", x, "--lambda", lam, "--n-list", "10,100,1000"],
            "cgen": ["--x", x, "--n-list", "1,10,100"],
            "simulate": ["--x", x, *SIM],
            "simulate-scaled": ["--x", x, "--n", "5", *SIM],
            "simulate-limit": ["--x", x, *SIM],
        }
        for command, extra in per_command.items():
            out = None if command in ("validate", "derive", "vsolve", "laplace", "dgen") \
                else f"{command}_{name}.csv"
            cmds.append((f"{command}:{name}", [command, *base, *extra], out))
    cmds.append(("simulate:jump_d3-two-windows",
                 ["simulate", "--params", "jump_d3.json", "--x", "1.0,0.5,0.25", "--t", "0.5",
                  "--dt", "4e-4", "--n-paths", "20", "--seed", "3"], "simulate_two_windows.csv"))
    cmds.append(("prop31:d2_critical-off-ray",
                 ["prop31", "--params", "d2_critical.json", "--x", "0.5,1", "--lambda", "1,1.5",
                  "--n-list", "10,100,1000"], "prop31_off_ray.csv"))
    cmds.append(("vsolve:branching_jump-rejecting",
                 ["vsolve", "--params", "branching_jump.json", "--t", "3", "--lambda", "200"],
                 None))
    cmds.append(("exit64:missing-t", ["vsolve", "--params", "fix_a.json", "--lambda", "1"], None))
    cmds.append(("exit65:malformed-json", ["validate", "--params", "broken.json"], None))
    cmds.append(("exit66:wrong-dimension",
                 ["laplace", "--params", "fix_a.json", "--t", "1", "--x", "1,2",
                  "--lambda", "1"], None))
    cmds.append(("exit65:non-integer-d", ["validate", "--params", "d_not_integer.json"], None))
    cmds.append(("exit64:single-path",
                 ["simulate", "--params", "fix_a.json", "--x", "1", "--t", "1", "--n-paths", "1"],
                 "simulate_single_path.csv"))
    cmds.append(("exit2:zero-d", ["validate", "--params", "d_zero.json"], None))
    # c x overflows at step 2 and a negative normal gives -inf
    cmds.append(("exit64:overflowing-state",
                 ["simulate", "--params", "overflow.json", "--x", "1", "--t", "1", "--dt", "0.1",
                  "--n-paths", "3", "--seed", "0"], "simulate_overflow.csv"))
    cmds.append(("exit64:negative-lambda",
                 ["laplace", "--params", "fix_a.json", "--t", "1", "--x", "1", "--lambda=-1"], None))
    cmds.append(("exit66:bump-center-length",
                 ["cgen", "--params", "fix_a.json", "--x", "1", "--bump-center", "1,2"],
                 "cgen_bump_center.csv"))
    cmds.append(("exit64:huge-n",
                 ["dgen", "--params", "fix_a.json", "--n", str(10**400), "--x", "1",
                  "--lambda", "1"], None))
    cmds.append(("exit3:overflowing-scaled-point",
                 ["cgen", "--params", "fix_a.json", "--x=1e308", "--bump-radius=1"],
                 "cgen_overflow.csv"))
    cmds.append(("exit3:overflowing-default-bump-radius",
                 ["cgen", "--params", "fix_a.json", "--x=1e154"], "cgen_default_radius.csv"))
    tiny_run = ["--t", "1", "--dt", "0.5", "--n-paths", "2"]
    cmds.append(("exit3:overflowing-scaled-start",
                 ["simulate-scaled", "--params", "fix_a.json", "--x=1e308", "--n", "2",
                  *tiny_run], "simulate_scaled_overflow.csv"))
    cmds.append(("exit3:overflowing-limit-start",
                 ["simulate-limit", "--params", "d2_critical.json", "--x=1e308,1e308",
                  *tiny_run], "simulate_limit_overflow.csv"))
    cmds.append(("exit73:missing-out-directory",
                 ["simulate", "--params", "fix_a.json", "--x", "1", *tiny_run],
                 "no_such_dir/paths.csv"))
    return cmds


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name, doc in FIXTURES.items():
            Path(f"{name}.json").write_text(json.dumps(doc))
        Path("broken.json").write_text("{not json")
        Path("d_not_integer.json").write_text(json.dumps({**FIXTURES["d2_critical"], "d": 2.5}))
        Path("d_zero.json").write_text(json.dumps({**FIXTURES["fix_a"], "d": 0}))
        Path("overflow.json").write_text(json.dumps({**FIXTURES["fix_a"], "c": [1e300],
                                                     "beta": [0.0]}))
        Path("branching_jump.json").write_text(json.dumps(
            {**FIXTURES["fix_a"], "beta": [0.0], "B": [[-0.5]],
             "mu": [[{"weight": 0.4, "z": [1.5]}]]}))
        for label, argv, out in commands():
            if out is not None:
                argv = [*argv, "--out", out]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(argv)
            out_digest = _sha(Path(out).read_bytes()) if out and Path(out).exists() else "-"
            print(f"{label} exit={code} stdout={_sha(stdout.getvalue().encode())} "
                  f"stderr={_sha(stderr.getvalue().encode())} out={out_digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
