"""Digest of the library's results and the CLI's output on fixed call sets.

Every call runs inside `_line`, which prints one line for it: the digest of
its result or, when it raises, of its exception's type name and message.
The run goes on after an exception, so a diff between two checkouts names
every line a change moves. After the last line the script exits 1 if a
call raised at all, unless it is one of the calls that may refuse (the
spectral quantities, perron_vectors, generator_apply, scaled_gen_apply,
simulate_limit_diffusion and the refusal lines) and raised one of the
library's refusals (CbiError, ValueError). So a warning that `-W error`
turns into an exception, or a ValueError from derive or a simulation,
fails the run.

Library lines, `<function>:<model>[:<case>] <digest>`: every function that
`cbi` exports, on each model of tests/conftest.py (the six of
ALL_FIXTURES, the degenerate-critical one and the 40-atoms-per-measure
many_atoms): validate, derive's arrays (the C_k included) and each of its
spectral quantities, the matrix functions on btilde, the mean at four
times, the pure-branching covariance, phi, psi, a one- and a two-column
Riccati solve with their solver stats, at t = 1 and at t = 0 (no step
taken), the transform, the Jacobian and Hessian limits and probes, the
discrete and scaled generators on e_lam and on a bump, and each simulation
(states, scalars and jump logs) at two seeds and two sizes with the CSV of
one of them. Three runs cross wider boundaries of the Euler kernel: one of
1250 steps on jump_d3, over two randomness windows of 1024 steps, one of
100 paths on many_atoms, over two path blocks of at most 71, and one of 70
paths and 1100 steps on jump_d2, over five staging chunks of at most 16
paths and two windows. The last four lines are refusals, one per exception
type a call on these models raises.

CLI lines, `cbi <command>:<case> exit=<code> stdout=<digest>
stderr=<digest> out=<digest or ->`: every subcommand on six parameter
files written from the same models (fix_a, d2_critical, jump_d2, an
inadmissible tuple, degenerate_critical and jump_d3), one `simulate` on
jump_d3 over two randomness windows, one `prop31` on d2_critical off the
Perron ray, whose raw(n) / n has not settled by n = 1000, one `vsolve` on
branching_jump whose Riccati solve rejects 2 of its 67 step attempts, and
commands that exit 2 (d = 0, a d beyond numpy's range), 64 (a missing
flag, a single simulated path, a state that overflows, a negative lambda,
an n beyond the floating-point range and, last, an empty --out), 65
(malformed JSON, a non-integer d), 66 (a start state and a bump center of
the wrong dimension), 3 (a scaled-generator point n x, the square of
cgen's default bump radius, a scaled start n x0, a limit start
<u_left, x0> and a first Euler step beyond the floating-point range) and 73 (an --out file in a
directory that does not exist). The commands run in-process from one
fresh working directory with relative file names, so the output does not
depend on where the script runs.

An array is hashed by its dtype, shape and bytes, a number by its repr
(which round-trips a float exactly), bytes as they are; a digest is a
sha256 cut to 16 hex digits. So two checkouts print the same line iff the
call gives the same bits. The library lines depend on the BLAS and the
machine, so compare them only between runs on one host:

    python scripts/digest.py > digest.txt
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import cbi  # noqa: E402
from cbi import cli  # noqa: E402
from conftest import (ALL_FIXTURES, make_branching_jump, make_d2_critical,  # noqa: E402
                      make_degenerate_critical, make_fix_a, make_jump_d2, make_jump_d3,
                      make_many_atoms, write_params)

#: (horizon, dt, n_paths) of the two simulation sizes
SIZES = ((0.5, 0.01, 20), (1.0, 0.05, 7))
SEEDS = (3, 11)
SIM = ["--t", "0.5", "--dt", "0.01", "--n-paths", "20", "--seed", "3"]
#: labels of the lines whose call raised something other than an allowed refusal
UNEXPECTED: list[str] = []


def _inadmissible() -> cbi.CbiParams:
    return cbi.CbiParams.no_jumps(c=[1.0, -1.0], beta=[0.0, 0.0], B=[[0.0, -1.0], [1.0, 0.0]])


def _overflow() -> cbi.CbiParams:
    """c x overflows at the second Euler step of `simulate --dt 0.1`."""
    return cbi.CbiParams.no_jumps(c=[1e300], beta=[0.0], B=[[0.0]])


LIBRARY_MODELS = {**ALL_FIXTURES, "degenerate_critical": make_degenerate_critical,
                  "many_atoms": make_many_atoms}
#: the models every CLI command runs on, in the order of their lines
CLI_MODELS = {"fix_a": make_fix_a, "d2_critical": make_d2_critical, "jump_d2": make_jump_d2,
              "inadmissible": _inadmissible, "degenerate_critical": make_degenerate_critical,
              "jump_d3": make_jump_d3}


def _feed(h, obj) -> None:
    """Feed obj to the hash h: arrays by dtype, shape and bytes, numbers and
    strings by repr, bytes as they are, containers and dataclasses entry by
    entry."""
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        h.update(f"<{a.dtype.str}{a.shape}>".encode())
        h.update(a.tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    elif isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, dict):
        h.update(f"{{{len(obj)}".encode())
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif obj is None or isinstance(obj, (bool, int, float, complex, str)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def _digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def _line(label: str, thunk, show=_digest, may_refuse=False):
    """Print label and show(thunk()), and return thunk()'s result. When
    either raises, print the digest of the exception's type name and
    message in its place and return None; the label goes to UNEXPECTED
    unless may_refuse is set and the exception is a CbiError or ValueError."""
    try:
        result = thunk()
        text = show(result)
    except Exception as exc:
        if not (may_refuse and isinstance(exc, (cbi.CbiError, ValueError))):
            traceback.print_exc()
            UNEXPECTED.append(label)
        result, text = None, _digest(f"{type(exc).__name__}: {exc}")
    print(f"{label} {text}")
    return result


def _csv(paths) -> str:
    out = io.StringIO()
    cbi.paths_to_csv(paths, out)
    return out.getvalue()


def library_section(name: str, params: cbi.CbiParams) -> None:
    """Print the library lines of one model."""
    d = params.d
    x, lam = np.array([1.0, 0.5, 0.25][:d]), np.array([0.7, 1.2, 0.4][:d])
    lams = np.stack([lam, 3.0 * lam], axis=1)
    _line(f"params:{name}", lambda: (params, params.without_immigration()))
    _line(f"validate:{name}", lambda: cbi.validate(params))
    dq = _line(f"derive:{name}", lambda: cbi.derive(params))
    for quantity in ("spectral", "classification", "perron", "cbar"):
        _line(f"derive.spectral:{name}:{quantity}", lambda: getattr(dq, quantity),
              may_refuse=True)

    _line(f"mat_exp:{name}", lambda: [cbi.mat_exp(dq.btilde, t) for t in (0.0, 0.5, 2.0, 40.0)])
    _line(f"exp_and_integral_vec:{name}",
          lambda: cbi.exp_and_integral_vec(dq.btilde, dq.beta_tilde, 0.7))
    _line(f"spectral:{name}", lambda: cbi.spectral(dq.btilde))
    _line(f"is_irreducible:{name}", lambda: cbi.is_irreducible(dq.btilde))
    _line(f"perron_vectors:{name}", lambda: cbi.perron_vectors(dq.btilde), may_refuse=True)
    _line(f"branching_integral:{name}",
          lambda: cbi.branching_integral(dq.btilde, dq.big_c, x, 0.7))

    _line(f"mean:{name}", lambda: [cbi.mean(dq, x, t) for t in (0.0, 0.3, 1.0, 5.0)])
    _line(f"variance_no_immigration:{name}",
          lambda: [cbi.variance_no_immigration(params.without_immigration(), x, t)
                   for t in (0.5, 2.0)])

    _line(f"phi:{name}", lambda: cbi.phi(dq, lam))
    _line(f"psi:{name}", lambda: cbi.psi(dq, lam))
    _line(f"solve_v:{name}", lambda: cbi.solve_v(dq, 1.0, lam))
    _line(f"solve_v:{name}:two-columns", lambda: cbi.solve_v(dq, 1.0, lams))
    _line(f"solve_v:{name}:t0", lambda: (cbi.solve_v(dq, 0.0, lam), cbi.solve_v(dq, 0.0, lams)))
    _line(f"laplace_transform:{name}", lambda: cbi.laplace_transform(dq, 1.0, x, lam))
    _line(f"v_jacobian_limit:{name}", lambda: cbi.v_jacobian_limit(dq, 0.5))
    _line(f"v_jacobian_fd:{name}", lambda: cbi.v_jacobian_fd(dq, 0.5))
    _line(f"v_hessian_limit:{name}", lambda: cbi.v_hessian_limit(dq, 0.5, 0, d - 1, 0))
    _line(f"v_hessian_fd:{name}", lambda: cbi.v_hessian_fd(dq, 0.5, 0, d - 1, 0))

    _line(f"discrete_gen_exp:{name}",
          lambda: [cbi.discrete_gen_exp(dq, n, x, lam) for n in (1, 10, 1000)])
    _line(f"discrete_gen_limit:{name}", lambda: cbi.discrete_gen_limit(dq, x, lam))
    _line(f"exp_convergence_criterion:{name}", lambda: cbi.exp_convergence_criterion(dq, x, lam))
    _line(f"discrete_gen_table:{name}", lambda: cbi.discrete_gen_table(dq, x, lam))
    f = _line(f"bump:{name}", lambda: cbi.bump(np.zeros(d), 2.0 * (1.0 + float(x.max()))),
              show=lambda g: _digest([(g.value(p), g.gradient(p), g.hessian(p))
                                      for p in (x, 0.5 * x)]))
    _line(f"generator_apply:{name}", lambda: cbi.generator_apply(dq, f, x), may_refuse=True)
    for n in (1, 10, 1000):
        _line(f"scaled_gen_apply:{name}:n{n}", lambda: cbi.scaled_gen_apply(dq, n, f, x),
              may_refuse=True)
    _line(f"scaled_gen_limit:{name}", lambda: cbi.scaled_gen_limit(dq, f, x))
    _line(f"drift_convergence_criterion:{name}",
          lambda: cbi.drift_convergence_criterion(dq, f, x))

    for t, dt, n_paths in SIZES:
        for seed in SEEDS:
            cfg = functools.partial(cbi.PathConfig, x0=x, horizon=t, dt=dt, seed=seed,
                                    n_paths=n_paths)
            case = f"{name}:seed{seed}-{n_paths}x{round(t / dt)}"
            paths = _line(f"simulate_cbi:{case}", lambda: cbi.simulate_cbi(dq, cfg()))
            _line(f"simulate_scaled_step:{case}", lambda: cbi.simulate_scaled_step(dq, 5, cfg()))
            _line(f"simulate_limit_diffusion:{case}",
                  lambda: cbi.simulate_limit_diffusion(dq, cfg()), may_refuse=True)
    _line(f"paths_to_csv:{name}", lambda: _csv(paths))


def commands() -> list[tuple[str, list[str], str | None]]:
    """(label, argv, --out file name or None) for every CLI command."""
    cmds = []
    for name, make in CLI_MODELS.items():
        d = make().d
        x = ",".join(["1.0", "0.5", "0.25"][:d])
        lam = ",".join(["0.7", "1.2", "0.4"][:d])
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
            cmds.append((f"{command}:{name}", [command, "--params", f"{name}.json", *extra], out))
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
    cmds.append(("exit2:huge-d", ["validate", "--params", "d_huge.json"], None))
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
    cmds.append(("exit3:overflowing-first-step",
                 ["simulate", "--params", "fix_a.json", "--x=1e308", *tiny_run],
                 "simulate_first_step_overflow.csv"))
    cmds.append(("exit73:missing-out-directory",
                 ["simulate", "--params", "fix_a.json", "--x", "1", *tiny_run],
                 "no_such_dir/paths.csv"))
    # an empty --out is a usage error before the params file is read
    cmds.append(("exit64:empty-out",
                 ["prop31", "--params", "fix_a.json", "--x", "1", "--lambda", "1"], ""))
    return cmds


def _run_cli(argv: list[str], out: str | None) -> str:
    """Run cli.run(argv), with --out out unless out is None, and give its
    exit code and the digests of its stdout, its stderr and the --out file."""
    if out is not None:
        argv = [*argv, "--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    out_digest = _digest(Path(out).read_bytes()) if out and Path(out).exists() else "-"
    return (f"exit={code} stdout={_digest(stdout.getvalue().encode())} "
            f"stderr={_digest(stderr.getvalue().encode())} out={out_digest}")


def cli_section(cmds) -> None:
    """Write the parameter files to the working directory, then print the
    CLI line of each command of cmds."""
    for name, make in {**CLI_MODELS, "branching_jump": make_branching_jump,
                       "overflow": _overflow}.items():
        write_params(make(), Path(f"{name}.json"))
    Path("broken.json").write_text("{not json")
    for stem, name, d in (("d_not_integer", "d2_critical", 2.5), ("d_zero", "fix_a", 0),
                          ("d_huge", "fix_a", 10**20)):
        doc = json.loads(Path(f"{name}.json").read_text())
        Path(f"{stem}.json").write_text(json.dumps({**doc, "d": d}))
    for label, argv, out in cmds:
        _line(f"cbi {label}", lambda: _run_cli(argv, out), show=str)


def main() -> int:
    for name, make in LIBRARY_MODELS.items():
        library_section(name, make())
    x0 = [1.0, 0.5, 0.25]
    _line("simulate_cbi:jump_d3:two-windows", lambda: cbi.simulate_cbi(
        make_jump_d3(), cbi.PathConfig(x0=x0, horizon=0.5, dt=4e-4, seed=3, n_paths=20)))
    _line("simulate_cbi:many_atoms:two-blocks", lambda: cbi.simulate_cbi(
        make_many_atoms(), cbi.PathConfig(x0=x0, horizon=0.5, dt=0.01, seed=3, n_paths=100)))
    _line("simulate_cbi:jump_d2:chunks-and-windows", lambda: cbi.simulate_cbi(
        make_jump_d2(), cbi.PathConfig(x0=x0[:2], horizon=1.1, dt=1e-3, seed=3, n_paths=70)))
    _line("refusal:inadmissible", lambda: cbi.derive(_inadmissible()), may_refuse=True)
    _line("refusal:dimension", lambda: cbi.mean(make_fix_a(), [1.0, 2.0], 1.0), may_refuse=True)
    _line("refusal:numeric-range", lambda: cbi.mean(make_fix_a(), [1e308], 1e308),
          may_refuse=True)
    _line("refusal:classification", lambda: cbi.derive(make_degenerate_critical()).perron,
          may_refuse=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        cli_section(commands())
    if UNEXPECTED:
        print(f"{len(UNEXPECTED)} calls raised unexpectedly: {UNEXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
