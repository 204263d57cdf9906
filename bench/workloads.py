"""The four workloads: fixed op lists built from the seed, each op gated.

Each workload is a closed loop with a single client: the next op starts
when the previous one has returned. An op is one call into the package
(on `cli`, one call of the command-line entry point); its check compares
the result with a reference from oracles.py and runs outside the op's
timing. The seed draws the inputs; the op count never depends on it.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import cbi
import cbi.cli
import oracles as orc
from fixtures import (DGEN_CASES, FIXTURES, MC_PROBES, MC_T, MOMENT_T,
                      WORKLOAD_FIXTURES, key, without_immigration)

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: Counts the ops add to themselves (cli output bytes).
    counters: Counter = field(default_factory=Counter)
    close: Callable[[], None] = lambda: None


def params_of(name: str):
    """Build and validate a fixture's parameters; raises when inadmissible."""
    params = cbi.CbiParams.from_dict(FIXTURES[name])
    report = cbi.validate(params)
    if not report.admissible:
        raise ValueError(f"{name}: " + "; ".join(report.violations))
    return params


def _uniform(rng, lo, hi, d):
    """Seed-drawn inputs, rounded to 6 decimals to keep CLI arguments short."""
    return np.round(rng.uniform(lo, hi, size=d), 6)


def _stratified(rng, lo, hi, n, d):
    """n seed-drawn points in [lo, hi]^d with one point in each of n equal
    strata of every coordinate (a Latin hypercube): a solve's cost grows
    with lambda, and every seed then spreads its points over the whole
    range instead of sometimes bunching them at one end."""
    strata = np.stack([rng.permutation(n) for _ in range(d)], axis=1)
    return np.round(lo + (hi - lo) * (strata + rng.uniform(size=(n, d))) / n, 6)


#: The transforms pass is kept short (about 0.2-0.4 s) so that a run repeats
#: every op many times and the run's medians rest on many samples.
FIX_A_T = (0.5, 1.0, 2.0)
FIX_A_LAM = (0.5, 2.0, 5.0)
JUMP_LAMBDAS = 8
#: (fixture, t) of the FD Jacobian probes and (fixture, (i, j, k)) of the FD
#: probes of d^2 v_k / d lam_i d lam_j at t = 1; fix_a's limit is -2t.
JACOBIAN_PROBES = (("fix_a", 1.0), ("jump_d2", 1.0))
HESSIAN_PROBES = (("fix_a", (0, 0, 0)), ("jump_d2", (1, 0, 1)))


def transforms(seed: int, **_) -> Workload:
    rng = np.random.default_rng(seed)
    P = {name: params_of(name) for name in WORKLOAD_FIXTURES["transforms"]}
    ops = []
    for t in FIX_A_T:
        for lam in FIX_A_LAM:
            ops.append(Op(f"laplace_fix_a_t{t}_l{lam}",
                          lambda t=t, lam=lam: cbi.laplace_transform(P["fix_a"], t, [1.0], [lam]),
                          lambda got, t=t, lam=lam: abs(got - orc.fix_a_laplace(1.0, lam, t)) <= 1e-8))
    for m, lam in enumerate(_stratified(rng, 0.1, 3.0, JUMP_LAMBDAS, 2)):
        x = [1.0, 0.5]
        ref = orc.laplace_ode(FIXTURES["jump_d2"], x, lam, 1.0)
        ops.append(Op(f"laplace_jump_d2_{m}",
                      lambda x=x, lam=lam: cbi.laplace_transform(P["jump_d2"], 1.0, x, lam),
                      lambda got, ref=ref: abs(got - ref) <= 1e-8))
    for name in P:
        x, lam = DGEN_CASES[name][0]
        ops.append(Op(f"prop31_{name}",
                      lambda name=name, x=x, lam=lam: cbi.discrete_gen_table(P[name], x, lam),
                      lambda tab, name=name, x=x, lam=lam: _table_ok(name, x, lam, tab)))
    for name, t in JACOBIAN_PROBES:
        ops.append(Op(f"jacobian_fd_{name}_t{t}",
                      lambda name=name, t=t: cbi.v_jacobian_fd(P[name], t),
                      lambda J, name=name, t=t: orc.close(J, orc.table(name, t)["exp"], 1e-5)))
    for name, (i, j, k) in HESSIAN_PROBES:
        ref = -2.0 if name == "fix_a" else orc.table(name, 1.0)["hessian_limit"][i][j][k]
        ops.append(Op(f"hessian_fd_{name}_{i}{j}{k}",
                      lambda name=name, i=i, j=j, k=k: cbi.v_hessian_fd(P[name], 1.0, i, j, k),
                      lambda h, ref=ref: abs(h - ref) <= 1e-4))
    return Workload("transforms", ops)


def _table_ok(name, x, lam, tab) -> bool:
    """prop31: the limit matches mpmath and the verdict matches the criterion
    <lam, x> = <lam, exp(btilde) x> evaluated from the stored exponential."""
    ref = orc.REFS[name]["dgen_limit"][key(x, lam)]
    on_ray = abs(float(np.dot(lam, x) - np.dot(lam, np.array(orc.table(name, 1.0)["exp"]) @ x))) <= 1e-10
    if on_ray:
        verdict_ok = tab.verdict == "converges" and tab.gaps[-1] <= 1e-3
    else:
        verdict_ok = tab.verdict == "diverges-linearly"
    return verdict_ok and abs(tab.limit_formula - ref) <= 1e-9 * (1 + abs(ref))


def moments(seed: int, **_) -> Workload:
    rng = np.random.default_rng(seed)
    P = {name: params_of(name) for name in WORKLOAD_FIXTURES["moments"]}
    pure = {name: cbi.CbiParams.from_dict(without_immigration(FIXTURES[name])) for name in P}
    ops = []
    for name, params in P.items():
        d = params.d
        for t in MOMENT_T:
            x = _uniform(rng, 0.2, 2.0, d)
            ops.append(Op(f"mean_{name}_t{t}",
                          lambda params=params, x=x, t=t: cbi.mean(params, x, t),
                          lambda got, name=name, x=x, t=t: orc.close(got, orc.mean_ref(name, x, t), 1e-9)))
            z = _uniform(rng, 0.2, 2.0, d)
            ops.append(Op(f"variance_{name}_t{t}",
                          lambda name=name, z=z, t=t: cbi.variance_no_immigration(pure[name], z, t),
                          lambda got, name=name, z=z, t=t: orc.close(got, orc.variance_ref(name, z, t), 1e-9)))
            i, j, k = (int(v) for v in rng.integers(0, d, size=3))
            ref = orc.table(name, t)["hessian_limit"][i][j][k]
            ops.append(Op(f"hessian_limit_{name}_t{t}",
                          lambda params=params, t=t, i=i, j=j, k=k: cbi.v_hessian_limit(params, t, i, j, k),
                          lambda got, ref=ref: abs(got - ref) <= 1e-9 * (1 + abs(ref))))
        for m, (x, lam) in enumerate(DGEN_CASES[name]):
            ref = orc.REFS[name]["dgen_limit"][key(x, lam)]
            ops.append(Op(f"dgen_limit_{name}_{m}",
                          lambda params=params, x=x, lam=lam: cbi.discrete_gen_limit(params, x, lam),
                          lambda got, ref=ref: abs(got - ref) <= 1e-9 * (1 + abs(ref))))
        center, radius = [0.5] * d, 3.0
        f = cbi.bump(center, radius)
        f_ref = lambda y, center=center: orc.bump_value(center, radius, 1.0, y)
        for m in range(4):
            x = _uniform(rng, 0.1, 1.5, d)
            ops.append(Op(f"scaled_limit_{name}_{m}",
                          lambda params=params, f=f, x=x: cbi.scaled_gen_limit(params, f, x),
                          lambda got, name=name, f_ref=f_ref, x=x:
                              abs(got - orc.scaled_limit_fd(name, f_ref, x)) <= 1e-6 * (1 + abs(got))))
            x = _uniform(rng, 0.1, 1.5, d)
            ops.append(Op(f"generator_{name}_{m}",
                          lambda params=params, f=f, x=x: cbi.generator_apply(params, f, x),
                          lambda got, name=name, f_ref=f_ref, x=x:
                              abs(got - orc.generator_fd(FIXTURES[name], f_ref, x)) <= 1e-6 * (1 + abs(got))))
    return Workload("moments", ops)


#: Monte Carlo sizes: paths per call and Euler step (the scaled chain steps
#: its base chain over n * horizon with MC_SCALED_DT). Sized, like the
#: transforms pass, for a short pass that a run repeats many times.
MC_PATHS = 500
MC_DT = 4e-3
MC_SCALED_N = 10
MC_SCALED_DT = 1e-2


def _mc_refs(name: str, x0) -> tuple[np.ndarray, dict]:
    """Exact mean and Laplace values at MC_T from start x0."""
    if name == "fix_a":
        return (np.array([x0[0] + MC_T]),
                {tuple(lam): orc.fix_a_laplace(x0[0], lam[0], MC_T) for lam in MC_PROBES[name]})
    return (orc.mean_ref(name, x0, MC_T),
            {tuple(lam): orc.laplace_ref(name, x0, lam, MC_T) for lam in MC_PROBES[name]})


#: Start points per Monte Carlo kind. Fixed, so that the work per pass does
#: not depend on the seed. The kinds' costs are well apart (limit < critical
#: < scaled < jump), and three critical starts put the median op inside
#: that kind rather than between two.
MC_KINDS = (
    ("cbi_jump_d2", "jump_d2", ([1.0, 0.5],)),
    ("cbi_d2_critical", "d2_critical", ([1.0, 0.5], [0.5, 1.5], [1.5, 1.0])),
    ("limit_fix_a", "fix_a", ([1.0],)),
    ("scaled_fix_a", "fix_a", ([1.0],)),
)


def mc(seed: int, **_) -> Workload:
    rng = np.random.default_rng(seed)
    P = {name: params_of(name) for name in WORKLOAD_FIXTURES["mc"]}
    calls = {
        "cbi_jump_d2": lambda p, cfg: cbi.simulate_cbi(p, cfg),
        "cbi_d2_critical": lambda p, cfg: cbi.simulate_cbi(p, cfg),
        "limit_fix_a": lambda p, cfg: cbi.simulate_limit_diffusion(p, cfg),
        "scaled_fix_a": lambda p, cfg: cbi.simulate_scaled_step(p, MC_SCALED_N, cfg),
    }
    ops = []
    for kind, name, starts in MC_KINDS:
        dt = MC_SCALED_DT if kind == "scaled_fix_a" else MC_DT
        for m, x0 in enumerate(starts):
            cfg = cbi.PathConfig(x0=x0, horizon=MC_T, dt=dt,
                                 seed=int(rng.integers(0, 2**31)), n_paths=MC_PATHS)
            mean_exact, laplace_exact = _mc_refs(name, x0)
            ops.append(Op(f"{kind}_{m}",
                          lambda call=calls[kind], name=name, cfg=cfg: call(P[name], cfg),
                          lambda paths, m_=mean_exact, l_=laplace_exact:
                              orc.mc_ok(np.array([p.states[-1] for p in paths]), m_, l_)))
    return Workload("mc", ops)


# --- cli ----------------------------------------------------------------------

#: Sizes of the CLI simulations: `simulate` writes about 1.5 MB of CSV and
#: spends most of its time writing it. Monte Carlo gates need 100 paths or
#: more: with 20 the 4-standard-error check is no longer trustworthy.
CLI_SIM = {"n_paths": 100, "dt": 4e-3}
CLI_LIMIT = {"n_paths": 100, "dt": 4e-3}
#: `laplace` runs CLI_LAPLACES times a pass, at a fixed t (its cost grows
#: with t) and on stratified seed-drawn lambda, and `prop31` CLI_PROP31S
#: times: the median of the pass's 12 op latencies then falls inside the
#: `laplace` group rather than on the edge between two kinds of op.
CLI_LAPLACES = 7
CLI_PROP31S = 2
CLI_LAPLACE_T = 1.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _csv_ends(path: Path, horizon: float) -> np.ndarray:
    """Final state of every path from a path_id,t,x_1..x_d CSV."""
    t_end = repr(float(horizon))
    ends = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if cells[1] == t_end:
                ends.append([float(v) for v in cells[2:]])
    return np.array(ends)


def cli(seed: int, root: Path, **_) -> Workload:
    """Each op is one `cbi.cli.run(argv)` call in this process, as
    `python -m cbi.cli` makes it after its import: argument parsing,
    parameter files, the command and its JSON and CSV output. The import
    itself is what `setup_s` measures (see README, "cli")."""
    rng = np.random.default_rng(seed)
    for name in WORKLOAD_FIXTURES["cli"]:
        params_of(name)
    work = root / ".bench_build" / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    for name in WORKLOAD_FIXTURES["cli"]:
        (work / f"{name}.json").write_text(json.dumps(FIXTURES[name]))
    wl = Workload("cli", [])

    wl.close = lambda: shutil.rmtree(work, ignore_errors=True)

    def call(argv: list[str], out_name: str | None):
        argv = list(argv)
        if out_name is not None:
            argv += ["--out", str(work / out_name)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cbi.cli.run(argv)
        written = len(stdout.getvalue().encode())
        if out_name is not None and (work / out_name).exists():
            written += (work / out_name).stat().st_size
        wl.counters["cli.output_bytes"] += written
        return code, stdout.getvalue(), stderr.getvalue()

    def fmt(v) -> str:
        return ",".join(repr(float(a)) for a in np.atleast_1d(v))

    def json_result(out) -> dict:
        code, stdout, stderr = out
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr[-300:]}")
        return json.loads(stdout)["result"]

    fix_a = str(work / "fix_a.json")
    jump = str(work / "jump_d2.json")
    refs = orc.REFS["jump_d2"]

    def derive_ok(out) -> bool:
        r = json_result(out)
        return (r["classification"] == "subcritical"
                and orc.close(r["btilde"], refs["btilde"], 1e-12)
                and orc.close(r["beta_tilde"], refs["beta_tilde"], 1e-12)
                and orc.close(r["C"], refs["C"], 1e-12))

    wl.ops.append(Op("derive_jump_d2", lambda: call(["derive", "--params", jump], None), derive_ok))

    for m, lam in enumerate(_stratified(rng, 0.5, 3.0, CLI_LAPLACES, 1)):
        x = _uniform(rng, 0.5, 2.0, 1)
        wl.ops.append(Op(f"laplace_fix_a_{m}",
                         lambda x=x, lam=lam: call(["laplace", "--params", fix_a,
                                                    "--t", repr(CLI_LAPLACE_T), "--x", fmt(x),
                                                    "--lambda", fmt(lam)], None),
                         lambda out, x=x, lam=lam: abs(json_result(out)["laplace_transform"]
                                                       - orc.fix_a_laplace(x[0], lam[0], CLI_LAPLACE_T))
                                                   <= 1e-8))

    def prop31_ok(out, csv_name, px, plam) -> bool:
        r = json_result(out)
        rows = (work / csv_name).read_text().splitlines()
        gap = float(rows[-1].split(",")[-1])
        ref = orc.fix_a_dgen_limit(px[0], plam[0])
        return (r["verdict"] == "converges" and len(rows) == 5 and gap <= 1e-3
                and abs(r["limit"] - ref) <= 1e-9 * (1 + abs(ref)))

    for m in range(CLI_PROP31S):
        px, plam, csv_name = _uniform(rng, 0.5, 2.0, 1), _uniform(rng, 0.5, 2.0, 1), f"prop31_{m}.csv"
        wl.ops.append(Op(f"prop31_fix_a_{m}",
                         lambda px=px, plam=plam, csv_name=csv_name:
                             call(["prop31", "--params", fix_a, "--x", fmt(px),
                                   "--lambda", fmt(plam)], csv_name),
                         lambda out, px=px, plam=plam, csv_name=csv_name:
                             prop31_ok(out, csv_name, px, plam)))

    def mc_csv_ok(out, csv_name, fixture, x0, n_paths) -> bool:
        json_result(out)
        ends = _csv_ends(work / csv_name, MC_T)
        mean_exact, laplace_exact = _mc_refs(fixture, x0)
        return len(ends) == n_paths and orc.mc_ok(ends, mean_exact, laplace_exact)

    lx0, lseed = [1.0], int(rng.integers(0, 2**31))
    wl.ops.append(Op("simulate_limit_fix_a",
                     lambda: call(["simulate-limit", "--params", fix_a, "--t", repr(MC_T),
                                   "--x", fmt(lx0), "--dt", repr(CLI_LIMIT["dt"]),
                                   "--n-paths", str(CLI_LIMIT["n_paths"]),
                                   "--seed", str(lseed)], "limit.csv"),
                     lambda out: mc_csv_ok(out, "limit.csv", "fix_a", lx0, CLI_LIMIT["n_paths"])))

    sx0, sseed = [1.0, 0.5], int(rng.integers(0, 2**31))
    wl.ops.append(Op("simulate_jump_d2",
                     lambda: call(["simulate", "--params", jump, "--t", repr(MC_T),
                                   "--x", fmt(sx0), "--dt", repr(CLI_SIM["dt"]),
                                   "--n-paths", str(CLI_SIM["n_paths"]),
                                   "--seed", str(sseed)], "paths.csv"),
                     lambda out: mc_csv_ok(out, "paths.csv", "jump_d2", sx0, CLI_SIM["n_paths"])))
    return wl


BUILDERS = {"transforms": transforms, "moments": moments, "mc": mc, "cli": cli}
