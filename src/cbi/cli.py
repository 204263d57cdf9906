"""Command-line interface: config ingestion, dispatch, machine-readable reports.

Commands (all take --params <file>, a JSON document with keys d, c, beta,
B, nu, mu):

    validate         admissibility report (JSON)
    derive           btilde, beta_tilde, C_k, classification, spectrum,
                     Perron pair when critical (JSON)
    vsolve           v(t, lambda) and the psi-integral (JSON)
    laplace          exact transition Laplace transform (JSON)
    dgen             one discrete-generator value on e_lambda (JSON)
    prop31           corrected discrete-generator sweep over n
                     (CSV: n, raw, corrected, limit, gap; verdict JSON)
    cgen             scaled-generator sweep on a bump plus its limit (CSV + JSON)
    simulate         CBI paths (CSV: path_id, t, x_1..x_d) + moment summary
    simulate-scaled  step-scaled chain paths (CSV) + moment summary
    simulate-limit   limiting ray diffusion paths (CSV) + moment summary

Exit codes: 0 success, 2 validation/classification failure, 3 solver
failure, 64 usage error or unknown command (an empty --out included, before
the params file is read), 65 unreadable or malformed params JSON, 66
dimension mismatch (the library's DimensionError, a --bump-center's
included), 73 an --out file that cannot be created or written (sysexits
EX_CANTCREAT). `_FAILURES` is the one list of these failure exits. The
CLI only parses flag values: the library checks points, horizons and
scales. `_COMMANDS` is the one list of each command's flags, required and
optional: a command accepts only those, its required ones are checked once
the model is derived, and every JSON report embeds them, resolved, so a
run is reproducible from the report alone; CSV output is byte-stable for
a fixed config and seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import affine, generators, moments, simulate
from .errors import (ClassificationError, ConsistencyError, DimensionError,
                     InadmissibleError, NumericRangeError, SolverError)
from .model import CbiParams, validate
from .moments import DerivedQuantities
from .testfunctions import bump

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_USAGE = 64
EXIT_INPUT = 65
EXIT_DIMENSION = 66
EXIT_CANTCREAT = 73


class _InputError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep codes ours
        raise ValueError(message)


def _integers(text: str) -> tuple[int, ...]:
    """Comma-separated integers; a piece that is not one is named."""
    values = []
    for piece in text.split(","):
        try:
            values.append(int(piece))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {piece!r}") from None
    return tuple(values)


#: argparse keywords per flag; an unlisted flag is a plain string, and a
#: flag absent from the command line without a default reads None.
_FLAGS = {
    "--t": {"type": float},
    "--lambda": {"dest": "lam"},
    "--n": {"type": int},
    "--n-list": {"type": _integers, "default": generators.DEFAULT_N_LIST},
    "--seed": {"type": int, "default": 0},
    "--tol": {"type": float, "default": affine.DEFAULT_TOL},
    "--dt": {"type": float, "default": 1e-3},
    "--n-paths": {"type": int, "default": 100},
    "--bump-radius": {"type": float},
    "--bump-amplitude": {"type": float, "default": 1.0},
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="cbi", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    for name, (_, required, optional) in _COMMANDS.items():
        # no abbreviations: `simulate --n 5` must not become --n-paths 5
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--params", required=True)
        for flag in (*required, *optional):
            p.add_argument(flag, **_FLAGS.get(flag, {}))
    return parser


def _load_params(path: str) -> CbiParams:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _InputError(f"cannot read params file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"malformed JSON in {path!r}: {exc}") from exc
    try:
        return CbiParams.from_dict(data)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _vec(text: str, flag: str) -> np.ndarray:
    """A vector flag's comma-separated decimals; the library checks the values."""
    try:
        return np.array([float(s) for s in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"{flag} must be comma-separated decimals: {exc}") from exc


def _key(flag: str) -> str:
    """A flag's name in the report's config."""
    return flag[2:].replace("-", "_")


def _dest(flag: str) -> str:
    """A flag's attribute on the parsed arguments."""
    return _FLAGS.get(flag, {}).get("dest", _key(flag))


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(command: str, config: dict, result: dict) -> int:
    """Print the report; a result that is not admissible exits 2."""
    print(json.dumps({"command": command, "config": config, "result": result},
                     default=_json_default, indent=2, sort_keys=True))
    return EXIT_OK if result.get("admissible", True) else EXIT_VALIDATION


def _write_out(path: str, write) -> None:
    """Open the --out file and hand it to write(fh). A file that cannot be
    created or written is an _OutputError; what was written stays, since
    --out may name a device such as /dev/full."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise _OutputError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _write_csv(args, header: str, rows: list[str]) -> None:
    text = header + "\n" + "\n".join(rows) + "\n"
    if args.out:
        _write_out(args.out, lambda fh: fh.write(text))
    else:
        sys.stdout.write(text)


# Each handler returns its report's result, or None when its table went to
# stdout; `run` checks the required flags and parses the vector flags first.

def _cmd_validate(args, params: CbiParams) -> dict:
    report = validate(params)
    return {"admissible": report.admissible,
            "moment_order_ok": {str(k): bool(v) for k, v in report.moment_order_ok.items()},
            "computed_integrals": report.computed_integrals,
            "violations": report.violations}


def _cmd_derive(args, dq: DerivedQuantities) -> dict:
    return {
        "btilde": dq.btilde,
        "beta_tilde": dq.beta_tilde,
        "C": list(dq.big_c),
        "cbar": dq.cbar,
        "classification": dq.classification,
        "spectral": {"eigenvalues": list(dq.spectral.eigenvalues),
                     "spectral_radius": dq.spectral.spectral_radius,
                     "spectral_abscissa": dq.spectral.spectral_abscissa},
        "perron": None if dq.perron is None else
                  {"u_right": dq.perron.u_right, "u_left": dq.perron.u_left},
    }


def _cmd_vsolve(args, dq: DerivedQuantities) -> dict:
    sol = affine.solve_v(dq, args.t, args.lam, tol=args.tol)
    return {"v": sol.v_final, "psi_integral": sol.psi_integral,
            "solver_stats": sol.solver_stats}


def _cmd_laplace(args, dq: DerivedQuantities) -> dict:
    return {"laplace_transform": affine.laplace_transform(
        dq, args.t, args.x, args.lam, tol=args.tol)}


def _cmd_dgen(args, dq: DerivedQuantities) -> dict:
    return {"discrete_generator": generators.discrete_gen_exp(dq, args.n, args.x, args.lam)}


def _cmd_prop31(args, dq: DerivedQuantities) -> dict | None:
    table = generators.discrete_gen_table(dq, args.x, args.lam, args.n_list)
    rows = [f"{n},{float(raw)!r},{float(corr)!r},{float(table.limit_formula)!r},{float(gap)!r}"
            for n, raw, corr, gap in zip(table.n_values, table.raw,
                                         table.corrected, table.gaps)]
    _write_csv(args, "n,raw,corrected,limit,gap", rows)
    return {"verdict": table.verdict, "fitted_slope": table.fitted_slope,
            "limit": table.limit_formula, "csv": args.out} if args.out else None


def _cmd_cgen(args, dq: DerivedQuantities) -> dict | None:
    x = moments._point(dq, args.x, "x")
    # the defaults resolve here, so the report echoes the bump it used
    if args.bump_center is None:
        args.bump_center = np.zeros(dq.params.d)
    if args.bump_radius is None:
        args.bump_radius = 2.0 * (1.0 + float(np.max(np.abs(x))))
        # derived, not given: beyond the float range it is exit 3, not a usage error
        moments._finite(args.bump_radius * args.bump_radius, "default bump radius squared")
    f = bump(args.bump_center, args.bump_radius, args.bump_amplitude)
    limit = generators.scaled_gen_limit(dq, f, x)
    rows = []
    for n in args.n_list:  # never empty, so drift_rate is bound
        val, corrected, drift_rate = generators.scaled_gen_apply(dq, n, f, x)
        rows.append(f"{n},{float(val)!r},{float(n * drift_rate)!r},{float(corrected)!r},"
                    f"{float(limit)!r},{float(abs(corrected - limit))!r}")
    _write_csv(args, "n,scaled,drift_term,corrected,limit,gap", rows)
    return {"limit": limit, "drift_rate": drift_rate,
            "converges_uncorrected": generators.drift_convergence_criterion(dq, f, x),
            "csv": args.out} if args.out else None


def _path_config(args) -> simulate.PathConfig:
    if args.n_paths < 2:  # the moment check's standard error needs two paths
        raise ValueError(f"--n-paths must be at least 2, got {args.n_paths}")
    return simulate.PathConfig(x0=args.x, horizon=args.t, dt=args.dt,
                               seed=args.seed, n_paths=args.n_paths)


def _report_paths(args, paths, ends: np.ndarray, reference: np.ndarray) -> dict:
    """The report's result, the end states' mean checked against reference to
    3 standard errors; the CSV is written last, so a failed run leaves no file."""
    emp = ends.mean(axis=0)
    se = ends.std(axis=0, ddof=1) / np.sqrt(len(ends))
    check = {"empirical_mean": emp, "reference_mean": reference, "standard_error": se,
             "within_3se": bool(np.all(np.abs(emp - reference) <= 3.0 * se + 1e-12))}
    _write_out(args.out, lambda fh: simulate.paths_to_csv(paths, fh))
    return {"csv": args.out, "moment_check": check}


def _cmd_simulate(args, dq: DerivedQuantities) -> dict:
    cfg = _path_config(args)
    paths = simulate.simulate_cbi(dq, cfg)
    return _report_paths(args, paths, np.stack([p.states[-1] for p in paths]),
                         moments.mean(dq, cfg.x0, cfg.horizon))


def _cmd_simulate_scaled(args, dq: DerivedQuantities) -> dict:
    cfg = _path_config(args)
    paths = simulate.simulate_scaled_step(dq, args.n, cfg)
    m = simulate.scaled_last_index(args.n, cfg.horizon)
    return _report_paths(args, paths, np.stack([p.states[-1] for p in paths]),
                         moments.mean(dq, args.n * cfg.x0, float(m)) / args.n)


def _cmd_simulate_limit(args, dq: DerivedQuantities) -> dict:
    cfg = _path_config(args)
    paths = simulate.simulate_limit_diffusion(dq, cfg)
    return _report_paths(args, paths, np.array([p.scalar[-1] for p in paths])[:, None],
                         moments.mean(simulate.limit_ray(dq), [float(dq.perron.u_left @ cfg.x0)],
                                      cfg.horizon))


_SIM_OPTIONAL = ("--dt", "--n-paths", "--seed")

#: command -> (handler, required flags in the order they are checked, optional
#: flags), the one list of the flags each command reads besides --params.
#: Every handler but `validate`'s runs on the model `run` has derived.
_COMMANDS = {
    "validate": (_cmd_validate, (), ()),
    "derive": (_cmd_derive, (), ()),
    "vsolve": (_cmd_vsolve, ("--t", "--lambda"), ("--tol",)),
    "laplace": (_cmd_laplace, ("--t", "--x", "--lambda"), ("--tol",)),
    "dgen": (_cmd_dgen, ("--n", "--x", "--lambda"), ()),
    "prop31": (_cmd_prop31, ("--x", "--lambda"), ("--n-list", "--out")),
    "cgen": (_cmd_cgen, ("--x",), ("--n-list", "--bump-center", "--bump-radius",
                                   "--bump-amplitude", "--out")),
    "simulate": (_cmd_simulate, ("--out", "--t", "--x"), _SIM_OPTIONAL),
    "simulate-scaled": (_cmd_simulate_scaled, ("--n", "--out", "--t", "--x"), _SIM_OPTIONAL),
    "simulate-limit": (_cmd_simulate_limit, ("--out", "--t", "--x"), _SIM_OPTIONAL),
}
#: built once; each parse_args call starts from a fresh namespace
_PARSER = _build_parser()
#: (exception types, stderr prefix, exit code): `run` takes the first row
#: that matches, so DimensionError precedes ValueError, and re-raises the rest.
_FAILURES = (
    (_InputError, "input error", EXIT_INPUT),
    (_OutputError, "output error", EXIT_CANTCREAT),
    (DimensionError, "dimension mismatch", EXIT_DIMENSION),
    (ClassificationError, "classification error", EXIT_VALIDATION),
    ((SolverError, NumericRangeError, ConsistencyError), "solver error", EXIT_SOLVER),
    (ValueError, "usage error", EXIT_USAGE),
)


def run(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.command is None:
            raise ValueError("a command is required (see --help)")
        handler, required, optional = _COMMANDS[args.command]
        # an empty path names no file, for every command that writes one
        if "--out" in (*required, *optional) and args.out == "":
            raise ValueError(f"--out must name a file, got '' for {args.command}")
        params = _load_params(args.params)
        model = params
        if args.command != "validate":
            try:
                model = moments.derive(params)
            except InadmissibleError as exc:
                return _emit(args.command, {"params_file": args.params},
                             {"admissible": False, "violations": exc.violations})
        for flag in required:
            if getattr(args, _dest(flag)) is None:
                raise ValueError(f"{flag} is required for {args.command}")
        flags = (*required, *optional)
        for flag in flags:
            dest = _dest(flag)
            if flag in ("--x", "--lambda", "--bump-center") and getattr(args, dest) is not None:
                setattr(args, dest, _vec(getattr(args, dest), flag))
        result = handler(args, model)
        if result is None:
            return EXIT_OK
        # the params file and the resolved flags the command read (its
        # result names the --out CSV)
        return _emit(args.command, {"params_file": args.params,
                                    **{_key(f): getattr(args, _dest(f))
                                       for f in flags if f != "--out"}}, result)
    except Exception as exc:
        for types, prefix, code in _FAILURES:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
