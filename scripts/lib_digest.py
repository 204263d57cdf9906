"""Digest of the library's results on a fixed set of calls.

Calls every function that `cbi` exports on each model of
tests/conftest.py (the six of ALL_FIXTURES, the degenerate-critical one
and the 40-atoms-per-measure many_atoms): validate, derive's arrays (the
C_k included) and its spectral quantities, the matrix functions on
btilde, the mean at four times, the pure-branching covariance, phi, psi,
a one- and a two-column Riccati solve with their solver stats, the
transform, the Jacobian and Hessian limits and probes, the discrete and
scaled generators on e_lam and on a bump, and each simulation (states,
scalars and jump logs) at two seeds and two sizes with the CSV of one of
them. Two runs cross wider boundaries of the Euler kernel: one of 1250
steps on jump_d3, over two randomness windows of 1024 steps, and one of
100 paths on many_atoms, over two path blocks of at most 71. The
exception types are covered by the refusals that a call on these models
raises: its line hashes the type's name and the message.

Each line is

    <function>:<model>[:<case>] <sha256 cut to 16 hex digits>

An array is hashed by its dtype, shape and bytes, a number by its repr
(which round-trips a float exactly), so two checkouts print the same
line iff the call returns the same bits. The lines depend on the BLAS
and the machine, so compare them only between runs on one host:

    python scripts/lib_digest.py > lib_digest.txt
"""
from __future__ import annotations

import dataclasses
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import cbi  # noqa: E402
from conftest import ALL_FIXTURES, make_degenerate_critical, make_many_atoms  # noqa: E402

MODELS = {**ALL_FIXTURES, "degenerate_critical": make_degenerate_critical,
          "many_atoms": make_many_atoms}
#: (horizon, dt, n_paths) of the two simulation sizes
SIZES = ((0.5, 0.01, 20), (1.0, 0.05, 7))
SEEDS = (3, 11)


def _feed(h, obj) -> None:
    """Feed obj to the hash h: arrays by dtype, shape and bytes, numbers and
    strings by repr, containers and dataclasses entry by entry."""
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        h.update(f"<{a.dtype.str}{a.shape}>".encode())
        h.update(a.tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
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


def _try(call):
    """call()'s result, or the name and message of the CbiError or
    ValueError it raises."""
    try:
        return call()
    except (cbi.CbiError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _line(label: str, *objs) -> None:
    h = hashlib.sha256()
    _feed(h, objs)
    print(f"{label} {h.hexdigest()[:16]}")


def _simulations(name: str, dq, x) -> None:
    for t, dt, n_paths in SIZES:
        for seed in SEEDS:
            cfg = cbi.PathConfig(x0=x, horizon=t, dt=dt, seed=seed, n_paths=n_paths)
            case = f"{name}:seed{seed}-{n_paths}x{round(t / dt)}"
            paths = cbi.simulate_cbi(dq, cfg)
            _line(f"simulate_cbi:{case}", paths)
            _line(f"simulate_scaled_step:{case}", cbi.simulate_scaled_step(dq, 5, cfg))
            _line(f"simulate_limit_diffusion:{case}",
                  _try(lambda: cbi.simulate_limit_diffusion(dq, cfg)))
    out = io.StringIO()
    cbi.paths_to_csv(paths, out)
    _line(f"paths_to_csv:{name}", out.getvalue())


def digest_model(name: str, params) -> None:
    d = params.d
    x = np.array([1.0, 0.5, 0.25][:d])
    lam = np.array([0.7, 1.2, 0.4][:d])
    _line(f"params:{name}", params, params.without_immigration())
    _line(f"validate:{name}", cbi.validate(params))
    dq = cbi.derive(params)
    _line(f"derive:{name}", dq.btilde, dq.beta_tilde, np.asarray(dq.big_c),
          dq.drift_table, dq.atom_points, dq.atom_weights)
    _line(f"derive.spectral:{name}", _try(lambda: dq.spectral), _try(lambda: dq.classification),
          _try(lambda: dq.perron), _try(lambda: dq.cbar))

    A = dq.btilde
    _line(f"mat_exp:{name}", [cbi.mat_exp(A, t) for t in (0.0, 0.5, 2.0, 40.0)])
    _line(f"exp_and_integral_vec:{name}", cbi.exp_and_integral_vec(A, dq.beta_tilde, 0.7))
    _line(f"spectral:{name}", cbi.spectral(A))
    _line(f"is_irreducible:{name}", cbi.is_irreducible(A))
    _line(f"perron_vectors:{name}", _try(lambda: cbi.perron_vectors(A)))
    _line(f"branching_integral:{name}", cbi.branching_integral(A, dq.big_c, x, 0.7))

    _line(f"mean:{name}", [cbi.mean(dq, x, t) for t in (0.0, 0.3, 1.0, 5.0)])
    pure = cbi.derive(params.without_immigration())
    _line(f"variance_no_immigration:{name}",
          [cbi.variance_no_immigration(pure, x, t) for t in (0.5, 2.0)])

    _line(f"phi:{name}", cbi.phi(dq, lam))
    _line(f"psi:{name}", cbi.psi(dq, lam))
    _line(f"solve_v:{name}", cbi.solve_v(dq, 1.0, lam))
    _line(f"solve_v:{name}:two-columns", cbi.solve_v(dq, 1.0, np.stack([lam, 3.0 * lam], axis=1)))
    _line(f"laplace_transform:{name}", cbi.laplace_transform(dq, 1.0, x, lam))
    _line(f"v_jacobian_limit:{name}", cbi.v_jacobian_limit(dq, 0.5))
    _line(f"v_jacobian_fd:{name}", cbi.v_jacobian_fd(dq, 0.5))
    _line(f"v_hessian_limit:{name}", cbi.v_hessian_limit(dq, 0.5, 0, d - 1, 0))
    _line(f"v_hessian_fd:{name}", cbi.v_hessian_fd(dq, 0.5, 0, d - 1, 0))

    _line(f"discrete_gen_exp:{name}", [cbi.discrete_gen_exp(dq, n, x, lam) for n in (1, 10, 1000)])
    _line(f"discrete_gen_limit:{name}", cbi.discrete_gen_limit(dq, x, lam))
    _line(f"exp_convergence_criterion:{name}", cbi.exp_convergence_criterion(dq, x, lam))
    _line(f"discrete_gen_table:{name}", cbi.discrete_gen_table(dq, x, lam))
    f = cbi.bump(np.zeros(d), 2.0 * (1.0 + float(x.max())))
    _line(f"bump:{name}", [(f.value(p), f.gradient(p), f.hessian(p)) for p in (x, 0.5 * x)])
    _line(f"generator_apply:{name}", _try(lambda: cbi.generator_apply(dq, f, x)))
    _line(f"scaled_gen_apply:{name}",
          [_try(lambda: cbi.scaled_gen_apply(dq, n, f, x)) for n in (1, 10, 1000)])
    _line(f"scaled_gen_limit:{name}", cbi.scaled_gen_limit(dq, f, x))
    _line(f"drift_convergence_criterion:{name}", cbi.drift_convergence_criterion(dq, f, x))
    _simulations(name, dq, x)


def main() -> int:
    for name, make in MODELS.items():
        digest_model(name, make())
    # two randomness windows of 1024 steps, and two path blocks
    jump_d3, many = cbi.derive(ALL_FIXTURES["jump_d3"]()), cbi.derive(make_many_atoms())
    _line("simulate_cbi:jump_d3:two-windows", cbi.simulate_cbi(
        jump_d3, cbi.PathConfig(x0=[1.0, 0.5, 0.25], horizon=0.5, dt=4e-4, seed=3, n_paths=20)))
    _line("simulate_cbi:many_atoms:two-blocks", cbi.simulate_cbi(
        many, cbi.PathConfig(x0=[1.0, 0.5, 0.25], horizon=0.5, dt=0.01, seed=3, n_paths=100)))
    # refusals: each exception type that a call on these models raises
    fix_a = ALL_FIXTURES["fix_a"]()
    _line("refusal:inadmissible", _try(lambda: cbi.derive(cbi.CbiParams.no_jumps(
        c=[1.0, -1.0], beta=[0.0, 0.0], B=[[0.0, -1.0], [1.0, 0.0]]))))
    _line("refusal:dimension", _try(lambda: cbi.mean(fix_a, [1.0, 2.0], 1.0)))
    _line("refusal:numeric-range", _try(lambda: cbi.mean(fix_a, [1e308], 1e308)))
    _line("refusal:classification", _try(lambda: cbi.derive(make_degenerate_critical()).perron))
    return 0


if __name__ == "__main__":
    sys.exit(main())
