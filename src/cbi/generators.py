"""Infinitesimal generators of scaled CBI processes, exactly on exponentials.

For the step-scaled chain t -> X_{floor(nt)} / n the discrete generator

    n ( E[ f(X_1 / n) | X_0 = n x ] - f(x) )

is exactly computable on exponentials e_lam(x) = exp(-<lam, x>) through
the affine transform (no Monte Carlo). The raw sequence converges iff
<lam, x> = <lam, exp(btilde) x>; adding the correction term
n (exp(-<lam,x>) - exp(-<lam, exp(btilde) x>)) always yields the limit

    e_lam(exp(btilde) x) [ 1/2 sum_l int_0^1 (e_l . exp((1-s) btilde) x)
                               lam . exp(s btilde) C_l exp(s btilde)^T lam ds
                           - lam . int_0^1 exp(s btilde) beta_tilde ds ].

For the continuously scaled process t -> X_{nt} / n acting on C^2
compactly supported f, the generator minus the exploding drift part
n <btilde x, grad f(x)> converges to the squared-Bessel-type limit

    1/2 sum_i x_i sum_{k,l} (C_i)_{k,l} f''_{k,l}(x) + <beta_tilde, grad f(x)>,

and converges without correction iff <btilde x, grad f(x)> = 0.

The full generator itself is evaluated in two equivalent forms (the
defining one with (1 ^ z_i) compensation, and a rewritten one with full
second-order compensation against the C_i matrices); both are computed on
every call and must agree, which is a strong internal consistency check
on kappa, btilde and the C_i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import affine, matops, moments
from .errors import ConsistencyError
from .model import CbiParams
from .moments import DerivedQuantities
from .testfunctions import TestFunction, scaled_argument

#: Default n sweep for convergence tables.
DEFAULT_N_LIST = (10, 100, 1000, 10000)
#: |slope of raw(n)/n| above this counts as linear divergence.
SLOPE_TOL = 1e-6
#: Final |corrected - limit| below this (with decreasing gaps) counts as convergence.
CONVERGENCE_TOL = 1e-3
#: raw(n)/n must drift less than this (relatively) across the top two n.
STABILIZE_DRIFT = 0.10
#: Absolute tolerance of the two convergence criteria.
CRITERION_TOL = 1e-10

VERDICT_CONVERGES = "converges"
VERDICT_DIVERGES = "diverges-linearly"
VERDICT_INDETERMINATE = "indeterminate"


@dataclass(frozen=True, eq=False)
class ConvergenceTable:
    """Per-n raw and corrected discrete-generator values against the limit."""

    n_values: tuple[int, ...]
    raw: np.ndarray
    corrected: np.ndarray
    limit_formula: float
    verdict: str
    fitted_slope: float

    @property
    def gaps(self) -> np.ndarray:
        return np.abs(self.corrected - self.limit_formula)


def _discrete_gen(dq: DerivedQuantities, n: np.ndarray, x: np.ndarray,
                  lam: np.ndarray) -> np.ndarray:
    """discrete_gen_exp at each entry of the array n, the solves at every
    lam / n as the columns of one solve."""
    if np.any(n < 1):
        raise ValueError(f"n must be positive integers, got {n.astype(int).tolist()}")
    sol = affine.solve_v(dq, 1.0, lam[:, None] / n, rtol=affine.TIGHT_RTOL,
                         atol=affine.TIGHT_ATOL)
    one_step = np.exp(-n * (x @ sol.v_final) - sol.psi_integral)
    return n * (one_step - np.exp(-float(lam @ x)))


def discrete_gen_exp(params: CbiParams | DerivedQuantities, n: int, x, lam) -> float:
    """Discrete generator of the step-scaled chain on e_lam, exactly.

    n [ exp(-<n x, v(1, lam/n)> - int_0^1 psi(v(s, lam/n)) ds)
        - exp(-<lam, x>) ].

    Solved at affine's TIGHT_RTOL/TIGHT_ATOL, tighter than solve_v's
    defaults, because the leading n amplifies solver error n-fold.
    """
    dq = moments.derive(params)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return float(_discrete_gen(dq, np.array([float(n)]), x, lam)[0])


def discrete_gen_limit(params: CbiParams | DerivedQuantities, x, lam) -> float:
    """Closed-form limit of the corrected discrete-generator sequence on e_lam.

    The quadrature term is lam . V(1; x) lam with V = matops.branching_integral
    (substitute s -> 1 - s in the module formula).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    dq = moments.derive(params)
    bt = dq.btilde
    quad = float(lam @ matops.branching_integral(bt, dq.big_c, x, 1.0) @ lam)
    flow, integral = matops.exp_and_integral_vec(bt, dq.beta_tilde, 1.0)
    front = np.exp(-float(lam @ (flow @ x)))
    return float(front * (0.5 * quad - float(lam @ integral)))


def exp_convergence_criterion(params: CbiParams | DerivedQuantities, x, lam) -> bool:
    """Whether the raw discrete-generator sequence on e_lam converges:
    <lam, x> = <lam, exp(btilde) x> within CRITERION_TOL."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    bt = moments.derive(params).btilde
    return abs(float(lam @ x) - float(lam @ (matops.mat_exp(bt, 1.0) @ x))) <= CRITERION_TOL


def discrete_gen_table(params: CbiParams | DerivedQuantities, x, lam,
                       n_list: tuple[int, ...] = DEFAULT_N_LIST) -> ConvergenceTable:
    """Tabulate raw(n), corrected(n) and the limit, with a verdict.

    corrected(n) = raw(n) + n (exp(-<lam,x>) - exp(-<lam, exp(btilde) x>)).
    Verdict rules: "diverges-linearly" when raw(n)/n stabilizes (relative
    drift < STABILIZE_DRIFT across the top two n) to a constant above
    SLOPE_TOL in magnitude; otherwise "converges" when the gaps
    |corrected - limit| are non-increasing and the final gap is below
    CONVERGENCE_TOL; otherwise "indeterminate".
    """
    n_values = tuple(int(n) for n in n_list)
    if len(n_values) < 2 or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_list must be at least two strictly increasing integers")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))

    dq = moments.derive(params)
    correction_rate = float(np.exp(-float(lam @ x))
                            - np.exp(-float(lam @ (matops.mat_exp(dq.btilde, 1.0) @ x))))

    n = np.array(n_values, dtype=float)
    raw = _discrete_gen(dq, n, x, lam)
    corrected = raw + n * correction_rate
    limit = discrete_gen_limit(dq, x, lam)

    per_n = raw / n
    top = per_n[len(per_n) // 2:]
    fitted_slope = float(top.mean())
    drift = abs(per_n[-1] - per_n[-2]) / max(abs(per_n[-1]), 1e-300)

    gaps = np.abs(corrected - limit)
    decreasing = bool(np.all(gaps[1:] <= gaps[:-1] * 1.05 + 1e-12))

    if abs(fitted_slope) > SLOPE_TOL and drift < STABILIZE_DRIFT:
        verdict = VERDICT_DIVERGES
    elif decreasing and gaps[-1] < CONVERGENCE_TOL:
        verdict = VERDICT_CONVERGES
    else:
        verdict = VERDICT_INDETERMINATE

    return ConvergenceTable(n_values=n_values, raw=raw, corrected=corrected,
                            limit_formula=limit, verdict=verdict,
                            fitted_slope=fitted_slope)


def _generator_defining_form(params: CbiParams | DerivedQuantities, f: TestFunction,
                             x: np.ndarray) -> float:
    dq = moments.derive(params)
    params = dq.params
    grad = np.asarray(f.gradient(x), dtype=float)
    hess = np.asarray(f.hessian(x), dtype=float)
    fx = f.value(x)

    val = float(params.c @ (x * np.diag(hess)))
    val += float((params.beta + params.B @ x) @ grad)
    if params.nu.natoms:
        val += float(params.nu.weights
                     @ np.array([f.value(x + z) - fx for z in params.nu.points]))
    for i, m in enumerate(params.mu):
        if m.natoms and x[i] != 0.0:
            jump = np.array([f.value(x + z) - fx for z in m.points])
            val += x[i] * (float(m.weights @ jump) - grad[i] * dq.kappa[i])
    return val


def _generator_compensated_form(params: CbiParams | DerivedQuantities, f: TestFunction,
                                x: np.ndarray) -> float:
    dq = moments.derive(params)
    params = dq.params
    grad = np.asarray(f.gradient(x), dtype=float)
    hess = np.asarray(f.hessian(x), dtype=float)
    fx = f.value(x)

    val = 0.5 * float(sum(x[i] * np.sum(C * hess) for i, C in enumerate(dq.big_c)))
    val += float((params.beta + dq.btilde @ x) @ grad)
    if params.nu.natoms:
        val += float(params.nu.weights
                     @ np.array([f.value(x + z) - fx for z in params.nu.points]))
    for i, m in enumerate(params.mu):
        if m.natoms and x[i] != 0.0:
            jump = np.array([f.value(x + z) - fx - float(z @ grad)
                             - 0.5 * float(z @ hess @ z) for z in m.points])
            val += x[i] * float(m.weights @ jump)
    return val


def generator_apply(params: CbiParams | DerivedQuantities, f: TestFunction, x, *,
                    check_tol: float = 1e-10) -> float:
    """The CBI generator applied to f at x, with integrals as exact atom sums.

    Both equivalent forms are evaluated and must agree within check_tol
    (absolute plus relative); the defining form's value is returned.
    """
    dq = moments.derive(params)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    primary = _generator_defining_form(dq, f, x)
    other = _generator_compensated_form(dq, f, x)
    if abs(primary - other) > check_tol * (1.0 + max(abs(primary), abs(other))):
        raise ConsistencyError(
            f"generator forms disagree: {primary!r} vs {other!r}")
    return primary


def scaled_gen_apply(params: CbiParams | DerivedQuantities, n: int, f: TestFunction,
                     x) -> float:
    """Generator of the continuously scaled process t -> X_{nt} / n at x:
    n (A f_n)(n x) with f_n(y) = f(y / n)."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    dq = moments.derive(params)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(n) * generator_apply(dq, scaled_argument(f, n), float(n) * x)


def scaled_gen_limit(params: CbiParams | DerivedQuantities, f: TestFunction, x) -> float:
    """Limit of the drift-corrected scaled generators:
    1/2 sum_i x_i sum_{k,l} (C_i)_{k,l} f''_{k,l}(x) + <beta_tilde, grad f(x)>.

    In one dimension with btilde = 0 this is the squared Bessel generator
    (C_1/2) x f''(x) + beta_tilde f'(x).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dq = moments.derive(params)
    hess = np.asarray(f.hessian(x), dtype=float)
    grad = np.asarray(f.gradient(x), dtype=float)
    val = 0.5 * float(sum(x[i] * np.sum(C * hess) for i, C in enumerate(dq.big_c)))
    return val + float(dq.beta_tilde @ grad)


def drift_convergence_criterion(params: CbiParams | DerivedQuantities, f: TestFunction,
                                x) -> bool:
    """Whether the scaled generator sequence converges without correction:
    <btilde x, grad f(x)> = 0 within CRITERION_TOL."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    bt = moments.derive(params).btilde
    return abs(float((bt @ x) @ np.asarray(f.gradient(x), dtype=float))) <= CRITERION_TOL
