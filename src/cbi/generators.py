"""Infinitesimal generators of scaled CBI processes, exactly on exponentials.

For the step-scaled chain t -> X_{floor(nt)} / n the discrete generator

    n ( E[ f(X_1 / n) | X_0 = n x ] - f(x) )

is exactly computable on exponentials e_lam(x) = exp(-<lam, x>) through
the affine transform (no Monte Carlo). The raw sequence converges iff
<lam, x> = <lam, exp(btilde) x>, and otherwise diverges linearly; this
criterion is the verdict of a convergence table. Adding the correction term
n (exp(-<lam,x>) - exp(-<lam, exp(btilde) x>)) always yields the limit

    e_lam(exp(btilde) x) [ 1/2 sum_l int_0^1 (e_l . exp((1-s) btilde) x)
                               lam . exp(s btilde) C_l exp(s btilde)^T lam ds
                           - lam . int_0^1 exp(s btilde) beta_tilde ds ].

For the continuously scaled process t -> X_{nt} / n acting on C^2
compactly supported f, the generator minus the exploding drift part
n <btilde x, grad f(x)> converges to the squared-Bessel-type limit

    1/2 sum_i x_i sum_{k,l} (C_i)_{k,l} f''_{k,l}(x) + <beta_tilde, grad f(x)>,

and converges without correction iff <btilde x, grad f(x)> = 0. The
corrected value is summed without that O(n) term: jump-free it is the limit
up to rounding at every n; a jump model adds a Taylor remainder whose
rounding grows like n^2 eps.

The generator at scale n, n (A f_n)(n x) with f_n(y) = f(y / n), reads f
and its derivatives at x and f at x + z / n; n = 1 is the generator. Its
two equivalent forms (the defining one with (1 ^ z_i) compensation in the
drift table, and a rewritten one with full second-order compensation
against the C_i) are computed on every call and must agree, which is a
strong internal consistency check on the drift table, btilde and the C_i.
The jump terms f(x + z / n) - f(x) are shared and computed once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import affine, matops, moments
from .errors import ConsistencyError
from .model import CbiParams
from .moments import DerivedQuantities, _finite, _point, _scale
from .testfunctions import TestFunction

#: Default n sweep for convergence tables.
DEFAULT_N_LIST = (10, 100, 1000, 10000)
#: Tolerance of the two convergence criteria: absolute for the drift one;
#: for the exponential one, absolute below 1 and relative above it.
CRITERION_TOL = 1e-10
#: generator_apply's two forms must agree within this, absolute plus relative.
FORM_CHECK_TOL = 1e-10

VERDICT_CONVERGES = "converges"
VERDICT_DIVERGES = "diverges-linearly"


@dataclass(frozen=True, eq=False)
class ConvergenceTable:
    """Per-n raw and corrected discrete-generator values against the limit,
    with the gaps |corrected - limit|. The verdict is the convergence
    criterion; fitted_slope, the mean of raw(n) / n over the top half of the
    n, estimates -correction_rate, the slope of a diverging raw sequence."""

    n_values: tuple[int, ...]
    raw: np.ndarray
    corrected: np.ndarray
    limit_formula: float
    gaps: np.ndarray
    verdict: str
    fitted_slope: float


def _discrete_gen(dq: DerivedQuantities, n: np.ndarray, x: np.ndarray,
                  lam: np.ndarray) -> np.ndarray:
    """discrete_gen_exp at each entry of the array n, the solves at every
    lam / n as the columns of one solve."""
    sol = affine.solve_v(dq, 1.0, lam[:, None] / n, tol=affine.TIGHT_TOL)
    with np.errstate(over="ignore"):  # an exponent beyond the float range: exp(-inf) = 0
        one_step = np.exp(-n * (x @ sol.v_final) - sol.psi_integral)
        return n * (one_step - np.exp(-float(lam @ x)))


def discrete_gen_exp(params: CbiParams | DerivedQuantities, n: int, x, lam) -> float:
    """Discrete generator of the step-scaled chain on e_lam, exactly.

    n [ exp(-<n x, v(1, lam/n)> - int_0^1 psi(v(s, lam/n)) ds)
        - exp(-<lam, x>) ].

    Solved at affine's TIGHT_TOL, tighter than solve_v's default, because
    the leading n amplifies solver error n-fold.
    """
    dq = moments.derive(params)
    x, lam = _point(dq, x, "x"), _point(dq, lam, "lam")
    return float(_discrete_gen(dq, np.array([float(_scale(n))]), x, lam)[0])


def discrete_gen_limit(params: CbiParams | DerivedQuantities, x, lam) -> float:
    """Closed-form limit of the corrected discrete-generator sequence on e_lam.

    The quadrature term is lam . V(1; x) lam with V = matops.branching_integral
    (substitute s -> 1 - s in the module formula).
    """
    dq = moments.derive(params)
    x, lam = _point(dq, x, "x"), _point(dq, lam, "lam")
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports it
        quad = float(lam @ matops.branching_integral(dq.btilde, dq.big_c, x, 1.0) @ lam)
        flow, integral = matops.exp_and_integral_vec(dq.btilde, dq.beta_tilde, 1.0)
        return _finite(float(np.exp(-float(lam @ (flow @ x)))
                             * (0.5 * quad - float(lam @ integral))), "discrete-generator limit")


def _exp_criterion(dq: DerivedQuantities, x: np.ndarray, lam: np.ndarray) -> tuple[bool, float]:
    """From a = <lam, x> and b = <lam, exp(btilde) x>: whether the raw sequence
    on e_lam converges, |a - b| <= CRITERION_TOL max(1, |a|, |b|), and the
    correction rate exp(-a) - exp(-b), the limit of -raw(n) / n."""
    with np.errstate(over="ignore"):  # _finite reports it
        a, b = float(lam @ x), float(lam @ (matops.mat_exp(dq.btilde, 1.0) @ x))
    _finite(a - b, "<lam, x>")  # a or b overflowed (both are >= 0)
    return abs(a - b) <= CRITERION_TOL * max(1.0, abs(a), abs(b)), float(np.exp(-a) - np.exp(-b))


def exp_convergence_criterion(params: CbiParams | DerivedQuantities, x, lam) -> bool:
    """Whether the raw discrete-generator sequence on e_lam converges:
    <lam, x> = <lam, exp(btilde) x> within CRITERION_TOL, relative above 1."""
    dq = moments.derive(params)
    return _exp_criterion(dq, _point(dq, x, "x"), _point(dq, lam, "lam"))[0]


def discrete_gen_table(params: CbiParams | DerivedQuantities, x, lam,
                       n_list: tuple[int, ...] = DEFAULT_N_LIST) -> ConvergenceTable:
    """Tabulate raw(n), corrected(n) and the limit, with a verdict.

    corrected(n) = raw(n) + n (exp(-<lam,x>) - exp(-<lam, exp(btilde) x>)).
    The verdict is the convergence criterion, as exp_convergence_criterion
    reads it: "converges" when <lam, x> = <lam, exp(btilde) x>, otherwise
    "diverges-linearly", with raw(n) / n tending to -correction_rate.
    """
    n_values = tuple(_scale(n) for n in n_list)
    if len(n_values) < 2 or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_list must be at least two strictly increasing integers")

    dq = moments.derive(params)
    x, lam = _point(dq, x, "x"), _point(dq, lam, "lam")
    converges, correction_rate = _exp_criterion(dq, x, lam)

    n = np.array(n_values, dtype=float)
    raw = _discrete_gen(dq, n, x, lam)
    corrected = raw + n * correction_rate
    limit = discrete_gen_limit(dq, x, lam)

    return ConvergenceTable(n_values=n_values, raw=raw, corrected=corrected,
                            limit_formula=limit, gaps=np.abs(corrected - limit),
                            verdict=VERDICT_CONVERGES if converges else VERDICT_DIVERGES,
                            fitted_slope=float((raw / n)[len(n) // 2:].mean()))


def _drift_rate(dq: DerivedQuantities, grad: np.ndarray, x: np.ndarray) -> float:
    """<btilde x, grad f(x)>, the scaled generator's O(n) rate."""
    with np.errstate(over="ignore", invalid="ignore"):  # a huge x: _finite reports it
        return _finite(float((dq.btilde @ x) @ grad), "<btilde x, grad f(x)>")


def _diffusion_term(dq: DerivedQuantities, x: np.ndarray, hess: np.ndarray) -> float:
    """1/2 sum_i x_i <C_i, hess>."""
    return 0.5 * float(sum(x[i] * np.sum(C * hess) for i, C in enumerate(dq.big_c)))


@np.errstate(over="ignore", invalid="ignore")  # n x passes _finite, the forms their check
def _generator_forms(dq: DerivedQuantities, f: TestFunction, x: np.ndarray,
                     n: float) -> tuple[float, float, float]:
    """n (A f_n)(n x), f_n(y) = f(y / n), at x (n = 1 is A f(x)) from f and
    its derivatives at x, so their n's cancel algebraically. Returns the
    defining form, with drift (n x, 1) M; the compensated form less its
    n rate term; and rate = <btilde x, grad f(x)>. An atom of mu_i jumps at
    rate n x_i w, one of nu at rate w. The forms must agree within
    FORM_CHECK_TOL (n + max |form|), the n = 1 check multiplied through by n."""
    grad = np.asarray(f.gradient(x), dtype=float)
    hess = np.asarray(f.hessian(x), dtype=float)
    fx = f.value(x)
    nx1 = np.append(_finite(n * x, "n x"), 1.0)
    rate = _drift_rate(dq, grad, x)

    defining = float(dq.params.c @ (x * np.diag(hess)))
    defining += float((nx1 @ dq.drift_table) @ grad)
    corrected = _diffusion_term(dq, x, hess) + float(dq.params.beta @ grad)
    Z, W = dq.atom_points, dq.atom_weights
    if len(Z):
        jump = np.array([f.value(x + z / n) - fx for z in Z])
        taylor = Z @ grad / n + 0.5 * np.sum((Z @ hess) * Z, axis=1) / (n * n)
        defining += n * float(nx1 @ W @ jump)
        corrected += n * float(W[-1] @ jump) + n * n * float(x @ W[:-1] @ (jump - taylor))
    other = corrected + n * rate
    if not abs(defining - other) <= FORM_CHECK_TOL * (n + max(abs(defining), abs(other))):
        raise ConsistencyError(f"generator forms disagree: {defining!r} vs {other!r}")
    return _finite((defining, corrected, rate), "generator")


def generator_apply(params: CbiParams | DerivedQuantities, f: TestFunction, x) -> float:
    """The CBI generator applied to f at x, with integrals as exact atom sums.

    Both equivalent forms are evaluated and must agree within FORM_CHECK_TOL
    (absolute plus relative); the defining form's value is returned.
    """
    dq = moments.derive(params)
    return _generator_forms(dq, f, _point(dq, x, "x"), 1.0)[0]


def scaled_gen_apply(params: CbiParams | DerivedQuantities, n: int, f: TestFunction,
                     x) -> tuple[float, float, float]:
    """Generator of the continuously scaled process t -> X_{nt} / n at x,
    n (A f_n)(n x) with f_n(y) = f(y / n); the corrected value, less
    n <btilde x, grad f(x)>: scaled_gen_limit up to rounding for a jump-free
    model, plus a Taylor remainder whose rounding grows like n^2 eps for a
    jump model; and the rate <btilde x, grad f(x)>. n above about 1.34e154,
    where n^2 overflows, is refused."""
    n = float(_scale(n))
    if n * n == np.inf:
        raise ValueError(f"scale {n:.6g} is beyond the square root of the "
                         "floating-point range")
    dq = moments.derive(params)
    return _generator_forms(dq, f, _point(dq, x, "x"), n)


def scaled_gen_limit(params: CbiParams | DerivedQuantities, f: TestFunction, x) -> float:
    """Limit of the drift-corrected scaled generators:
    1/2 sum_i x_i sum_{k,l} (C_i)_{k,l} f''_{k,l}(x) + <beta_tilde, grad f(x)>.

    In one dimension with btilde = 0 this is the squared Bessel generator
    (C_1/2) x f''(x) + beta_tilde f'(x).
    """
    dq = moments.derive(params)
    x = _point(dq, x, "x")
    hess = np.asarray(f.hessian(x), dtype=float)
    grad = np.asarray(f.gradient(x), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge x: _finite reports it
        return _finite(_diffusion_term(dq, x, hess) + float(dq.beta_tilde @ grad),
                       "scaled-generator limit")


def drift_convergence_criterion(params: CbiParams | DerivedQuantities, f: TestFunction,
                                x) -> bool:
    """Whether the scaled generator sequence converges without correction:
    <btilde x, grad f(x)> = 0 within CRITERION_TOL."""
    dq = moments.derive(params)
    x = _point(dq, x, "x")
    return abs(_drift_rate(dq, np.asarray(f.gradient(x), dtype=float), x)) <= CRITERION_TOL
