"""Affine transform machinery for CBI processes.

The transition Laplace transform of a CBI process is exponentially affine
in the initial state:

    E[exp(-<lam, X_t>) | X_0 = x]
        = exp( -<x, v(t, lam)> - int_0^t psi(v(s, lam)) ds ),

where v is the unique locally bounded R_+^d-valued solution of the
generalized Riccati system

    d/dt v_i(t, lam) = -phi_i(v(t, lam)),    v(0, lam) = lam,

with branching mechanism

    phi_i(lam) = c_i lam_i^2 - <B e_i, lam>
                 + int ( exp(-<lam, z>) - 1 + lam_i (1 ^ z_i) ) mu_i(dz)

and immigration mechanism

    psi(lam) = <beta, lam> - int ( exp(-<lam, z>) - 1 ) nu(dz)
             = <beta_tilde, lam>
               - int ( exp(-<lam, z>) - 1 + <lam, z> ) nu(dz).

The two psi forms agree identically on finite atomic measures; `psi`
implements the first. The psi-integral is integrated as one more state
row: a (d+1, m) block holds m columns (v; int_0^s psi(v)), and one
right-hand side evaluates -phi and psi on the whole block, as one matrix
product over the model's atom table; `phi` and `psi` read its rows.

That system is integrated by an in-repo Dormand-Prince 8(5,3) stepper
(Prince & Dormand 1981; Hairer, Norsett & Wanner, Solving ODEs I, II.10,
DOP853) with scipy's DOP853 initial-step rule and step-size controller, on
one time grid for the whole block. A step is accepted when the largest
per-column error, DOP853's blend of its 5th- and 3rd-order scaled
estimates over v and the psi-integral, is below 1: a lone column is
controlled exactly as by scipy's DOP853 on (v, psi), no column's error
can hide inside a norm taken over the whole block, and the psi-integral's
error is held to the solver's tolerance as v's is (the quadrature-variable
approach of CVODES; Hindmarsh et al., ACM TOMS 31, 2005). A solve takes
one tolerance, tol: its relative tolerance is tol and its absolute one
tol * 1e-2. It controls each step's local error, not v's global error: on
d2_critical at t = 100, v at the default tol is up to 7.0e-9 relative
(70 rtol) off a tol = 1e-13 solve (README), the transform 4.8e-11. A
solve allocates its buffers once: a stage array, a stage argument, two
state buffers and two |y| buffers that swap on every accepted step, the
error norm's buffers, and the scratch block of its own right-hand side;
every stage, right-hand side and error norm writes into them, so an
accepted step allocates no array, and nothing is kept from one solve to
the next. A lam so large that the first-step rule's scaled slope
overflows, from about 9.5e143 on each entry at c = (1, 1) and the default
tol, is refused before the first step; a solve that needs more than
MAX_STEPS accepted steps fails. Each column keeps its own clip budget.

The small-lam limits of the first two lam-derivatives of v are available
in closed form,

    lim_{lam->0} d v_k / d lam_i (t, lam) = [exp(t btilde)]_{i,k},
    lim_{lam->0} d^2 v_k / d lam_i d lam_j (t, lam)
        = -e_k . exp(t btilde^T) int_0^t exp(-u btilde^T)
              sum_l e_l ( e_i . exp(u btilde) C_l exp(u btilde)^T e_j ) du,

together with finite-difference probes for both (central differences at a
small positive base offset, Richardson-extrapolated in the offset since
the limits sit on the boundary lam = 0). Each probe solves all of its
evaluation points as the columns of one batched solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matops, moments
from .errors import DimensionError, SolverError
from .model import CbiParams
from .moments import DerivedQuantities, _finite, _horizon, _point, _vector

#: Default ODE tolerance; the systems here are smooth and non-stiff. A
#: solve at tol controls its error at rtol = tol and atol = tol * 1e-2.
DEFAULT_TOL = 1e-10
#: Tolerance where solver error is amplified: finite differences divide
#: it by their step, the discrete generator multiplies it by n.
TIGHT_TOL = 1e-12
#: Smallest tol accepted, the rtol floor of scipy's Runge-Kutta solvers
#: (DOP853 among them): a finer one asks for steps below the spacing of
#: floating-point numbers.
MIN_RTOL = 100 * np.finfo(float).eps
#: Base steps of the finite-difference probes v_jacobian_fd and
#: v_hessian_fd, each Richardson-extrapolated with half the step.
JACOBIAN_FD_EPS = 1e-4
HESSIAN_FD_EPS = 1e-3
#: Run fails if the summed negative undershoot of v, over the rows of any
#: one column at the solver's step ends, exceeds this.
CLIP_BUDGET = 1e-8
#: Run fails once a solve would take more accepted steps than this: far
#: past its time scale an explicit step can be held to the stability
#: limit, so a huge horizon would otherwise step without end. A solve's
#: buffers do not grow with its steps, so the cap bounds run time, not
#: memory: 600 000 rhs evaluations at 12 per step.
MAX_STEPS = 50_000

# Dormand-Prince 8(5,3), the DOP853 tableau of Hairer, Norsett & Wanner
# (Solving ODEs I, II.10) with scipy's DOP853 coefficients: stage
# coefficients (row s combines stages 0..s-1), 8th-order weights, and the
# 5th- and 3rd-order error weights over the 13 stages with the FSAL one.
_A = (np.array([0.05260015195876773]),
      np.array([0.0197250569845379, 0.0591751709536137]),
      np.array([0.02958758547680685, 0, 0.08876275643042054]),
      np.array([0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792]),
      np.array([0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242]),
      np.array([0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125]),
      np.array([0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
                -0.015319437748624402, 0.008273789163814023]),
      np.array([0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
                27.59209969944671, 20.154067550477894, -43.48988418106996]),
      np.array([0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
                21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627]),
      np.array([-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
                -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
                -3.0467644718982196]),
      np.array([2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
                -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
                12.360567175794303, 0.6433927460157636]))
_B = np.array([0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
               -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
               0.04471061572777259])
_E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
                1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
                -0.022355307863886294, 0])
# the 8th-order weights minus the embedded 3rd-order ones
_E3 = np.append(_B - np.array([0.2440944881889764, 0, 0, 0, 0, 0, 0, 0, 0.7338466882816118, 0, 0,
                               0.022058823529411766]), 0.0)
#: Step-size control: the new step is the old one times
#: SAFETY * error ** EXPONENT, clipped to [MIN_FACTOR, MAX_FACTOR]; the
#: exponent is -1/8 for the error estimator of order 7.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1 / 8


def _riccati_rhs(dq: DerivedQuantities, m: int) -> Callable[..., np.ndarray]:
    """The right-hand side of the Riccati system with the psi-integral as
    row d, on a (d+1, m) block Y of columns (v; int psi):

        (-phi(V); psi(V)) = L Y - c Y^2 - W (exp(-Z V) - 1),

    where V = Y[:d], L is the drift table M (`DerivedQuantities.drift_table`)
    with a zero column appended (M Y[:d] would round differently), c has a 0
    in row d, and Z, W are the model's atom table (`atom_points`,
    `atom_weights`). Row d of Y enters no right-hand side. The callable
    writes the result into `out`, a (d+1, m) array, when one is given.

    The callable forms c Y^2 and the atom term in a scratch block of its
    own, made here for blocks of width m: a (d+1, m) array for either term
    and an (atoms, m) one for exp(-Z V) - 1. A solve builds one callable
    for its block, so that the scratch goes with the solve."""
    d = dq.params.d
    L = np.zeros((d + 1, d + 1))
    L[:, :d] = dq.drift_table
    c = np.append(dq.params.c, 0.0)[:, None]
    minus_z, W = -dq.atom_points, dq.atom_weights
    has_atoms = len(minus_z) > 0
    term, expo = np.empty((d + 1, m)), np.empty((len(minus_z), m))

    def rhs(Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = L.dot(Y, out=out)
        np.multiply(c, Y, out=term)
        np.multiply(term, Y, out=term)
        out -= term
        if has_atoms:
            minus_z.dot(Y[:-1], out=expo)
            np.expm1(expo, out=expo)
            W.dot(expo, out=term)
            out -= term
        return out

    return rhs


def _mechanisms(params: CbiParams | DerivedQuantities, lam: np.ndarray) -> np.ndarray:
    """(-phi(lam); psi(lam)), the Riccati right-hand side at one point lam."""
    dq = moments.derive(params)
    with np.errstate(over="ignore", invalid="ignore"):  # phi and psi pass _finite
        return _riccati_rhs(dq, 1)(np.append(_point(dq, lam, "lam"), 0.0)[:, None])[:, 0]


def phi(params: CbiParams | DerivedQuantities, lam: np.ndarray) -> np.ndarray:
    """Branching mechanism phi(lam), one component per type."""
    return _finite(-_mechanisms(params, lam)[:-1], "phi(lam)")


def psi(params: CbiParams | DerivedQuantities, lam: np.ndarray) -> float:
    """Immigration mechanism psi(lam) = <beta, lam> - int (e^{-<lam,z>} - 1) nu(dz)."""
    return _finite(float(_mechanisms(params, lam)[-1]), "psi(lam)")


def _col_rms(z: np.ndarray) -> np.ndarray:
    """RMS of each column of the (rows, m) block z -> (m,)."""
    return np.sqrt(np.add.reduce(z * z, axis=0)) / np.sqrt(len(z))


def _initial_step(rhs, y0: np.ndarray, f0: np.ndarray, t_end: float, rtol: float,
                  atol: float) -> float:
    """scipy's first-step rule (Hairer, Norsett & Wanner II.4) for an error
    estimator of order 7, as in its DOP853, for each column of the (d+1, m)
    block y0; the block starts with the smallest."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _col_rms(y0 / scale), _col_rms(f0 / scale)
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.minimum(np.where(small, 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5)), t_end)
    d2 = _col_rms((rhs(y0 + h0 * f0) - f0) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(np.maximum(d1, d2), 1e-15)) ** (-_EXPONENT))
    return min(float(np.minimum(100 * h0, h1).min()), t_end)


def _dormand_prince(rhs, y0: np.ndarray, t_end: float, rtol: float,
                    atol: float) -> tuple[np.ndarray, int, int, int, np.ndarray]:
    """Integrate Y' = rhs(Y) from Y(0) = y0, a (d+1, m) block whose last row
    is the psi-integral, to t_end with scipy's DOP853 step control on the
    largest per-column error over all d+1 rows.

    The solve works in buffers of its own, allocated once: the stage array
    K, whose row s holds stage s's slopes (row 0 the slope at the step's
    start, the last row the slope at its end, which an accepted step copies
    to row 0 for the next), a stage argument, two state buffers and their
    two |y| buffers that swap on every accepted step, and the error norm's
    scale, estimates, squared norms and per-column ratio. Each stage
    argument is scipy's y + dot(K[:s].T, a) * h, and each error term
    scipy's, in the same order of operations, up to operands of + and *
    swapped, which IEEE arithmetic leaves bit for bit.

    Returns Y(t_end), the numbers of accepted steps, rhs evaluations and
    rejected step attempts, and each column's negative undershoot of its
    first d rows summed over the accepted step ends, shape (m,). Raises
    SolverError when the first-step rule gives no finite step, a step falls
    below the spacing of t or t_end is not reached in MAX_STEPS steps.
    """
    rows, m = y0.shape
    K = np.empty((len(_E5), rows, m))
    K_flat = K.reshape(len(K), -1)
    stages = [(K_flat[:s].T, a, K[s]) for s, a in enumerate(_A, start=1)]
    K_first, K_last, K_bulk, K_all = K[0], K[-1], K_flat[:-1].T, K_flat.T
    y, y_new = np.empty((2, rows, m))
    y_flat, y_new_flat = y.reshape(-1), y_new.reshape(-1)
    arg, abs_y, abs_new, scale = np.empty((4, rows, m))
    arg_flat = arg.reshape(-1)
    # the two error estimates side by side, their squared norms and the
    # per-column error
    err = np.empty((2, rows, m))
    estimates = tuple(zip((_E5, _E3), err.reshape(2, -1)))
    sumsq, ratio, nonzero = np.empty((2, m)), np.empty(m), np.empty(m, dtype=bool)
    e5, e3 = sumsq
    y[...] = y0
    rhs(y, out=K_first)
    h_abs = _initial_step(rhs, y, K_first, t_end, rtol, atol)
    # the rule's scaled slope beyond the float range gives a NaN step (a
    # step of 0 goes on from the minimum step, as in scipy)
    if math.isnan(h_abs):
        raise SolverError(f"Riccati solve failed: lam's largest entry {y0[:-1].max():.6g} "
                          "gives no finite first step size (the scaled right-hand side "
                          "overflows the floating-point range)")
    np.abs(y, out=abs_y)
    # the step's scalars as 0-d arrays: numpy multiplies by one of them
    # faster than by a Python float, with the same bits
    h_0d, rtol, atol, hundredth, n_rows, zero = (np.array(float(v)) for v in
                                                 (0, rtol, atol, 0.01, rows, 0))
    steps, nfev, rejected = 0, 2, 0
    clip = np.zeros(m)
    t = 0.0
    while t < t_end:
        if steps == MAX_STEPS:
            raise SolverError(f"Riccati solve failed: {MAX_STEPS} steps reached only "
                              f"t = {t:.6g} of {t_end:.6g}")
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step fails here too
                raise SolverError("Riccati solve failed: required step size is less than "
                                  f"the spacing of floating-point numbers at t = {t:.6g} of "
                                  f"{t_end:.6g}, where v's largest entry is {y[:-1].max():.6g}")
            t_new = min(t + h_abs, t_end)
            h = h_0d[()] = t_new - t
            for K_s, a, k in stages:
                K_s.dot(a, out=arg_flat)
                arg *= h_0d
                arg += y
                rhs(arg, out=k)
            K_bulk.dot(_B, out=y_new_flat)
            y_new *= h_0d
            y_new += y
            rhs(y_new, out=K_last)
            nfev += len(_A) + 1
            # scale = atol + max(|y|, |y_new|) * rtol
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol
            scale += atol
            # DOP853's error |h| e5^2 / sqrt((e5^2 + 0.01 e3^2) (d+1)) per
            # column, from the squared norms of the two scaled estimates; 0
            # where e5 is 0 (a NaN from a diverging trial stays NaN)
            for e, estimate in estimates:
                K_all.dot(e, out=estimate)
            err /= scale
            err *= err
            np.add.reduce(err, axis=1, out=sumsq)
            np.not_equal(e5, zero, out=nonzero)
            e3 *= hundredth
            e3 += e5
            e3 *= n_rows
            np.sqrt(e3, out=e3)
            e5 *= h_0d
            ratio.fill(0.0)
            np.divide(e5, e3, out=ratio, where=nonzero)
            error = float(np.maximum.reduce(ratio))
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else \
                    min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT)
                h_abs = h * (min(1, factor) if step_rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            step_rejected = True
            rejected += 1
        K_first[...] = K_last
        t = t_new
        y, y_new, abs_y, abs_new = y_new, y, abs_new, abs_y
        y_flat, y_new_flat = y_new_flat, y_flat
        steps += 1
        v = y[:-1]
        if np.minimum.reduce(v, axis=None) < 0:
            clip -= np.minimum(v, 0.0).sum(axis=0)
    return y, steps, nfev, rejected, clip


@dataclass(frozen=True, eq=False)
class VSolution:
    """The Riccati solution at the horizon with its psi-integral.

    For one lam of shape (d,), v_final has shape (d,) and psi_integral is a
    float; for a block of columns lam of shape (d, m), v_final has shape
    (d, m) and psi_integral shape (m,), one per column. solver_stats counts
    the block's accepted steps, rejected step attempts and rhs evaluations,
    and holds each column's clip_total.

    v_final clips tiny negative solver undershoot to 0; solve_v fails when
    any column's undershoot, summed over the solver's step ends, exceeds
    CLIP_BUDGET. At t = 0 no step is taken: v_final is lam through the same
    clip (a -0.0 reads 0.0), and the psi-integral, counts and clip_total are 0.
    """

    v_final: np.ndarray
    psi_integral: float | np.ndarray
    solver_stats: dict


def solve_v(params: CbiParams | DerivedQuantities, t: float, lam: np.ndarray, *,
            tol: float = DEFAULT_TOL) -> VSolution:
    """Integrate the Riccati system together with the psi-integral on
    [0, t] at rtol = tol and atol = tol * 1e-2.

    lam is one point (shape (d,)) or a block of columns (shape (d, m)),
    solved together on one time grid with every column's v and
    psi-integral held to (rtol, atol).
    """
    t = _horizon(t)
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if tol < MIN_RTOL:
        raise ValueError(f"tol={tol} is below the floor {MIN_RTOL:.3g} (100 * machine epsilon)")
    rtol, atol = tol, tol * 1e-2
    dq = moments.derive(params)
    d = dq.params.d
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.ndim > 2 or lam.shape[0] != d or lam.size == 0:
        raise DimensionError(f"lam must have shape (d,) or (d, m) with d={d}, m >= 1, "
                             f"got shape {lam.shape}")
    _vector(lam.reshape(-1), "lam")  # every column a point of R_+^d
    m = lam.size // d
    lone = lam.ndim == 1

    y = np.zeros((d + 1, m))  # the start, and the result at t = 0
    y[:d] = lam.reshape(d, m)
    steps, nfev, rejected, clip = 0, 0, 0, np.zeros(m)
    if t > 0:
        # A diverging trial step is rejected through its non-finite error
        # estimate; the step then shrinks, or the solve fails below.
        with np.errstate(all="ignore"):
            y, steps, nfev, rejected, clip = _dormand_prince(_riccati_rhs(dq, m), y, float(t),
                                                             rtol, atol)
        if not np.all(np.isfinite(y)):
            raise SolverError("Riccati solve produced non-finite state")
        if np.any(clip > CLIP_BUDGET):
            raise SolverError(
                f"negative undershoot {clip.max():.3e} exceeds clip budget {CLIP_BUDGET:.1e}")

    stats = {"steps": steps, "nfev": nfev, "rejected": rejected,
             "clip_total": float(clip[0]) if lone else clip, "rtol": rtol, "atol": atol}
    return VSolution(v_final=np.clip(y[:d], 0.0, None).reshape(lam.shape),
                     psi_integral=float(y[d, 0]) if lone else y[d],
                     solver_stats=stats)


def laplace_transform(params: CbiParams | DerivedQuantities, t: float, x: np.ndarray,
                      lam: np.ndarray, *, tol: float = DEFAULT_TOL) -> float:
    """exp(-<x, v(t, lam)> - int_0^t psi(v(s, lam)) ds), solved at tol;
    always in (0, 1]."""
    dq = moments.derive(params)
    x, lam = _point(dq, x, "x"), _point(dq, lam, "lam")
    sol = solve_v(dq, t, lam, tol=tol)
    with np.errstate(over="ignore"):  # <x, v> beyond the float range: the transform is 0
        return float(np.exp(-float(x @ sol.v_final) - sol.psi_integral))


def v_jacobian_limit(params: CbiParams | DerivedQuantities, t: float) -> np.ndarray:
    """The lam -> 0 limit of the Jacobian [d v_k / d lam_i]: exp(t btilde),
    indexed [i, k]."""
    dq = moments.derive(params)
    return matops.mat_exp(dq.btilde, _horizon(t))


def v_jacobian_fd(params: CbiParams | DerivedQuantities, t: float) -> np.ndarray:
    """Finite-difference probe of the Jacobian limit.

    Central differences (step e/2) around the base point e*ones at e = eps
    and eps/2 with eps = JACOBIAN_FD_EPS, all 4d points as the columns of
    one solve at TIGHT_TOL; the base offset contributes an O(eps) bias,
    removed by Richardson extrapolation of the estimates at eps and eps/2.
    """
    eps = JACOBIAN_FD_EPS
    dq = moments.derive(params)
    d = dq.params.d
    half = 0.5 * np.eye(d)
    V = solve_v(dq, t, np.hstack([e + sign * e * half for e in (eps, 0.5 * eps)
                                  for sign in (1.0, -1.0)]), tol=TIGHT_TOL).v_final
    up, down, up_half, down_half = np.split(V, 4, axis=1)
    # column i of up - down is the difference of v along lam_i, which is row
    # i of the Jacobian
    return 2.0 * (up_half - down_half).T / (0.5 * eps) - (up - down).T / eps


def _check_types(d: int, *types: int) -> None:
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < d
               for i in types):
        raise ValueError(f"type indices {types} must lie in [0, {d})")


def v_hessian_limit(params: CbiParams | DerivedQuantities, t: float, i: int, j: int,
                    k: int) -> float:
    """The lam -> 0 limit of d^2 v_k / d lam_i d lam_j (t, lam); always <= 0.

    Substituting u -> t - u turns the module formula into -V(t; e_k)[i, j]
    with V = matops.branching_integral, the covariance of the pure-branching
    companion started at e_k.
    """
    dq = moments.derive(params)
    d = dq.params.d
    _check_types(d, i, j, k)
    V = matops.branching_integral(dq.btilde, dq.big_c, np.eye(d)[k], _horizon(t))
    return float(-V[i, j])


def v_hessian_fd(params: CbiParams | DerivedQuantities, t: float, i: int, j: int,
                 k: int) -> float:
    """Finite-difference probe of the Hessian limit.

    Second central differences with step h around the base h*ones at h =
    eps/2 and eps with eps = HESSIAN_FD_EPS (the extreme evaluation points
    touch the boundary lam = 0, which is in the domain), all points as the
    columns of one solve, Richardson-extrapolated in eps as in v_jacobian_fd.
    """
    eps = HESSIAN_FD_EPS
    dq = moments.derive(params)
    d = dq.params.d
    _check_types(d, i, j, k)
    ei, ej = np.eye(d)[i], np.eye(d)[j]
    if i == j:
        shifts, weights = (ei, 0.0 * ei, -ei), np.array([1.0, -2.0, 1.0])
    else:
        shifts, weights = (ei + ej, ei - ej, -ei + ej, -ei - ej), \
            np.array([1.0, -1.0, -1.0, 1.0]) / 4.0
    hs = np.array([0.5 * eps, eps])
    vk = solve_v(dq, t, np.stack([h + h * s for h in hs for s in shifts], axis=1),
                 tol=TIGHT_TOL).v_final[k]
    second = vk.reshape(2, -1) @ weights / hs**2
    return float(2.0 * second[0] - second[1])
