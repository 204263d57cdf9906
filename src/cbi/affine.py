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

Both psi forms are implemented (they agree identically on finite atomic
measures). phi is evaluated on a (d, m) block of lam columns at once, the
atoms of every mu_i stacked into one matrix product.

The Riccati system is integrated by an in-repo Dormand-Prince 5(4) stepper
(Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.4-6)
with scipy's RK45 initial-step rule and step-size controller. It advances
a (d, m) block of lam columns on one time grid. A step is accepted when
the largest per-column RMS of the scaled error estimate is below 1: a lone
column is controlled exactly as by scipy's RK45, and in a batch no column's
error can hide inside an RMS taken over the whole block. The psi-integral
is a 3-node Gauss-Legendre sum on each accepted step of the 4th-order
continuous extension, evaluated at the nodes of every step in one pass, so
the ODE state stays exactly the Riccati system and the integral's error
follows the solver's tolerance. Each column keeps its own clip budget.

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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matops, moments
from .errors import SolverError
from .model import CbiParams
from .moments import DerivedQuantities

#: Default ODE tolerances; the systems here are smooth and non-stiff.
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
#: Tolerances where solver error is amplified: finite differences divide
#: it by their step, the discrete generator multiplies it by n.
TIGHT_RTOL = 1e-12
TIGHT_ATOL = 1e-14
#: Run fails if the summed negative undershoot of any one column of v
#: exceeds this.
CLIP_BUDGET = 1e-8

# Dormand-Prince 5(4): stage coefficients (row s combines stages 0..s-1),
# 5th-order weights, error weights (5th minus embedded 4th order, over the
# 7 stages with the FSAL one) and the 4th-order continuous extension
# y(t_k + x h) = y_k + h sum_s K_s (P[s] . (x, x^2, x^3, x^4)), with the
# coefficients of scipy's RK45.
_DP_A = (np.array([1 / 5]),
         np.array([3 / 40, 9 / 40]),
         np.array([44 / 45, -56 / 15, 32 / 9]),
         np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
         np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]))
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
                  1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_POWERS = np.arange(1, 5)
#: Step-size control: the new step is the old one times
#: SAFETY * error ** EXPONENT, clipped to [MIN_FACTOR, MAX_FACTOR].
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1 / 5
#: The 3-node Gauss-Legendre rule on [0, 1], and the continuous extension's
#: stage weights at its nodes, shape (7, 3).
_GL_X, _GL_W = matops.gauss_legendre(0.0, 1.0, 3)
_GL_STAGES = _DP_P @ (_GL_X ** _POWERS[:, None])


def _riccati_rhs(dq: DerivedQuantities) -> Callable[[np.ndarray], np.ndarray]:
    """The Riccati right-hand side -phi on a (d, m) block of columns,

        -phi(V) = (B^T - diag kappa) V - c V^2 - W (exp(-Z V) - 1),

    with the atoms of all mu_i stacked in the rows of Z and W[i, a] the
    weight of atom a when it belongs to mu_i."""
    params = dq.params
    c = params.c[:, None]
    L = params.B.T - np.diag(dq.kappa)
    atoms = [(i, m) for i, m in enumerate(params.mu) if m.natoms]
    if not atoms:
        return lambda V: L @ V - c * V * V
    minus_z = -np.concatenate([m.points for _, m in atoms])
    owner = np.concatenate([np.full(m.natoms, i) for i, m in atoms])
    W = np.zeros((params.d, len(owner)))
    W[owner, np.arange(len(owner))] = np.concatenate([m.weights for _, m in atoms])
    return lambda V: L @ V - c * V * V - W @ np.expm1(minus_z @ V)


def phi(params: CbiParams | DerivedQuantities, lam: np.ndarray) -> np.ndarray:
    """Branching mechanism phi(lam), one component per type."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return -_riccati_rhs(moments.derive(params))(lam[:, None])[:, 0]


def psi(params: CbiParams | DerivedQuantities, lam: np.ndarray) -> float:
    """Immigration mechanism psi(lam) = <beta, lam> - int (e^{-<lam,z>} - 1) nu(dz)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return float(_psi_columns(moments.derive(params).params, lam))


def psi_compensated(params: CbiParams | DerivedQuantities, lam: np.ndarray) -> float:
    """The equivalent compensated form of psi, written against beta_tilde."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    dq = moments.derive(params)
    nu = dq.params.nu
    val = float(dq.beta_tilde @ lam)
    if nu.natoms:
        inner = nu.points @ lam
        val -= float(nu.weights @ (np.exp(-inner) - 1.0 + inner))
    return val


def psi_grad(params: CbiParams | DerivedQuantities, lam: np.ndarray) -> np.ndarray:
    """Analytic gradient of psi on lam > 0; tends to beta_tilde as lam -> 0."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    dq = moments.derive(params)
    nu = dq.params.nu
    grad = dq.beta_tilde.copy()
    if nu.natoms:
        factor = np.exp(-(nu.points @ lam)) - 1.0  # (m,)
        grad += (nu.weights * factor) @ nu.points
    return grad


def _psi_columns(params: CbiParams, V: np.ndarray) -> np.ndarray:
    """psi evaluated at each column of V (shape (d, m)) -> (m,), or at one
    point V (shape (d,)) -> a scalar."""
    vals = params.beta @ V
    if params.nu.natoms:
        vals = vals - params.nu.weights @ (np.exp(-(params.nu.points @ V)) - 1.0)
    return vals


def _col_rms(z: np.ndarray, m: int) -> np.ndarray:
    """RMS of each column of the flattened (d, m) block z -> (m,)."""
    z = z.reshape(-1, m)
    return np.sqrt(np.add.reduce(z * z, axis=0)) / np.sqrt(len(z))


def _initial_step(rhs, y0: np.ndarray, f0: np.ndarray, t_end: float, m: int,
                  rtol: float, atol: float) -> float:
    """scipy's RK45 first-step rule (Hairer, Norsett & Wanner II.4) for each
    column; the block starts with the smallest."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _col_rms(y0 / scale, m), _col_rms(f0 / scale, m)
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.minimum(np.where(small, 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5)), t_end)
    y1 = (y0.reshape(-1, m) + h0 * f0.reshape(-1, m)).ravel()
    d2 = _col_rms((rhs(y1) - f0) / scale, m) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(np.maximum(d1, d2), 1e-15)) ** (-_EXPONENT))
    return float(np.minimum(np.minimum(100 * h0, h1), t_end).min())


def _dormand_prince(rhs, y0: np.ndarray, t_end: float, m: int, rtol: float,
                    atol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Integrate y' = rhs(y) from y(0) = y0, the flattened (d, m) block, to
    t_end with scipy's RK45 step control on the largest per-column RMS error.

    Returns the accepted step ends ts (k+1,), the states there (k+1, d*m),
    each step's 7 stages (k, 7, d*m), the number of rhs evaluations and the
    number of rejected step attempts.
    """
    f = rhs(y0)
    h_abs = _initial_step(rhs, y0, f, t_end, m, rtol, atol)
    nfev, rejected = 2, 0
    t, y = 0.0, y0
    ts, ys, ks = [t], [y], []
    K = np.empty((7, len(y0)))
    while t < t_end:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step fails here too
                raise SolverError("Riccati solve failed: required step size is less "
                                  "than the spacing of floating-point numbers")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            K[0] = f
            for s, a in enumerate(_DP_A, start=1):
                K[s] = rhs(y + np.dot(K[:s].T, a) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[-1] = f_new = rhs(y_new)
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _col_rms(np.dot(K.T, _DP_E) * h / scale, m).max()
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else \
                    min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT)
                h_abs = h * (min(1, factor) if step_rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            step_rejected = True
            rejected += 1
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        ks.append(K.copy())
    return np.array(ts), np.array(ys), np.array(ks), nfev, rejected


def _interpolant(ts: np.ndarray, ys: np.ndarray, ks: np.ndarray, shape: tuple):
    """The continuous extension of the accepted steps at one time s; at a
    step end, the step that ends there."""
    def at(s: float) -> np.ndarray:
        k = min(max(int(np.searchsorted(ts, s)) - 1, 0), len(ks) - 1)
        h = ts[k + 1] - ts[k]
        x = (s - ts[k]) / h
        return (ys[k] + h * (ks[k].T @ (_DP_P @ x ** _POWERS))).reshape(shape)
    return at


@dataclass(frozen=True, eq=False)
class VSolution:
    """Dense-output Riccati solution on [0, t_max] with its psi-integral.

    For one lam of shape (d,), dense_values and v_final have shape (d,) and
    psi_integral is a float; for a block of columns lam of shape (d, m),
    they have shape (d, m) and psi_integral shape (m,), one per column.
    solver_stats counts the block's accepted steps, rejected step attempts
    and rhs evaluations, and holds each column's clip_total.

    dense_values clips tiny negative solver undershoot to 0; the summed
    undershoot of each column over the solver's steps and the quadrature
    nodes is accounted at construction and must stay below CLIP_BUDGET.
    """

    lam: np.ndarray
    t_max: float
    psi_integral: float | np.ndarray
    solver_stats: dict
    _dense: Callable[[float], np.ndarray] | None

    def dense_values(self, s: float) -> np.ndarray:
        if s < 0 or s > self.t_max * (1 + 1e-12) + 1e-300:
            raise ValueError(f"s={s} outside [0, {self.t_max}]")
        if s == 0 or self._dense is None:
            return self.lam.copy()
        return np.clip(self._dense(min(s, self.t_max)), 0.0, None)

    @property
    def v_final(self) -> np.ndarray:
        return self.dense_values(self.t_max)


def solve_v(params: CbiParams | DerivedQuantities, t: float, lam: np.ndarray, *,
            rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> VSolution:
    """Integrate the Riccati system on [0, t] at (rtol, atol) and attach the
    psi-integral, summed step by step over the solver's accepted steps.

    lam is one point (shape (d,)) or a block of columns (shape (d, m)),
    solved together on one time grid with every column's error held to
    (rtol, atol).
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    dq = moments.derive(params)
    d = dq.params.d
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.ndim > 2 or lam.shape[0] != d or lam.size == 0:
        raise ValueError(f"lam must have shape (d,) or (d, m) with d={d}, m >= 1, "
                         f"got shape {lam.shape}")
    if np.any(lam < 0) or not np.all(np.isfinite(lam)):
        raise ValueError("lam must be componentwise >= 0 and finite")
    m = lam.size // d
    lone = lam.ndim == 1

    if t == 0:
        stats = {"steps": 0, "nfev": 0, "rejected": 0,
                 "clip_total": 0.0 if lone else np.zeros(m), "rtol": rtol, "atol": atol}
        return VSolution(lam=lam, t_max=0.0, psi_integral=0.0 if lone else np.zeros(m),
                         solver_stats=stats, _dense=None)

    rhs = _riccati_rhs(dq)
    # A diverging trial step is rejected through its non-finite error
    # estimate; the step then shrinks, or the solve fails below.
    with np.errstate(all="ignore"):
        ts, ys, ks, nfev, rejected = _dormand_prince(
            lambda y: rhs(y.reshape(d, m)).ravel(), lam.ravel(), float(t), m,
            rtol, atol)
    if not np.all(np.isfinite(ys)):
        raise SolverError("Riccati solve produced non-finite state")

    # One pass over every step: v at the 3 Gauss-Legendre nodes of each step,
    # exact on the degree-4 interpolant when nu has no atoms (psi is then
    # linear). Layout (step, type, column, node).
    h = np.diff(ts)
    nodes = (ys[:-1, :, None] + h[:, None, None] * (ks.transpose(0, 2, 1) @ _GL_STAGES)
             ).reshape(len(h), d, m, 3)
    clip = (np.clip(-ys, 0.0, None).reshape(-1, d, m).sum(axis=(0, 1))
            + np.clip(-nodes, 0.0, None).sum(axis=(0, 1, 3)))
    if np.any(clip > CLIP_BUDGET):
        raise SolverError(
            f"negative undershoot {clip.max():.3e} exceeds clip budget {CLIP_BUDGET:.1e}")

    Vq = np.clip(nodes, 0.0, None).transpose(1, 0, 2, 3).reshape(d, -1)
    psi_int = h @ (_psi_columns(dq.params, Vq).reshape(len(h), m, 3) @ _GL_W)
    stats = {"steps": len(h), "nfev": nfev, "rejected": rejected,
             "clip_total": float(clip[0]) if lone else clip, "rtol": rtol, "atol": atol}
    return VSolution(lam=lam, t_max=float(t),
                     psi_integral=float(psi_int[0]) if lone else psi_int,
                     solver_stats=stats, _dense=_interpolant(ts, ys, ks, lam.shape))


def laplace_transform(params: CbiParams | DerivedQuantities, t: float, x: np.ndarray,
                      lam: np.ndarray, **solver_kwargs) -> float:
    """exp(-<x, v(t, lam)> - int_0^t psi(v(s, lam)) ds); always in (0, 1]."""
    dq = moments.derive(params)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if x.shape != (dq.params.d,) or lam.shape != (dq.params.d,):
        raise ValueError(f"x and lam must have length d={dq.params.d}, "
                         f"got shapes {x.shape} and {lam.shape}")
    sol = solve_v(dq, t, lam, **solver_kwargs)
    return float(np.exp(-float(x @ sol.v_final) - sol.psi_integral))


def v_jacobian_limit(params: CbiParams | DerivedQuantities, t: float) -> np.ndarray:
    """The lam -> 0 limit of the Jacobian [d v_k / d lam_i]: exp(t btilde),
    indexed [i, k]."""
    dq = moments.derive(params)
    return matops.mat_exp(dq.btilde, t)


def v_jacobian_fd(params: CbiParams | DerivedQuantities, t: float,
                  eps: float = 1e-4) -> np.ndarray:
    """Finite-difference probe of the Jacobian limit.

    Central differences (step e/2) around the base point e*ones at e = eps
    and eps/2, all 4d points as the columns of one solve at (TIGHT_RTOL,
    TIGHT_ATOL); the base offset contributes an O(eps) bias, removed by
    Richardson extrapolation of the estimates at eps and eps/2.
    """
    dq = moments.derive(params)
    d = dq.params.d
    half = 0.5 * np.eye(d)
    V = solve_v(dq, t, np.hstack([e + sign * e * half for e in (eps, 0.5 * eps)
                                  for sign in (1.0, -1.0)]),
                rtol=TIGHT_RTOL, atol=TIGHT_ATOL).v_final
    up, down, up_half, down_half = np.split(V, 4, axis=1)
    # column i of up - down is the difference of v along lam_i, which is row
    # i of the Jacobian
    return 2.0 * (up_half - down_half).T / (0.5 * eps) - (up - down).T / eps


def _check_types(d: int, *types: int) -> None:
    if not all(0 <= i < d for i in types):
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
    return float(-matops.branching_integral(dq.btilde, dq.big_c, np.eye(d)[k], t)[i, j])


def v_hessian_fd(params: CbiParams | DerivedQuantities, t: float, i: int, j: int, k: int,
                 eps: float = 1e-3) -> float:
    """Finite-difference probe of the Hessian limit.

    Second central differences with step h around the base h*ones at h =
    eps/2 and eps (the extreme evaluation points touch the boundary lam = 0,
    which is in the domain), all points as the columns of one solve,
    Richardson-extrapolated in eps as in v_jacobian_fd.
    """
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
                 rtol=TIGHT_RTOL, atol=TIGHT_ATOL).v_final[k]
    second = vk.reshape(2, -1) @ weights / hs**2
    return float(2.0 * second[0] - second[1])
