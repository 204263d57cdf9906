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
measures). The Riccati system is integrated by an adaptive embedded
Runge-Kutta 4(5) pair with dense output; the psi-integral is a 3-node
Gauss-Legendre sum on each accepted step of the dense output (Hairer,
Norsett & Wanner, Solving ODEs I, II.6), so the ODE state stays exactly
the Riccati system and the integral's error follows the solver's
tolerance. The small-lam limits of the first two lam-derivatives of v are
available in closed form,

    lim_{lam->0} d v_k / d lam_i (t, lam) = [exp(t btilde)]_{i,k},
    lim_{lam->0} d^2 v_k / d lam_i d lam_j (t, lam)
        = -e_k . exp(t btilde^T) int_0^t exp(-u btilde^T)
              sum_l e_l ( e_i . exp(u btilde) C_l exp(u btilde)^T e_j ) du,

together with finite-difference probes for both (central differences at a
small positive base offset, Richardson-extrapolated in the offset since
the limits sit on the boundary lam = 0).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

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
#: Run fails if the summed negative undershoot of v exceeds this.
CLIP_BUDGET = 1e-8


def _phi_closure(dq: DerivedQuantities) -> Callable[[np.ndarray], np.ndarray]:
    """Branching mechanism with per-measure constants hoisted out."""
    c = dq.params.c
    BT = dq.params.B.T.copy()
    atom_terms = [(i, m.weights, m.points, dq.kappa[i])
                  for i, m in enumerate(dq.params.mu) if m.natoms]

    def phi_fn(lam: np.ndarray) -> np.ndarray:
        out = c * lam * lam - BT @ lam
        for i, w, z, kappa in atom_terms:
            out[i] += w @ (np.exp(-(z @ lam)) - 1.0) + lam[i] * kappa
        return out

    return phi_fn


def phi(params: CbiParams | DerivedQuantities, lam: np.ndarray) -> np.ndarray:
    """Branching mechanism phi(lam), one component per type."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return _phi_closure(moments.derive(params))(lam)


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


@dataclass(frozen=True, eq=False)
class VSolution:
    """Dense-output Riccati solution on [0, t_max] with its psi-integral.

    dense_values clips tiny negative solver undershoot to 0; the summed
    undershoot over the solver's steps and the quadrature nodes is
    accounted at construction and must stay below CLIP_BUDGET.
    """

    lam: np.ndarray
    t_max: float
    psi_integral: float
    solver_stats: dict
    _dense: object

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
    psi-integral, summed step by step over the solver's accepted steps."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    dq = moments.derive(params)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (dq.params.d,):
        raise ValueError(f"lam must have length d={dq.params.d}, got shape {lam.shape}")
    if np.any(lam < 0) or not np.all(np.isfinite(lam)):
        raise ValueError("lam must be componentwise >= 0 and finite")

    if t == 0:
        stats = {"steps": 0, "nfev": 0, "clip_total": 0.0, "rtol": rtol, "atol": atol}
        return VSolution(lam=lam, t_max=0.0, psi_integral=0.0,
                         solver_stats=stats, _dense=None)

    phi_fn = _phi_closure(dq)
    sol = solve_ivp(lambda s, v: -phi_fn(v), (0.0, float(t)), lam,
                    method="RK45", rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise SolverError(f"Riccati solve failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise SolverError("Riccati solve produced non-finite state")

    # 3 Gauss-Legendre nodes per accepted step [t_k, t_k+1] are exact on the
    # degree-4 RK45 interpolant when nu has no atoms (psi is then linear).
    nodes, weights = matops.gauss_legendre(sol.t[:-1, None], sol.t[1:, None], 3)
    V = sol.sol(np.concatenate([sol.t, nodes.ravel()]))
    clip_total = float(np.clip(-V, 0.0, None).sum())
    if clip_total > CLIP_BUDGET:
        raise SolverError(
            f"negative undershoot {clip_total:.3e} exceeds clip budget {CLIP_BUDGET:.1e}")

    Vq = np.clip(V[:, len(sol.t):], 0.0, None)
    psi_int = float(weights.ravel() @ _psi_columns(dq.params, Vq))
    stats = {"steps": len(sol.t) - 1, "nfev": int(sol.nfev),
             "clip_total": clip_total, "rtol": rtol, "atol": atol}
    return VSolution(lam=lam, t_max=float(t), psi_integral=psi_int,
                     solver_stats=stats, _dense=sol.sol)


def laplace_transform(params: CbiParams | DerivedQuantities, t: float, x: np.ndarray,
                      lam: np.ndarray, **solver_kwargs) -> float:
    """exp(-<x, v(t, lam)> - int_0^t psi(v(s, lam)) ds); always in (0, 1]."""
    dq = moments.derive(params)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dq.params.d,):
        raise ValueError(f"x must have length d={dq.params.d}, got shape {x.shape}")
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

    Central differences (step eps/2) around the base point eps*ones, each
    solve at (TIGHT_RTOL, TIGHT_ATOL); the base offset contributes an O(eps)
    bias, removed by Richardson extrapolation of the estimates at eps and
    eps/2.
    """
    dq = moments.derive(params)
    d = dq.params.d

    def v_at(lam: np.ndarray) -> np.ndarray:
        return solve_v(dq, t, lam, rtol=TIGHT_RTOL, atol=TIGHT_ATOL).v_final

    def jac_at(e: float) -> np.ndarray:
        base, h = np.full(d, e), 0.5 * e
        return np.array([(v_at(base + s) - v_at(base - s)) / (2.0 * h) for s in h * np.eye(d)])

    return 2.0 * jac_at(0.5 * eps) - jac_at(eps)


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

    Second central differences with step eps around the base eps*ones (the
    extreme evaluation points touch the boundary lam = 0, which is in the
    domain), Richardson-extrapolated in eps as in v_jacobian_fd.
    """
    dq = moments.derive(params)
    d = dq.params.d
    _check_types(d, i, j, k)

    def vk(lam: np.ndarray) -> float:
        return float(solve_v(dq, t, lam, rtol=TIGHT_RTOL, atol=TIGHT_ATOL).v_final[k])

    def second_at(h: float) -> float:
        base, ei, ej = np.full(d, h), h * np.eye(d)[i], h * np.eye(d)[j]
        if i == j:
            return (vk(base + ei) - 2.0 * vk(base) + vk(base - ei)) / h**2
        return (vk(base + ei + ej) - vk(base + ei - ej)
                - vk(base - ei + ej) + vk(base - ei - ej)) / (4.0 * h**2)

    return 2.0 * second_at(0.5 * eps) - second_at(eps)
