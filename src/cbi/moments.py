"""Derived branching/immigration quantities and conditional moments.

From an admissible tuple this module builds the effective drift matrix
btilde, the effective immigration vector beta_tilde, the second-moment
matrices C_k, the drift table M of the compensated process drift, and (in
the critical irreducible case) the ray-averaged cbar = sum_k u_right[k] C_k:

    btilde[i, j] = B[i, j] + int (z_i - delta_ij)^+ mu_j(dz)
    beta_tilde   = beta + int z nu(dz)
    C_k          = 2 c_k e_k e_k^T + int z z^T mu_k(dz)
    M            = (B^T - diag kappa; beta),  kappa_i = int (1 ^ z_i) mu_i(dz)

The conditional first moment of the process is
E(X_t | X_0 = x) = exp(t btilde) x + int_0^t exp(u btilde) beta_tilde du,
and for the pure-branching companion (beta = 0, nu empty) the conditional
covariance is
var(Z_t | Z_0 = z) = sum_l int_0^t (e_l . exp((t-u) btilde) z)
                                exp(u btilde) C_l exp(u btilde)^T du.

Criticality is classified from the spectral abscissa of btilde and
depends only on the branching data (B, mu, c), never on beta or nu. It is
decided once per model, on the first read of `.classification`: `derive`
does not classify, so a call that never asks pays for no eigenvalues.

Every atom integral reads one table, stacked once by the admissibility
walk, which hands it to `derive`: atom_points Z, shape
(A, d), stacks the atoms of mu_1, ..., mu_d and then of nu, each in its
own order; row i < d of atom_weights W, shape (d+1, A), holds mu_i's
weights on mu_i's slice of the columns, row d holds nu's, and every other
entry is 0. Each C_k sums over mu_k's slice alone. So beta_tilde =
beta + W[d] Z. A jump-free model's table is empty (A = 0). Through the same
row, (x, 1) M is the process drift and M the linear part of (-phi; psi)
(affine duality; Duffie, Filipovic & Schachermayer 2003).

`derive` is the package's one admissibility gate: it walks the
admissibility rules that `validate` reports on, asking only for the
violations (so no mass, norm tail or moment-order flag is computed), and
its result, a `DerivedQuantities`, is the validated model. No model is
kept between calls. Every public function that takes parameters accepts
either a raw `CbiParams` (derived once on entry) or that result (used as
it is), and hands the model on to what it calls. It reads a point (x, z,
lam, x0) through `_point`: length d (else DimensionError), entries finite
and >= 0 (`_vector`; only on R_+^d is E exp(-<lam, X_t>) in (0, 1]); a
horizon t through `_horizon`: finite, >= 0; a scale n through `_scale`:
an integer, not a bool, from 1 to the largest float. A result that could
leave the float range passes `_finite` once: a non-finite entry of it is
a NumericRangeError.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matops
from .errors import DimensionError, InadmissibleError, NumericRangeError
from .matops import PerronPair, SpectralSummary
from .model import CbiParams, _frozen, admissibility_violations

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"
NOT_IRREDUCIBLE = "not-irreducible"
#: |s(btilde)| below this counts as critical (floating-point spectra of
#: exactly-critical matrices are rarely exactly zero).
CRITICAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DerivedQuantities:
    """An admissible parameter tuple with its derived quantities, all
    read-only. The spectrum, the classification, the Perron pair and cbar
    are computed on first access and kept: the first read of `.spectral`
    (or of `.classification` on an irreducible btilde) raises SolverError
    when the eigenvalue solver fails. The Perron pair and cbar are None
    unless the model is critical and irreducible; their first read raises
    ClassificationError when no strictly positive pair exists.

    atom_points Z (A, d) and atom_weights W (d+1, A) are the atom table:
    the atoms of mu_1, ..., mu_d, then of nu; row i < d of W holds mu_i's
    weights, row d nu's, every other entry is 0; A = 0 without jumps.
    drift_table M (d+1, d) is B^T - diag kappa over beta: drift (x, 1) M.
    big_c (d, d, d) is one read-only array, the C_k stacked in type order."""

    params: CbiParams
    btilde: np.ndarray
    beta_tilde: np.ndarray
    big_c: np.ndarray
    drift_table: np.ndarray
    atom_points: np.ndarray
    atom_weights: np.ndarray

    @cached_property
    def spectral(self) -> SpectralSummary:
        return matops.spectral(self.btilde)

    @cached_property
    def classification(self) -> str:
        if not matops.is_irreducible(self.btilde):
            return NOT_IRREDUCIBLE
        if self.spectral.spectral_abscissa < -CRITICAL_TOL:
            return SUBCRITICAL
        if self.spectral.spectral_abscissa > CRITICAL_TOL:
            return SUPERCRITICAL
        return CRITICAL

    @cached_property
    def perron(self) -> PerronPair | None:
        if self.classification != CRITICAL:
            return None
        return matops.perron_vectors(self.btilde)

    @cached_property
    def cbar(self) -> np.ndarray | None:
        if self.perron is None:
            return None
        return _frozen(sum(u * C for u, C in zip(self.perron.u_right, self.big_c)))


def derive(params: CbiParams | DerivedQuantities) -> DerivedQuantities:
    """Validate once and compute every derived quantity but the spectral
    ones (spectrum, classification, Perron pair, cbar), which the result
    computes on first read; a `DerivedQuantities` is returned as it is.

    Raises InadmissibleError, carrying every violation in `validate`'s
    words and order, when the tuple is not admissible, and
    NumericRangeError when an admissible tuple's derived quantities
    overflow. Only the violations are asked for: the integrals and moment
    orders of `validate`'s report are not computed here.
    """
    if isinstance(params, DerivedQuantities):
        return params
    violations, (Z, w, spans) = admissibility_violations(params)
    if violations:
        raise InadmissibleError(violations)
    d = params.d
    if Z is None:  # a jump-free model: an empty table
        Z = np.zeros((0, d))
    W = np.zeros((d + 1, len(Z)))
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports it just below
        big_c = np.zeros((d, d, d))
        big_c.ravel()[::d * d + d + 1] = 2.0 * params.c  # the entries (k, k, k)
        btilde, beta_tilde, drift = params.B, params.beta, np.empty((d + 1, d))
        drift[:d], drift[d] = params.B.T, params.beta  # M in C order: BLAS rounds by layout
        if len(Z):  # a jump-free model does no atom arithmetic
            for i, s in enumerate(spans):
                W[i, s] = w[s]
            W_mu = W[:d]
            btilde = btilde + (W_mu @ np.maximum(Z - (W_mu > 0).T, 0.0)).T
            drift.ravel()[:d * d:d + 1] -= np.diagonal(W_mu @ np.minimum(1.0, Z))  # kappa
            beta_tilde = beta_tilde + W[d] @ Z
            zz = (Z[:, :, None] * Z[:, None, :]).reshape(-1, d * d)
            for C, s in zip(big_c, spans):  # the one dot np.tensordot makes
                C += np.dot(w[s][None], zz[s]).reshape(d, d)
    _finite(np.concatenate([btilde.ravel(), drift.ravel(), beta_tilde, big_c.ravel()]),
            "derived quantities (btilde, beta_tilde, C_k, kappa)")
    # no copy: each array is new or the read-only B or beta of `params`
    for a in (btilde, beta_tilde, big_c, drift, Z, W):
        a.setflags(write=False)
    return DerivedQuantities(params=params, btilde=btilde, beta_tilde=beta_tilde,
                             big_c=big_c, drift_table=drift,
                             atom_points=Z, atom_weights=W)


def _vector(v, name: str, d: int | None = None) -> np.ndarray:
    """v as a 1-D float array of finite entries >= 0 (else a ValueError naming
    it), of length d when d is given (else a DimensionError naming it)."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if d is not None and v.shape != (d,):
        raise DimensionError(f"{name} must have length d={d}, got shape {v.shape}")
    entries = v.tolist()  # Python floats compare faster than numpy reduces a short v
    if v.ndim != 1 or not all(0 <= e < math.inf for e in entries):
        raise ValueError(f"{name} must be a finite vector with entries >= 0, got {entries}")
    return v


def _point(dq: DerivedQuantities, v, name: str) -> np.ndarray:
    """v as a point of R_+^d, the model's state space."""
    return _vector(v, name, dq.params.d)


def _horizon(t):
    """t if it is finite and >= 0, else a ValueError."""
    if not 0 <= t <= sys.float_info.max:  # False for a NaN
        raise ValueError(f"time must be finite and >= 0, got {t}")
    return t


def _scale(n) -> int:
    """n as an int if it is an integer (not a bool) from 1 to the largest float."""
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or not 1 <= int(n) <= sys.float_info.max):  # an exact int-float comparison
        raise ValueError(f"n must be a positive integer, got {n}")
    return int(n)


def _finite(value, what: str):
    """value if every entry is finite, else a NumericRangeError naming what."""
    if not np.isfinite(value).all():
        raise NumericRangeError(f"{what} overflowed the floating-point range")
    return value


def mean(params: CbiParams | DerivedQuantities, x: np.ndarray, t: float) -> np.ndarray:
    """E(X_t | X_0 = x) = exp(t btilde) x + int_0^t exp(u btilde) beta_tilde du."""
    dq = derive(params)
    x, t = _point(dq, x, "x"), _horizon(t)
    flow, integral = matops.exp_and_integral_vec(dq.btilde, dq.beta_tilde, t)
    with np.errstate(over="ignore"):  # a huge x: _finite reports it
        return _finite(flow @ x + integral, "mean")


def variance_no_immigration(params: CbiParams | DerivedQuantities, z: np.ndarray,
                            t: float) -> np.ndarray:
    """Conditional covariance var(Z_t | Z_0 = z) of the pure-branching process,
    the symmetrized matops.branching_integral (substitute u -> t - u in the
    module formula).

    Only defined for parameters without immigration (beta = 0, nu empty);
    anything else is rejected.
    """
    dq = derive(params)
    z, t = _point(dq, z, "z"), _horizon(t)
    if np.any(dq.params.beta != 0) or dq.params.nu.natoms:
        raise ValueError("variance_no_immigration requires beta = 0 and an empty nu")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge z: _finite reports it
        V = matops.branching_integral(dq.btilde, dq.big_c, z, t)
        return _finite(0.5 * (V + V.T), "variance")
