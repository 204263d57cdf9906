"""Derived branching/immigration quantities and conditional moments.

From an admissible tuple this module builds the effective drift matrix
btilde, the effective immigration vector beta_tilde, the second-moment
matrices C_k, the branching-jump compensators kappa_i, and (in the
critical irreducible case) the ray-averaged cbar = sum_k u_right[k] C_k:

    btilde[i, j] = B[i, j] + int (z_i - delta_ij)^+ mu_j(dz)
    beta_tilde   = beta + int z nu(dz)
    C_k          = 2 c_k e_k e_k^T + int z z^T mu_k(dz)
    kappa_i      = int (1 ^ z_i) mu_i(dz)

The conditional first moment of the process is
E(X_t | X_0 = x) = exp(t btilde) x + int_0^t exp(u btilde) beta_tilde du,
and for the pure-branching companion (beta = 0, nu empty) the conditional
covariance is
var(Z_t | Z_0 = z) = sum_l int_0^t (e_l . exp((t-u) btilde) z)
                                exp(u btilde) C_l exp(u btilde)^T du.

Criticality is classified from the spectral abscissa of btilde and
depends only on the branching data (B, mu, c), never on beta or nu.

`derive` is the package's one admissibility gate: its result, a
`DerivedQuantities`, is the validated model. Every public function that
takes parameters accepts either a raw `CbiParams` (derived once on entry)
or that result (used as it is), and hands the model on to what it calls.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matops
from .errors import InadmissibleError, NumericRangeError
from .matops import CRITICAL_TOL, PerronPair, SpectralSummary
from .model import CbiParams, _frozen, validate

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"
NOT_IRREDUCIBLE = "not-irreducible"


@dataclass(frozen=True, eq=False)
class DerivedQuantities:
    """An admissible parameter tuple with its derived quantities, all
    read-only. The Perron pair and cbar are None unless the model is
    critical and irreducible; they are computed on first access, which
    raises ClassificationError when no strictly positive pair exists."""

    params: CbiParams
    btilde: np.ndarray
    beta_tilde: np.ndarray
    big_c: tuple[np.ndarray, ...]
    kappa: np.ndarray
    classification: str
    spectral: SpectralSummary

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
    """Validate once and compute every derived quantity with the
    criticality classification; a `DerivedQuantities` is returned as it is.

    Raises InadmissibleError, carrying every violation, when the tuple is
    not admissible, and NumericRangeError when an admissible tuple's
    derived quantities overflow.
    """
    if isinstance(params, DerivedQuantities):
        return params
    report = validate(params)
    if not report.admissible:
        raise InadmissibleError(report.violations)
    d = params.d

    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        btilde = params.B.copy()
        kappa = np.zeros(d)
        big_c = []
        for j, m in enumerate(params.mu):
            C = np.zeros((d, d))
            C[j, j] = 2.0 * params.c[j]
            if m.natoms:
                btilde[:, j] += m.integrate(
                    lambda z: np.maximum(z - np.eye(d)[j], 0.0))
                kappa[j] = m.weights @ np.minimum(1.0, m.points[:, j])
                C = C + m.integrate(lambda z: z[:, :, None] * z[:, None, :])
            big_c.append(_frozen(C))
        beta_tilde = params.beta + params.nu.integrate(lambda z: z)
    if not np.isfinite(np.concatenate([btilde.ravel(), kappa, beta_tilde,
                                       *map(np.ravel, big_c)])).all():
        raise NumericRangeError("derived quantities (btilde, beta_tilde, C_k, kappa) "
                                "overflowed the floating-point range")

    summary = matops.spectral(btilde)
    if not matops.is_irreducible(btilde):
        classification = NOT_IRREDUCIBLE
    elif summary.spectral_abscissa < -CRITICAL_TOL:
        classification = SUBCRITICAL
    elif summary.spectral_abscissa > CRITICAL_TOL:
        classification = SUPERCRITICAL
    else:
        classification = CRITICAL

    return DerivedQuantities(
        params=params,
        btilde=_frozen(btilde),
        beta_tilde=_frozen(beta_tilde),
        big_c=tuple(big_c),
        kappa=_frozen(kappa),
        classification=classification,
        spectral=summary,
    )


def mean(params: CbiParams | DerivedQuantities, x: np.ndarray, t: float) -> np.ndarray:
    """E(X_t | X_0 = x) = exp(t btilde) x + int_0^t exp(u btilde) beta_tilde du."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dq = derive(params)
    flow, integral = matops.exp_and_integral_vec(dq.btilde, dq.beta_tilde, t)
    return flow @ x + integral


def variance_no_immigration(params: CbiParams | DerivedQuantities, z: np.ndarray,
                            t: float) -> np.ndarray:
    """Conditional covariance var(Z_t | Z_0 = z) of the pure-branching process,
    the symmetrized matops.branching_integral (substitute u -> t - u in the
    module formula).

    Only defined for parameters without immigration (beta = 0, nu empty);
    anything else is rejected.
    """
    dq = derive(params)
    if np.any(dq.params.beta != 0) or dq.params.nu.natoms:
        raise ValueError("variance_no_immigration requires beta = 0 and an empty nu")
    V = matops.branching_integral(dq.btilde, dq.big_c, z, t)
    return 0.5 * (V + V.T)
