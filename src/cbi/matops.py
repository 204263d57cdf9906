"""Dense small-dimension matrix utilities.

Matrix exponentials, spectra, irreducibility of essentially non-negative
matrices, the critical-case Perron pair of exp(btilde), and fixed-order
Gauss-Legendre evaluation of the time-ordered matrix integrals
int_0^t exp(sA) M exp(sA)^T ds and int_0^t exp(sA) w ds. The integrands
are entire, so fixed-order Gauss quadrature converges spectrally; 32
nodes is far past machine precision for every desk-scale fixture here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ClassificationError, NumericRangeError, SolverError

#: |s(btilde)| below this counts as critical (floating-point spectra of
#: exactly-critical matrices are rarely exactly zero).
CRITICAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    eigenvalues: tuple[complex, ...]
    spectral_radius: float
    spectral_abscissa: float


@dataclass(frozen=True, eq=False)
class PerronPair:
    """Strictly positive right/left eigenvectors of exp(btilde) at
    eigenvalue 1, normalized by sum(u_right) = 1 and <u_left, u_right> = 1."""

    u_right: np.ndarray
    u_left: np.ndarray


def mat_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t*A) by scaling-and-squaring with Pade approximation.

    For essentially non-negative A and t >= 0 the result is entrywise
    >= 0 (up to roundoff).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.all(np.isfinite(A)):
        raise NumericRangeError("matrix exponential of non-finite matrix")
    out = scipy.linalg.expm(float(t) * A)
    if not np.all(np.isfinite(out)):
        raise NumericRangeError(
            f"exp(t*A) overflowed for t={t}, ||A||={np.linalg.norm(A):.3g}")
    return out


def spectral(A: np.ndarray) -> SpectralSummary:
    """Full eigenvalue list with spectral radius max|lam| and abscissa max Re(lam)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigenvalue computation did not converge: {exc}") from exc
    return SpectralSummary(
        eigenvalues=tuple(complex(v) for v in w),
        spectral_radius=float(np.max(np.abs(w))),
        spectral_abscissa=float(np.max(w.real)),
    )


def is_irreducible(A: np.ndarray) -> bool:
    """Irreducibility of an essentially non-negative matrix.

    True iff the directed graph with an edge i -> j whenever i != j and
    A[i, j] > 0 is strongly connected. Every 1x1 matrix is irreducible.
    Boolean squaring of the reflexive adjacency matrix doubles the path
    length it covers, so ceil(log2 d) squarings reach every path of length
    up to d - 1.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = A.shape[0]
    reach = (A > 0) | np.eye(d, dtype=bool)
    for _ in range((d - 1).bit_length()):
        reach = reach @ reach
    return bool(reach.all())


def perron_pair(btilde: np.ndarray) -> PerronPair:
    """Perron pair of exp(btilde) for an irreducible critical btilde.

    Computed from the eigenvalue-0 kernel / left kernel of btilde itself
    (eigenvalue 1 of exp(btilde)); exp(btilde) is never formed. The sum
    normalization of u_right is applied last.
    """
    A = np.atleast_2d(np.asarray(btilde, dtype=float))
    if not is_irreducible(A):
        raise ClassificationError("btilde is reducible; no Perron pair")
    s = spectral(A).spectral_abscissa
    if abs(s) > CRITICAL_TOL:
        raise ClassificationError(
            f"btilde is not critical: spectral abscissa {s:.3e} (tol {CRITICAL_TOL:.1e})")

    def _positive_eigvec(M: np.ndarray) -> np.ndarray:
        w, V = np.linalg.eig(M)
        v = V[:, int(np.argmax(w.real))].real
        if v.sum() < 0:
            v = -v
        if np.any(v <= 0):
            raise ClassificationError("Perron eigenvector is not strictly positive")
        return v

    u_right = _positive_eigvec(A)
    u_left = _positive_eigvec(A.T)
    u_right = u_right / u_right.sum()
    u_left = u_left / float(u_left @ u_right)
    u_right.setflags(write=False)
    u_left.setflags(write=False)
    return PerronPair(u_right=u_right, u_left=u_left)


def gauss_legendre(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    order = int(order)
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def exp_integral(A: np.ndarray, M: np.ndarray, t: float, order: int = 32) -> np.ndarray:
    """int_0^t exp(sA) M exp(sA)^T ds by Gauss-Legendre quadrature."""
    if t < 0:
        raise ValueError(f"integration horizon must be >= 0, got {t}")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    nodes, weights = gauss_legendre(0.0, float(t), order)
    out = np.zeros_like(M)
    for s, w in zip(nodes, weights):
        E = mat_exp(A, s)
        out += w * (E @ M @ E.T)
    return out


def exp_integral_vec(A: np.ndarray, w_vec: np.ndarray, t: float, order: int = 32) -> np.ndarray:
    """int_0^t exp(sA) w ds by Gauss-Legendre quadrature."""
    if t < 0:
        raise ValueError(f"integration horizon must be >= 0, got {t}")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    w_vec = np.atleast_1d(np.asarray(w_vec, dtype=float))
    nodes, weights = gauss_legendre(0.0, float(t), order)
    out = np.zeros_like(w_vec)
    for s, w in zip(nodes, weights):
        out += w * (mat_exp(A, s) @ w_vec)
    return out
