"""Dense small-dimension matrix utilities.

Matrix exponentials, spectra, irreducibility of essentially non-negative
matrices, the Perron pair of exp(btilde) for a btilde that the derived
model has classified critical and irreducible, and two time-ordered
integrals of exp(sA): the flow with its integral against a vector, and
the pure-branching covariance. Each is read off one block exponential
exp(t [[A, W], [0, D]]), whose top-right block is
int_0^t exp((t-s)A) W exp(sD) ds (Van Loan, IEEE TAC 23(3), 1978; nested
as in Carbonell, Jimenez & Pedroso, J. Comput. Appl. Math. 213, 2008). The
Kronecker sum A (+) A = A x I + I x A, with exp(s A (+) A) = exp(sA) x
exp(sA), turns each sandwich exp(sA) C exp(sA)^T into a vector. No block
holds -A, so a stiff A forms no growing exponential. The Kronecker sum is
two broadcast products and each block matrix is assigned into a zeroed
array: np.kron's and np.block's values bit for bit, without their
per-call cost. Every exponential is one `mat_exp`: scaling and squaring
with the degree-13 Pade approximant (Higham, SIAM J. Matrix Anal. Appl.
26(4), 2005, Algorithm 2.3). Only that algorithm's degree-13 branch is
implemented; its branches of degree m = 3, 5, 7 and 9 for a small ||A||_1
are not used, so a tiny block pays the full degree-13 assembly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError, NumericRangeError, SolverError


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


#: Higham's degree-13 Pade coefficients b_0..b_13 (SIMAX 26(4), 2005,
#: Table 2.3), divided by b_0 so that the approximant at 0 is exactly I.
_PADE13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1))
#: Largest ||X||_1 at which the degree-13 approximant meets unit roundoff.
_THETA13 = 5.371920351148152


def mat_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t*A) by scaling and squaring with the degree-13 Pade approximant
    (Higham, SIMAX 26(4), 2005, Algorithm 2.3): X = tA / 2^s with
    ||X||_1 <= theta_13, r_13(X) from one linear solve, then s squarings.
    Only the degree-13 branch runs, whatever ||tA||_1: the algorithm's
    m = 3, 5, 7, 9 branches are not used.

    For essentially non-negative A and t >= 0 the result is entrywise
    >= 0 (up to roundoff).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # reported as NumericRangeError
        X = float(t) * A
        norm = float(np.abs(X).sum(axis=0).max())  # ||X||_1, as np.linalg.norm(X, 1)
        out = X  # tA is not finite: reported below
        if norm < np.inf:
            s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
            if s:
                X = X * 2.0 ** -s
            X2 = X @ X
            X4 = X2 @ X2
            X6 = X4 @ X2
            b, eye = _PADE13, np.eye(len(X))
            U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
                     + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
            V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
                 + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
            out = np.linalg.solve(V - U, V + U)
            for _ in range(s):
                out = out @ out
        if not (norm < np.inf and np.isfinite(out).all()):
            # a non-finite entry of A always lands here: ||tA||_1 is then inf or NaN
            if not np.isfinite(A).all():
                raise NumericRangeError("matrix exponential of non-finite matrix")
            raise NumericRangeError(
                f"exp(t*A) overflowed for t={t}, max|A_ij|={np.abs(A).max():.3g}")
    return out


def spectral(A: np.ndarray) -> SpectralSummary:
    """Full eigenvalue list with spectral radius max|lam| and abscissa max Re(lam)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigenvalue computation did not converge: {exc}") from exc
    return SpectralSummary(
        eigenvalues=tuple(map(complex, w.tolist())),
        spectral_radius=float(np.abs(w).max()),
        spectral_abscissa=float(w.real.max()),
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


def perron_vectors(btilde: np.ndarray) -> PerronPair:
    """Perron pair of exp(btilde) for a btilde already known to be
    irreducible and critical, from the eigenvalue-0 kernel / left kernel of
    btilde itself (eigenvalue 1 of exp(btilde)); exp(btilde) is never
    formed. The sum normalization of u_right is applied last."""
    A = np.atleast_2d(np.asarray(btilde, dtype=float))

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


def _kron_sum(A) -> np.ndarray:
    """A (+) A acting on row-major vec: vec(A X + X A^T).

    Entry (i*d + k, j*d + l) is A_ij I_kl + I_ij A_kl: the two products of
    A x I + I x A, formed by broadcasting on a (d, d, d, d) grid. Their
    zero products keep the sign that np.kron gives them (-0.0 where an
    entry of A is negative), so the result is np.kron's bit for bit."""
    d = len(A)
    eye = np.eye(d)
    return (A[:, None, :, None] * eye[:, None]
            + eye[:, None, :, None] * A[:, None]).reshape(d * d, d * d)


def _block_exp(A: np.ndarray, W: np.ndarray, D: np.ndarray, t: float) -> np.ndarray:
    """exp(t [[A, W], [0, D]]) for t >= 0."""
    if t < 0:
        raise ValueError(f"integration horizon must be >= 0, got {t}")
    n = len(A)
    block = np.zeros((n + len(D), n + len(D)))
    block[:n, :n], block[:n, n:], block[n:, n:] = A, W, D
    return mat_exp(block, t)


def exp_and_integral_vec(A: np.ndarray, w_vec: np.ndarray,
                         t: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(tA) and int_0^t exp(sA) w ds, the top row of blocks of one
    (d + 1)-square block exponential."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    E = _block_exp(A, np.reshape(w_vec, (-1, 1)), np.zeros((1, 1)), t)
    return E[:-1, :-1], E[:-1, -1]


def branching_integral(A: np.ndarray, big_c, z: np.ndarray, t: float) -> np.ndarray:
    """V(t; z) = sum_l int_0^t [exp(uA) z]_l exp((t-u)A) C_l exp((t-u)A)^T du
    from one (d^2 + d)-square block exponential."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = len(A)
    vec_c = np.stack([np.ravel(C) for C in big_c], axis=1)
    return (_block_exp(_kron_sum(A), vec_c, A, t)[:d * d, d * d:] @ np.ravel(z)).reshape(d, d)
