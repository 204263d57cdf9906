"""Independent oracles for the test suite.

Everything here deliberately avoids the production code paths it checks:
matrix integrals via Van Loan block exponentials (production uses
Gauss-Legendre), the psi-integral via an augmented ODE state (production
quadratures the dense output), phi/psi re-derived from raw atom data
with explicit Python loops, and irreducibility from scipy's strongly
connected components (production squares a boolean reachability matrix).
"""
import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components


def van_loan_sandwich(A, M, t):
    """int_0^t exp(sA) M exp(sA)^T ds from one block exponential."""
    A = np.atleast_2d(np.asarray(A, float))
    M = np.atleast_2d(np.asarray(M, float))
    d = A.shape[0]
    Z = np.zeros((2 * d, 2 * d))
    Z[:d, :d] = -A
    Z[:d, d:] = M
    Z[d:, d:] = A.T
    E = scipy.linalg.expm(Z * t)
    return scipy.linalg.expm(A * t) @ E[:d, d:]


def van_loan_vec(A, w, t):
    """int_0^t exp(sA) w ds from one block exponential."""
    A = np.atleast_2d(np.asarray(A, float))
    w = np.atleast_1d(np.asarray(w, float))
    d = A.shape[0]
    Z = np.zeros((d + 1, d + 1))
    Z[:d, :d] = A
    Z[:d, d] = w
    E = scipy.linalg.expm(Z * t)
    return E[:d, d]


def phi_loops(params, lam):
    """Branching mechanism as plain per-atom loops."""
    lam = np.atleast_1d(np.asarray(lam, float))
    d = params.d
    out = np.empty(d)
    for i in range(d):
        val = params.c[i] * lam[i] ** 2 - float(params.B[:, i] @ lam)
        for w, z in params.mu[i].atoms():
            val += w * (np.exp(-float(lam @ z)) - 1.0 + lam[i] * min(1.0, z[i]))
        out[i] = val
    return out


def psi_loops(params, lam):
    lam = np.atleast_1d(np.asarray(lam, float))
    val = float(params.beta @ lam)
    for w, z in params.nu.atoms():
        val -= w * (np.exp(-float(lam @ z)) - 1.0)
    return val


def v_with_psi_state(params, t, lam, rtol=1e-12, atol=1e-14):
    """Solve the Riccati system with the psi-integral as an extra state.

    Returns (v(t, lam), int_0^t psi(v) ds).
    """
    lam = np.atleast_1d(np.asarray(lam, float))
    d = len(lam)

    def rhs(_, y):
        v = np.maximum(y[:d], 0.0)
        return np.concatenate([-phi_loops(params, y[:d]), [psi_loops(params, v)]])

    sol = solve_ivp(rhs, (0.0, t), np.concatenate([lam, [0.0]]),
                    method="RK45", rtol=rtol, atol=atol)
    assert sol.success
    return sol.y[:d, -1], float(sol.y[d, -1])


def fd_gradient(fn, x, h=1e-6):
    x = np.asarray(x, float)
    g = np.empty(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def fd_hessian(fn, x, h=1e-4):
    x = np.asarray(x, float)
    d = len(x)
    H = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d); ei[i] = h
            ej = np.zeros(d); ej[j] = h
            if i == j:
                H[i, j] = (fn(x + ei) - 2 * fn(x) + fn(x - ei)) / h**2
            else:
                H[i, j] = (fn(x + ei + ej) - fn(x + ei - ej)
                           - fn(x - ei + ej) + fn(x - ei - ej)) / (4 * h**2)
    return H


def irreducible_csgraph(A):
    """Irreducibility as one strongly connected component of the graph with
    an edge i -> j whenever i != j and A[i, j] > 0."""
    adj = (np.atleast_2d(np.asarray(A, float)) > 0).astype(np.int8)
    np.fill_diagonal(adj, 0)
    ncomp, _ = connected_components(scipy.sparse.csr_matrix(adj), directed=True,
                                    connection="strong")
    return ncomp == 1
