"""Independent oracles for the test suite.

Everything here deliberately avoids the production code paths it checks:
matrix integrals by adaptive quadrature of each integral's defining
formula over scipy's expm (production reads them off one block
exponential, and computes every exponential with its own Pade-13
`mat_exp`, which shares no code with scipy's), the Riccati solution with its psi-integral by scipy's RK45
with psi taken at v clipped to R_+^d (production integrates psi at the
unclipped state with its own stepper), phi and both forms of psi re-derived from
raw atom data with explicit Python loops, and irreducibility from scipy's
strongly connected components (production squares a boolean reachability
matrix).

The module is named ref_oracles, not oracles, so that one pytest session
can load it beside the benchmark's own top-level `oracles` module.
"""
import numpy as np
import scipy.sparse
from scipy.integrate import quad_vec, solve_ivp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components


def _integral(fn, t):
    """int_0^t fn(s) ds by adaptive Gauss-Kronrod (scipy quad_vec) to ~1e-13."""
    if t == 0:
        return np.zeros_like(fn(0.0))
    return quad_vec(fn, 0.0, t, epsabs=1e-300, epsrel=1e-13, norm="max")[0]


def vec_integral(A, w, t):
    """int_0^t exp(sA) w ds."""
    A = np.atleast_2d(np.asarray(A, float))
    return _integral(lambda s: expm(s * A) @ np.asarray(w, float), t)


def mean_quad(btilde, beta_tilde, x, t):
    """exp(t btilde) x + int_0^t exp(u btilde) beta_tilde du."""
    return expm(t * btilde) @ np.asarray(x, float) + vec_integral(btilde, beta_tilde, t)


def variance_quad(btilde, big_c, z, t):
    """sum_l int_0^t (e_l . exp((t-u) btilde) z) exp(u btilde) C_l exp(u btilde)^T du,
    the pure-branching covariance as the moments module states it."""
    bt, z = np.asarray(btilde, float), np.asarray(z, float)

    def integrand(u):
        g = expm((t - u) * bt) @ z
        E = expm(u * bt)
        return sum(g[l] * (E @ C @ E.T) for l, C in enumerate(big_c))

    return _integral(integrand, t)


def hessian_limit_quad(btilde, big_c, t):
    """H[i, j, k] = -e_k . exp(t btilde^T) int_0^t exp(-u btilde^T)
    sum_l e_l (e_i . exp(u btilde) C_l exp(u btilde)^T e_j) du, as the affine
    module states it, with exp(t btilde^T) exp(-u btilde^T) merged into
    exp((t-u) btilde^T) so that a stiff btilde forms no growing exponential."""
    bt = np.asarray(btilde, float)

    def integrand(u):
        E = expm(u * bt)
        inner = np.stack([E @ C @ E.T for C in big_c], axis=-1)  # [i, j, l]
        return -inner @ expm((t - u) * bt.T).T                      # [i, j, k]

    return _integral(integrand, t)


def discrete_gen_limit_quad(btilde, beta_tilde, big_c, x, lam):
    """e_lam(exp(btilde) x) [1/2 sum_l int_0^1 (e_l . exp((1-s) btilde) x)
    lam . exp(s btilde) C_l exp(s btilde)^T lam ds - lam . int_0^1 exp(s btilde)
    beta_tilde ds], as the generators module states it."""
    bt, x, lam = np.asarray(btilde, float), np.asarray(x, float), np.asarray(lam, float)

    def integrand(s):
        g = expm((1.0 - s) * bt) @ x
        y = expm(s * bt).T @ lam
        return np.array([sum(g[l] * (y @ C @ y) for l, C in enumerate(big_c))])

    quad = float(_integral(integrand, 1.0)[0])
    drift = float(lam @ vec_integral(bt, beta_tilde, 1.0))
    return float(np.exp(-float(lam @ (expm(bt) @ x))) * (0.5 * quad - drift))


def phi_loops(params, lam):
    """Branching mechanism as plain per-atom loops."""
    lam = np.atleast_1d(np.asarray(lam, float))
    d = params.d
    out = np.empty(d)
    for i in range(d):
        val = params.c[i] * lam[i] ** 2 - float(params.B[:, i] @ lam)
        for w, z in zip(params.mu[i].weights, params.mu[i].points):
            val += w * (np.exp(-float(lam @ z)) - 1.0 + lam[i] * min(1.0, z[i]))
        out[i] = val
    return out


def psi_loops(params, lam):
    lam = np.atleast_1d(np.asarray(lam, float))
    val = float(params.beta @ lam)
    for w, z in zip(params.nu.weights, params.nu.points):
        val -= w * (np.exp(-float(lam @ z)) - 1.0)
    return val


def psi_compensated(params, lam):
    """psi in its compensated form <beta_tilde, lam>
    - int (exp(-<lam, z>) - 1 + <lam, z>) nu(dz), with beta_tilde =
    beta + int z nu(dz) summed here from the raw atoms."""
    lam = np.atleast_1d(np.asarray(lam, float))
    beta_tilde = np.array(params.beta, float)
    val = 0.0
    for w, z in zip(params.nu.weights, params.nu.points):
        beta_tilde = beta_tilde + w * z
        inner = float(lam @ z)
        val -= w * (np.exp(-inner) - 1.0 + inner)
    return float(beta_tilde @ lam) + val


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
