"""Independent oracles for the test suite.

Everything here deliberately avoids the production code paths it checks:
matrix integrals by adaptive quadrature of each integral's defining
formula over scipy's expm (production reads them off one block
exponential, and computes every exponential with its own Pade-13
`mat_exp`, which shares no code with scipy's), the Riccati solution with its psi-integral by scipy's RK45
with psi taken at v clipped to R_+^d (production integrates psi at the
unclipped state with its own stepper) and the two-time joint transform from two
such solves, phi and both forms of psi re-derived from
raw atom data with explicit Python loops, and irreducibility from scipy's
strongly connected components (production squares a boolean reachability
matrix), and the paths CSV cell by cell with float() and repr on every
value (production formats a shared time grid once and each path from one
tolist()), and the Euler paths one path and one step at a time from one
numpy Generator per path over its SeedSequence, with the drift, kappa and
jump rates re-derived from the raw parameters and the Poisson counts by a
scalar CDF walk (production keys a whole block of paths at once, reads
them through one shared Philox, and steps the block as arrays).

One oracle shares formulas with production on purpose: `dop853_loop`
steps the Riccati block as scipy's DOP853 writes its loop, on a flat
state with a fresh stage array per step and one allocating right-hand
side call per stage, over affine's own tableau and right-hand side. It
checks the stepper's buffers (preallocated stages, swapped states, the
first-same-as-last slope), which must change no bit, not its formulas.

The module is named ref_oracles, not oracles, so that one pytest session
can load it beside the benchmark's own top-level `oracles` module.
"""
import math

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


def joint_laplace_two_times(params, x, t1, t2, lam1, lam2):
    """E_x exp(-<lam1, X_t1> - <lam2, X_t2>) for 0 < t1 < t2, by the Markov
    property at t1 and the affine transform over each leg: with
    mu = lam1 + v(t2 - t1, lam2), it is exp(-<x, v(t1, mu)>
    - int_0^t1 psi(v(s, mu)) ds - int_0^(t2-t1) psi(v(s, lam2)) ds), each
    leg solved backwards by `v_with_psi_state`."""
    v2, psi2 = v_with_psi_state(params, t2 - t1, lam2)
    v1, psi1 = v_with_psi_state(params, t1, np.asarray(lam1, float) + v2)
    return math.exp(-float(np.asarray(x, float) @ v1) - psi1 - psi2)


def dop853_loop(rhs, y0, t_end, rtol, atol):
    """Integrate Y' = rhs(Y) from the (rows, m) block y0 to t_end in the
    form of scipy's DOP853 loop (select_initial_step, rk_step and
    _step_impl) on affine's tableau, with the step decided by the largest
    column's DOP853 error as affine documents it: y + dot(K[:s].T, a) * h
    at every stage, one rhs(Y) call per stage, a fresh stage array per
    step attempt.

    Returns (Y(t_end), accepted steps, rhs evaluations, rejected step
    attempts, each column's negative undershoot of its v rows, all but the
    last, summed over the accepted step ends)."""
    from cbi import affine

    rows, m = y0.shape

    def fun(y):
        return rhs(y.reshape(rows, m)).ravel()

    def col_rms(z):
        z = z.reshape(rows, m)
        return np.sqrt(np.add.reduce(z * z, axis=0)) / np.sqrt(rows)

    y = y0.ravel().copy()
    f = fun(y)
    # select_initial_step, one column at a time in vector form
    scale = atol + np.abs(y) * rtol
    d0, d1 = col_rms(y / scale), col_rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5))
    h0 = np.minimum(h0, t_end)
    y1 = y + np.tile(h0, rows) * f
    d2 = col_rms((fun(y1) - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(np.maximum(d1, d2), 1e-15)) ** (-affine._EXPONENT))
    h_abs = min(np.minimum(100 * h0, h1).min(), t_end)

    n_stages = len(affine._E5)
    t, steps, nfev, rejected = 0.0, 0, 2, 0
    clip = np.zeros(m)
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        step_accepted, step_rejected = False, False
        while not step_accepted:
            assert h_abs >= min_step
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            K = np.empty((n_stages, y.size))
            K[0] = f
            for s, a in enumerate(affine._A, start=1):
                dy = np.dot(K[:s].T, a) * h
                K[s] = fun(y + dy)
            y_new = y + h * np.dot(K[:-1].T, affine._B)
            f_new = fun(y_new)
            K[-1] = f_new
            nfev += n_stages - 1
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(K.T, affine._E5) / scale
            err3 = np.dot(K.T, affine._E3) / scale
            e5 = np.add.reduce((err5 * err5).reshape(rows, m), axis=0)
            e3 = np.add.reduce((err3 * err3).reshape(rows, m), axis=0)
            error = np.max([h * e5[j] / np.sqrt((e5[j] + 0.01 * e3[j]) * rows)
                            if e5[j] != 0 else 0.0 for j in range(m)])
            if error < 1:
                if error == 0:
                    factor = affine._MAX_FACTOR
                else:
                    factor = min(affine._MAX_FACTOR,
                                 affine._SAFETY * error ** affine._EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(affine._MIN_FACTOR, affine._SAFETY * error ** affine._EXPONENT)
                step_rejected = True
                rejected += 1
        t, y, f = t_new, y_new, f_new
        steps += 1
        clip -= np.minimum(y.reshape(rows, m)[:-1], 0.0).sum(axis=0)
    return y.reshape(rows, m), steps, nfev, rejected, clip


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


def paths_csv_per_cell(paths):
    """The paths CSV written one row and one cell at a time: header
    path_id,t,x_1..x_d, then per row the path index, repr(float(t)) and
    repr(float(v)) of every state entry."""
    d = paths[0].states.shape[1]
    lines = ["path_id,t," + ",".join(f"x_{i + 1}" for i in range(d))]
    for pid, path in enumerate(paths):
        for t, row in zip(path.times, path.states):
            lines.append(f"{pid},{float(t)!r},{','.join(repr(float(v)) for v in row)}")
    return "\n".join(lines) + "\n"


def _poisson_count(u, mean):
    """The smallest k with u < P(N <= k), N ~ Poisson(mean), by summing the
    pmf term by term (capped: a u the cdf never passes is a measure-zero event)."""
    pmf = cdf = math.exp(-mean)
    k = 0
    while u >= cdf and k < 1000:
        k += 1
        pmf *= mean / k
        cdf += pmf
    return k


def euler_paths_loop(params, x0, K, h, seed, n_paths, window=1024):
    """Full-truncation Euler paths on the grid 0, h, ..., K h, one path at a
    time, in the documented stream layout: path p reads
    Generator(Philox(SeedSequence(seed, spawn_key=(p,)))); per window of up
    to `window` steps it draws the normals (width, d), then the uniforms
    (width, atoms) with the atoms of mu_1, ..., mu_d and then of nu, each
    measure's in order. Within a step, each atom jumps a Poisson count of
    times, at mean weight * h times x_i^+ for an atom of mu_i and weight * h
    for one of nu, read from its uniform; the jumps are logged in atom
    order. Returns (states (n_paths, K+1, d), jump logs of (t, source, z))."""
    d = params.d
    c, beta, B = (np.asarray(a, float) for a in (params.c, params.beta, params.B))
    kappa = [sum(float(w) * min(1.0, float(z[i]))
                 for w, z in zip(params.mu[i].weights, params.mu[i].points))
             for i in range(d)]
    measures = [*((f"branching-{i + 1}", i, params.mu[i]) for i in range(d)),
                ("immigration", None, params.nu)]
    atoms = [(label, i, float(w) * h, np.asarray(z, float))
             for label, i, measure in measures for w, z in zip(measure.weights, measure.points)]
    states = np.empty((n_paths, K + 1, d))
    logs = []
    for p in range(n_paths):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(p,))))
        x = [float(v) for v in x0]
        states[p, 0] = x
        log = []
        for w0 in range(0, K, window):
            width = min(window, K - w0)
            normals = rng.standard_normal((width, d))
            uniforms = rng.random((width, len(atoms)))
            for kw in range(width):
                k = w0 + kw
                xp = [max(v, 0.0) for v in x]
                new = [x[j] + h * (beta[j] + sum(B[j, i] * xp[i] for i in range(d))
                                   - kappa[j] * xp[j])
                       + math.sqrt(2.0 * c[j] * xp[j]) * math.sqrt(h) * normals[kw, j]
                       for j in range(d)]
                for a, (label, i, rate, z) in enumerate(atoms):
                    mean = rate if i is None else rate * xp[i]
                    for _ in range(_poisson_count(uniforms[kw, a], mean)):
                        new = [v + dz for v, dz in zip(new, z)]
                        log.append(((k + 1) * h, label, z))
                x = [max(v, 0.0) for v in new]
                states[p, k + 1] = x
        logs.append(log)
    return states, logs
