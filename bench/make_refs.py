"""Regenerate refs.json: high-precision reference values computed with mpmath.

The benchmark's correctness gates compare against these numbers, which
come from the definitions (matrix exponentials by eigendecomposition,
integrals by tanh-sinh quadrature, the Riccati system by Taylor series at
30 digits) and share no code with the package. Run from the repository
root:

    python3 bench/make_refs.py

Takes about a minute; the output is committed next to this file.
"""
import json
from pathlib import Path

import mpmath as mp

from fixtures import DGEN_CASES, FIXTURES, MC_PROBES, MC_T, MOMENT_T, key

mp.mp.dps = 30
OUT = Path(__file__).with_name("refs.json")


class Model:
    """A fixture's parameters and derived quantities in mpmath."""

    def __init__(self, doc):
        d = self.d = doc["d"]
        self.c = [mp.mpf(v) for v in doc["c"]]
        self.beta = [mp.mpf(v) for v in doc["beta"]]
        self.B = mp.matrix([[mp.mpf(v) for v in row] for row in doc["B"]])
        atoms = lambda lst: [(mp.mpf(a["weight"]), [mp.mpf(v) for v in a["z"]]) for a in lst]
        self.nu = atoms(doc["nu"])
        self.mu = [atoms(lst) for lst in doc["mu"]]
        self.bt = self.B.copy()
        for j in range(d):
            for w, z in self.mu[j]:
                for i in range(d):
                    self.bt[i, j] += w * max(z[i] - (1 if i == j else 0), 0)
        self.beta_tilde = mp.matrix([self.beta[i] + sum(w * z[i] for w, z in self.nu)
                                     for i in range(d)])
        self.C = []
        for k in range(d):
            Ck = mp.zeros(d, d)
            Ck[k, k] = 2 * self.c[k]
            for w, z in self.mu[k]:
                for i in range(d):
                    for j in range(d):
                        Ck[i, j] += w * z[i] * z[j]
            self.C.append(Ck)
        ev, V = mp.eig(self.bt)
        self._ev, self._V, self._Vinv = ev, V, mp.inverse(V)
        self._cache = {}

    def E(self, t):
        """exp(t btilde) from the eigendecomposition (btilde is diagonalizable here)."""
        t = mp.mpf(t)
        if t not in self._cache:
            D = mp.diag([mp.exp(t * lam) for lam in self._ev])
            self._cache[t] = (self._V * D * self._Vinv).apply(mp.re)
        return self._cache[t]

    def integral(self, fn, t, shape):
        """Entrywise tanh-sinh quadrature of a matrix-valued fn over [0, t]."""
        rows, cols = shape
        return mp.matrix([[mp.quad(lambda u: fn(u)[i, j], [0, t]) for j in range(cols)]
                          for i in range(rows)])

    def mean_offset(self, t):
        return self.integral(lambda u: self.E(u) * self.beta_tilde, t, (self.d, 1))

    def variance_basis(self, t):
        """V_m with var(Z_t | Z_0 = z) = sum_m z_m V_m for the pure-branching companion."""
        d = self.d
        out = []
        for m in range(d):
            def fn(u, m=m):
                Eu, Et = self.E(u), self.E(t - u)
                return sum((Et[l, m] * (Eu * self.C[l] * Eu.T) for l in range(d)),
                           mp.zeros(d, d))
            out.append(self.integral(fn, t, (d, d)))
        return out

    def hessian_limit(self, t):
        """H[i][j][k] = lim_{lam->0} d^2 v_k / d lam_i d lam_j (t, lam)."""
        d = self.d
        out = [[[None] * d for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(d):
                def fn(u):
                    Eu = self.E(u)
                    w = mp.matrix([(Eu[i, :] * self.C[l] * Eu[j, :].T)[0, 0] for l in range(d)])
                    return self.E(-u).T * w
                acc = self.integral(fn, t, (d, 1))
                col = -(self.E(t).T * acc)
                for k in range(d):
                    out[i][j][k] = col[k]
        return out

    def dgen_limit(self, x, lam):
        d = self.d
        x = mp.matrix([mp.mpf(v) for v in x])
        lam = mp.matrix([mp.mpf(v) for v in lam])

        def integrand(s):
            g = self.E(1 - s) * x
            y = self.E(s).T * lam
            return sum(g[l] * (y.T * self.C[l] * y)[0, 0] for l in range(d))

        quad = mp.quad(integrand, [0, 1])
        drift = (lam.T * self.mean_offset(1))[0, 0]
        front = mp.exp(-(lam.T * self.E(1) * x)[0, 0])
        return front * (quad / 2 - drift)

    def phi(self, v):
        out = []
        for i in range(self.d):
            val = self.c[i] * v[i] ** 2 - sum(self.B[k, i] * v[k] for k in range(self.d))
            for w, z in self.mu[i]:
                dot = sum(v[k] * z[k] for k in range(self.d))
                val += w * (mp.exp(-dot) - 1 + v[i] * min(1, z[i]))
            out.append(val)
        return out

    def psi(self, v):
        val = sum(self.beta[k] * v[k] for k in range(self.d))
        for w, z in self.nu:
            val -= w * (mp.exp(-sum(v[k] * z[k] for k in range(self.d))) - 1)
        return val

    def riccati(self, t, lam):
        """(v(t, lam), int_0^t psi(v(s, lam)) ds) by the Taylor-series ODE solver."""
        d = self.d
        rhs = lambda s, y: [-p for p in self.phi(y[:d])] + [self.psi(y[:d])]
        sol = mp.odefun(rhs, 0, [mp.mpf(v) for v in lam] + [mp.mpf(0)])(mp.mpf(t))
        return sol[:d], sol[d]


def flt(a):
    if isinstance(a, mp.matrix):
        return [[float(a[i, j]) for j in range(a.cols)] for i in range(a.rows)]
    if isinstance(a, (list, tuple)):
        return [flt(v) for v in a]
    return float(a)


def main():
    refs = {}
    for name, doc in FIXTURES.items():
        m = Model(doc)
        entry = {"btilde": flt(m.bt), "beta_tilde": flt(m.beta_tilde.T)[0],
                 "C": [flt(C) for C in m.C], "t": {}}
        for t in sorted(set(MOMENT_T) | {MC_T}):
            entry["t"][repr(float(t))] = {
                "exp": flt(m.E(t)),
                "mean_offset": flt(m.mean_offset(t).T)[0],
                "variance_basis": [flt(V) for V in m.variance_basis(t)],
                "hessian_limit": flt(m.hessian_limit(t)),
            }
        entry["dgen_limit"] = {key(x, lam): float(m.dgen_limit(x, lam))
                               for x, lam in DGEN_CASES[name]}
        entry["riccati"] = {}
        for lam in MC_PROBES[name]:
            v, psi_int = m.riccati(MC_T, lam)
            entry["riccati"][key([MC_T], lam)] = {"v": flt(v), "psi_integral": float(psi_int)}
        refs[name] = entry
        print(f"{name}: done", flush=True)
    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
