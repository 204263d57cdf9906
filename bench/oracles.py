"""Reference values for the benchmark's correctness gates.

None of these share a formula implementation with the package:

- fix_a has closed forms for v, the Laplace transform, the limit diffusion
  and the step-scaled chain.
- refs.json holds mpmath values (see make_refs.py) for the matrix
  exponentials, moment integrals, derivative limits, discrete-generator
  limits and the Riccati solutions at the Monte Carlo probes.
- Seed-drawn Laplace inputs on jump fixtures are checked against an
  augmented-state DOP853 solve with the psi-integral as an extra state and
  phi/psi written as plain loops over the raw atoms.
- Generator values at seed-drawn points use finite-difference derivatives
  of an independently written bump instead of the analytic ones.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from fixtures import key

REFS = json.loads(Path(__file__).with_name("refs.json").read_text())

#: Monte Carlo gate: |empirical - exact| <= MC_SE standard errors.
MC_SE = 4.0


def table(fixture: str, t: float) -> dict:
    return REFS[fixture]["t"][repr(float(t))]


def mean_ref(fixture: str, x, t: float) -> np.ndarray:
    e = table(fixture, t)
    return np.array(e["exp"]) @ np.asarray(x, float) + np.array(e["mean_offset"])


def variance_ref(fixture: str, z, t: float) -> np.ndarray:
    e = table(fixture, t)
    return sum(zm * np.array(V) for zm, V in zip(z, e["variance_basis"]))


def laplace_ref(fixture: str, x, lam, t: float) -> float:
    """exp(-<x, v(t, lam)> - int psi) from a stored Riccati solution."""
    e = REFS[fixture]["riccati"][key([t], lam)]
    return math.exp(-float(np.asarray(x, float) @ np.array(e["v"])) - e["psi_integral"])


# --- fix_a (d=1, c=1, beta=1, B=0): v(t, lam) = lam / (1 + lam t) ------------

def fix_a_laplace(x: float, lam: float, t: float) -> float:
    return math.exp(-x * lam / (1.0 + lam * t)) / (1.0 + lam * t)


def fix_a_dgen_limit(x: float, lam: float) -> float:
    """btilde = 0, C = 2, beta_tilde = 1: exp(-lam x) (x lam^2 - lam)."""
    return math.exp(-lam * x) * (x * lam * lam - lam)


# --- Riccati oracle on raw atoms ------------------------------------------

def _phi_loops(doc: dict, v: np.ndarray) -> np.ndarray:
    d = doc["d"]
    out = np.empty(d)
    for i in range(d):
        val = doc["c"][i] * v[i] ** 2 - sum(doc["B"][k][i] * v[k] for k in range(d))
        for a in doc["mu"][i]:
            dot = sum(v[k] * a["z"][k] for k in range(d))
            val += a["weight"] * (math.exp(-dot) - 1.0 + v[i] * min(1.0, a["z"][i]))
        out[i] = val
    return out


def _psi_loops(doc: dict, v: np.ndarray) -> float:
    d = doc["d"]
    val = sum(doc["beta"][k] * v[k] for k in range(d))
    for a in doc["nu"]:
        val -= a["weight"] * (math.exp(-sum(v[k] * a["z"][k] for k in range(d))) - 1.0)
    return val


def laplace_ode(doc: dict, x, lam, t: float) -> float:
    """Laplace transform from a DOP853 solve of (v, int psi) at rtol 1e-13."""
    d = doc["d"]

    def rhs(_, y):
        return np.append(-_phi_loops(doc, y[:d]), _psi_loops(doc, np.maximum(y[:d], 0.0)))

    sol = solve_ivp(rhs, (0.0, t), np.append(np.asarray(lam, float), 0.0),
                    method="DOP853", rtol=1e-13, atol=1e-15)
    if not sol.success:
        raise RuntimeError(f"oracle solve failed: {sol.message}")
    y = sol.y[:, -1]
    return math.exp(-float(np.asarray(x, float) @ y[:d]) - y[d])


# --- Generators by finite differences of an independent bump ----------------

def bump_value(center, radius: float, amplitude: float, x) -> float:
    u = (np.asarray(x, float) - np.asarray(center, float)) / radius
    s = float(u @ u)
    return 0.0 if s >= 1.0 - 1e-8 else amplitude * math.exp(-1.0 / (1.0 - s))


def _fd_derivatives(f, x: np.ndarray, h: float = 1e-4):
    d = len(x)
    E = h * np.eye(d)
    grad = np.array([(f(x + E[i]) - f(x - E[i])) / (2 * h) for i in range(d)])
    hess = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            hess[i, j] = (f(x + E[i] + E[j]) - f(x + E[i] - E[j])
                          - f(x - E[i] + E[j]) + f(x - E[i] - E[j])) / (4 * h * h)
    return grad, hess


def generator_fd(doc: dict, f, x) -> float:
    """The defining form of the CBI generator on raw atoms, FD derivatives."""
    x = np.asarray(x, float)
    d = doc["d"]
    grad, hess = _fd_derivatives(f, x)
    fx = f(x)
    B = np.array(doc["B"])
    val = sum(doc["c"][i] * x[i] * hess[i, i] for i in range(d))
    val += float((np.array(doc["beta"]) + B @ x) @ grad)
    for a in doc["nu"]:
        val += a["weight"] * (f(x + np.array(a["z"])) - fx)
    for i in range(d):
        for a in doc["mu"][i]:
            z = np.array(a["z"])
            val += x[i] * a["weight"] * (f(x + z) - fx - grad[i] * min(1.0, z[i]))
    return val


def scaled_limit_fd(fixture: str, f, x) -> float:
    """1/2 sum_i x_i <C_i, f''(x)> + <beta_tilde, grad f(x)>, C and beta_tilde from refs."""
    x = np.asarray(x, float)
    grad, hess = _fd_derivatives(f, x)
    ref = REFS[fixture]
    val = 0.5 * sum(x[i] * float(np.sum(np.array(C) * hess)) for i, C in enumerate(ref["C"]))
    return val + float(np.array(ref["beta_tilde"]) @ grad)


# --- Monte Carlo ------------------------------------------------------------

def mc_ok(ends: np.ndarray, mean_exact, laplace_exact: dict) -> bool:
    """Every coordinate mean and every probe's Laplace value within MC_SE SE.

    laplace_exact maps a lam tuple to its exact transform value.
    """
    n = len(ends)
    se = ends.std(axis=0, ddof=1) / math.sqrt(n)
    if np.any(np.abs(ends.mean(axis=0) - mean_exact) > MC_SE * se):
        return False
    for lam, exact in laplace_exact.items():
        vals = np.exp(-(ends @ np.asarray(lam, float)))
        if abs(vals.mean() - exact) > MC_SE * vals.std(ddof=1) / math.sqrt(n):
            return False
    return True


def close(got, ref, tol: float) -> bool:
    """max |got - ref| <= tol * (1 + max |ref|)."""
    got = np.asarray(got, float)
    ref = np.asarray(ref, float)
    return bool(got.shape == ref.shape
                and np.max(np.abs(got - ref)) <= tol * (1.0 + np.max(np.abs(ref))))
