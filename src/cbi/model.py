"""Parameter sets and admissibility checking for multi-type CBI processes.

A CBI process (continuous-state branching process with immigration) on
R_+^d is described by a tuple (d, c, beta, B, nu, mu): diffusion
coefficients c >= 0, immigration drift beta >= 0, an essentially
non-negative branching drift matrix B, an immigration jump measure nu and
one branching jump measure mu[i] per coordinate, all supported on
U_d = R_+^d \\ {0}. Jump measures are restricted to finite atomic
measures, which turns every integral in the theory into an exact weighted
sum over atoms (no quadrature error anywhere downstream).

Construction never rejects a candidate tuple; `validate` reports every
violated condition instead, so a CLI user learns *why* a config fails.
All types are immutable after construction and all functions are pure.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np


def _frozen(a, ndmin: int = 0) -> np.ndarray:
    """A read-only float copy of `a`, so that no caller's array is shared."""
    a = np.array(a, dtype=float, ndmin=ndmin)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class JumpMeasure:
    """Finite atomic Borel measure on U_d: atoms (weight_k, z_k).

    weights: shape (m,), intended > 0
    points:  shape (m, dim), intended componentwise >= 0 and nonzero rows
    """

    weights: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        w = _frozen(self.weights, ndmin=1)
        z = _frozen(self.points)
        if z.ndim == 0:
            z = z.reshape(1, 1)
        elif z.ndim == 1:
            z = z.reshape(len(w), -1) if len(w) else z.reshape(0, 1)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", z)

    @classmethod
    def empty(cls, dim: int) -> "JumpMeasure":
        return cls(np.zeros(0), np.zeros((0, dim)))

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, Sequence[float]]], dim: int | None = None) -> "JumpMeasure":
        atoms = list(atoms)
        if not atoms:
            return cls.empty(dim if dim is not None else 1)
        w = np.array([a[0] for a in atoms], dtype=float)
        z = np.array([np.atleast_1d(a[1]) for a in atoms], dtype=float)
        return cls(w, z)

    @property
    def natoms(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Exact integral sum_k w_k fn(z_k).

        `fn` maps the (m, dim) atom array to an array whose leading axis
        indexes atoms; the result is the weight-contracted remainder (a
        scalar for scalar integrands).
        """
        if self.natoms == 0:
            probe = np.asarray(fn(np.zeros((1, self.points.shape[1]))))
            return np.zeros(probe.shape[1:])
        vals = np.asarray(fn(self.points), dtype=float)
        return np.tensordot(self.weights, vals, axes=(0, 0))

    def atoms(self) -> list[tuple[float, np.ndarray]]:
        return [(float(w), z) for w, z in zip(self.weights, self.points)]


@dataclass(frozen=True, eq=False)
class CbiParams:
    """Candidate CBI parameter tuple; see `validate` for admissibility.

    No value checks happen at construction (the validator must be able to
    hold and describe inadmissible tuples); fields are only copied into
    read-only arrays. Without `mu`, each type gets an empty branching
    measure, but only when `d` agrees with `len(c)`: an untrusted `d`
    never sizes an allocation before `validate` has seen it.
    """

    d: int
    c: np.ndarray
    beta: np.ndarray
    B: np.ndarray
    nu: JumpMeasure | None = None
    mu: tuple[JumpMeasure, ...] = field(default=())

    def __post_init__(self):
        d = int(self.d)
        object.__setattr__(self, "d", d)
        c = _frozen(self.c, ndmin=1)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "beta", _frozen(self.beta, ndmin=1))
        object.__setattr__(self, "B", _frozen(self.B, ndmin=2))
        nu = self.nu if self.nu is not None else JumpMeasure.empty(d)
        object.__setattr__(self, "nu", nu)
        mu = self.mu or ([None] * d if d == len(c) else ())
        object.__setattr__(self, "mu", tuple(m if m is not None else JumpMeasure.empty(d)
                                             for m in mu))

    @classmethod
    def no_jumps(cls, c, beta, B) -> "CbiParams":
        """Diffusion-plus-drift model with empty jump measures."""
        c = np.atleast_1d(np.asarray(c, dtype=float))
        return cls(d=len(c), c=c, beta=beta, B=B)

    def without_immigration(self) -> "CbiParams":
        """Pure-branching companion model: beta = 0, nu = empty."""
        return CbiParams(d=self.d, c=self.c, beta=np.zeros(self.d), B=self.B,
                         nu=JumpMeasure.empty(self.d), mu=self.mu)

    # --- JSON parameter-file schema -------------------------------------
    # {"d": int, "c": [...], "beta": [...], "B": [[...], ...],
    #  "nu": [{"weight": w, "z": [...]}, ...], "mu": [[...], ... d lists]}

    def to_dict(self) -> dict:
        def measure(m: JumpMeasure) -> list[dict]:
            return [{"weight": w, "z": z.tolist()} for w, z in m.atoms()]

        return {
            "d": self.d,
            "c": self.c.tolist(),
            "beta": self.beta.tolist(),
            "B": self.B.tolist(),
            "nu": measure(self.nu),
            "mu": [measure(m) for m in self.mu],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CbiParams":
        try:
            d = int(data["d"])
            nu_raw = data.get("nu", [])
            mu_raw = data.get("mu", ())
            nu = JumpMeasure.from_atoms([(a["weight"], a["z"]) for a in nu_raw], dim=d)
            mu = tuple(JumpMeasure.from_atoms([(a["weight"], a["z"]) for a in lst], dim=d)
                       for lst in mu_raw)
            return cls(d=d, c=data["c"], beta=data["beta"], B=data["B"], nu=nu, mu=mu)
        except (KeyError, TypeError, IndexError, OverflowError) as exc:
            raise ValueError(f"malformed parameter document: {exc!r}") from exc


def load_params(path: str | Path) -> CbiParams:
    return CbiParams.from_dict(json.loads(Path(path).read_text()))


def dump_params(params: CbiParams, path: str | Path) -> None:
    Path(path).write_text(json.dumps(params.to_dict(), indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True, eq=False)
class ValidationReport:
    admissible: bool
    moment_order_ok: dict[int, bool]
    computed_integrals: dict[str, float]
    violations: list[str]


def _norm(z: np.ndarray) -> np.ndarray:
    return np.linalg.norm(z, axis=1)


def _measure_structure(name: str, m: JumpMeasure, d: int, violations: list[str]) -> bool:
    """Structural atom checks; returns True when integrals can be evaluated."""
    ok = True
    if m.weights.ndim != 1:
        violations.append(f"{name}: atom weights must be numbers, got shape {m.weights.shape}")
        return False
    if m.points.ndim != 2 or (m.natoms and m.points.shape[1] != d):
        violations.append(f"{name}: atom points must lie in R^{d}, got shape {m.points.shape}")
        return False
    if len(m.weights) != len(m.points):
        violations.append(f"{name}: {len(m.weights)} weights but {len(m.points)} points")
        return False
    if not np.all(np.isfinite(m.weights)) or not np.all(np.isfinite(m.points)):
        violations.append(f"{name}: non-finite atom data")
        ok = False
    if np.any(m.weights <= 0):
        bad = int(np.argmax(m.weights <= 0))
        violations.append(f"{name}: atom {bad + 1} has non-positive weight {m.weights[bad]}")
        ok = False
    if m.natoms and np.any(m.points < 0):
        violations.append(f"{name}: atom point with negative coordinate (support must be in R_+^d)")
        ok = False
    if m.natoms and np.any(_norm(m.points) == 0):
        violations.append(f"{name}: atom at the origin is outside U_d = R_+^d \\ {{0}}")
        ok = False
    return ok


# Atom integrals of huge but finite atoms overflow to inf; validate reports
# that as a violation or a failed moment order, not as a numpy warning.
@np.errstate(over="ignore")
def validate(params: CbiParams) -> ValidationReport:
    """Check every admissibility condition and evaluate all moment integrals.

    Purely reporting: structural problems (wrong mu length, negative
    weights, atoms at 0, shape mismatches) become violations, never
    exceptions. Integrals are exact weighted atom sums; for well-formed
    finite atom lists every moment order is automatically finite.
    """
    violations: list[str] = []
    integrals: dict[str, float] = {}
    d = params.d

    if d < 1:
        violations.append(f"d must be a positive integer, got {d}")
        return ValidationReport(False, {1: False, 2: False, 4: False}, integrals, violations)

    for label, vec in (("c", params.c), ("beta", params.beta)):
        if vec.shape != (d,):
            violations.append(f"{label} must have length d={d}, got shape {vec.shape}")
        elif not np.all(np.isfinite(vec)):
            violations.append(f"{label} has non-finite entries")
        elif np.any(vec < 0):
            violations.append(f"{label} must be componentwise >= 0")

    B = params.B
    if B.shape != (d, d):
        violations.append(f"B must be {d}x{d}, got shape {B.shape}")
    elif not np.all(np.isfinite(B)):
        violations.append("B has non-finite entries")
    else:
        off = B - np.diag(np.diag(B))
        if np.any(off < 0):
            i, j = np.unravel_index(np.argmin(off), off.shape)
            violations.append(
                f"B not essentially non-negative: entry ({i + 1},{j + 1}) = {B[i, j]} < 0")

    if len(params.mu) != d:
        violations.append(f"mu must contain exactly d={d} measures, got {len(params.mu)}")

    order_ok = {1: True, 2: True, 4: True}

    nu_ok = _measure_structure("nu", params.nu, d, violations)
    if nu_ok and params.nu.points.shape[1] == d:
        r = _norm(params.nu.points) if params.nu.natoms else np.zeros(0)
        w = params.nu.weights
        integrals["nu.mass"] = float(w.sum())
        integrals["nu.min_1_norm"] = float(w @ np.minimum(1.0, r)) if params.nu.natoms else 0.0
        for k in (1, 2, 4):
            val = float(w @ (r**k * (r >= 1.0))) if params.nu.natoms else 0.0
            integrals[f"nu.norm{k}_tail"] = val
            order_ok[k] &= np.isfinite(val)
    else:
        for k in (1, 2, 4):
            order_ok[k] = False

    for i, m in enumerate(params.mu):
        name = f"mu[{i + 1}]"
        m_ok = _measure_structure(name, m, d, violations)
        if not (m_ok and m.points.shape[1] == d):
            order_ok[2] = order_ok[4] = False
            continue
        if m.natoms:
            r = _norm(m.points)
            w = m.weights
            other = m.points.sum(axis=1) - m.points[:, i] if i < d else m.points.sum(axis=1)
            integrals[f"{name}.mass"] = float(w.sum())
            integrals[f"{name}.admissibility"] = float(w @ (np.minimum(r, r**2) + other))
            for k in (1, 2, 4):
                val = float(w @ (r**k * (r >= 1.0)))
                integrals[f"{name}.norm{k}_tail"] = val
                if k > 1:
                    order_ok[k] &= np.isfinite(val)
        else:
            integrals[f"{name}.mass"] = 0.0
            integrals[f"{name}.admissibility"] = 0.0
            for k in (1, 2, 4):
                integrals[f"{name}.norm{k}_tail"] = 0.0

    if "nu.min_1_norm" in integrals and not np.isfinite(integrals["nu.min_1_norm"]):
        violations.append("nu: integral of 1 ^ |z| is not finite")
    for i in range(len(params.mu)):
        key = f"mu[{i + 1}].admissibility"
        if key in integrals and not np.isfinite(integrals[key]):
            violations.append(f"mu[{i + 1}]: admissibility integral is not finite")

    return ValidationReport(
        admissible=not violations,
        moment_order_ok={k: bool(v) for k, v in order_ok.items()},
        computed_integrals=integrals,
        violations=violations,
    )
