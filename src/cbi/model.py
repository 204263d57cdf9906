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
One walk over the admissibility rules (`admissibility_violations`) lists
the violations: `moments.derive` asks it for them alone, which needs only
each measure's admissibility integral, while `validate` also has it
record every measure's mass and norm tails and the moment-order flags.
The walk stacks the atoms once (`_atom_table`) and hands the table to
`moments.derive`: points Z of shape (A, d) and weights, the atoms of
mu_1, ..., mu_d and then of nu, with one slice per measure. A few
whole-table reductions decide that every atom passes every rule; only
when one fails is each measure checked on its own slice, so a message is
formatted only for a failed check and keeps its measure's place. Each
integral is one dot over its measure's slice of per-atom terms.
All types are immutable after construction and all functions are pure.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


def _frozen(a, ndmin: int = 0) -> np.ndarray:
    """A read-only float copy of `a`, so that no caller's array is shared.

    CbiParams and JumpMeasure copy what they are given through this;
    `moments.derive` copies nothing: it freezes in place the arrays it has
    just made and shares B and beta of `params` where no atom changes them."""
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
    def from_atoms(cls, atoms: Iterable[tuple[float, Sequence[float]]]) -> "JumpMeasure":
        atoms = list(atoms)
        w = np.array([a[0] for a in atoms], dtype=float)
        z = np.array([np.atleast_1d(a[1]) for a in atoms], dtype=float)
        return cls(w, z)

    @property
    def natoms(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class CbiParams:
    """Candidate CBI parameter tuple; see `validate` for admissibility.

    No value checks happen at construction (the validator must be able to
    hold and describe inadmissible tuples); fields are only copied into
    read-only arrays, and `d` is kept as given. Without `mu`, each type
    gets an empty branching measure, but only when `d` agrees with
    `len(c)`; default measures are sized by `len(c)`, so an untrusted `d`
    never sizes an allocation before `validate` has seen it.
    """

    d: int
    c: np.ndarray
    beta: np.ndarray
    B: np.ndarray
    nu: JumpMeasure | None = None
    mu: tuple[JumpMeasure, ...] = field(default=())

    def __post_init__(self):
        c = _frozen(self.c, ndmin=1)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "beta", _frozen(self.beta, ndmin=1))
        object.__setattr__(self, "B", _frozen(self.B, ndmin=2))
        n = len(c)
        nu = self.nu if self.nu is not None else JumpMeasure.empty(n)
        object.__setattr__(self, "nu", nu)
        mu = self.mu or ([None] * n if self.d == n else ())
        object.__setattr__(self, "mu", tuple(m if m is not None else JumpMeasure.empty(n)
                                             for m in mu))

    @classmethod
    def no_jumps(cls, c, beta, B) -> "CbiParams":
        """Diffusion-plus-drift model with empty jump measures."""
        c = np.atleast_1d(np.asarray(c, dtype=float))
        return cls(d=len(c), c=c, beta=beta, B=B)

    def without_immigration(self) -> "CbiParams":
        """Pure-branching companion model: beta = 0, nu = empty."""
        return CbiParams(d=self.d, c=self.c, beta=np.zeros(len(self.c)), B=self.B, mu=self.mu)

    # --- JSON parameter-file schema -------------------------------------
    # {"d": int, "c": [...], "beta": [...], "B": [[...], ...],
    #  "nu": [{"weight": w, "z": [...]}, ...], "mu": [[...], ... d lists]}

    @classmethod
    def from_dict(cls, data: dict) -> "CbiParams":
        try:
            d = data["d"]
            # int() would truncate 2.7 and read true as 1
            if type(d) is not int:
                raise ValueError(f"d must be an integer, got {d!r}")

            def measure(raw):
                # an empty measure is left to __post_init__, which sizes it
                # by c: the document's d may be no array dimension at all
                atoms = [(a["weight"], a["z"]) for a in raw]
                return JumpMeasure.from_atoms(atoms) if atoms else None

            nu = measure(data.get("nu", []))
            mu = tuple(measure(lst) for lst in data.get("mu", ()))
            return cls(d=d, c=data["c"], beta=data["beta"], B=data["B"], nu=nu, mu=mu)
        except (KeyError, TypeError, IndexError, OverflowError) as exc:
            raise ValueError(f"malformed parameter document: {exc!r}") from exc


@dataclass(frozen=True, eq=False)
class ValidationReport:
    admissible: bool
    moment_order_ok: dict[int, bool]
    computed_integrals: dict[str, float]
    violations: list[str]


def _atom_table(measures) -> tuple[np.ndarray | None, np.ndarray | None, list[slice]]:
    """The atoms of `measures` stacked in the order given: points Z of shape
    (A, d), weights of shape (A,) and each measure's slice of them. Without
    atoms there is nothing to stack: Z and the weights are None.

    The walk stacks mu_1, ..., mu_d, then nu, with an empty measure in
    place of a malformed one, and hands the table to `moments.derive`. Only
    measures with atoms are stacked, so an empty one's width is never read."""
    spans, start = [], 0
    for m in measures:
        spans.append(slice(start, start := start + len(m.weights)))
    if not start:
        return None, None, spans
    filled = [m for m in measures if len(m.weights)]
    return (np.concatenate([m.points for m in filled]),
            np.concatenate([m.weights for m in filled]), spans)


def admissibility_violations(params: CbiParams, integrals: dict[str, float] | None = None,
                             order_ok: dict[int, bool] | None = None) -> tuple:
    """Every violated admissibility condition of `params`, in a fixed order,
    and the atom table (Z, w, spans) it checked (none for a bad `d`): the
    one walk over the rules that `validate` and `derive` share.

    The rules need only each measure's admissibility integral. Given
    `integrals` and `order_ok` (validate's report), the walk also records
    every measure's mass, admissibility integral and norm tails there, and
    clears the moment orders that a malformed or infinite measure fails.
    A message is formatted only for a failed check.
    """
    violations: list[str] = []
    d = params.d

    # bool is an int, but True is no dimension
    if type(d) is bool or not isinstance(d, (int, np.integer)) or d < 1:
        violations.append(f"d must be a positive integer, got {d!r}")
        if order_ok is not None:
            order_ok.update({1: False, 2: False, 4: False})
        return violations, (None, None, [])

    # the entries of c, beta and B in one array: every entry finite, and
    # each one >= 0 except on the diagonal of B; only when one fails is
    # each part looked at on its own, for the messages
    c, beta, B = params.c, params.beta, params.B
    X = None
    if c.shape == beta.shape == (d,) and B.shape == (d, d):
        X = np.concatenate((c, beta, B.ravel()))
        finite = np.isfinite(X).all()
        X[2 * d::d + 1] = 0.0  # B's diagonal
    if X is None or not (finite and 0 <= X.min()):
        for label, a, shape in (("c", c, (d,)), ("beta", beta, (d,)), ("B", B, (d, d))):
            if a.shape != shape:
                violations.append(f"B must be {d}x{d}, got shape {a.shape}" if label == "B"
                                  else f"{label} must have length d={d}, got shape {a.shape}")
            elif not np.isfinite(a).all():
                violations.append(f"{label} has non-finite entries")
            elif label != "B":
                if (a < 0).any():
                    violations.append(f"{label} must be componentwise >= 0")
            else:
                off = a - np.diag(np.diag(a))
                if (off < 0).any():
                    i, j = np.unravel_index(np.argmin(off), off.shape)
                    violations.append(
                        f"B not essentially non-negative: entry ({i + 1},{j + 1}) = {a[i, j]} < 0")

    if len(params.mu) != d:
        violations.append(f"mu must contain exactly d={d} measures, got {len(params.mu)}")

    # The well-formed measures' atoms in one table, mu_1, ..., mu_d, then nu,
    # so spans[i] is the slice of walk index i = -1, 0, ..., d - 1. Only
    # when an atom fails a rule is each measure checked on its own slice,
    # for the messages. Each atom's term of its admissibility integral is
    # formed on the whole table; a failed measure's terms are never read.
    # Huge but finite atoms overflow an integral to inf, which is reported
    # as a violation or a failed moment order, not as a numpy warning.
    measures = (*params.mu, params.nu)
    faults = []  # what is malformed in each measure's shapes, if anything
    for m in measures:
        mw, mz = m.weights, m.points
        if mw.ndim != 1:
            faults.append(f"atom weights must be numbers, got shape {mw.shape}")
        elif mz.ndim != 2 or (len(mw) and mz.shape[1] != d):  # an empty one's width is never read
            faults.append(f"atom points must lie in R^{d}, got shape {mz.shape}")
        elif len(mw) != len(mz):
            faults.append(f"{len(mw)} weights but {len(mz)} points")
        else:
            faults.append(None)
    if any(faults):
        measures = [JumpMeasure.empty(1) if f else m for f, m in zip(faults, measures)]
    Z, w, spans = _atom_table(measures)
    clean = True
    # a jump-free model does no atom arithmetic
    with np.errstate(over="ignore", invalid="ignore") if w is not None else nullcontext():
        if w is not None:
            r = np.sqrt(np.add.reduce(Z * Z, axis=1))  # |z| of each atom
            # weights in (0, inf), coordinates in [0, inf), |z| > 0; a NaN
            # fails every comparison
            clean = bool(0 < w.min() and w.max() < math.inf and 0 <= Z.min()
                         and Z.max() < math.inf and r.min() > 0)
            # 1 ^ |z| on nu, |z| ^ |z|^2 + sum_{j != i} z_j on mu_i
            other = Z.sum(axis=1)
            for i, s in enumerate(spans[:min(d, len(params.mu))]):
                other[s] -= Z[s, i]
            terms = np.minimum(r, r**2) + other
            terms[spans[-1]] = np.minimum(1.0, r[spans[-1]])

        # nu, then mu_1, ..., mu_d: each measure's structure, then its own
        # admissibility integral (and, for a report, its mass and norm
        # tails); nu gates moment orders 1, 2 and 4, each mu_i orders 2 and 4
        for i in range(-1, len(params.mu)):
            name, own = ("nu", "min_1_norm") if i < 0 else (f"mu[{i + 1}]", "admissibility")
            s, failed = spans[i], len(violations)
            if faults[i]:
                violations.append(f"{name}: {faults[i]}")
            elif not clean and s.start < s.stop:
                if not (np.isfinite(w[s]).all() and np.isfinite(Z[s]).all()):
                    violations.append(f"{name}: non-finite atom data")
                if (w[s] <= 0).any():
                    bad = int(np.argmax(w[s] <= 0))
                    violations.append(
                        f"{name}: atom {bad + 1} has non-positive weight {w[s][bad]}")
                if (Z[s] < 0).any():
                    violations.append(
                        f"{name}: atom point with negative coordinate (support must be in R_+^d)")
                if (r[s] == 0).any():
                    violations.append(
                        f"{name}: atom at the origin is outside U_d = R_+^d \\ {{0}}")
            if len(violations) > failed:  # a failed measure has no integrals
                if order_ok is not None:
                    for k in ((1, 2, 4) if i < 0 else (2, 4)):
                        order_ok[k] = False
                continue
            # an empty measure's integrals are 0 without any numpy sum
            empty = s.start == s.stop
            own_val = 0.0 if empty else float(w[s] @ terms[s])
            if integrals is not None:
                integrals[f"{name}.mass"] = 0.0 if empty else float(w[s].sum())
                integrals[f"{name}.{own}"] = own_val
                for k in (1, 2, 4):
                    tail = 0.0 if empty else float(w[s] @ (r[s]**k * (r[s] >= 1.0)))
                    integrals[f"{name}.norm{k}_tail"] = tail
                    if i < 0 or k > 1:
                        order_ok[k] &= math.isfinite(tail)
            if not math.isfinite(own_val):
                violations.append("nu: integral of 1 ^ |z| is not finite" if i < 0
                                  else f"{name}: admissibility integral is not finite")
    return violations, (Z, w, spans)


def validate(params: CbiParams) -> ValidationReport:
    """Check every admissibility condition and evaluate all moment integrals.

    Purely reporting: structural problems (wrong mu length, negative
    weights, atoms at 0, shape mismatches) become violations, never
    exceptions. Integrals are exact weighted atom sums; for well-formed
    finite atom lists every moment order is automatically finite.
    """
    integrals: dict[str, float] = {}
    order_ok = {1: True, 2: True, 4: True}
    violations, _ = admissibility_violations(params, integrals, order_ok)
    return ValidationReport(
        admissible=not violations,
        moment_order_ok={k: bool(v) for k, v in order_ok.items()},
        computed_integrals=integrals,
        violations=violations,
    )
